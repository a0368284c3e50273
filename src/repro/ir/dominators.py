"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm).

Used by loop detection.  Operates on block names, which are stable
identifiers within one function.  A function's tree is built once per
CFG shape, on the first read of its :attr:`Cfg.dominators
<repro.ir.cfg.Cfg.dominators>`; unreachable blocks must be removed first.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .cfg import Cfg


class DominatorTree:
    """Immediate-dominator mapping for one function's CFG."""

    def __init__(self, cfg: Cfg):
        self._entry = cfg.order[0]
        self._rpo = _reverse_postorder(cfg)
        self._rpo_index = {name: i for i, name in enumerate(self._rpo)}
        self.idom: Dict[str, Optional[str]] = self._compute(cfg.preds)

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexive)."""
        entry = self._entry
        idom = self.idom
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            if node == entry:
                return False
            node = idom[node]
        return False

    def dominators_of(self, name: str) -> List[str]:
        """All dominators of ``name``, from itself up to the entry block."""
        chain = [name]
        node = name
        while node != self._entry:
            node = self.idom[node]
            chain.append(node)
        return chain

    def _compute(self, preds: Dict[str, List[str]]) -> Dict[str, Optional[str]]:
        entry = self._entry
        idom: Dict[str, Optional[str]] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for name in self._rpo:
                if name == entry:
                    continue
                processed = [p for p in preds[name] if p in idom]
                if not processed:
                    continue
                new_idom = processed[0]
                for p in processed[1:]:
                    new_idom = self._intersect(new_idom, p, idom)
                if idom.get(name) != new_idom:
                    idom[name] = new_idom
                    changed = True
        idom[entry] = None
        return idom

    def _intersect(self, a: str, b: str, idom: Dict[str, Optional[str]]) -> str:
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a


def _reverse_postorder(cfg: Cfg) -> List[str]:
    """Block names in reverse postorder from the entry."""
    succs = cfg.succs
    entry = cfg.order[0]
    visited = {entry}
    postorder: List[str] = []
    stack = [(entry, iter(succs[entry]))]
    while stack:
        current, successors = stack[-1]
        for succ in successors:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            postorder.append(current)
            stack.pop()
    return postorder[::-1]
