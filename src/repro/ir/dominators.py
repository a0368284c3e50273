"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm).

Used by loop detection and by the optimizer's global passes.  Operates on
block names, which are stable identifiers within one function.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .cfg import FunctionIR


class DominatorTree:
    """Immediate-dominator mapping for one function's CFG."""

    def __init__(self, function: FunctionIR):
        self._function = function
        self._rpo = _reverse_postorder(function)
        self._rpo_index = {name: i for i, name in enumerate(self._rpo)}
        self.idom: Dict[str, Optional[str]] = self._compute()

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexive)."""
        entry = self._function.entry.name
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
        while node != self._function.entry.name:
            node = self.idom[node]
            chain.append(node)
        return chain

    def _compute(self) -> Dict[str, Optional[str]]:
        entry = self._function.entry.name
        preds = self._function.predecessors()
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


def _reverse_postorder(function: FunctionIR) -> List[str]:
    """Block names in reverse postorder from the entry."""
    block_map = function.block_map()
    visited = set()
    postorder: List[str] = []

    def visit(name: str) -> None:
        stack = [(name, iter(block_map[name].successors()))]
        visited.add(name)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(block_map[succ].successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(current)
                stack.pop()

    visit(function.entry.name)
    return list(reversed(postorder))


def compute_dominators(function: FunctionIR) -> DominatorTree:
    """Build the dominator tree (unreachable blocks must be removed first)."""
    return DominatorTree(function)
