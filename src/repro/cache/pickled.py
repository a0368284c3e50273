"""Pickle behind a closed allowlist: the codec of the one tier that
still holds an object graph (``parse/``, checked ASTs) and its
restricted unpickler.  Nothing else in the tree unpickles what it reads.

A cache directory may be shared — the paper's NFS setup — so bytes read
from it are no more trusted than bytes read from a socket: every load
goes through :func:`restricted_loads`, whose global table is exactly
the classes the tier names.  A pickle that references anything else
(``os.system``, any function, any other class) is rejected before it
can construct, let alone call; the store counts it as a corrupt entry.
``find_class`` runs once per distinct class in a pickle, so the check
costs nothing measurable (11.1 ms restricted against 11.6 ms plain for
the eight parse entries of an 8 × ``f_medium`` module).
"""

from __future__ import annotations

import io
import pickle
from typing import Mapping, Tuple

from ..gcpause import collector_paused

Globals = Mapping[Tuple[str, str], type]


class _RestrictedUnpickler(pickle.Unpickler):
    def __init__(self, blob: bytes, allowed: Globals):
        super().__init__(io.BytesIO(blob))
        self.allowed = allowed

    def find_class(self, module: str, name: str):
        cls = self.allowed.get((module, name))
        if cls is None:
            raise pickle.UnpicklingError(
                f"pickle references disallowed global {module}.{name}"
            )
        return cls


def restricted_loads(blob: bytes, allowed: Globals):
    """``pickle.loads`` that can construct nothing outside ``allowed``."""
    return _RestrictedUnpickler(blob, allowed).load()


class PickleCodec:
    """Entry body = the payload's pickle; no facts in the header.

    ``payload_type`` is what an entry must load to (type confusion
    between tiers or schema versions is corruption, never a result);
    ``classes`` are the other globals its pickles reference.
    """

    def __init__(self, payload_type: type, *classes: type):
        self.payload_type = payload_type
        self.allowed = {
            (cls.__module__, cls.__qualname__): cls
            for cls in (payload_type, *classes)
        }

    def pack(self, payload) -> Tuple[dict, bytes]:
        return {}, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def unpack(self, facts: dict, body: bytes):
        with collector_paused():
            payload = restricted_loads(body, self.allowed)
        if not isinstance(payload, self.payload_type):
            raise TypeError(f"cache entry holds {type(payload).__name__}")
        return payload
