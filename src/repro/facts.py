"""Records out of untrusted facts: the one validator.

What is read from a file or a socket is JSON — ``dict`` / ``list`` /
``str`` / ``int`` / ``float`` / ``bool`` / ``None`` — plus one ``bytes``
body.  :func:`from_facts` turns such a ``dict`` into a dataclass only if
it names exactly the dataclass's fields and every value has the type
the field is annotated with (``bool`` is not an ``int``, an ``int`` may
stand where a ``float`` is asked for and stays an ``int``, a JSON list
becomes the ``List`` or ``Tuple`` annotated — a fixed ``Tuple`` only of
its length — nested dataclasses recurse); anything else raises, which a
store counts as a corrupt entry and the wire as a corrupt frame.  The way
out is ``dataclasses.asdict``.
"""

from __future__ import annotations

from dataclasses import is_dataclass
from functools import lru_cache
from typing import Union, get_args, get_origin, get_type_hints

_hints = lru_cache(maxsize=None)(get_type_hints)


def from_facts(cls, facts):
    """``cls(**facts)``, once ``facts`` is exactly its typed fields."""
    hints = _hints(cls)
    if type(facts) is not dict or facts.keys() != hints.keys():
        raise TypeError(
            f"{cls.__name__} facts must be exactly the fields {sorted(hints)}"
        )
    return cls(**{name: _checked(hint, facts[name]) for name, hint in hints.items()})


def _checked(hint, value):
    if type(value) is hint or (hint is float and type(value) is int):
        return value
    origin = get_origin(hint)
    if origin is Union:  # Optional[...] and int-or-float
        for arm in get_args(hint):
            try:
                return _checked(arm, value)
            except TypeError:
                continue
    elif origin in (list, tuple) and type(value) is list:
        items = get_args(hint)
        if origin is list or items[-1] is ...:
            return origin(_checked(items[0], element) for element in value)
        if len(items) == len(value):  # a fixed-length tuple
            return tuple(map(_checked, items, value))
    elif is_dataclass(hint):
        return from_facts(hint, value)
    raise TypeError(f"expected {hint}, got {type(value).__name__}")
