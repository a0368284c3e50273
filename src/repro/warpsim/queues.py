"""Bounded FIFO queues — the systolic pathways between adjacent cells."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Union

Number = Union[int, float]


class CellQueue:
    """A bounded FIFO connecting one cell to its right neighbor."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: the queued values, oldest first (the simulator reads its length)
        self.items: Deque[Number] = deque()
        self.total_pushed = 0
        self.total_popped = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def push(self, value: Number) -> None:
        if self.is_full:
            raise OverflowError("push to a full queue (sender must stall)")
        self.items.append(value)
        self.total_pushed += 1

    def pop(self) -> Number:
        if not self.items:
            raise IndexError("pop from an empty queue (receiver must stall)")
        self.total_popped += 1
        return self.items.popleft()

    def drain(self) -> List[Number]:
        """Remove and return everything (used to collect final outputs)."""
        items = list(self.items)
        self.total_popped += len(items)
        self.items.clear()
        return items
