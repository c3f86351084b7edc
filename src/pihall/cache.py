"""A bounded least-recently-used cache for the process-wide memo tables."""

from __future__ import annotations

from collections import OrderedDict


class LRUCache(OrderedDict):
    """A dict of at most `maxsize` entries: storing past the bound drops the
    least recently used entry.  `get` marks a hit as recently used and
    counts hits and misses (kept across `clear`)."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        if key in self:
            self.hits += 1
            self.move_to_end(key)
            return self[key]
        self.misses += 1
        return default

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)
