"""A small counting LRU map.

:class:`repro.api.Session` bounds its in-process compiled-program
cache with it; the disk store keeps the same recency discipline with
file mtimes, since its record must survive restarts.  Counters are
public so both layers surface hit/miss/eviction numbers side by side.
"""

from collections import OrderedDict


class LRUCache:
    """An ``OrderedDict``-backed LRU bounded by entry count.

    ``max_entries=None`` means unbounded (counting only).  ``get``
    refreshes recency; ``put`` evicts the least-recently-used entries
    to stay within the bound and reports them to ``on_evict`` (so a
    caller can log or cascade).
    """

    def __init__(self, max_entries=None, on_evict=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        self.max_entries = max_entries
        self.on_evict = on_evict
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key, default=None):
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value):
        self._entries[key] = value
        self._entries.move_to_end(key)
        while self.max_entries is not None \
                and len(self._entries) > self.max_entries:
            evicted_key, evicted_value = self._entries.popitem(last=False)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted_value)
        return value

    def clear(self):
        self._entries.clear()

    def counters(self):
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "max_entries": self.max_entries}
