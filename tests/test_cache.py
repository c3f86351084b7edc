from pihall import hall, structure
from pihall.cache import LRUCache


def test_lru_drops_the_least_recently_used_entry():
    c = LRUCache(2)
    c["a"], c["b"] = 1, 2
    assert c.get("a") == 1  # "a" is now the most recent
    c["c"] = 3
    assert list(c) == ["a", "c"]
    assert c.get("b") is None
    assert (c.hits, c.misses) == (1, 1)
    c["a"] = 4  # storing again refreshes, without growing
    assert list(c.items()) == [("c", 3), ("a", 4)]


def test_clear_empties_and_keeps_the_counters():
    c = LRUCache(3)
    c["a"] = 1
    c.get("a")
    c.get("z")
    c.clear()
    assert len(c) == 0 and c.get("a") is None
    assert (c.hits, c.misses) == (1, 2)


def test_process_caches_are_bounded_lrus():
    # cold benchmark queries empty both by attribute name with .clear()
    assert isinstance(hall._classify_cache, LRUCache)
    assert hall._classify_cache.maxsize == 512
    assert isinstance(structure._table_cache, LRUCache)
    assert structure._table_cache.maxsize == 48
