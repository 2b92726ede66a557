"""ContextCache LRU behaviour, cache-key sensitivity, and the
entity-tagged fine-grained invalidation path (tags, sweeps, put guard)."""

import numpy as np
import pytest

from repro.serve import ContextCache, context_cache_key


class TestContextCacheKey:
    def test_equal_inputs_equal_keys(self):
        key_a = context_cache_key(0, "neighborhood", 3, np.array([1, 2]),
                                  np.array([5]), 32, 32, 0.1, 0)
        key_b = context_cache_key(0, "neighborhood", 3, [1, 2], [5],
                                  32, 32, 0.1, 0)
        assert key_a == key_b
        assert hash(key_a) == hash(key_b)

    @pytest.mark.parametrize("field, value", [
        ("epoch", 1),
        ("sampler", "random"),
        ("user", 4),
        ("items", (1, 3)),
        ("supports", (6,)),
        ("n", 16),
        ("m", 16),
        ("reveal", 0.2),
        ("seed", 9),
    ])
    def test_every_field_discriminates(self, field, value):
        base = dict(epoch=0, sampler="neighborhood", user=3,
                    items=(1, 2), supports=(5,), n=32, m=32, reveal=0.1, seed=0)
        changed = {**base, field: value}

        def make(d):
            return context_cache_key(d["epoch"], d["sampler"], d["user"],
                                     d["items"], d["supports"], d["n"], d["m"],
                                     d["reveal"], d["seed"])

        assert make(base) != make(changed)


class TestContextCache:
    def test_get_put_roundtrip(self):
        cache = ContextCache(max_entries=4)
        assert cache.get(("k",)) is None
        cache.put(("k",), "value")
        assert cache.get(("k",)) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ContextCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))          # refresh a; b is now LRU
        cache.put(("c",), 3)
        assert ("a",) in cache
        assert ("b",) not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_clears_everything(self):
        cache = ContextCache(max_entries=4)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_hit_rate(self):
        cache = ContextCache(max_entries=4)
        cache.put(("k",), 1)
        cache.get(("k",))
        cache.get(("nope",))
        assert cache.stats.hit_rate == 0.5

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ContextCache(max_entries=0)


class TestEntityInvalidation:
    def test_evicts_only_intersecting_tags(self):
        cache = ContextCache(max_entries=8)
        cache.put(("a",), 1, users=[1, 2], items=[10])
        cache.put(("b",), 2, users=[3], items=[11, 12])
        cache.put(("c",), 3, users=[4], items=[13])
        evicted, spared = cache.invalidate_entities(users=[2], items=[12])
        assert (evicted, spared) == (2, 1)
        assert ("a",) not in cache and ("b",) not in cache
        assert cache.get(("c",)) == 3
        assert cache.stats.partial_invalidations == 1
        assert cache.stats.entries_evicted == 2
        assert cache.stats.entries_spared == 1
        assert cache.stats.invalidation_precision == pytest.approx(1 / 3)

    def test_untagged_entries_fall_in_every_sweep(self):
        cache = ContextCache(max_entries=8)
        cache.put(("untagged",), 1)
        cache.put(("tagged",), 2, users=[5], items=[])
        evicted, spared = cache.invalidate_entities(users=[99], items=[])
        assert (evicted, spared) == (1, 1)
        assert ("untagged",) not in cache
        assert ("tagged",) in cache

    def test_precision_none_until_first_sweep(self):
        cache = ContextCache(max_entries=4)
        assert cache.stats.invalidation_precision is None
        cache.invalidate_entities(users=[1], items=[])  # empty cache
        assert cache.stats.invalidation_precision is None

    def test_full_invalidate_drops_tags_too(self):
        cache = ContextCache(max_entries=4)
        cache.put(("a",), 1, users=[1], items=[2])
        cache.invalidate()
        assert not cache._tags

    def test_lru_eviction_pops_tag(self):
        cache = ContextCache(max_entries=1)
        cache.put(("a",), 1, users=[1], items=[])
        cache.put(("b",), 2, users=[2], items=[])
        assert list(cache._tags) == [("b",)]

    def test_put_guard_drops_stale_entry(self):
        cache = ContextCache(max_entries=4)
        accepted = cache.put(("stale",), 1, users=[1], items=[2],
                             generation=0,
                             guard=lambda users, items, gen: True)
        assert not accepted
        assert ("stale",) not in cache
        assert cache.stats.stale_puts == 1

    def test_put_guard_passes_fresh_entry(self):
        cache = ContextCache(max_entries=4)
        seen = {}

        def guard(users, items, generation):
            seen["args"] = (tuple(users), tuple(items), generation)
            return False

        assert cache.put(("fresh",), 1, users=[1], items=[2],
                         generation=7, guard=guard)
        assert cache.get(("fresh",)) == 1
        assert seen["args"] == ((1,), (2,), 7)


class TestReverseIndex:
    """The per-entity reverse index that makes sweeps O(touched)."""

    def test_reput_retags_old_entities_no_longer_evict(self):
        cache = ContextCache(max_entries=8)
        cache.put(("k",), 1, users=[1], items=[])
        # Same key re-put under a different tag: the old index entry must
        # be unlinked, or a sweep on user 1 would still evict it.
        cache.put(("k",), 2, users=[2], items=[])
        evicted, spared = cache.invalidate_entities(users=[1], items=[])
        assert (evicted, spared) == (0, 1)
        assert cache.get(("k",)) == 2
        evicted, spared = cache.invalidate_entities(users=[2], items=[])
        assert (evicted, spared) == (1, 0)
        assert ("k",) not in cache

    def test_reput_from_tagged_to_untagged_falls_in_every_sweep(self):
        cache = ContextCache(max_entries=8)
        cache.put(("k",), 1, users=[1], items=[])
        cache.put(("k",), 2)
        evicted, _ = cache.invalidate_entities(users=[99], items=[])
        assert evicted == 1 and ("k",) not in cache

    def test_index_is_empty_after_all_paths_remove_a_key(self):
        cache = ContextCache(max_entries=2)
        cache.put(("a",), 1, users=[2], items=[])
        cache.put(("b",), 2, users=[3], items=[])
        cache.put(("c",), 3, users=[4], items=[])  # LRU eviction unlinks
        cache.invalidate_entities(users=[3, 4], items=[])  # sweep unlinks
        cache.invalidate()  # full clear
        assert not cache._user_index and not cache._item_index
        assert not cache._untagged and not cache._tags

    def test_sweep_touches_only_changed_entities_key_sets(self):
        cache = ContextCache(max_entries=64)
        for key in range(32):
            cache.put((key,), key, users=[key], items=[1000 + key])
        evicted, spared = cache.invalidate_entities(users=[5], items=[1007])
        assert (evicted, spared) == (2, 30)
        assert (5,) not in cache and (7,) not in cache

