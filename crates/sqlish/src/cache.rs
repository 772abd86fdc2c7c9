//! A small counting LRU cache.
//!
//! Both caches — the session's plan cache and the serving tier's result
//! cache — need the same three things: bounded capacity with
//! least-recently-used eviction, exact hit/miss/eviction counters for
//! [`fudj_exec::ServingStats`], and deterministic behavior (no
//! wall-clock timestamps — recency is a logical tick).
//!
//! Capacities are small (hundreds to a million entries with `SET`-capped
//! bounds), so eviction does an O(n) scan for the minimum tick instead of
//! maintaining an intrusive list; the scan is trivially correct and the
//! differential tests lean on that.

use std::collections::HashMap;
use std::hash::Hash;

/// Hit/miss/eviction counters of one cache, monotonically increasing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A bounded map with least-recently-used eviction. Capacity 0 is a
/// disabled cache: every `get` misses and `insert` is a no-op.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
    counters: CacheCounters,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> Default for LruCache<K, V> {
    /// A disabled cache (capacity 0); size it with
    /// [`LruCache::set_capacity`].
    fn default() -> Self {
        LruCache::new(0)
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Change the capacity (a live `SET`), evicting LRU entries until the
    /// cache fits.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Look up and touch. Counts a hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.counters.hits += 1;
                Some(&entry.value)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Remove the entry under `key` unless `fresh` accepts it, without
    /// counting anything: an invalidation is neither a hit, a miss nor an
    /// eviction. Returns whether an entry was removed, so the `get` that
    /// follows counts the access as the miss it is.
    pub fn drop_stale(&mut self, key: &K, fresh: impl FnOnce(&V) -> bool) -> bool {
        let stale = self.map.get(key).is_some_and(|e| !fresh(&e.value));
        if stale {
            self.map.remove(key);
        }
        stale
    }

    /// Insert or replace. Replacement does not evict; growth past the
    /// capacity evicts the least-recently-used entry first.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Drop everything, keeping the counters.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            self.map.remove(&k);
            self.counters.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // 1 is now most recent
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.evictions), (3, 1, 1));
    }

    #[test]
    fn replacement_does_not_evict() {
        let mut c: LruCache<u32, u64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: LruCache<u32, u64> = LruCache::new(0);
        c.insert(1, 10);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.counters().misses, 1);
    }

    #[test]
    fn shrinking_capacity_evicts_lru_first() {
        let mut c: LruCache<u32, u64> = LruCache::new(4);
        for k in 0..4 {
            c.insert(k, k as u64);
        }
        assert_eq!(c.get(&0), Some(&0)); // 0 most recent
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evictions, 2);
        assert!(c.get(&0).is_some(), "recent entry survives the shrink");
    }

    #[test]
    fn stale_entries_are_dropped_uncounted() {
        let mut c: LruCache<u32, u64> = LruCache::new(2);
        c.insert(1, 10);
        assert!(!c.drop_stale(&1, |&v| v == 10), "fresh entry stays");
        assert!(!c.drop_stale(&2, |_| false), "absent key: nothing to drop");
        assert!(c.drop_stale(&1, |&v| v == 11));
        assert!(c.is_empty());
        assert_eq!(c.counters(), CacheCounters::default());
        assert_eq!(c.get(&1), None, "the access after a drop is a miss");
    }
}
