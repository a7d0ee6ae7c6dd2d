//! Single-flight LRU cache with a weight budget.
//!
//! One cache serves both caching layers of the daemon: rendered artifacts
//! keyed by canonical job string (weighed in key plus body bytes) and
//! prepared golden runs keyed by workload alone (weighed 1 each, so the
//! budget is a count). Keys are full canonical strings, so
//! collisions are impossible by construction.
//!
//! The cache is *single-flight*: when several callers ask for the same
//! key concurrently, exactly one computes while the rest block and then
//! reuse the stored value. Waiters count as hits, so under a
//! concurrency-stress run the hit counter equals exactly
//! `total requests − distinct keys`. A compute that fails or unwinds
//! stores nothing and wakes its waiters, which then retry as computers
//! themselves.
//!
//! Eviction is least-recently-used by access stamp and driven purely by
//! the budget, so behaviour is deterministic for a deterministic request
//! sequence.

use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Snapshot of the cache counters, readable while the cache is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a stored value (includes single-flight waiters).
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries evicted to respect the budget.
    pub evictions: u64,
    /// Values heavier than the whole budget (returned, never stored).
    pub too_large: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Weight currently stored.
    pub weight: u64,
    /// Configured weight budget.
    pub budget: u64,
}

struct Entry<V> {
    value: V,
    weight: usize,
    stamp: u64,
}

struct Inner<V> {
    map: HashMap<String, Entry<V>>,
    /// Keys currently being computed by some thread.
    inflight: HashSet<String>,
    stamp: u64,
    weight: usize,
    stats: CacheStats,
}

/// Content-addressed cache with single-flight computation and LRU
/// eviction under a weight budget.
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    done: Condvar,
    budget: usize,
    weigh: fn(&str, &V) -> usize,
}

/// Clears an in-flight key and wakes its waiters when dropped, so a
/// compute that unwinds cannot leave them blocked forever.
struct Flight<'a, V> {
    cache: &'a ResultCache<V>,
    key: &'a str,
}

impl<V> Drop for Flight<'_, V> {
    fn drop(&mut self) {
        self.cache.lock().inflight.remove(self.key);
        self.cache.done.notify_all();
    }
}

impl<V> ResultCache<V> {
    /// The lock is never held across a compute, so a poisoned guard still
    /// protects consistent state.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V: Clone> ResultCache<V> {
    /// A cache holding values whose summed `weigh(key, value)` stays
    /// within `budget`.
    pub fn new(budget: usize, weigh: fn(&str, &V) -> usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                inflight: HashSet::new(),
                stamp: 0,
                weight: 0,
                stats: CacheStats::default(),
            }),
            done: Condvar::new(),
            budget,
            weigh,
        }
    }

    /// Look up `key`, computing and storing the value on a miss.
    ///
    /// Returns the value plus `true` when it was served from the cache
    /// (including waiting on another thread's in-flight compute).
    pub fn get_or_compute<E>(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let mut inner = self.lock();
        loop {
            let state = &mut *inner;
            if let Some(entry) = state.map.get_mut(key) {
                state.stamp += 1;
                entry.stamp = state.stamp;
                state.stats.hits += 1;
                return Ok((entry.value.clone(), true));
            }
            if !inner.inflight.contains(key) {
                break;
            }
            inner = self
                .done
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.stats.misses += 1;
        inner.inflight.insert(key.to_string());
        drop(inner);

        let flight = Flight { cache: self, key };
        let value = compute()?;
        self.insert(key, value.clone());
        drop(flight);
        Ok((value, false))
    }

    fn insert(&self, key: &str, value: V) {
        let weight = (self.weigh)(key, &value);
        let mut inner = self.lock();
        if weight > self.budget {
            inner.stats.too_large += 1;
            return;
        }
        while inner.weight + weight > self.budget {
            // Evict the least-recently-used entry.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = inner.map.remove(&victim).map_or(0, |e| e.weight);
            inner.weight -= evicted;
            inner.stats.evictions += 1;
        }
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.weight += weight;
        inner.map.insert(
            key.to_string(),
            Entry {
                value,
                weight,
                stamp,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len() as u64,
            weight: inner.weight as u64,
            budget: self.budget as u64,
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::Arc;

    type Bytes = ResultCache<Arc<String>>;

    fn bytes(budget: usize) -> Bytes {
        ResultCache::new(budget, |k, v| k.len() + v.len())
    }

    fn ok(v: &str) -> Result<Arc<String>, Infallible> {
        Ok(Arc::new(v.to_string()))
    }

    /// Looks `key` up with a compute that must not run.
    fn hit(cache: &Bytes, key: &str) -> Arc<String> {
        let (v, hit) = cache
            .get_or_compute(key, || -> Result<Arc<String>, Infallible> {
                panic!("{key} must be cached")
            })
            .unwrap();
        assert!(hit);
        v
    }

    /// Whether `key` is absent: a failing compute runs and stores nothing.
    fn absent(cache: &Bytes, key: &str) -> bool {
        cache.get_or_compute(key, || Err(())).is_err()
    }

    #[test]
    fn hit_after_miss_returns_same_bytes() {
        let cache = bytes(1 << 20);
        let (a, hit_a) = cache.get_or_compute("k", || ok("value")).unwrap();
        let b = hit(&cache, "k");
        assert!(!hit_a);
        assert_eq!(*a, *b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Each entry is key (2 bytes) + value (8 bytes) = 10 bytes.
        let cache = bytes(25);
        cache.get_or_compute("k1", || ok("aaaaaaaa")).unwrap();
        cache.get_or_compute("k2", || ok("bbbbbbbb")).unwrap();
        // Touch k1 so k2 is the LRU victim.
        hit(&cache, "k1");
        cache.get_or_compute("k3", || ok("cccccccc")).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        hit(&cache, "k1");
        hit(&cache, "k3");
        assert!(absent(&cache, "k2"));
    }

    #[test]
    fn oversized_value_not_stored_but_served() {
        let cache = bytes(4);
        let (v, hit) = cache.get_or_compute("k", || ok("way too large")).unwrap();
        assert!(!hit);
        assert_eq!(*v, "way too large");
        let s = cache.stats();
        assert_eq!(s.too_large, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn failed_compute_stores_nothing() {
        let cache = bytes(1 << 20);
        let r: Result<_, &str> = cache.get_or_compute("k", || Err("boom"));
        assert!(r.is_err());
        assert!(absent(&cache, "k"));
    }

    #[test]
    fn panicking_compute_clears_its_flight() {
        let cache = bytes(1 << 20);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute("k", || -> Result<Arc<String>, Infallible> {
                panic!("compute fails hard")
            })
        }));
        assert!(unwound.is_err());
        assert!(cache.lock().inflight.is_empty());
        // A later lookup computes instead of waiting on the dead flight.
        let (v, hit) = cache.get_or_compute("k", || ok("value")).unwrap();
        assert!(!hit);
        assert_eq!(*v, "value");
    }

    #[test]
    fn single_flight_dedupes_concurrent_identical_jobs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = Arc::new(bytes(1 << 20));
        let computes = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (v, _hit) = cache
                    .get_or_compute("k", || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        ok("shared")
                    })
                    .unwrap();
                assert_eq!(*v, "shared");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }
}
