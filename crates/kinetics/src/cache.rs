//! A cross-request cache of compiled networks.
//!
//! The compile-once/rebind-many pattern ([`CompiledCrn::new`] once,
//! [`CompiledCrn::rebind`] per sweep cell) amortizes compilation *within*
//! one sweep. A long-running process — the batch-simulation server — sees
//! the same networks arrive across many independent requests, so the same
//! pattern deserves to span requests: [`CompiledCache`] stores one
//! default-spec compile per [`Crn::structural_hash`] and serves every
//! structurally identical network from it, rebound to whatever [`SimSpec`]
//! the request wants. Because `rebind` is property-tested equal to a fresh
//! `CompiledCrn::new`, a cache hit is bit-identical to compiling from
//! scratch — caching can never change simulation results.
//!
//! The cache can be bounded: [`CompiledCache::with_capacity`] caps the
//! number of stored structures and evicts the least-recently-used entry
//! to admit a new one. Eviction only discards a memoized compile — the
//! next request for the evicted structure recompiles from the `Crn`,
//! bit-identically — so a bound trades recompilation time for memory and
//! nothing else.

use crate::{CompiledCrn, SimSpec};
use molseq_crn::Crn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One cached compile plus the logical timestamp of its last use.
#[derive(Debug)]
struct CacheSlot {
    compiled: Arc<CompiledCrn>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheMap {
    entries: HashMap<u64, CacheSlot>,
    /// Monotonic use counter backing the LRU order; bumped on every hit
    /// and insert while the map lock is held, so stamps are unique.
    clock: u64,
}

/// A thread-safe, structurally keyed cache of [`CompiledCrn`]s.
///
/// Entries are keyed by [`Crn::structural_hash`] and hold the network
/// compiled under [`SimSpec::default`]; [`get_or_compile`] rebinds the
/// cached entry to the caller's spec. Hit/miss/eviction counters are
/// atomic so a server can report them from its stats path without taking
/// the map lock.
///
/// An unbounded cache ([`new`](Self::new)) never evicts; a bounded one
/// ([`with_capacity`](Self::with_capacity)) holds at most `capacity`
/// structures and evicts the least-recently-used entry on insert.
///
/// [`get_or_compile`]: Self::get_or_compile
///
/// # Examples
///
/// ```
/// use molseq_crn::Crn;
/// use molseq_kinetics::{CompiledCache, CompiledCrn, SimSpec};
///
/// let cache = CompiledCache::new();
/// let crn: Crn = "X + Y -> Z @fast".parse().unwrap();
/// let spec = SimSpec::default();
/// let first = cache.get_or_compile(&crn, &spec);
/// let again = cache.get_or_compile(&crn, &spec);
/// assert_eq!(*first, *again);
/// assert_eq!(again, CompiledCrn::new(&crn, &spec).into());
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct CompiledCache {
    map: Mutex<CacheMap>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CompiledCache {
    /// An empty, unbounded cache with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        CompiledCache::default()
    }

    /// An empty cache bounded to `capacity` stored structures; inserting
    /// past the bound evicts the least-recently-used entry.
    ///
    /// # Panics
    ///
    /// When `capacity` is zero — a cache that can hold nothing would turn
    /// every request into a silent recompile; ask for an unbounded cache
    /// ([`new`](Self::new)) or a real bound instead.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "CompiledCache capacity must be at least 1");
        CompiledCache {
            capacity: Some(capacity),
            ..CompiledCache::default()
        }
    }

    /// The configured bound, or `None` for an unbounded cache.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Returns `crn` compiled under `spec`, compiling only on a structural
    /// miss.
    ///
    /// On a miss the network is compiled under [`SimSpec::default`] and
    /// stored (evicting the least-recently-used entry first when the
    /// cache is at capacity); hit or miss, the stored entry is then
    /// [rebound](CompiledCrn::rebind) to `spec` — except for the exact
    /// default spec, which is served as the stored `Arc` without a copy
    /// (the common case for SSA workloads, whose per-cell variation is the
    /// seed, not the rates).
    #[must_use]
    pub fn get_or_compile(&self, crn: &Crn, spec: &SimSpec) -> Arc<CompiledCrn> {
        let key = crn.structural_hash();
        let entry = {
            let mut map = self.lock_map();
            map.clock += 1;
            let stamp = map.clock;
            match map.entries.get_mut(&key) {
                Some(slot) => {
                    slot.last_used = stamp;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(&slot.compiled)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if let Some(capacity) = self.capacity {
                        while map.entries.len() >= capacity {
                            let coldest = map
                                .entries
                                .iter()
                                .min_by_key(|(_, slot)| slot.last_used)
                                .map(|(&key, _)| key)
                                .expect("a full cache has a coldest entry");
                            map.entries.remove(&coldest);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let compiled = Arc::new(CompiledCrn::new(crn, &SimSpec::default()));
                    map.entries.insert(
                        key,
                        CacheSlot {
                            compiled: Arc::clone(&compiled),
                            last_used: stamp,
                        },
                    );
                    compiled
                }
            }
        };
        if *spec == SimSpec::default() {
            entry
        } else {
            Arc::new(entry.rebind(spec))
        }
    }

    /// Requests served from an existing entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to compile and insert.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries discarded to make room under the capacity bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct network structures currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_map().entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the map, recovering it when a thread panicked while holding
    /// the lock. Every update leaves the map consistent: an entry is
    /// inserted only after its compile returned, and an eviction removes
    /// a whole entry, so a panic mid-compile costs at most the evicted
    /// entries — never a half-built one. One panic therefore cannot wedge
    /// the cache for every later request.
    fn lock_map(&self) -> MutexGuard<'_, CacheMap> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molseq_crn::RateAssignment;
    use proptest::prelude::*;

    fn chain(n: usize) -> Crn {
        let mut crn = Crn::new();
        let ids: Vec<_> = (0..=n).map(|i| crn.species(format!("S{i}"))).collect();
        for w in ids.windows(2) {
            crn.reaction(&[(w[0], 1)], &[(w[1], 1)], molseq_crn::Rate::Fast)
                .unwrap();
        }
        crn
    }

    #[test]
    fn distinct_structures_get_distinct_entries() {
        let cache = CompiledCache::new();
        let spec = SimSpec::default();
        let _ = cache.get_or_compile(&chain(2), &spec);
        let _ = cache.get_or_compile(&chain(3), &spec);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let _ = cache.get_or_compile(&chain(2), &spec);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn default_spec_hits_share_the_stored_allocation() {
        let cache = CompiledCache::new();
        let crn = chain(2);
        let a = cache.get_or_compile(&crn, &SimSpec::default());
        let b = cache.get_or_compile(&crn, &SimSpec::default());
        assert!(Arc::ptr_eq(&a, &b), "no per-hit copy for the default spec");
    }

    #[test]
    fn non_default_spec_is_rebound_not_shared() {
        let cache = CompiledCache::new();
        let crn = chain(2);
        let spec = SimSpec::new(RateAssignment::from_ratio(50.0));
        let hit = cache.get_or_compile(&crn, &spec);
        assert_eq!(*hit, CompiledCrn::new(&crn, &spec));
        // the stored default-spec entry is untouched
        let stored = cache.get_or_compile(&crn, &SimSpec::default());
        assert_eq!(*stored, CompiledCrn::new(&crn, &SimSpec::default()));
    }

    #[test]
    fn concurrent_access_counts_every_request() {
        let cache = CompiledCache::new();
        let crn = chain(4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        let _ = cache.get_or_compile(&crn, &SimSpec::default());
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 128);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_cache() {
        let cache = CompiledCache::new();
        let _ = cache.get_or_compile(&chain(2), &SimSpec::default());
        let outcome = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.map.lock().expect("first lock");
                    panic!("deliberate poison");
                })
                .join()
        });
        assert!(outcome.is_err());
        assert!(cache.map.is_poisoned());
        assert_eq!(cache.len(), 1);
        let hit = cache.get_or_compile(&chain(2), &SimSpec::default());
        assert_eq!(*hit, CompiledCrn::new(&chain(2), &SimSpec::default()));
        let _ = cache.get_or_compile(&chain(3), &SimSpec::default());
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = CompiledCache::with_capacity(0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CompiledCache::new();
        for n in 1..=16 {
            let _ = cache.get_or_compile(&chain(n), &SimSpec::default());
        }
        assert_eq!(cache.capacity(), None);
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn lru_evicts_the_coldest_structure() {
        let cache = CompiledCache::with_capacity(2);
        let spec = SimSpec::default();
        let _ = cache.get_or_compile(&chain(1), &spec); // {1}
        let _ = cache.get_or_compile(&chain(2), &spec); // {1, 2}
        let _ = cache.get_or_compile(&chain(1), &spec); // touch 1 → 2 is coldest
        let _ = cache.get_or_compile(&chain(3), &spec); // evicts 2 → {1, 3}
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        let hits = cache.hits();
        let _ = cache.get_or_compile(&chain(1), &spec);
        let _ = cache.get_or_compile(&chain(3), &spec);
        assert_eq!(cache.hits(), hits + 2, "survivors still hit");
        let _ = cache.get_or_compile(&chain(2), &spec); // recompile miss
        assert_eq!(cache.evictions(), 2);
    }

    proptest! {
        /// Any access sequence respects the bound, balances the counters,
        /// and recompiles evicted structures bit-identically to the first
        /// compile.
        #[test]
        fn bounded_cache_respects_capacity_and_recompiles_identically(
            capacity in 1usize..5,
            accesses in proptest::collection::vec(1usize..9, 1..40),
        ) {
            let cache = CompiledCache::with_capacity(capacity);
            let spec = SimSpec::default();
            let mut first_seen: HashMap<usize, Arc<CompiledCrn>> = HashMap::new();
            for &n in &accesses {
                let got = cache.get_or_compile(&chain(n), &spec);
                prop_assert!(cache.len() <= capacity, "bound violated");
                match first_seen.get(&n) {
                    None => {
                        first_seen.insert(n, got);
                    }
                    // an evicted-and-recompiled entry must be
                    // indistinguishable from the original compile
                    Some(first) => prop_assert_eq!(&*got, &**first),
                }
            }
            prop_assert_eq!(
                cache.hits() + cache.misses(),
                accesses.len() as u64,
                "every access is a hit or a miss"
            );
            prop_assert!(cache.evictions() <= cache.misses());
            prop_assert_eq!(
                cache.len() as u64,
                cache.misses() - cache.evictions(),
                "stored = inserted - evicted"
            );
        }
    }
}
