//! SNIC-resident hot-key cache and on-NIC compute offload.
//!
//! Lynx's SmartNIC pipeline normally only *dispatches* and *forwards*:
//! every request pays the full mqueue → RDMA → accelerator round trip.
//! Following RecoNIC/λ-NIC (see PAPERS.md), this module lets the SNIC
//! answer a request itself, before any mqueue slot or RDMA verb is
//! allocated:
//!
//! * [`SnicCache`] — a deterministic per-lane hot-key cache (CLOCK
//!   eviction over a byte budget) consulted at the dispatch stage. A hit
//!   replies straight from the SNIC on the batched UDP path; a miss takes
//!   the unchanged accelerator path, and the response populates the cache
//!   on its way back through the forwarder. SETs write through:
//!   dispatched to the accelerator as usual, with the cached entry marked
//!   stale on every lane. Stale entries are invisible to normal lookups
//!   but can be served under overload (serve-stale degradation, see
//!   [`ControlConfig::degrade_occupancy`](crate::ControlConfig)).
//! * [`CacheProtocol`] — the application-provided classifier that tells
//!   the cache which payloads are GETs/SETs and which responses are
//!   cacheable values. The server core stays application-agnostic; the
//!   kv wire format lives in `lynx-apps`.
//! * [`SnicKernel`] — an on-NIC compute hook: a small application kernel
//!   (AES, vecscale) the dispatch stage may run on spare SNIC-core
//!   cycles when the service's mqueues back up, charged against the
//!   per-lane CPU cost model so the simulation stays honest.
//!
//! Everything here is deterministic by construction: the CLOCK hand
//! walks a plain `Vec` of slots (never a `HashMap` iteration order), so
//! same-seed runs stay byte-identical across replays and thread
//! counts.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use crate::validate::{invalid, Validate};

/// Configuration of the SNIC-resident hot-key cache.
///
/// Disabled by default; enable via
/// [`LynxServerBuilder::cache`](crate::LynxServerBuilder::cache) together
/// with a [`CacheProtocol`] describing the application's wire format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch. When `false` every request takes the accelerator
    /// path exactly as before.
    pub enabled: bool,
    /// Byte budget *per pipeline lane*. Each SNIC core owns a private
    /// cache (shared-nothing, like the dispatch shards), so total cache
    /// memory is `bytes_per_lane * snic_cores`.
    pub bytes_per_lane: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            bytes_per_lane: 1 << 20,
        }
    }
}

impl CacheConfig {
    /// A disabled cache (the default).
    pub fn disabled() -> CacheConfig {
        CacheConfig::default()
    }
}

impl Validate for CacheConfig {
    fn validate(&self) -> crate::Result<()> {
        if self.enabled && self.bytes_per_lane == 0 {
            return Err(invalid(
                "cache.bytes_per_lane",
                "an enabled cache needs a non-zero byte budget",
            ));
        }
        Ok(())
    }
}

/// How the cache should treat one request payload.
///
/// Produced by [`CacheProtocol::classify`]; the embedded key is the
/// application-level cache key (e.g. the kv key bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheOp {
    /// A read: eligible for a cache hit, and its response may populate
    /// the cache.
    Get(Vec<u8>),
    /// A write: dispatched to the accelerator unchanged (write-through),
    /// with any cached entry for the key invalidated on every lane.
    Set(Vec<u8>),
    /// Anything else: bypasses the cache entirely.
    Other,
}

/// What the forwarder owes the cache when an accelerator-path request's
/// response comes back, carried in the request's [`ReqCtx`](crate::ReqCtx)
/// beside its mqueue slot. Keys are namespaced by service (and tenant
/// function), as looked up at the dispatch stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheTicket {
    /// A GET miss holding the fill lease for `key` on lane `lane` (see
    /// [`SnicCache::begin_fill`]): the response fills under `token`, or
    /// the lease is abandoned.
    Fill {
        /// The pipeline lane whose cache issued the lease.
        lane: usize,
        /// The namespaced cache key.
        key: Vec<u8>,
        /// The lease token.
        token: u64,
    },
    /// A write-through SET of the namespaced key: every lane invalidates
    /// it again before the SET's reply leaves, so a GET that ran ahead of
    /// the SET on another mqueue cannot leave the old value cached past
    /// the acknowledgement.
    Set(Vec<u8>),
}

/// Application-side wire-format knowledge the cache needs.
///
/// The server core never parses application payloads itself; deployments
/// that enable the cache supply an implementation for their protocol
/// (see `lynx-bench`'s kv adapter for the memcached wire format).
pub trait CacheProtocol: fmt::Debug {
    /// Classifies one request payload.
    fn classify(&self, payload: &[u8]) -> CacheOp;

    /// Whether a response payload is a cacheable value (e.g. a kv
    /// `Value` response, but not a `Miss` or an error).
    fn cacheable_response(&self, response: &[u8]) -> bool;
}

type ClassifyFn = Box<dyn Fn(&[u8]) -> CacheOp>;
type CacheableFn = Box<dyn Fn(&[u8]) -> bool>;

/// A [`CacheProtocol`] built from closures, for tests and ad-hoc
/// deployments that don't want a named type.
pub struct FnCacheProtocol {
    classify: ClassifyFn,
    cacheable: CacheableFn,
}

impl FnCacheProtocol {
    /// Wraps a classifier and a response filter.
    pub fn new(
        classify: impl Fn(&[u8]) -> CacheOp + 'static,
        cacheable: impl Fn(&[u8]) -> bool + 'static,
    ) -> FnCacheProtocol {
        FnCacheProtocol {
            classify: Box::new(classify),
            cacheable: Box::new(cacheable),
        }
    }
}

impl fmt::Debug for FnCacheProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnCacheProtocol").finish_non_exhaustive()
    }
}

impl CacheProtocol for FnCacheProtocol {
    fn classify(&self, payload: &[u8]) -> CacheOp {
        (self.classify)(payload)
    }

    fn cacheable_response(&self, response: &[u8]) -> bool {
        (self.cacheable)(response)
    }
}

/// An application kernel the SNIC can run at the dispatch stage.
///
/// When a service's mqueues back up past the configured occupancy (see
/// [`LynxServerBuilder::snic_compute`](crate::LynxServerBuilder::snic_compute)),
/// the dispatcher offers the request to the kernel instead of queueing
/// it. Returning `Some(response)` short-circuits the accelerator path;
/// the SNIC charges [`work`](SnicKernel::work) against the lane's CPU
/// cost model and replies directly. Returning `None` falls through to
/// the normal mqueue path (e.g. for request types the kernel does not
/// implement).
pub trait SnicKernel: fmt::Debug {
    /// Kernel name (used in traces).
    fn name(&self) -> &str;

    /// CPU time one invocation costs *on a SNIC core*. Implementations
    /// wrapping a host-calibrated `RequestProcessor` service time must
    /// scale it by the SNIC core's relative speed themselves (the
    /// wimpy ARM cores run a fraction of Xeon speed; see
    /// `BluefieldProfile::RELATIVE_SPEED`).
    fn work(&self, request: &[u8]) -> Duration;

    /// Runs the kernel. `None` means "not offloadable, take the
    /// accelerator path".
    fn execute(&self, request: &[u8]) -> Option<Vec<u8>>;
}

#[derive(Debug)]
struct Slot {
    key: Vec<u8>,
    response: Vec<u8>,
    referenced: bool,
    stale: bool,
    live: bool,
}

/// A deterministic hot-key cache with CLOCK eviction over a byte budget.
///
/// One instance lives on each pipeline lane (shared-nothing, matching
/// the dispatch sharding). The index is a `HashMap` used only for exact
/// key lookup; eviction walks the slot vector with a clock hand, so no
/// hash-iteration order ever leaks into the simulation.
///
/// Invalidations mark entries *stale* rather than freeing them: a stale
/// entry misses under normal operation but can still be served when the
/// control plane degrades to cache-only answers under overload
/// (serve-stale). Stale entries remain eviction candidates like any
/// other slot.
///
/// # Fill leases
///
/// A miss's response only populates the cache after a round trip to the
/// accelerator, during which a write-through SET may overwrite the key.
/// Filling unconditionally would resurrect the pre-SET value with the
/// stale bit cleared — a fresh lookup could then serve the overwritten
/// value forever. Memcached-style leases close the race: the first miss
/// takes a lease ([`SnicCache::begin_fill`]; concurrent misses for the
/// same key get none and simply don't fill), an invalidation voids it,
/// and the response is only admitted when its lease is still current
/// ([`SnicCache::fill_leased`]).
#[derive(Debug)]
pub struct SnicCache {
    budget: usize,
    bytes: usize,
    index: HashMap<Vec<u8>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    hand: usize,
    len: usize,
    /// Outstanding fill leases: key → the token of the first in-flight
    /// miss for it. Exact-key access only — no iteration order can leak.
    leases: HashMap<Vec<u8>, u64>,
    /// Monotonic lease token source.
    lease_seq: u64,
}

impl SnicCache {
    /// Creates an empty cache with the given byte budget.
    pub fn new(budget: usize) -> SnicCache {
        SnicCache {
            budget,
            bytes: 0,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            len: 0,
            leases: HashMap::new(),
            lease_seq: 0,
        }
    }

    /// Bytes currently cached (keys + responses).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of live entries (including stale ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn entry_cost(key: &[u8], response: &[u8]) -> usize {
        key.len() + response.len()
    }

    /// Looks up `key`. A fresh entry always hits; a stale entry hits
    /// only when `allow_stale` (serve-stale degradation). Hits set the
    /// CLOCK reference bit.
    pub fn lookup(&mut self, key: &[u8], allow_stale: bool) -> Option<&[u8]> {
        let &i = self.index.get(key)?;
        let slot = &mut self.slots[i];
        debug_assert!(slot.live);
        if slot.stale && !allow_stale {
            return None;
        }
        slot.referenced = true;
        Some(&slot.response)
    }

    /// Inserts or replaces `key → response`, clearing any stale mark and
    /// evicting with the clock hand until the budget holds. Entries
    /// larger than the whole budget are refused (returns `false`).
    pub fn fill(&mut self, key: &[u8], response: &[u8]) -> bool {
        if Self::entry_cost(key, response) > self.budget {
            return false;
        }
        if let Some(&i) = self.index.get(key) {
            let slot = &mut self.slots[i];
            self.bytes -= slot.response.len();
            self.bytes += response.len();
            slot.response = response.to_vec();
            slot.referenced = true;
            slot.stale = false;
        } else {
            let slot = Slot {
                key: key.to_vec(),
                response: response.to_vec(),
                referenced: true,
                stale: false,
                live: true,
            };
            self.bytes += Self::entry_cost(key, response);
            let i = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = slot;
                    i
                }
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            self.index.insert(key.to_vec(), i);
            self.len += 1;
        }
        self.evict_to_budget();
        true
    }

    /// Takes a fill lease for `key` at miss time. The returned token must
    /// accompany the eventual [`SnicCache::fill_leased`]. First holder
    /// wins: while a lease for the key is outstanding, concurrent misses
    /// get `None` (their responses are served but not cached) — a
    /// same-key miss storm warms the cache exactly once instead of each
    /// newcomer voiding its predecessor's fill.
    pub fn begin_fill(&mut self, key: &[u8]) -> Option<u64> {
        if self.leases.contains_key(key) {
            return None;
        }
        self.lease_seq += 1;
        let token = self.lease_seq;
        self.leases.insert(key.to_vec(), token);
        Some(token)
    }

    /// Inserts `key → response` only if the lease taken at miss time is
    /// still current — i.e. no invalidation happened while the request
    /// was in flight. The lease is consumed either way; a voided lease
    /// leaves the cache untouched and returns `false`.
    pub fn fill_leased(&mut self, key: &[u8], response: &[u8], token: u64) -> bool {
        if self.leases.get(key) != Some(&token) {
            return false;
        }
        self.leases.remove(key);
        self.fill(key, response)
    }

    /// Releases a fill lease whose response will never arrive (request
    /// dropped, offloaded, lost to a fault, or its response was not
    /// cacheable), so a later miss can lease the key again. A lease the
    /// token no longer owns is left alone.
    pub fn abandon_fill(&mut self, key: &[u8], token: u64) {
        if self.leases.get(key) == Some(&token) {
            self.leases.remove(key);
        }
    }

    /// Outstanding fill leases (for tests and introspection).
    pub fn leases(&self) -> usize {
        self.leases.len()
    }

    /// Marks any entry for `key` stale and voids any outstanding fill
    /// lease for it, so an in-flight miss response dispatched before this
    /// write cannot resurrect the overwritten value. Returns whether an
    /// entry was present (and fresh) to invalidate.
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        self.invalidate_keeping(key, None)
    }

    /// Like [`SnicCache::invalidate`], except that the outstanding fill
    /// lease survives when its token is `keep` — a miss known to read the
    /// key only after the write it is invalidated for.
    pub fn invalidate_keeping(&mut self, key: &[u8], keep: Option<u64>) -> bool {
        if self.leases.get(key) != keep.as_ref() {
            self.leases.remove(key);
        }
        match self.index.get(key) {
            Some(&i) => {
                let slot = &mut self.slots[i];
                let was_fresh = !slot.stale;
                slot.stale = true;
                was_fresh
            }
            None => false,
        }
    }

    fn evict_to_budget(&mut self) {
        // Second-chance CLOCK sweep over the slot vector. Terminates:
        // each full revolution either clears at least one reference bit
        // or evicts, and the newly-filled entry's own reference bit can
        // be cleared and the entry evicted if it alone exceeds pressure.
        while self.bytes > self.budget && self.len > 0 {
            if self.slots.is_empty() {
                break;
            }
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[i];
            if !slot.live {
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            self.bytes -= Self::entry_cost(&slot.key, &slot.response);
            slot.live = false;
            let key = std::mem::take(&mut slot.key);
            slot.response = Vec::new();
            self.index.remove(&key);
            self.free.push(i);
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_lookup_hits() {
        let mut c = SnicCache::new(1024);
        assert!(c.fill(b"k", b"v"));
        assert_eq!(c.lookup(b"k", false), Some(&b"v"[..]));
        assert_eq!(c.lookup(b"missing", false), None);
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let mut c = SnicCache::new(4);
        assert!(!c.fill(b"key", b"value"));
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn refill_replaces_and_adjusts_bytes() {
        let mut c = SnicCache::new(1024);
        c.fill(b"k", b"aaaaaaaa");
        assert_eq!(c.bytes(), 9);
        c.fill(b"k", b"bb");
        assert_eq!(c.bytes(), 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(b"k", false), Some(&b"bb"[..]));
    }

    #[test]
    fn invalidate_hides_entry_until_refilled() {
        let mut c = SnicCache::new(1024);
        c.fill(b"k", b"v1");
        assert!(c.invalidate(b"k"));
        // Normal lookups miss, serve-stale still sees the old value.
        assert_eq!(c.lookup(b"k", false), None);
        assert_eq!(c.lookup(b"k", true), Some(&b"v1"[..]));
        // Double invalidation reports nothing fresh to invalidate.
        assert!(!c.invalidate(b"k"));
        // A refill resurrects the entry.
        c.fill(b"k", b"v2");
        assert_eq!(c.lookup(b"k", false), Some(&b"v2"[..]));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        // Budget fits exactly two 8-byte entries (1-byte key + 7-byte
        // value each).
        let mut c = SnicCache::new(16);
        c.fill(b"a", b"AAAAAAA");
        c.fill(b"b", b"BBBBBBB");
        assert_eq!(c.len(), 2);
        // Touch "a" so its reference bit survives the first sweep.
        assert!(c.lookup(b"a", false).is_some());
        // Clear fill-time reference bits with one revolution: inserting
        // "d" forces evictions; "b" (unreferenced after the sweep
        // clears bits in vec order) goes before "a".
        c.fill(b"d", b"DDDDDDD");
        assert_eq!(c.len(), 2);
        assert!(c.lookup(b"d", false).is_some(), "new entry must survive");
        assert!(c.bytes() <= 16);
        // Exactly one of a/b survived alongside d.
        let survivors = [b"a", b"b"]
            .iter()
            .filter(|k| c.lookup(&k[..], false).is_some())
            .count();
        assert_eq!(survivors, 1);
    }

    #[test]
    fn eviction_keeps_budget_invariant_under_churn() {
        let mut c = SnicCache::new(64);
        for round in 0..200u32 {
            let key = vec![(round % 16) as u8; 3];
            let val = vec![round as u8; (round % 13) as usize];
            c.fill(&key, &val);
            assert!(c.bytes() <= 64, "budget exceeded at round {round}");
            if round % 5 == 0 {
                c.invalidate(&[(round % 16) as u8; 3][..]);
            }
        }
        // Index and byte accounting stay consistent.
        let live_bytes: usize = c
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| s.key.len() + s.response.len())
            .sum();
        assert_eq!(live_bytes, c.bytes());
        assert_eq!(c.index.len(), c.len());
    }

    #[test]
    fn invalidation_voids_an_outstanding_fill_lease() {
        let mut c = SnicCache::new(1024);
        c.fill(b"k", b"v1");
        // A miss takes a lease; a racing write-through SET voids it, so
        // the in-flight pre-SET response must be refused.
        let token = c.begin_fill(b"k").expect("no lease outstanding");
        assert!(c.invalidate(b"k"));
        assert!(!c.fill_leased(b"k", b"v1-stale", token));
        assert_eq!(
            c.lookup(b"k", false),
            None,
            "stale value must not resurrect"
        );
        assert_eq!(
            c.lookup(b"k", true),
            Some(&b"v1"[..]),
            "serve-stale still sees the pre-SET value"
        );
        // The next miss re-leases and its response fills normally.
        let token = c.begin_fill(b"k").expect("invalidation released the lease");
        assert!(c.fill_leased(b"k", b"v2", token));
        assert_eq!(c.lookup(b"k", false), Some(&b"v2"[..]));
        assert_eq!(c.leases(), 0);
    }

    #[test]
    fn first_lease_wins_a_concurrent_miss_storm() {
        let mut c = SnicCache::new(1024);
        let t1 = c.begin_fill(b"k").expect("first miss leases");
        // Concurrent misses for the same key get no lease: they must not
        // void the first holder's fill, or a miss storm on a hot key
        // would keep the cache cold forever.
        assert_eq!(c.begin_fill(b"k"), None);
        assert_eq!(c.begin_fill(b"k"), None);
        assert!(c.fill_leased(b"k", b"v", t1), "first holder's fill lands");
        assert_eq!(c.lookup(b"k", false), Some(&b"v"[..]));
        assert_eq!(c.leases(), 0);
    }

    #[test]
    fn abandon_releases_only_the_matching_lease() {
        let mut c = SnicCache::new(1024);
        let t1 = c.begin_fill(b"k").expect("first miss leases");
        c.abandon_fill(b"k", t1);
        assert_eq!(c.leases(), 0, "abandon lets a later miss re-lease");
        let t2 = c.begin_fill(b"k").expect("released");
        c.abandon_fill(b"k", t2.wrapping_add(1)); // stranger's token: no-op
        assert_eq!(c.leases(), 1);
        assert!(c.fill_leased(b"k", b"v", t2));
    }

    #[test]
    fn validate_rejects_zero_budget_when_enabled() {
        let cfg = CacheConfig {
            enabled: true,
            bytes_per_lane: 0,
        };
        assert!(cfg.validate().is_err());
        assert!(CacheConfig::disabled().validate().is_ok());
    }
}
