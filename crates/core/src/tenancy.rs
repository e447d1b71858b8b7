//! λ-NIC-style serverless multi-tenancy: a function registry and a
//! SNIC-side match-action admission stage in front of the dispatcher.
//!
//! The paper's multi-tenancy story (§4.5) shares one Lynx runtime between
//! a handful of static services. λ-NIC (see `PAPERS.md`) pushes the same
//! idea to cloud scale: *thousands* of short-lived serverless functions
//! registered on the SmartNIC, matched to incoming requests by header
//! fields and run with per-tenant resource governance. This module brings
//! that model to the Lynx dispatch stage:
//!
//! * [`FunctionRegistry`] — thousands of registered tenants/functions,
//!   each keyed by a [`MatchRule`] over the request payload header.
//! * [`TenantQuota`] — per-tenant admission: a deterministic token bucket
//!   (generalizing the control plane's service-wide bucket,
//!   `lynx_core::control`) plus a bound on accelerator slots in flight.
//!   A quota of zero sheds every request with the same typed
//!   [`Error::Overloaded`](crate::Error) the control plane
//!   uses.
//! * Cold-start modelling — a function whose state is not resident on the
//!   accelerator pays a deterministic warm-up latency
//!   ([`TenancyConfig::cold_start`]) before its first dispatch.
//! * LRU residency — resident function footprints are bounded by
//!   [`TenancyConfig::accel_memory_bytes`]; admitting a cold function
//!   evicts the least-recently-used idle residents. A function with
//!   requests in flight is never evicted mid-run: the eviction is
//!   *deferred* until its last in-flight request drains.
//! * Cache composition — each function declares a [`TenantCacheMode`]:
//!   partition the PR 9 SNIC hot-key cache under a per-function namespace,
//!   or bypass it entirely.
//!
//! Everything here is deterministic by construction: the LRU order lives
//! in a `BTreeSet` keyed by a monotone use sequence, hash maps are used
//! for exact-key lookup only (never iterated), and the token buckets
//! refill from the simulated clock — so same-seed runs stay byte-identical
//! across replays and worker-thread counts.
//!
//! See `docs/TENANCY.md` for the book chapter with a worked 10k-tenant
//! example, and `benches/fig9_tenancy.rs` for the noisy-neighbor
//! isolation experiment at that scale.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use lynx_sim::{SiteCounter, SiteGauge, Telemetry, Time};

use crate::control::TokenBucket;
use crate::validate::invalid;
use crate::{Error, Validate};

/// Identifier of a registered tenant function — its registration index in
/// the [`FunctionRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub u32);

/// How the SNIC matches an incoming request to a registered function —
/// the "match" half of λ-NIC's match-and-run dispatch, evaluated against
/// the request payload before any mqueue slot or RDMA verb is allocated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchRule {
    /// Exact match on the 4-byte little-endian function key at the start
    /// of the payload — the O(1) table lookup that carries 10k-tenant
    /// scale (requests shorter than 4 bytes never match).
    FnKey(u32),
    /// The payload starts with these bytes. Prefix rules are consulted in
    /// registration order after the key table misses; first match wins.
    Prefix(Vec<u8>),
}

/// How a function's traffic interacts with the SNIC hot-key cache
/// (`lynx_core::cache`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TenantCacheMode {
    /// Cacheable as usual, under a per-function key namespace: two
    /// functions using identical application keys never observe each
    /// other's cached values.
    #[default]
    Partition,
    /// This function's requests skip the cache entirely (no lookups, no
    /// fills) — for tenants whose responses must not be served stale or
    /// whose working set would churn the shared lanes.
    Bypass,
}

/// Per-tenant admission contract, enforced at the match-action stage
/// before the service-wide control plane.
///
/// `None` means unlimited. An explicit zero — `rate: Some(0.0)` or
/// `max_in_flight: Some(0)` — sheds *every* request of the tenant with
/// [`Error::Overloaded`](crate::Error): quota-zero is the
/// administrative off-switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantQuota {
    /// Sustained admission rate in requests/second (token-bucket refill).
    pub rate: Option<f64>,
    /// Token-bucket depth: how many back-to-back requests the tenant may
    /// burst above the sustained rate. Ignored when `rate` is `None`.
    pub burst: f64,
    /// Maximum accelerator (mqueue) slots the tenant may occupy at once
    /// across the service's queues — the per-tenant mqueue quota.
    pub max_in_flight: Option<usize>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::unlimited()
    }
}

impl TenantQuota {
    /// No admission limits (the default).
    pub fn unlimited() -> TenantQuota {
        TenantQuota {
            rate: None,
            burst: 0.0,
            max_in_flight: None,
        }
    }

    /// A rate-limited quota: `rate` requests/second sustained, bursting
    /// to `burst`.
    pub fn rate_limited(rate: f64, burst: f64) -> TenantQuota {
        TenantQuota {
            rate: Some(rate),
            burst,
            max_in_flight: None,
        }
    }

    /// The administrative off-switch: every request is shed.
    pub fn zero() -> TenantQuota {
        TenantQuota {
            rate: Some(0.0),
            burst: 0.0,
            max_in_flight: Some(0),
        }
    }
}

impl Validate for TenantQuota {
    fn validate(&self) -> crate::Result<()> {
        if let Some(r) = self.rate {
            if !r.is_finite() || r < 0.0 {
                return Err(invalid(
                    "tenancy.quota.rate",
                    format!("must be a finite rate >= 0 req/s, got {r}"),
                ));
            }
            if r > 0.0 && (self.burst.is_nan() || self.burst < 1.0) {
                return Err(invalid(
                    "tenancy.quota.burst",
                    format!(
                        "a rate-limited tenant needs a burst >= 1 token \
                         (got {}); use rate Some(0.0) to shed everything",
                        self.burst
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// One registered tenant function: its match rule, accelerator-memory
/// footprint, admission quota and cache mode.
#[derive(Clone, Debug)]
pub struct FunctionSpec {
    /// Unique function name (diagnostics; duplicate names are rejected).
    pub name: String,
    /// How requests are matched to this function.
    pub rule: MatchRule,
    /// Accelerator memory the function's state occupies while resident.
    /// Zero-footprint functions are always resident and never evicted.
    pub footprint_bytes: usize,
    /// Per-tenant admission quota.
    pub quota: TenantQuota,
    /// SNIC cache interaction.
    pub cache: TenantCacheMode,
}

impl FunctionSpec {
    /// A function with default footprint (64 KiB), unlimited quota and
    /// partitioned cache access.
    pub fn new(name: impl Into<String>, rule: MatchRule) -> FunctionSpec {
        FunctionSpec {
            name: name.into(),
            rule,
            footprint_bytes: 64 << 10,
            quota: TenantQuota::unlimited(),
            cache: TenantCacheMode::default(),
        }
    }

    /// Sets the accelerator-memory footprint.
    pub fn footprint(mut self, bytes: usize) -> FunctionSpec {
        self.footprint_bytes = bytes;
        self
    }

    /// Sets the admission quota.
    pub fn quota(mut self, quota: TenantQuota) -> FunctionSpec {
        self.quota = quota;
        self
    }

    /// Sets the cache mode.
    pub fn cache(mut self, mode: TenantCacheMode) -> FunctionSpec {
        self.cache = mode;
        self
    }
}

/// The function registry: the "thousands of registered tenants" side of
/// λ-NIC's match-and-run model. Registration is O(1) per function; request
/// matching is an exact-key table lookup with an ordered prefix-rule
/// fallback.
#[derive(Clone, Debug, Default)]
pub struct FunctionRegistry {
    specs: Vec<FunctionSpec>,
    /// Exact-key lookup only — never iterated, so its nondeterministic
    /// iteration order can never leak into the simulation.
    by_key: HashMap<u32, u32>,
    by_name: HashMap<String, u32>,
    /// Indices of `Prefix` rules in registration order.
    prefixes: Vec<u32>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers a function and returns its [`FnId`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the quota is malformed, the name is
    /// already taken, or an identical match rule is already registered —
    /// a duplicate rule would silently shadow the earlier tenant.
    pub fn register(&mut self, spec: FunctionSpec) -> crate::Result<FnId> {
        spec.quota.validate()?;
        if self.by_name.contains_key(&spec.name) {
            return Err(invalid(
                "tenancy.function.name",
                format!("function '{}' is already registered", spec.name),
            ));
        }
        match &spec.rule {
            MatchRule::FnKey(k) => {
                if self.by_key.contains_key(k) {
                    return Err(invalid(
                        "tenancy.function.rule",
                        format!(
                            "function key {k:#010x} is already registered \
                             (to '{}')",
                            self.specs[self.by_key[k] as usize].name
                        ),
                    ));
                }
            }
            MatchRule::Prefix(p) => {
                if p.is_empty() {
                    return Err(invalid(
                        "tenancy.function.rule",
                        "an empty prefix would match every request",
                    ));
                }
                if let Some(&i) = self.prefixes.iter().find(|&&i| {
                    matches!(&self.specs[i as usize].rule,
                                         MatchRule::Prefix(q) if q == p)
                }) {
                    return Err(invalid(
                        "tenancy.function.rule",
                        format!(
                            "prefix {:?} is already registered (to '{}')",
                            p, self.specs[i as usize].name
                        ),
                    ));
                }
            }
        }
        let id = self.specs.len() as u32;
        match &spec.rule {
            MatchRule::FnKey(k) => {
                self.by_key.insert(*k, id);
            }
            MatchRule::Prefix(_) => self.prefixes.push(id),
        }
        self.by_name.insert(spec.name.clone(), id);
        self.specs.push(spec);
        Ok(FnId(id))
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no function is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec of a registered function.
    pub fn spec(&self, id: FnId) -> &FunctionSpec {
        &self.specs[id.0 as usize]
    }

    /// Looks a function up by name.
    pub fn by_name(&self, name: &str) -> Option<FnId> {
        self.by_name.get(name).copied().map(FnId)
    }

    /// Matches a request payload to a registered function: the 4-byte LE
    /// function-key table first, then the prefix rules in registration
    /// order.
    pub fn match_request(&self, payload: &[u8]) -> Option<FnId> {
        if payload.len() >= 4 {
            let k = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
            if let Some(&id) = self.by_key.get(&k) {
                return Some(FnId(id));
            }
        }
        self.prefixes
            .iter()
            .find(|&&i| {
                matches!(&self.specs[i as usize].rule,
                                 MatchRule::Prefix(p) if payload.starts_with(p))
            })
            .map(|&i| FnId(i))
    }
}

/// Configuration of the tenancy stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenancyConfig {
    /// Master switch. When `false`, requests flow exactly as before —
    /// the static multi-service server of earlier releases.
    pub enabled: bool,
    /// Accelerator-memory budget bounding the sum of resident function
    /// footprints (the LRU residency working set).
    pub accel_memory_bytes: usize,
    /// Deterministic warm-up latency charged before dispatch when the
    /// matched function is not resident — the cold-start model.
    pub cold_start: Duration,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            enabled: false,
            accel_memory_bytes: 64 << 20,
            cold_start: Duration::from_micros(200),
        }
    }
}

impl TenancyConfig {
    /// A disabled tenancy stage (the default).
    pub fn disabled() -> TenancyConfig {
        TenancyConfig::default()
    }
}

impl Validate for TenancyConfig {
    fn validate(&self) -> crate::Result<()> {
        if self.enabled && self.accel_memory_bytes == 0 {
            return Err(invalid(
                "tenancy.accel_memory_bytes",
                "an enabled tenancy stage needs a non-zero residency budget",
            ));
        }
        Ok(())
    }
}

/// Counters of the tenancy stage, read through
/// [`LynxServer::tenancy_stats`](crate::LynxServer::tenancy_stats) or
/// [`Tenancy::stats`] from the `tenancy.*` telemetry counters the stage
/// counts into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenancyStats {
    /// Requests matched to a registered function.
    pub matched: u64,
    /// Requests no rule matched (shed with an empty reply).
    pub unmatched: u64,
    /// Requests shed by a per-tenant quota.
    pub shed: u64,
    /// Cold starts charged (first dispatch of a non-resident function,
    /// including transient runs that never became resident).
    pub cold_starts: u64,
    /// Functions evicted from accelerator memory.
    pub evictions: u64,
    /// Evictions that found the victim in flight and were deferred until
    /// its last request drained.
    pub evictions_deferred: u64,
    /// Functions currently resident (or warming up).
    pub resident_fns: u64,
    /// Bytes of accelerator memory held by resident functions.
    pub resident_bytes: u64,
}

/// Residency of one function on the accelerator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Residency {
    /// Not loaded: the next dispatch pays the cold start.
    Cold,
    /// Loading; ready (and counted resident) at the contained time.
    Warming(Time),
    /// Loaded and warm.
    Resident,
}

/// Per-function runtime state.
#[derive(Debug)]
struct FnState {
    bucket: TokenBucket,
    in_flight: usize,
    res: Residency,
    /// LRU key of this function's entry in the residency order.
    last_use: u64,
    /// The LRU chose this in-flight function as a victim; evict when its
    /// last request drains.
    evict_pending: bool,
}

/// Outcome of an admitted request at the tenancy stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// The matched function.
    pub func: FnId,
    /// Warm-up latency to elapse before dispatch ([`Duration::ZERO`] for
    /// a resident function; up to [`TenancyConfig::cold_start`] while
    /// loading).
    pub delay: Duration,
    /// Whether this admission charged a fresh cold start.
    pub cold: bool,
}

/// Interned handles for the `tenancy.*` counters and residency gauges.
#[derive(Debug, Default)]
struct TenancySites {
    matched: SiteCounter,
    unmatched: SiteCounter,
    shed: SiteCounter,
    cold_starts: SiteCounter,
    evictions: SiteCounter,
    evictions_deferred: SiteCounter,
    resident_fns: SiteGauge,
    resident_bytes: SiteGauge,
}

/// The `tenancy.*` counter names, in [`TenancyStats`] field order.
const COUNTERS: [&str; 6] = [
    "tenancy.matched",
    "tenancy.unmatched",
    "tenancy.shed",
    "tenancy.cold_starts",
    "tenancy.evictions",
    "tenancy.evictions_deferred",
];

/// The tenancy runtime: registry + per-function admission and residency
/// state. [`LynxServerBuilder::tenancy`](crate::LynxServerBuilder::tenancy)
/// installs one on the server's dispatch stage; tests may also drive it
/// directly.
#[derive(Debug)]
pub struct Tenancy {
    cfg: TenancyConfig,
    registry: FunctionRegistry,
    funcs: Vec<FnState>,
    resident_bytes: usize,
    /// Residency in eviction order: `(last_use, fn)` ascending — strictly
    /// deterministic, unlike iterating a hash map.
    lru: BTreeSet<(u64, u32)>,
    use_seq: u64,
    /// Counter sink of the `tenancy.*` counters and gauges. Starts as a
    /// private registry; [`Tenancy::bind_stats`] rebinds it (e.g. to the
    /// server's sink) so each event is counted once, where it happens.
    stats: Telemetry,
    sites: TenancySites,
}

impl Tenancy {
    /// Builds the runtime from a validated config and a non-empty
    /// registry.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the config fails [`Validate`] or the
    /// stage is enabled over an empty registry.
    pub fn new(cfg: TenancyConfig, registry: FunctionRegistry) -> crate::Result<Tenancy> {
        cfg.validate()?;
        if cfg.enabled && registry.is_empty() {
            return Err(invalid(
                "tenancy.enabled",
                "an enabled tenancy stage needs at least one registered function",
            ));
        }
        let funcs = registry
            .specs
            .iter()
            .map(|s| FnState {
                bucket: TokenBucket::new(s.quota.burst),
                in_flight: 0,
                res: Residency::Cold,
                last_use: 0,
                evict_pending: false,
            })
            .collect();
        Ok(Tenancy {
            cfg,
            registry,
            funcs,
            resident_bytes: 0,
            lru: BTreeSet::new(),
            use_seq: 0,
            stats: Telemetry::new(),
            sites: TenancySites::default(),
        })
    }

    /// Rebinds the stage's counter sink (e.g. to the owning server's
    /// telemetry registry), migrating counts recorded so far so
    /// [`Tenancy::stats`] never loses history.
    pub fn bind_stats(&mut self, sink: &Telemetry) {
        for name in COUNTERS {
            let prior = self.stats.counter(name);
            if prior > 0 {
                sink.count(name, prior);
            }
        }
        for name in ["tenancy.resident_fns", "tenancy.resident_bytes"] {
            if let Some(v) = self.stats.gauge_value(name) {
                sink.gauge(name, v);
            }
        }
        self.stats = sink.clone();
        // The cached ids index the *old* sink's registry.
        self.sites = TenancySites::default();
    }

    /// Whether the match-action stage is on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration the runtime was built with.
    pub fn config(&self) -> TenancyConfig {
        self.cfg
    }

    /// The registry backing this runtime.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Matches a payload without any admission side effects.
    pub fn match_request(&self, payload: &[u8]) -> Option<FnId> {
        self.registry.match_request(payload)
    }

    /// Whether a function currently holds accelerator memory (resident or
    /// warming).
    pub fn is_resident(&self, func: FnId) -> bool {
        matches!(
            self.funcs[func.0 as usize].res,
            Residency::Resident | Residency::Warming(_)
        )
    }

    /// Accelerator slots the function holds in flight right now.
    pub fn in_flight(&self, func: FnId) -> usize {
        self.funcs[func.0 as usize].in_flight
    }

    /// Snapshot of the stage counters, read from its counter sink
    /// (residency gauges filled in).
    pub fn stats(&self) -> TenancyStats {
        let [matched, unmatched, shed, cold_starts, evictions, evictions_deferred] =
            COUNTERS.map(|name| self.stats.counter(name));
        TenancyStats {
            matched,
            unmatched,
            shed,
            cold_starts,
            evictions,
            evictions_deferred,
            resident_fns: self.lru.len() as u64,
            resident_bytes: self.resident_bytes as u64,
        }
    }

    /// Publishes the residency gauges (`tenancy.resident_fns` /
    /// `tenancy.resident_bytes`).
    fn publish_residency(&self) {
        self.sites.resident_fns.set_with(
            &self.stats,
            || "tenancy.resident_fns".to_string(),
            self.lru.len() as f64,
        );
        self.sites.resident_bytes.set_with(
            &self.stats,
            || "tenancy.resident_bytes".to_string(),
            self.resident_bytes as f64,
        );
    }

    /// The match-action decision for one request: match the payload,
    /// enforce the tenant's quota, ensure residency (evicting idle LRU
    /// victims and charging a cold start as needed) and account one
    /// in-flight slot. Every `Ok` must be balanced by one
    /// [`Tenancy::complete`] call when the request leaves the server
    /// (response collected, answered at the SNIC, dropped or rejected).
    ///
    /// # Errors
    ///
    /// [`Error::Unroutable`] when no rule matches,
    /// [`Error::Overloaded`] when the tenant's token bucket or in-flight
    /// quota rejects the request — both before any dispatch cost is
    /// charged or RDMA verb issued, mirroring the control plane's
    /// shedding contract.
    pub fn decide(
        &mut self,
        now: Time,
        service: usize,
        payload: &[u8],
    ) -> crate::Result<Admission> {
        let decision = self.admit(now, service, payload);
        self.publish_residency();
        decision
    }

    /// [`Tenancy::decide`] before the residency gauges are published.
    fn admit(&mut self, now: Time, service: usize, payload: &[u8]) -> crate::Result<Admission> {
        let Some(func) = self.registry.match_request(payload) else {
            self.sites
                .unmatched
                .add(&self.stats, "tenancy.unmatched", 1);
            return Err(Error::Unroutable { service });
        };
        self.sites.matched.add(&self.stats, "tenancy.matched", 1);
        let quota = self.registry.specs[func.0 as usize].quota;
        let st = &mut self.funcs[func.0 as usize];
        let over_in_flight = quota.max_in_flight.is_some_and(|m| st.in_flight >= m);
        let over_rate = match quota.rate {
            Some(r) if r <= 0.0 => true,
            Some(r) => !st.bucket.admit(now, r, quota.burst),
            None => false,
        };
        if over_in_flight || over_rate {
            self.sites.shed.add(&self.stats, "tenancy.shed", 1);
            return Err(Error::Overloaded { service });
        }
        let (delay, cold) = self.ensure_resident(now, func);
        self.funcs[func.0 as usize].in_flight += 1;
        Ok(Admission { func, delay, cold })
    }

    /// Marks one in-flight request of `func` as finished. When the
    /// function was chosen as an eviction victim while running, the
    /// deferred eviction is performed now that the queue drained.
    pub fn complete(&mut self, func: FnId) {
        let st = &mut self.funcs[func.0 as usize];
        debug_assert!(st.in_flight > 0, "unbalanced Tenancy::complete");
        st.in_flight = st.in_flight.saturating_sub(1);
        if st.in_flight == 0 && st.evict_pending {
            self.evict(func);
            self.publish_residency();
        }
    }

    /// Touches a function's LRU entry and returns the warm-up delay to
    /// charge (with the cold-start flag).
    fn ensure_resident(&mut self, now: Time, func: FnId) -> (Duration, bool) {
        let seq = self.next_seq();
        let fi = func.0;
        match self.funcs[fi as usize].res {
            Residency::Resident => {
                self.touch(func, seq);
                (Duration::ZERO, false)
            }
            Residency::Warming(ready) => {
                self.touch(func, seq);
                if now >= ready {
                    self.funcs[fi as usize].res = Residency::Resident;
                    (Duration::ZERO, false)
                } else {
                    // Join the in-progress warm-up: dispatch when ready.
                    (ready - now, false)
                }
            }
            Residency::Cold => {
                self.sites
                    .cold_starts
                    .add(&self.stats, "tenancy.cold_starts", 1);
                let footprint = self.registry.specs[fi as usize].footprint_bytes;
                self.make_room(footprint, func);
                if self.resident_bytes + footprint <= self.cfg.accel_memory_bytes {
                    // Becomes resident: loaded (warm) after the cold start.
                    self.resident_bytes += footprint;
                    let st = &mut self.funcs[fi as usize];
                    st.res = Residency::Warming(now + self.cfg.cold_start);
                    st.last_use = seq;
                    st.evict_pending = false;
                    self.lru.insert((seq, fi));
                } // else: a transient run — every dispatch stays cold.
                (self.cfg.cold_start, true)
            }
        }
    }

    /// Evicts idle LRU victims until `footprint` fits in the budget (or
    /// no evictable victim remains). In-flight victims are only *marked*:
    /// their memory stays accounted until the deferred eviction runs.
    fn make_room(&mut self, footprint: usize, incoming: FnId) {
        if self.resident_bytes + footprint <= self.cfg.accel_memory_bytes {
            return;
        }
        // Collect victims in LRU order first: mutating the set while
        // scanning it would invalidate the iterator.
        let order: Vec<u32> = self.lru.iter().map(|&(_, f)| f).collect();
        for f in order {
            if self.resident_bytes + footprint <= self.cfg.accel_memory_bytes {
                break;
            }
            if f == incoming.0 {
                continue;
            }
            let st = &mut self.funcs[f as usize];
            if st.in_flight > 0 {
                if !st.evict_pending {
                    st.evict_pending = true;
                    self.sites
                        .evictions_deferred
                        .add(&self.stats, "tenancy.evictions_deferred", 1);
                }
                continue;
            }
            self.evict(FnId(f));
        }
    }

    /// Removes a function from accelerator memory immediately.
    fn evict(&mut self, func: FnId) {
        let fi = func.0 as usize;
        let st = &mut self.funcs[fi];
        if !matches!(st.res, Residency::Resident | Residency::Warming(_)) {
            st.evict_pending = false;
            return;
        }
        st.res = Residency::Cold;
        st.evict_pending = false;
        let key = (st.last_use, func.0);
        let removed = self.lru.remove(&key);
        debug_assert!(removed, "resident function missing from the LRU order");
        self.resident_bytes = self
            .resident_bytes
            .saturating_sub(self.registry.specs[fi].footprint_bytes);
        self.sites
            .evictions
            .add(&self.stats, "tenancy.evictions", 1);
    }

    fn touch(&mut self, func: FnId, seq: u64) {
        let st = &mut self.funcs[func.0 as usize];
        let old = (st.last_use, func.0);
        if self.lru.remove(&old) {
            st.last_use = seq;
            self.lru.insert((seq, func.0));
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.use_seq += 1;
        self.use_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, key: u32) -> FunctionSpec {
        FunctionSpec::new(name, MatchRule::FnKey(key)).footprint(1 << 10)
    }

    fn payload(key: u32) -> Vec<u8> {
        let mut p = key.to_le_bytes().to_vec();
        p.extend_from_slice(b"body");
        p
    }

    #[test]
    fn registry_matches_keys_and_prefixes_in_order() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register(spec("a", 7)).unwrap();
        let b = reg
            .register(FunctionSpec::new("b", MatchRule::Prefix(b"GET ".to_vec())))
            .unwrap();
        let c = reg
            .register(FunctionSpec::new(
                "c",
                MatchRule::Prefix(b"GET /x".to_vec()),
            ))
            .unwrap();
        assert_eq!(reg.match_request(&payload(7)), Some(a));
        // First registered prefix wins even though "c" is more specific.
        assert_eq!(reg.match_request(b"GET /x HTTP"), Some(b));
        assert_ne!(b, c);
        assert_eq!(reg.match_request(b"PUT /"), None);
        assert_eq!(reg.match_request(b"xy"), None);
        assert_eq!(reg.by_name("a"), Some(a));
        assert_eq!(reg.by_name("zz"), None);
    }

    #[test]
    fn duplicate_registrations_are_rejected() {
        let mut reg = FunctionRegistry::new();
        reg.register(spec("a", 7)).unwrap();
        let dup_rule = reg.register(spec("a2", 7)).unwrap_err();
        assert!(matches!(dup_rule, Error::InvalidConfig { .. }));
        let dup_name = reg.register(spec("a", 8)).unwrap_err();
        assert!(matches!(dup_name, Error::InvalidConfig { .. }));
        let empty = reg
            .register(FunctionSpec::new("p", MatchRule::Prefix(Vec::new())))
            .unwrap_err();
        assert!(matches!(empty, Error::InvalidConfig { .. }));
        assert_eq!(reg.len(), 1);
    }

    fn tenancy(budget: usize, n: u32) -> Tenancy {
        let mut reg = FunctionRegistry::new();
        for k in 0..n {
            reg.register(spec(&format!("f{k}"), k)).unwrap();
        }
        Tenancy::new(
            TenancyConfig {
                enabled: true,
                accel_memory_bytes: budget,
                cold_start: Duration::from_micros(100),
            },
            reg,
        )
        .unwrap()
    }

    #[test]
    fn cold_start_charged_once_then_resident() {
        let mut t = tenancy(4 << 10, 2);
        let now = Time::from_micros(10);
        let a = t.decide(now, 0, &payload(0)).unwrap();
        assert!(a.cold);
        assert_eq!(a.delay, Duration::from_micros(100));
        // A second request during the warm-up waits out the remainder.
        let mid = now + Duration::from_micros(40);
        let b = t.decide(mid, 0, &payload(0)).unwrap();
        assert!(!b.cold);
        assert_eq!(b.delay, Duration::from_micros(60));
        // After the warm-up: no delay.
        let later = now + Duration::from_micros(500);
        let c = t.decide(later, 0, &payload(0)).unwrap();
        assert!(!c.cold && c.delay.is_zero());
        assert_eq!(t.stats().cold_starts, 1);
        t.complete(a.func);
        t.complete(b.func);
        t.complete(c.func);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_idle_function() {
        // Budget fits exactly two 1 KiB functions.
        let mut t = tenancy(2 << 10, 3);
        let now = Time::from_micros(1);
        let a = t.decide(now, 0, &payload(0)).unwrap();
        t.complete(a.func);
        let b = t
            .decide(now + Duration::from_micros(1), 0, &payload(1))
            .unwrap();
        t.complete(b.func);
        let c = t
            .decide(now + Duration::from_micros(2), 0, &payload(2))
            .unwrap();
        t.complete(c.func);
        // f0 was least recently used: evicted for f2.
        assert!(!t.is_resident(FnId(0)));
        assert!(t.is_resident(FnId(1)) && t.is_resident(FnId(2)));
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.stats().resident_fns, 2);
    }

    #[test]
    fn in_flight_eviction_defers_until_drain() {
        let mut t = tenancy(1 << 10, 2);
        let now = Time::from_micros(1);
        let a = t.decide(now, 0, &payload(0)).unwrap();
        // f0 is in flight; admitting f1 cannot evict it yet.
        let b = t
            .decide(now + Duration::from_micros(1), 0, &payload(1))
            .unwrap();
        assert!(b.cold);
        assert!(
            t.is_resident(FnId(0)),
            "in-flight function must stay resident"
        );
        assert!(!t.is_resident(FnId(1)), "no room while the victim drains");
        assert_eq!(t.stats().evictions_deferred, 1);
        assert_eq!(t.stats().evictions, 0);
        // Drain f0: the deferred eviction runs.
        t.complete(a.func);
        assert!(!t.is_resident(FnId(0)));
        assert_eq!(t.stats().evictions, 1);
        t.complete(b.func);
        // f1 can now become resident.
        let c = t
            .decide(now + Duration::from_micros(500), 0, &payload(1))
            .unwrap();
        assert!(t.is_resident(FnId(1)));
        t.complete(c.func);
    }

    #[test]
    fn quota_zero_sheds_with_typed_overloaded() {
        let mut reg = FunctionRegistry::new();
        reg.register(spec("off", 1).quota(TenantQuota::zero()))
            .unwrap();
        let mut t = Tenancy::new(
            TenancyConfig {
                enabled: true,
                ..TenancyConfig::default()
            },
            reg,
        )
        .unwrap();
        let e = t.decide(Time::from_micros(1), 3, &payload(1)).unwrap_err();
        assert_eq!(e, Error::Overloaded { service: 3 });
        assert_eq!(t.stats().shed, 1);
        assert_eq!(t.stats().cold_starts, 0, "shed requests charge nothing");
    }

    #[test]
    fn token_bucket_quota_limits_sustained_rate() {
        let mut reg = FunctionRegistry::new();
        reg.register(spec("slow", 1).quota(TenantQuota::rate_limited(1_000.0, 2.0)))
            .unwrap();
        let mut t = Tenancy::new(
            TenancyConfig {
                enabled: true,
                ..TenancyConfig::default()
            },
            reg,
        )
        .unwrap();
        let now = Time::from_millis(1);
        // Burst of 2 admitted, third shed.
        assert!(t.decide(now, 0, &payload(1)).is_ok());
        assert!(t.decide(now, 0, &payload(1)).is_ok());
        let e = t.decide(now, 0, &payload(1)).unwrap_err();
        assert!(matches!(e, Error::Overloaded { .. }));
        // One refilled token after 1 ms at 1000/s.
        assert!(t
            .decide(now + Duration::from_millis(1), 0, &payload(1))
            .is_ok());
    }

    #[test]
    fn unmatched_requests_surface_unroutable() {
        let mut t = tenancy(1 << 20, 1);
        let e = t.decide(Time::from_micros(1), 5, b"zz").unwrap_err();
        assert_eq!(e, Error::Unroutable { service: 5 });
        assert_eq!(t.stats().unmatched, 1);
    }

    #[test]
    fn quota_validation_rejects_nan_and_negative() {
        assert!(TenantQuota::rate_limited(f64::NAN, 2.0).validate().is_err());
        assert!(TenantQuota::rate_limited(-1.0, 2.0).validate().is_err());
        assert!(TenantQuota::rate_limited(10.0, 0.5).validate().is_err());
        assert!(TenantQuota::rate_limited(10.0, 1.0).validate().is_ok());
        assert!(TenantQuota::zero().validate().is_ok());
        assert!(TenantQuota::unlimited().validate().is_ok());
    }

    #[test]
    fn oversized_footprint_runs_transient() {
        let mut reg = FunctionRegistry::new();
        reg.register(spec("huge", 1).footprint(1 << 30)).unwrap();
        let mut t = Tenancy::new(
            TenancyConfig {
                enabled: true,
                accel_memory_bytes: 1 << 20,
                cold_start: Duration::from_micros(50),
            },
            reg,
        )
        .unwrap();
        let a = t.decide(Time::from_micros(1), 0, &payload(1)).unwrap();
        assert!(a.cold);
        t.complete(a.func);
        // Never becomes resident: every run pays the cold start.
        let b = t.decide(Time::from_millis(1), 0, &payload(1)).unwrap();
        assert!(b.cold);
        t.complete(b.func);
        assert_eq!(t.stats().cold_starts, 2);
        assert_eq!(t.stats().resident_fns, 0);
    }

    #[test]
    fn enabled_tenancy_requires_functions_and_budget() {
        let err = Tenancy::new(
            TenancyConfig {
                enabled: true,
                ..TenancyConfig::default()
            },
            FunctionRegistry::new(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        let err = TenancyConfig {
            enabled: true,
            accel_memory_bytes: 0,
            ..TenancyConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        assert!(TenancyConfig::disabled().validate().is_ok());
    }
}
