//! The generic network server running on the SmartNIC (§4.2).

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Duration;

use lynx_device::{profile_for, BluefieldProfile, CostProfile, CpuKind};
use lynx_net::{ConnId, HostStack, SockAddr};
use lynx_sim::{Payload, Sim, SiteCounter, SiteGauge, Telemetry, Time, TraceEvent};

use crate::cache::{CacheConfig, CacheOp, CacheProtocol, CacheTicket, SnicCache, SnicKernel};
use crate::control::{ControlConfig, ScaleDecision, SvcControl};
use crate::pipeline::{Pipeline, PipelineConfig, StagedRequest};
use crate::tenancy::{FnId, Tenancy, TenancyStats, TenantCacheMode};
use crate::{DispatchPolicy, Dispatcher, Error, Mqueue, RemoteMqManager, ReqCtx, ReturnAddr};

/// Where the Lynx server logic runs — selects core counts and cost models
/// for the paper's evaluated configurations (§6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnicPlatform {
    /// Mellanox BlueField: 7 ARM A72 cores with the VMA user-level stack.
    Bluefield,
    /// The same Lynx code running on `n` host Xeon cores ("Lynx on the
    /// host CPU: runs the same code as on Bluefield").
    HostCores(usize),
}

impl SnicPlatform {
    /// Number of cores running the Lynx pipeline.
    pub fn cores(self) -> usize {
        match self {
            SnicPlatform::Bluefield => BluefieldProfile::LYNX_CORES,
            SnicPlatform::HostCores(n) => n,
        }
    }

    /// The CPU kind of those cores.
    pub fn cpu_kind(self) -> CpuKind {
        match self {
            SnicPlatform::Bluefield => CpuKind::ArmA72,
            SnicPlatform::HostCores(_) => CpuKind::XeonE5,
        }
    }
}

impl fmt::Display for SnicPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnicPlatform::Bluefield => f.write_str("Bluefield"),
            SnicPlatform::HostCores(1) => f.write_str("1 Xeon core"),
            SnicPlatform::HostCores(n) => write!(f, "{n} Xeon cores"),
        }
    }
}

/// Per-message CPU costs of the Lynx server logic itself (in addition to
/// protocol-stack costs charged by [`HostStack`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Message Dispatcher work per request.
    pub dispatch: Duration,
    /// Message Forwarder work per response.
    pub forward: Duration,
    /// Marginal dispatcher work per *additional* request in a batched
    /// drain: the first request of a batch pays the full [`dispatch`]
    /// cost (stack invocation, WQE setup, doorbell), each further one
    /// only this increment ([`crate::BatchPolicy`]).
    ///
    /// [`dispatch`]: CostModel::dispatch
    pub dispatch_marginal: Duration,
    /// Marginal forwarder work per additional response in a batched
    /// collection.
    pub forward_marginal: Duration,
    /// Round-robin scan cost, per registered mqueue, added to both paths.
    pub scan_per_mqueue: Duration,
    /// Detection latency per mqueue in the forwarder's poll cycle
    /// (RDMA-bound, platform-independent; average delay is half a cycle).
    pub poll_rtt_per_mqueue: Duration,
    /// Provisioning delay when the elastic control plane unparks a
    /// remote worker (persistent-kernel spin-up).
    pub provision: Duration,
}

impl CostModel {
    /// Compiles a typed [`CostProfile`] into the flat per-message cost
    /// table the hot path reads — the profile's values verbatim, so a
    /// profile-built server is byte-identical to a const-built one.
    pub fn from_profile(p: &dyn CostProfile) -> CostModel {
        CostModel {
            dispatch: p.dispatch_cost(),
            forward: p.forward_cost(),
            dispatch_marginal: p.dispatch_marginal(),
            forward_marginal: p.forward_marginal(),
            scan_per_mqueue: p.mq_scan(),
            poll_rtt_per_mqueue: p.mq_poll_rtt(),
            provision: p.provision_cost(),
        }
    }

    /// Cost model for the given CPU kind (the platform profile selected
    /// by [`lynx_device::profile_for`]).
    pub fn for_cpu(kind: CpuKind) -> CostModel {
        CostModel::from_profile(profile_for(kind))
    }
}

/// The SNIC health monitor's policy (§4.2 extended with fault recovery).
///
/// The monitor periodically scans every registered server mqueue; a queue
/// with requests in flight that has produced no response for
/// `stall_threshold` is *quarantined* — removed from its service's dispatch
/// set so traffic redistributes to the surviving accelerators. A
/// quarantined queue that resumes making progress (or fully drains) is
/// re-admitted. The scan is armed lazily on the first request and disarms
/// while no healthy queue has work, so an idle simulation still runs to
/// completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Master switch. Disabled monitors never schedule anything.
    pub enabled: bool,
    /// Interval between health scans.
    pub scan_interval: Duration,
    /// How long a queue may hold in-flight requests without producing a
    /// response before it is declared stalled.
    pub stall_threshold: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: true,
            scan_interval: Duration::from_micros(250),
            stall_threshold: Duration::from_micros(2500),
        }
    }
}

impl RecoveryConfig {
    /// A configuration with the monitor switched off (the behaviour of the
    /// pre-recovery server).
    pub fn disabled() -> RecoveryConfig {
        RecoveryConfig {
            enabled: false,
            ..RecoveryConfig::default()
        }
    }
}

/// End-to-end counters of a [`LynxServer`].
///
/// Read through [`LynxServer::stats`]; since the counters live in the
/// server's telemetry registry (shared with the simulation's registry when
/// telemetry is enabled), this view can never disagree with the exported
/// counter set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests that reached the dispatcher.
    pub requests: u64,
    /// Requests delivered into an mqueue.
    pub dispatched: u64,
    /// Requests dropped (all eligible mqueues full).
    pub dropped: u64,
    /// Responses sent back to clients.
    pub responses: u64,
    /// Backend calls bridged from client mqueues.
    pub backend_calls: u64,
}

/// Counters of the SNIC-resident hot-key cache and the on-NIC compute
/// offload, read through [`LynxServer::cache_stats`] from the same
/// telemetry registry the interned `cache.*` / `snic.compute.*` counters
/// land in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// GETs answered from the SNIC cache (including stale answers served
    /// under degradation).
    pub hits: u64,
    /// Cacheable GETs that took the accelerator path.
    pub misses: u64,
    /// Responses that populated the cache on the forward path.
    pub fills: u64,
    /// Cached entries marked stale by write-through SETs.
    pub invalidations: u64,
    /// Requests answered by the [`SnicKernel`] on spare SNIC cycles.
    pub offloaded: u64,
    /// Simulated SNIC-core nanoseconds spent in offloaded kernels.
    pub offload_cycles: u64,
}

impl CacheStats {
    /// Cache hit rate over classified GETs (`hits / (hits + misses)`),
    /// or 0 when no GET was seen.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct BackendBridge {
    conn: Option<ConnId>,
    queued: Vec<Payload>,
}

/// Pre-interned handles for the server-wide per-message counters. Each
/// name is interned into the server's telemetry registry on its first
/// increment; after that every request/response is an indexed add.
#[derive(Debug, Default)]
struct ServerSites {
    requests: SiteCounter,
    dispatched: SiteCounter,
    dropped: SiteCounter,
    replies: SiteCounter,
    unroutable: SiteCounter,
    backend_calls: SiteCounter,
    shed: SiteCounter,
    forward_polls: SiteCounter,
    batches: SiteCounter,
    batched_msgs: SiteCounter,
    forward_batches: SiteCounter,
    forward_batched_msgs: SiteCounter,
    cache_hits: SiteCounter,
    cache_misses: SiteCounter,
    cache_fills: SiteCounter,
    cache_invalidations: SiteCounter,
    cache_bytes: SiteGauge,
    snic_offloaded: SiteCounter,
    snic_cycles: SiteCounter,
    path_resets: SiteCounter,
}

/// Per-service counter handles (`server.svc<i>.*` and the dispatcher's
/// `dispatch.picks.<policy>`) — the `format!`-built names are produced
/// once per service instead of once per message.
#[derive(Debug, Default)]
struct SvcSites {
    requests: SiteCounter,
    dispatched: SiteCounter,
    dropped: SiteCounter,
    replies: SiteCounter,
    shed: SiteCounter,
    picks: SiteCounter,
}

/// Identifier of one tenant service hosted by a [`LynxServer`] (§4.5:
/// "Lynx runtime can be shared among multiple servers ... while ensuring
/// full state protection among them").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServiceId(pub usize);

impl ServiceId {
    /// The default service every [`LynxServer`] starts with.
    pub const DEFAULT: ServiceId = ServiceId(0);
}

/// Health-scan state for one server mqueue.
struct QueueHealth {
    last_responses: u64,
    last_progress: Time,
}

/// What the dispatch-stage cache consult decided for one request.
enum CacheOutcome {
    /// Fresh cached value: reply from the SNIC, skip the mqueue.
    Hit(Payload),
    /// Take the accelerator path; `Some` carries what the response owes
    /// the cache (a GET miss's fill lease, or a SET's key to invalidate
    /// again).
    Miss(Option<CacheTicket>),
}

/// Where a unit of request-path SNIC work is charged.
#[derive(Clone, Copy)]
enum Lane {
    /// The shared join-shortest-completion lane pool (batches of one).
    Pool,
    /// One pipeline core's own stack lane (batched mode).
    Core(usize),
}

impl Lane {
    fn charge(
        self,
        stack: &HostStack,
        sim: &mut Sim,
        cost: Duration,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        match self {
            Lane::Pool => stack.charge(sim, cost, done),
            Lane::Core(c) => stack.charge_on(sim, c, cost, done),
        }
    }
}

struct Service {
    dispatcher: Dispatcher,
    mqs: Vec<Mqueue>,
    owners: Vec<Rc<RemoteMqManager>>,
    health: Vec<QueueHealth>,
    udp_port: Option<u16>,
    sites: SvcSites,
    control: SvcControl,
}

impl Service {
    fn new(policy: DispatchPolicy, admission_burst: f64) -> Service {
        Service {
            dispatcher: Dispatcher::new(policy),
            mqs: Vec::new(),
            owners: Vec::new(),
            health: Vec::new(),
            udp_port: None,
            sites: SvcSites::default(),
            control: SvcControl::new(admission_burst),
        }
    }
}

/// Cache keys are namespaced by tenant service — and, when the tenancy
/// stage matched a registered function, by that function — so two tenants
/// using the same application keys never collide in a shared lane cache.
fn cache_key(service: ServiceId, func: Option<FnId>, key: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(8 + key.len());
    k.extend_from_slice(&(service.0 as u32).to_le_bytes());
    if let Some(f) = func {
        k.extend_from_slice(&f.0.to_le_bytes());
    }
    k.extend_from_slice(key);
    k
}

struct Inner {
    stack: HostStack,
    costs: CostModel,
    services: Vec<Service>,
    accels: Vec<Rc<RemoteMqManager>>,
    backends: Vec<Rc<RefCell<BackendBridge>>>,
    stats: Telemetry,
    recovery: RecoveryConfig,
    monitor_armed: bool,
    control: ControlConfig,
    control_armed: bool,
    /// Lazily parks the over-provisioned fleet on the first control scan
    /// arm, so construction stays side-effect free.
    control_initialized: bool,
    pipeline: Pipeline,
    sites: ServerSites,
    /// One `pipeline.core<i>.dispatched` handle per pipeline core.
    core_dispatched: Vec<SiteCounter>,
    cache_cfg: CacheConfig,
    /// Wire-format classifier for the cache (application-supplied).
    protocol: Option<Rc<dyn CacheProtocol>>,
    /// One private hot-key cache per pipeline lane (shared-nothing,
    /// matching the dispatch sharding). Empty when the cache is off.
    caches: Vec<SnicCache>,
    /// On-NIC compute kernel and the mean mqueue occupancy at which it
    /// engages.
    snic_kernel: Option<(Rc<dyn SnicKernel>, f64)>,
    /// λ-NIC-style match-action tenancy stage (`lynx_core::tenancy`):
    /// function registry, per-tenant admission and LRU residency. `None`
    /// (or a disabled config) leaves the request path exactly as before.
    tenancy: Option<Tenancy>,
}

impl Inner {
    /// The lane that dispatch-stage work for client `key` is charged on:
    /// its pipeline core when batching, else the shared pool.
    fn dispatch_lane(&self, key: u64) -> Lane {
        let cfg = self.pipeline.config();
        if cfg.is_batched() {
            Lane::Core(cfg.shard_of(key))
        } else {
            Lane::Pool
        }
    }

    /// Whether tenant function `func` skips the SNIC cache
    /// ([`TenantCacheMode::Bypass`]); other matched functions partition
    /// it under their own key namespace.
    fn bypasses_cache(&self, func: Option<FnId>) -> bool {
        func.zip(self.tenancy.as_ref())
            .is_some_and(|(f, t)| t.registry().spec(f).cache == TenantCacheMode::Bypass)
    }

    /// Releases what a request that will never be collected holds (it
    /// was answered at the SNIC, dropped or rejected): a GET miss's fill
    /// lease is abandoned — a SET that never ran has nothing to
    /// invalidate again — and the tenant's in-flight slot is freed.
    fn release(&mut self, ticket: Option<CacheTicket>, func: Option<FnId>) {
        if let Some(CacheTicket::Fill { lane, key, token }) = ticket {
            self.caches[lane].abandon_fill(&key, token);
        }
        if let (Some(f), Some(t)) = (func, self.tenancy.as_mut()) {
            t.complete(f);
        }
    }

    /// Write-through invalidation of a namespaced key on every lane,
    /// counted in `cache.invalidations` per fresh entry marked stale.
    /// The fill leases listed in `keep` as `(lane, token)` survive.
    fn invalidate_everywhere(&mut self, key: &[u8], keep: &[(usize, u64)]) {
        let n: u64 = self
            .caches
            .iter_mut()
            .enumerate()
            .map(|(lane, c)| {
                let token = keep.iter().find(|(l, _)| *l == lane).map(|&(_, t)| t);
                u64::from(c.invalidate_keeping(key, token))
            })
            .sum();
        if n > 0 {
            self.sites
                .cache_invalidations
                .add(&self.stats, "cache.invalidations", n);
        }
    }

    /// Settles the context of one slot collected from `mq`, exactly once
    /// and in order: the control plane's dispatch→collection latency
    /// sample, then the cache ticket (fill or abandon a GET miss's lease;
    /// invalidate a SET's key again before its reply leaves), then the
    /// tenant's in-flight slot. Returns the reply to send — `None` when
    /// the transport gave up on the response, which counts the context in
    /// `server.path_resets` (unless quarantine already released it).
    fn settle(
        &mut self,
        now: Time,
        service: ServiceId,
        mq: &Mqueue,
        ctx: ReqCtx,
        payload: Option<Payload>,
    ) -> Option<(ReturnAddr, Payload)> {
        match (ctx.dispatched_at, &payload) {
            (Some(t0), Some(_)) if self.control.enabled => {
                self.services[service.0].control.latency.record(now - t0);
            }
            (Some(_), None) => self
                .sites
                .path_resets
                .add(&self.stats, "server.path_resets", 1),
            _ => {}
        }
        match ctx.ticket {
            Some(CacheTicket::Fill { lane, key, token }) => {
                let value = payload.as_ref().filter(|p| {
                    self.protocol
                        .as_ref()
                        .is_some_and(|proto| proto.cacheable_response(p))
                });
                match value {
                    // Admitted only while the lease issued at miss time is
                    // still current: a racing SET (or a newer miss for the
                    // key) voided it.
                    Some(v) => {
                        if self.caches[lane].fill_leased(&key, v, token) {
                            self.sites.cache_fills.add(&self.stats, "cache.fills", 1);
                        }
                    }
                    None => self.caches[lane].abandon_fill(&key, token),
                }
            }
            Some(CacheTicket::Set(key)) => {
                // About to acknowledge the SET: invalidate its key again.
                // A GET dispatched after the dispatch-time invalidation
                // may have run ahead of the SET on another mqueue, and
                // filled the old value or holds the lease to fill it. A
                // GET still queued behind the SET on `mq` runs after it
                // (an mqueue serves in order), so its lease stands.
                let mut behind = Vec::new();
                mq.for_each_in_flight(|c| match &c.ticket {
                    Some(CacheTicket::Fill {
                        lane,
                        key: k,
                        token,
                    }) if *k == key => {
                        behind.push((*lane, *token));
                    }
                    _ => {}
                });
                self.invalidate_everywhere(&key, &behind);
            }
            None => {}
        }
        self.release(None, ctx.func);
        payload.map(|p| (ctx.ret, p))
    }

    /// Publishes the `cache.bytes` gauge (cache-enabled servers only).
    fn publish_cache_bytes(&self) {
        if self.cache_cfg.enabled {
            let bytes: usize = self.caches.iter().map(SnicCache::bytes).sum();
            self.sites.cache_bytes.set_with(
                &self.stats,
                || "cache.bytes".to_string(),
                bytes as f64,
            );
        }
    }

    /// Releases what the in-flight requests of a quarantined queue hold —
    /// fill leases and tenant slots — so a crashed accelerator can hold
    /// up neither a key's lease nor residency eviction. Each context is
    /// released once and counted in `server.path_resets`; a response that
    /// still arrives after readmission is replied to but settles nothing
    /// twice. A SET keeps its ticket: should it still run, its key is
    /// invalidated again when its reply leaves.
    fn release_in_flight(&mut self, mq: &Mqueue) {
        let mut released = 0u64;
        mq.for_each_in_flight(|ctx| {
            if ctx.dispatched_at.take().is_none() {
                return;
            }
            released += 1;
            let fill = ctx
                .ticket
                .take_if(|t| matches!(t, CacheTicket::Fill { .. }));
            self.release(fill, ctx.func.take());
        });
        if released > 0 {
            self.sites
                .path_resets
                .add(&self.stats, "server.path_resets", released);
        }
    }
}

/// Outcome of the tenancy match-action gate for one request.
enum TenancyGate {
    /// No stage installed (`None`), or matched a warm admitted function:
    /// dispatch proceeds immediately.
    Pass(Option<FnId>),
    /// Matched a cold (or still-warming) function: dispatch proceeds
    /// after this warm-up delay elapses on the simulated clock.
    Warm(Duration, FnId),
    /// Unmatched, or over the tenant's quota: answer with the empty
    /// shed marker and stop.
    Shed,
}

/// The Lynx network server: the application-agnostic frontend on the
/// SmartNIC (or, for comparison, on host cores).
///
/// It listens on UDP/TCP ports, dispatches each request to a server mqueue
/// via one-sided RDMA, collects responses and sends them back, and bridges
/// client mqueues to backend services. "No application development is
/// necessary for the SNIC" — the same server code serves every workload in
/// the benchmarks.
///
/// Construct it with [`crate::LynxServerBuilder`] — the sole construction
/// path since 0.3.0 (the deprecated imperative `new` / `add_*` /
/// `listen_*` shims of 0.2 have been removed; see `CHANGELOG.md`).
///
/// # Batched multi-core pipeline
///
/// The dispatcher/forwarder runs as a sharded pipeline configured by
/// [`PipelineConfig`] ([`crate::LynxServerBuilder::snic_cores`] /
/// [`crate::LynxServerBuilder::batch`]): requests shard across `N`
/// simulated SNIC cores by client key and each core drains its partition
/// in batches, amortizing stack invocations, RDMA doorbells and mqueue
/// completions. Every batch size runs the same request path: the default
/// (1 core, `Fixed(1)`) dispatches each message on arrival as a batch of
/// one on the shared lane pool.
#[derive(Clone)]
pub struct LynxServer {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for LynxServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("LynxServer")
            .field("services", &inner.services.len())
            .field(
                "mqueues",
                &inner.services.iter().map(|s| s.mqs.len()).sum::<usize>(),
            )
            .field("accelerators", &inner.accels.len())
            .field("recovery", &inner.recovery.enabled)
            .finish()
    }
}

impl LynxServer {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn construct(
        stack: HostStack,
        costs: CostModel,
        policy: DispatchPolicy,
        recovery: RecoveryConfig,
        control: ControlConfig,
        stats: Telemetry,
        pipeline: PipelineConfig,
        cache_cfg: CacheConfig,
        protocol: Option<Rc<dyn CacheProtocol>>,
        snic_kernel: Option<(Rc<dyn SnicKernel>, f64)>,
        tenancy: Option<Tenancy>,
    ) -> LynxServer {
        let core_dispatched = (0..pipeline.snic_cores)
            .map(|_| SiteCounter::new())
            .collect();
        let mut tenancy = tenancy;
        if let Some(t) = tenancy.as_mut() {
            // Count each `tenancy.*` event once, straight into the
            // server's registry.
            t.bind_stats(&stats);
        }
        let caches = if cache_cfg.enabled {
            (0..pipeline.snic_cores)
                .map(|_| SnicCache::new(cache_cfg.bytes_per_lane))
                .collect()
        } else {
            Vec::new()
        };
        LynxServer {
            inner: Rc::new(RefCell::new(Inner {
                stack,
                costs,
                services: vec![Service::new(policy, control.admission_burst)],
                accels: Vec::new(),
                backends: Vec::new(),
                stats,
                recovery,
                monitor_armed: false,
                control,
                control_armed: false,
                control_initialized: false,
                pipeline: Pipeline::new(pipeline),
                sites: ServerSites::default(),
                core_dispatched,
                cache_cfg,
                protocol,
                caches,
                snic_kernel,
                tenancy,
            })),
        }
    }

    pub(crate) fn inner_add_service(&self, policy: DispatchPolicy) -> ServiceId {
        let mut inner = self.inner.borrow_mut();
        let burst = inner.control.admission_burst;
        inner.services.push(Service::new(policy, burst));
        ServiceId(inner.services.len() - 1)
    }

    /// Number of tenant services.
    pub fn services(&self) -> usize {
        self.inner.borrow().services.len()
    }

    pub(crate) fn inner_add_accelerator(&self, rmq: RemoteMqManager) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.accels.push(Rc::new(rmq));
        inner.accels.len() - 1
    }

    pub(crate) fn inner_add_server_mqueue(&self, service: ServiceId, accel: usize, mq: Mqueue) {
        let (rmq, fwd_core) = {
            let mut inner = self.inner.borrow_mut();
            // Forwarder ownership: mqueues round-robin across the pipeline
            // cores by registration order, so each core polls its own
            // partition of queues.
            let fwd_core =
                Self::total_mqueues(&inner) as usize % inner.pipeline.config().snic_cores;
            let rmq = Rc::clone(&inner.accels[accel]);
            // Unify counting: the queue's drop counter lands in the same
            // registry as the server's own counters.
            mq.bind_stats(&inner.stats);
            let svc = &mut inner.services[service.0];
            svc.mqs.push(mq.clone());
            svc.owners.push(Rc::clone(&rmq));
            svc.health.push(QueueHealth {
                last_responses: 0,
                last_progress: Time::ZERO,
            });
            (rmq, fwd_core)
        };
        let this = self.clone();
        let mq2 = mq.clone();
        // Batched mode: one forward cycle may be pending per mqueue, and
        // the gate coalesces doorbell rings into it.
        let gate = self
            .pipeline()
            .is_batched()
            .then(|| Rc::new(Cell::new(false)));
        mq.set_tx_watcher(move |sim| {
            this.on_response_ready(
                sim,
                service,
                mq2.clone(),
                Rc::clone(&rmq),
                gate.clone(),
                fwd_core,
            );
        });
    }

    pub(crate) fn inner_add_backend_bridge(
        &self,
        sim: &mut Sim,
        accel: usize,
        mq: Mqueue,
        dst: SockAddr,
    ) {
        let (stack, rmq) = {
            let inner = self.inner.borrow();
            (inner.stack.clone(), Rc::clone(&inner.accels[accel]))
        };
        let bridge = Rc::new(RefCell::new(BackendBridge {
            conn: None,
            queued: Vec::new(),
        }));
        self.inner.borrow_mut().backends.push(Rc::clone(&bridge));

        // Backend responses -> client mqueue RX ring.
        let this = self.clone();
        let mq_rx = mq.clone();
        let rmq_rx = Rc::clone(&rmq);
        let on_msg = move |sim: &mut Sim, _conn: ConnId, payload: Payload| {
            this.on_backend_response(sim, mq_rx.clone(), Rc::clone(&rmq_rx), payload);
        };
        let bridge2 = Rc::clone(&bridge);
        let stack2 = stack.clone();
        let on_connected = move |sim: &mut Sim, conn: ConnId| {
            let queued = {
                let mut b = bridge2.borrow_mut();
                b.conn = Some(conn);
                std::mem::take(&mut b.queued)
            };
            for msg in queued {
                stack2.send_tcp(sim, conn, msg);
            }
        };
        stack.connect_tcp(sim, dst, on_msg, on_connected);

        // Accelerator sends on the client mqueue -> forward to backend.
        let this = self.clone();
        let mq2 = mq.clone();
        mq.set_tx_watcher(move |sim| {
            this.on_backend_call(sim, mq2.clone(), Rc::clone(&rmq), Rc::clone(&bridge));
        });
    }

    pub(crate) fn inner_listen_udp(&self, service: ServiceId, port: u16) {
        let stack = {
            let mut inner = self.inner.borrow_mut();
            inner.services[service.0].udp_port.get_or_insert(port);
            inner.stack.clone()
        };
        let this = self.clone();
        stack.bind_udp(port, move |sim, dgram| {
            let key = hash_client(&dgram.src);
            this.on_request(sim, service, ReturnAddr::Udp(dgram.src), key, dgram.payload);
        });
    }

    pub(crate) fn inner_listen_tcp(&self, service: ServiceId, port: u16) {
        let stack = self.inner.borrow().stack.clone();
        let this = self.clone();
        stack.listen_tcp(port, move |sim, conn, payload| {
            let mut h = DefaultHasher::new();
            conn.hash(&mut h);
            this.on_request(sim, service, ReturnAddr::Tcp(conn), h.finish(), payload);
        });
    }

    /// Aggregate counters across all tenant services, read from the
    /// server's telemetry registry.
    pub fn stats(&self) -> ServerStats {
        let inner = self.inner.borrow();
        let t = &inner.stats;
        ServerStats {
            requests: t.counter("server.requests"),
            dispatched: t.counter("server.dispatched"),
            dropped: t.counter("server.dropped"),
            responses: t.counter("server.replies"),
            backend_calls: t.counter("server.backend_calls"),
        }
    }

    /// Counters of one tenant service (its `backend_calls` is always 0;
    /// backend bridges are accounted at the server level). Reads the
    /// `server.svc<i>.*` counters of the telemetry registry.
    pub fn service_stats(&self, service: ServiceId) -> ServerStats {
        let inner = self.inner.borrow();
        assert!(service.0 < inner.services.len(), "unknown service id");
        let t = &inner.stats;
        let i = service.0;
        ServerStats {
            requests: t.counter(&format!("server.svc{i}.requests")),
            dispatched: t.counter(&format!("server.svc{i}.dispatched")),
            dropped: t.counter(&format!("server.svc{i}.dropped")),
            responses: t.counter(&format!("server.svc{i}.replies")),
            backend_calls: 0,
        }
    }

    /// Total mqueue-level drops across all registered server mqueues.
    pub fn mqueue_drops(&self) -> u64 {
        self.inner
            .borrow()
            .services
            .iter()
            .flat_map(|s| s.mqs.iter())
            .map(|m| m.drops())
            .sum()
    }

    /// The active recovery policy.
    pub fn recovery(&self) -> RecoveryConfig {
        self.inner.borrow().recovery
    }

    /// The active pipeline configuration (sharding + batching).
    pub fn pipeline(&self) -> PipelineConfig {
        self.inner.borrow().pipeline.config()
    }

    /// The active elastic control-plane policy.
    pub fn control(&self) -> ControlConfig {
        self.inner.borrow().control
    }

    /// Number of *active* (not parked) remote-GPU workers of `service`.
    ///
    /// With the control plane disabled this is simply the number of
    /// registered server mqueues; with it enabled, the autoscaler moves
    /// this between [`ControlConfig::min_workers`] and
    /// [`ControlConfig::max_workers`]. Before the first request arrives
    /// the whole fleet reads as active — parking happens lazily on the
    /// first control scan.
    pub fn active_workers(&self, service: ServiceId) -> usize {
        let inner = self.inner.borrow();
        assert!(service.0 < inner.services.len(), "unknown service id");
        let svc = &inner.services[service.0];
        svc.mqs.len() - svc.dispatcher.parked_count()
    }

    /// Requests rejected by admission control (the `dispatch.shed`
    /// counter), read from the telemetry registry.
    pub fn shed_requests(&self) -> u64 {
        self.inner.borrow().stats.counter("dispatch.shed")
    }

    /// Replies that could not be routed back to a client (no return
    /// address / no bound UDP port), read from the telemetry registry.
    pub fn unroutable_replies(&self) -> u64 {
        self.inner.borrow().stats.counter("server.unroutable")
    }

    /// Counters of the hot-key cache and SNIC-compute offload, read from
    /// the telemetry registry (`cache.*`, `snic.compute.*`).
    pub fn cache_stats(&self) -> CacheStats {
        let inner = self.inner.borrow();
        let t = &inner.stats;
        CacheStats {
            hits: t.counter("cache.hits"),
            misses: t.counter("cache.misses"),
            fills: t.counter("cache.fills"),
            invalidations: t.counter("cache.invalidations"),
            offloaded: t.counter("snic.compute.offloaded"),
            offload_cycles: t.counter("snic.compute.cycles"),
        }
    }

    /// Bytes currently held across every lane's hot-key cache.
    pub fn cache_bytes(&self) -> usize {
        self.inner.borrow().caches.iter().map(|c| c.bytes()).sum()
    }

    /// Counters of the tenancy match-action stage (zeroed when no stage
    /// is installed), read from the `tenancy.*` counters of the telemetry
    /// registry.
    pub fn tenancy_stats(&self) -> TenancyStats {
        self.inner
            .borrow()
            .tenancy
            .as_ref()
            .map(Tenancy::stats)
            .unwrap_or_default()
    }

    /// Accelerator slots a registered tenant function holds in flight
    /// right now (0 when no tenancy stage is installed).
    pub fn tenancy_in_flight(&self, func: FnId) -> usize {
        self.inner
            .borrow()
            .tenancy
            .as_ref()
            .map_or(0, |t| t.in_flight(func))
    }

    /// Whether a registered tenant function currently holds accelerator
    /// memory (resident or warming). `false` when no tenancy stage is
    /// installed.
    pub fn tenancy_resident(&self, func: FnId) -> bool {
        self.inner
            .borrow()
            .tenancy
            .as_ref()
            .is_some_and(|t| t.is_resident(func))
    }

    /// Whether `service` is currently degraded to cache-only answers
    /// (serve-stale-on-overload; see
    /// [`ControlConfig::degrade_occupancy`]).
    pub fn degraded(&self, service: ServiceId) -> bool {
        let inner = self.inner.borrow();
        assert!(service.0 < inner.services.len(), "unknown service id");
        inner.services[service.0].control.degrade.active
    }

    /// Degradation switch flips so far: `(engaged, recovered)` — the
    /// `control.degrade_on` / `control.degrade_off` counters.
    pub fn degrade_transitions(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (
            inner.stats.counter("control.degrade_on"),
            inner.stats.counter("control.degrade_off"),
        )
    }

    /// Number of currently quarantined mqueues across all services.
    pub fn quarantined_queues(&self) -> usize {
        self.inner
            .borrow()
            .services
            .iter()
            .map(|s| s.dispatcher.quarantined_count())
            .sum()
    }

    fn total_mqueues(inner: &Inner) -> u32 {
        inner.services.iter().map(|s| s.mqs.len() as u32).sum()
    }

    /// The dispatcher and forwarder scan every registered mqueue of every
    /// tenant, so the per-message scan cost grows with the server-wide
    /// queue count — tenants share the SNIC's cores.
    fn dispatch_cost(inner: &Inner) -> Duration {
        inner.costs.dispatch + inner.costs.scan_per_mqueue * Self::total_mqueues(inner)
    }

    fn forward_cost(inner: &Inner) -> Duration {
        inner.costs.forward + inner.costs.scan_per_mqueue * Self::total_mqueues(inner)
    }

    // --- SNIC-resident hot-key cache & compute offload -------------------

    /// Dispatch-stage cache consult for one request on lane `lane`
    /// (before any mqueue slot or RDMA verb is allocated), admitted by
    /// the tenancy stage as `func`. Lookup and fill bookkeeping are
    /// folded into the already-charged dispatch cost: the cache lives in
    /// the dispatcher's working set, so the simulation charges no
    /// separate time for it.
    fn consult_cache(
        inner: &mut Inner,
        service: ServiceId,
        lane: usize,
        payload: &[u8],
        func: Option<FnId>,
    ) -> CacheOutcome {
        if !inner.cache_cfg.enabled {
            return CacheOutcome::Miss(None);
        }
        let Some(protocol) = inner.protocol.clone() else {
            return CacheOutcome::Miss(None);
        };
        if inner.bypasses_cache(func) {
            return CacheOutcome::Miss(None);
        }
        match protocol.classify(payload) {
            CacheOp::Get(key) => {
                let ckey = cache_key(service, func, &key);
                let resp = inner.caches[lane].lookup(&ckey, false).map(<[u8]>::to_vec);
                match resp {
                    Some(r) => {
                        inner.sites.cache_hits.add(&inner.stats, "cache.hits", 1);
                        CacheOutcome::Hit(Payload::from(r))
                    }
                    None => {
                        inner
                            .sites
                            .cache_misses
                            .add(&inner.stats, "cache.misses", 1);
                        // Lease the slot now: a SET racing the round trip
                        // voids the lease, so the response cannot install
                        // the overwritten value (memcached-style lease).
                        // While another miss for the key is in flight no
                        // lease is granted — this response is served but
                        // not cached.
                        let fill =
                            inner.caches[lane]
                                .begin_fill(&ckey)
                                .map(|token| CacheTicket::Fill {
                                    lane,
                                    key: ckey,
                                    token,
                                });
                        CacheOutcome::Miss(fill)
                    }
                }
            }
            CacheOp::Set(key) => {
                // Write-through: the SET still goes to the accelerator;
                // every lane's cached copy goes stale immediately, so no
                // fresh read can observe the overwritten value. Its
                // ticket invalidates again when the SET's reply leaves:
                // a GET dispatched after this point may still run ahead
                // of the SET on another mqueue and fill the old value.
                let ckey = cache_key(service, func, &key);
                inner.invalidate_everywhere(&ckey, &[]);
                CacheOutcome::Miss(Some(CacheTicket::Set(ckey)))
            }
            CacheOp::Other => CacheOutcome::Miss(None),
        }
    }

    /// Serve-stale lookup for a degraded service, ahead of admission
    /// control. Returns `true` when the request was answered from the
    /// cache (nothing further to do).
    ///
    /// A degraded answer is not free: the classify + lookup runs in the
    /// dispatch stage like any other consult, so the full dispatch cost
    /// is charged on the request's lane before the reply goes out —
    /// mirroring [`Self::consult_cache`]'s cost story. Degraded-mode
    /// simulated throughput therefore stays bounded by the same SNIC CPU
    /// model as normal-mode hits.
    fn try_degraded_hit(
        &self,
        sim: &mut Sim,
        service: ServiceId,
        ret: ReturnAddr,
        key: u64,
        payload: &Payload,
    ) -> bool {
        let (resp, stack, cost, lane) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.cache_cfg.enabled || !inner.services[service.0].control.degrade.active {
                return false;
            }
            let Some(protocol) = inner.protocol.clone() else {
                return false;
            };
            let CacheOp::Get(k) = protocol.classify(payload) else {
                return false;
            };
            // Tenancy composition mirrors the normal consult. Degraded
            // hits are answered ahead of the tenancy gate, so this is the
            // match stage's lookup, not a re-parse.
            let func = inner
                .tenancy
                .as_ref()
                .filter(|t| t.enabled())
                .and_then(|t| t.match_request(payload));
            if inner.bypasses_cache(func) {
                return false;
            }
            let ckey = cache_key(service, func, &k);
            let cache_lane = inner.pipeline.config().shard_of(key);
            let resp = match inner.caches[cache_lane]
                .lookup(&ckey, true)
                .map(<[u8]>::to_vec)
            {
                Some(r) => {
                    inner.sites.cache_hits.add(&inner.stats, "cache.hits", 1);
                    r
                }
                // A degraded-mode miss is not counted here: the request
                // continues to admission and, if admitted, the normal
                // dispatch consult counts it once.
                None => return false,
            };
            (
                resp,
                inner.stack.clone(),
                Self::dispatch_cost(&inner),
                inner.dispatch_lane(key),
            )
        };
        let this = self.clone();
        let payload = Payload::from(resp);
        lane.charge(&stack, sim, cost, move |sim| {
            this.send_replies(sim, service, [(ret, payload)]);
        });
        true
    }

    /// Mean mqueue occupancy over the service's unparked queues — the
    /// "mqueues backing up" signal the compute offload engages on and the
    /// control scan scales and degrades on. A fully parked fleet reads as
    /// saturated.
    fn occupancy(inner: &Inner, service: ServiceId) -> f64 {
        let svc = &inner.services[service.0];
        let (sum, active) = (0..svc.mqs.len())
            .filter(|&qi| !svc.dispatcher.is_parked(qi))
            .fold((0.0, 0usize), |(sum, n), qi| {
                let mq = &svc.mqs[qi];
                (
                    sum + mq.in_flight() as f64 / mq.config().slots as f64,
                    n + 1,
                )
            });
        match active {
            0 if svc.mqs.is_empty() => 0.0,
            0 => 1.0,
            n => sum / n as f64,
        }
    }

    /// Offers one request to the SNIC compute kernel when the service's
    /// mqueues are backed up. Returns the kernel's response and its
    /// SNIC-core cost (to be charged by the caller against the lane's
    /// CPU model) — or `None` to take the accelerator path.
    fn try_offload(
        inner: &mut Inner,
        service: ServiceId,
        payload: &[u8],
    ) -> Option<(Payload, Duration)> {
        let (kernel, min_occupancy) = inner.snic_kernel.clone()?;
        if Self::occupancy(inner, service) < min_occupancy {
            return None;
        }
        let out = kernel.execute(payload)?;
        let work = kernel.work(payload);
        inner
            .sites
            .snic_offloaded
            .add(&inner.stats, "snic.compute.offloaded", 1);
        inner
            .sites
            .snic_cycles
            .add(&inner.stats, "snic.compute.cycles", work.as_nanos() as u64);
        Some((Payload::from(out), work))
    }

    fn on_request(
        &self,
        sim: &mut Sim,
        service: ServiceId,
        ret: ReturnAddr,
        key: u64,
        payload: Payload,
    ) {
        {
            let inner = self.inner.borrow();
            inner.sites.requests.add(&inner.stats, "server.requests", 1);
            let i = service.0;
            inner.services[i].sites.requests.add_with(
                &inner.stats,
                || format!("server.svc{i}.requests"),
                1,
            );
        }
        self.arm_control(sim);
        // Serve-stale degradation: a degraded service answers cacheable
        // reads straight from the SNIC cache — stale entries included —
        // *before* the token bucket sees them, so hot-key traffic keeps
        // flowing while the bucket sheds the accelerator-bound remainder.
        if self.try_degraded_hit(sim, service, ret, key, &payload) {
            return;
        }
        if let Err(e) = self.try_admit(sim, service) {
            debug_assert!(matches!(e, Error::Overloaded { .. }));
            // Early reject: no dispatch cost charged, no RDMA verb issued.
            // The empty (0-byte) reply is the shed marker — closed-loop
            // clients observe it instead of timing out on silence.
            self.send_replies(sim, service, [(ret, Payload::new())]);
            return;
        }
        // λ-NIC match-action stage: match the payload to a registered
        // tenant function and enforce its quota and residency — after the
        // service-wide token bucket, before any dispatch cost.
        let func = match self.tenancy_gate(sim, service, &payload) {
            TenancyGate::Pass(func) => func,
            TenancyGate::Shed => {
                // Unmatched or over the tenant's quota: the empty reply is
                // the same shed marker admission control uses.
                self.send_replies(sim, service, [(ret, Payload::new())]);
                return;
            }
            TenancyGate::Warm(delay, func) => {
                // Cold start: the function's state loads on the
                // accelerator for `delay`; dispatch proceeds once warm.
                // Pure simulated wall time — no SNIC core is held.
                let this = self.clone();
                sim.schedule_in(delay, move |sim| {
                    this.dispatch_admitted(sim, service, ret, key, payload, Some(func));
                });
                return;
            }
        };
        self.dispatch_admitted(sim, service, ret, key, payload, func);
    }

    /// The post-admission half of the request path: dispatch a batch of
    /// one on the shared lane pool, or stage into the batched pipeline.
    /// Split from [`Self::on_request`] so a cold start can delay exactly
    /// this part. `func` is the tenant function the gate admitted the
    /// request as; it travels with the request instead of being matched
    /// again.
    fn dispatch_admitted(
        &self,
        sim: &mut Sim,
        service: ServiceId,
        ret: ReturnAddr,
        key: u64,
        payload: Payload,
        func: Option<FnId>,
    ) {
        self.arm_monitor(sim);
        let req = StagedRequest {
            service,
            ret,
            key,
            payload,
            func,
        };
        let mut inner = self.inner.borrow_mut();
        let cfg = inner.pipeline.config();
        if !cfg.is_batched() {
            let (stack, cost) = (inner.stack.clone(), Self::dispatch_cost(&inner));
            drop(inner);
            let this = self.clone();
            stack.charge(sim, cost, move |sim| {
                this.dispatch_batch(sim, Lane::Pool, [req]);
            });
            return;
        }
        // Batched pipeline: shard to a core, stage, and kick that core's
        // drain cycle if none is pending.
        let core = cfg.shard_of(key);
        let start = inner.pipeline.stage(core, req);
        drop(inner);
        if start {
            self.drain_cycle(sim, core);
        }
    }

    /// One drain cycle of pipeline core `core`, phase 1: charge the
    /// round-robin mqueue scan (paid once per cycle — the amortization the
    /// batch exists for), pinned to the core's own stack lane.
    fn drain_cycle(&self, sim: &mut Sim, core: usize) {
        let (stack, scan) = {
            let inner = self.inner.borrow();
            (
                inner.stack.clone(),
                inner.costs.scan_per_mqueue * Self::total_mqueues(&inner),
            )
        };
        let this = self.clone();
        stack.charge_on(sim, core, scan, move |sim| {
            this.drain_batch(sim, core);
        });
    }

    /// Drain cycle phase 2: take the batch that accumulated during the
    /// scan, charge the amortized dispatch cost (full cost for the first
    /// message, marginal for the rest), then dispatch the whole batch.
    fn drain_batch(&self, sim: &mut Sim, core: usize) {
        let (stack, cost, batch) = {
            let mut inner = self.inner.borrow_mut();
            let batch = inner.pipeline.take_batch(core);
            if batch.is_empty() {
                let _ = inner.pipeline.end_drain(core);
                return;
            }
            let k = batch.len() as u32;
            inner.sites.batches.add(&inner.stats, "pipeline.batches", 1);
            inner
                .sites
                .batched_msgs
                .add(&inner.stats, "pipeline.batched_msgs", u64::from(k));
            inner.core_dispatched[core].add_with(
                &inner.stats,
                || format!("pipeline.core{core}.dispatched"),
                u64::from(k),
            );
            let cost = inner.costs.dispatch + inner.costs.dispatch_marginal * (k - 1);
            (inner.stack.clone(), cost, batch)
        };
        let this = self.clone();
        stack.charge_on(sim, core, cost, move |sim| {
            this.dispatch_batch(sim, Lane::Core(core), batch);
            let more = this.inner.borrow_mut().pipeline.end_drain(core);
            if more {
                this.drain_cycle(sim, core);
            }
        });
    }

    /// Dispatches a batch — one message in per-message mode, a drained
    /// batch in batched mode. Each request is consulted against its lane's
    /// cache, offered to the SNIC compute kernel, or given an mqueue; then
    /// one coalesced [`RemoteMqManager::push_requests`] goes to each target
    /// mqueue — a batch of `k` requests to one queue costs one doorbell,
    /// not `k`. Offloaded kernels charge their summed work on `lane`.
    fn dispatch_batch(
        &self,
        sim: &mut Sim,
        lane: Lane,
        batch: impl IntoIterator<Item = StagedRequest>,
    ) {
        /// The requests bound for one mqueue, each with what it holds
        /// until its context is attached: its cache ticket and tenant
        /// function.
        struct Group {
            rmq: Rc<RemoteMqManager>,
            mq: Mqueue,
            items: Vec<(ReturnAddr, Payload, Option<CacheTicket>, Option<FnId>)>,
        }
        let mut groups: Vec<Group> = Vec::new();
        // SNIC-local answers produced at the dispatch stage.
        let mut hits: Vec<(ServiceId, ReturnAddr, Payload)> = Vec::new();
        let mut offloads: Vec<(ServiceId, ReturnAddr, Payload)> = Vec::new();
        let mut offload_work = Duration::ZERO;
        let stack = {
            let mut inner = self.inner.borrow_mut();
            for req in batch {
                // Dispatch shards by key, so the key's shard owns the
                // request's cache lane.
                let cache_lane = inner.pipeline.config().shard_of(req.key);
                let ticket = match Self::consult_cache(
                    &mut inner,
                    req.service,
                    cache_lane,
                    &req.payload,
                    req.func,
                ) {
                    CacheOutcome::Hit(resp) => {
                        // Answered at the SNIC: no mqueue slot, no RDMA
                        // verb, no completion to release the tenant's slot.
                        inner.release(None, req.func);
                        hits.push((req.service, req.ret, resp));
                        continue;
                    }
                    CacheOutcome::Miss(ticket) => ticket,
                };
                if let Some((resp, work)) = Self::try_offload(&mut inner, req.service, &req.payload)
                {
                    // The kernel answers instead of the accelerator: no
                    // response will fill.
                    inner.release(ticket, req.func);
                    offload_work += work;
                    offloads.push((req.service, req.ret, resp));
                    continue;
                }
                let i = req.service.0;
                let svc = &mut inner.services[i];
                let policy = svc.dispatcher.policy().name();
                let picked = svc
                    .dispatcher
                    .pick(&svc.mqs, req.key)
                    .map(|qi| (Rc::clone(&svc.owners[qi]), svc.mqs[qi].clone()));
                Self::count_dispatch(&inner, i, policy, picked.is_some());
                sim.trace(|| TraceEvent::Dispatch {
                    policy,
                    queue: picked.as_ref().map(|(_, mq)| mq.label()),
                });
                let item = (req.ret, req.payload, ticket, req.func);
                match picked {
                    // Grouped by identity, not label: labels come from
                    // region names, which need not be unique.
                    Some((rmq, mq)) => match groups.iter_mut().find(|g| g.mq.same(&mq)) {
                        Some(g) => g.items.push(item),
                        None => groups.push(Group {
                            rmq,
                            mq,
                            items: vec![item],
                        }),
                    },
                    // Dropped (all queues full): no response will ever
                    // fill the leased slot or complete the tenant's
                    // dispatch.
                    None => inner.release(item.2, item.3),
                }
            }
            inner.stack.clone()
        };
        // One reply batch per service for the hits; one reply per kernel
        // answer once the kernels' work is charged.
        for (i, &(svc, ..)) in hits.iter().enumerate() {
            if hits[..i].iter().all(|&(s, ..)| s != svc) {
                let mine = hits[i..].iter().filter(|&&(s, ..)| s == svc);
                self.send_replies(sim, svc, mine.map(|(_, ret, p)| (*ret, p.clone())));
            }
        }
        if !offloads.is_empty() {
            let this = self.clone();
            lane.charge(&stack, sim, offload_work, move |sim| {
                for (svc, ret, resp) in offloads {
                    this.send_replies(sim, svc, [(ret, resp)]);
                }
            });
        }
        for mut g in groups {
            // Per-item backpressure/transport outcomes were already
            // counted (drops on the mqueue sink, giveups by the retry
            // machinery); a failed item never aborts the batch.
            let sends = g
                .items
                .iter_mut()
                .map(|(ret, p, ..)| (*ret, std::mem::take(p)));
            let results = g.rmq.push_requests(sim, &g.mq, sends);
            let now = sim.now();
            for (result, (_, _, ticket, func)) in results.into_iter().zip(g.items) {
                match result {
                    Ok(seq) => g.mq.attach(seq, now, ticket, func),
                    // Rejected by backpressure: the request never got a
                    // slot, so what it holds is released here.
                    Err(_) => self.inner.borrow_mut().release(ticket, func),
                }
            }
        }
    }

    /// Counts one dispatch decision on the pre-interned handles:
    /// `dispatch.picks.<policy>`, `server.<outcome>` and
    /// `server.svc<i>.<outcome>`.
    fn count_dispatch(inner: &Inner, service: usize, policy: &'static str, dispatched: bool) {
        let svc = &inner.services[service];
        svc.sites
            .picks
            .add_with(&inner.stats, || format!("dispatch.picks.{policy}"), 1);
        if dispatched {
            inner
                .sites
                .dispatched
                .add(&inner.stats, "server.dispatched", 1);
            svc.sites.dispatched.add_with(
                &inner.stats,
                || format!("server.svc{service}.dispatched"),
                1,
            );
        } else {
            inner.sites.dropped.add(&inner.stats, "server.dropped", 1);
            svc.sites
                .dropped
                .add_with(&inner.stats, || format!("server.svc{service}.dropped"), 1);
        }
    }

    /// Average delay before the forwarder's round-robin poll cycle reaches
    /// a freshly-rung TX doorbell (half a full scan over every tenant's
    /// queues).
    fn detection_delay(inner: &Inner) -> Duration {
        inner.costs.poll_rtt_per_mqueue * Self::total_mqueues(inner) / 2
    }

    /// A response doorbell rang on `mq`: schedule a forward cycle after
    /// the poll's detection delay. A gated (batched) queue runs at most one
    /// pending cycle, which collects every response that lands meanwhile.
    fn on_response_ready(
        &self,
        sim: &mut Sim,
        service: ServiceId,
        mq: Mqueue,
        rmq: Rc<RemoteMqManager>,
        gate: Option<Rc<Cell<bool>>>,
        core: usize,
    ) {
        // Checked before the poll counter: a coalesced doorbell is not a
        // poll.
        if gate.as_ref().is_some_and(|g| g.replace(true)) {
            return;
        }
        let detect = {
            let inner = self.inner.borrow();
            inner
                .sites
                .forward_polls
                .add(&inner.stats, "server.forward_polls", 1);
            Self::detection_delay(&inner)
        };
        let this = self.clone();
        sim.schedule_in(detect, move |sim| {
            this.forward(sim, service, mq, rmq, gate, core);
        });
    }

    /// One forward cycle for `mq`. Ungated (per-message mode) it collects
    /// one response on the shared lane pool. Gated (batched mode) it
    /// collects everything pending, up to the batch limit, as one chained
    /// RDMA read on the queue's owner core, charged the amortized forward
    /// cost, then re-arms if responses kept arriving. Each response is
    /// settled as its reply goes out.
    fn forward(
        &self,
        sim: &mut Sim,
        service: ServiceId,
        mq: Mqueue,
        rmq: Rc<RemoteMqManager>,
        gate: Option<Rc<Cell<bool>>>,
        core: usize,
    ) {
        let (lane, k, stack, cost) = {
            let inner = self.inner.borrow();
            let (lane, k) = match &gate {
                None => (Lane::Pool, 1),
                Some(g) => {
                    let pending = mq.pending_responses() as usize;
                    if pending == 0 {
                        g.set(false);
                        return;
                    }
                    let k = pending.min(inner.pipeline.config().batch_limit());
                    inner
                        .sites
                        .forward_batches
                        .add(&inner.stats, "pipeline.forward_batches", 1);
                    inner.sites.forward_batched_msgs.add(
                        &inner.stats,
                        "pipeline.forward_batched_msgs",
                        k as u64,
                    );
                    (Lane::Core(core), k)
                }
            };
            let cost = Self::forward_cost(&inner) + inner.costs.forward_marginal * (k as u32 - 1);
            (lane, k, inner.stack.clone(), cost)
        };
        let this = self.clone();
        lane.charge(&stack, sim, cost, move |sim| {
            let (mq2, rmq2) = (mq.clone(), Rc::clone(&rmq));
            rmq.pull_responses(sim, &mq, k, move |sim, collected| {
                let now = sim.now();
                let replies = collected.into_iter().filter_map(|(ctx, payload)| {
                    this.inner
                        .borrow_mut()
                        .settle(now, service, &mq2, ctx, payload)
                });
                this.send_replies(sim, service, replies);
                this.inner.borrow().publish_cache_bytes();
                if let Some(gate) = gate {
                    gate.set(false);
                    if mq2.pending_responses() > 0 {
                        // More responses landed while this cycle ran:
                        // start the next one (fresh detection delay).
                        this.on_response_ready(sim, service, mq2, rmq2, Some(gate), core);
                    }
                }
            });
        });
    }

    /// Routes replies back to their clients in as few stack invocations as
    /// possible: all UDP replies go out as one
    /// [`HostStack::send_udp_batch`] (in order), TCP replies — which need
    /// per-connection framing — individually. A reply that cannot be
    /// routed (no return address, or a UDP reply from a service that
    /// never bound a UDP port) is shed and counted as `server.unroutable`
    /// without disturbing the rest.
    fn send_replies(
        &self,
        sim: &mut Sim,
        service: ServiceId,
        replies: impl IntoIterator<Item = (ReturnAddr, Payload)>,
    ) {
        let (stack, port) = {
            let inner = self.inner.borrow();
            (inner.stack.clone(), inner.services[service.0].udp_port)
        };
        let mut udp: Vec<(SockAddr, Payload)> = Vec::new();
        for (ret, payload) in replies {
            match (ret, port) {
                (ReturnAddr::Udp(addr), Some(_)) => {
                    self.count_reply(service);
                    udp.push((addr, payload));
                }
                (ReturnAddr::Tcp(conn), _) => {
                    self.count_reply(service);
                    stack.send_tcp(sim, conn, payload);
                }
                _ => self.count_unroutable(),
            }
        }
        if let Some(port) = port {
            stack.send_udp_batch(sim, port, udp);
        }
    }

    fn count_reply(&self, service: ServiceId) {
        let inner = self.inner.borrow();
        inner.sites.replies.add(&inner.stats, "server.replies", 1);
        let i = service.0;
        inner.services[i].sites.replies.add_with(
            &inner.stats,
            || format!("server.svc{i}.replies"),
            1,
        );
    }

    fn count_unroutable(&self) {
        let inner = self.inner.borrow();
        inner
            .sites
            .unroutable
            .add(&inner.stats, "server.unroutable", 1);
    }

    fn on_backend_call(
        &self,
        sim: &mut Sim,
        mq: Mqueue,
        rmq: Rc<RemoteMqManager>,
        bridge: Rc<RefCell<BackendBridge>>,
    ) {
        let (stack, cost) = {
            let inner = self.inner.borrow();
            (inner.stack.clone(), Self::forward_cost(&inner))
        };
        let this = self.clone();
        let stack2 = stack.clone();
        stack.charge(sim, cost, move |sim| {
            rmq.pull_responses(sim, &mq, 1, move |sim, collected| {
                // A call the transport gave up on is lost, like a dropped
                // packet.
                for payload in collected.into_iter().filter_map(|(_, p)| p) {
                    {
                        let inner = this.inner.borrow();
                        inner
                            .sites
                            .backend_calls
                            .add(&inner.stats, "server.backend_calls", 1);
                    }
                    let conn = bridge.borrow().conn;
                    match conn {
                        Some(conn) => stack2.send_tcp(sim, conn, payload),
                        None => bridge.borrow_mut().queued.push(payload),
                    }
                }
            });
        });
    }

    fn on_backend_response(
        &self,
        sim: &mut Sim,
        mq: Mqueue,
        rmq: Rc<RemoteMqManager>,
        payload: Payload,
    ) {
        let (stack, cost) = {
            let inner = self.inner.borrow();
            (inner.stack.clone(), Self::dispatch_cost(&inner))
        };
        stack.charge(sim, cost, move |sim| {
            // A full client ring sheds the backend response; the mqueue's
            // sink counts the drop.
            rmq.push_requests(sim, &mq, [(ReturnAddr::Fixed, payload)]);
        });
    }

    // --- SNIC health monitor ---------------------------------------------

    /// Arms the periodic health scan (idempotent; no-op when recovery is
    /// disabled). Called on every incoming request so the monitor only
    /// runs while the server is live.
    fn arm_monitor(&self, sim: &mut Sim) {
        let interval = {
            let mut inner = self.inner.borrow_mut();
            if !inner.recovery.enabled || inner.monitor_armed {
                return;
            }
            inner.monitor_armed = true;
            inner.recovery.scan_interval
        };
        let this = self.clone();
        sim.schedule_in(interval, move |sim| this.health_scan(sim));
    }

    fn health_scan(&self, sim: &mut Sim) {
        enum Act {
            Quarantine(String),
            Readmit(String),
        }
        let now = sim.now();
        let mut acts = Vec::new();
        let rearm = {
            let mut inner = self.inner.borrow_mut();
            let threshold = inner.recovery.stall_threshold;
            let stats = inner.stats.clone();
            let mut live_work = false;
            let mut quarantined: Vec<Mqueue> = Vec::new();
            for svc in inner.services.iter_mut() {
                for qi in 0..svc.mqs.len() {
                    let mq = &svc.mqs[qi];
                    let responses = mq.responses();
                    let in_flight = mq.in_flight();
                    let h = &mut svc.health[qi];
                    let progressed = responses > h.last_responses;
                    if progressed || in_flight == 0 {
                        h.last_responses = responses;
                        h.last_progress = now;
                    }
                    if svc.dispatcher.is_quarantined(qi) {
                        // Re-admit on any sign of life: new responses, or a
                        // fully drained backlog.
                        if progressed || in_flight == 0 {
                            svc.dispatcher.readmit(qi);
                            stats.count("dispatch.readmitted", 1);
                            acts.push(Act::Readmit(mq.label()));
                            if in_flight > 0 {
                                live_work = true;
                            }
                        }
                        // A wedged quarantined queue (crashed accelerator)
                        // does NOT keep the monitor armed: its backlog will
                        // never drain, and the simulation must terminate.
                    } else if in_flight > 0 && now >= h.last_progress + threshold {
                        svc.dispatcher.quarantine(qi);
                        stats.count("dispatch.quarantined", 1);
                        acts.push(Act::Quarantine(mq.label()));
                        // A quarantined queue may never answer (crash):
                        // release what its in-flight requests hold.
                        quarantined.push(mq.clone());
                    } else if in_flight > 0 {
                        live_work = true;
                    }
                }
            }
            for mq in &quarantined {
                inner.release_in_flight(mq);
            }
            if !live_work {
                inner.monitor_armed = false;
            }
            live_work
        };
        for act in acts {
            match act {
                Act::Quarantine(queue) => sim.trace(|| TraceEvent::Quarantine { queue }),
                Act::Readmit(queue) => sim.trace(|| TraceEvent::Readmit { queue }),
            }
        }
        if rearm {
            let interval = self.inner.borrow().recovery.scan_interval;
            let this = self.clone();
            sim.schedule_in(interval, move |sim| this.health_scan(sim));
        }
    }

    // --- Elastic control plane -------------------------------------------

    /// Admission control at the very front of the request path: refills
    /// the service's token bucket from the simulated clock and takes one
    /// token, or rejects with [`Error::Overloaded`] — before any dispatch
    /// cost is charged or RDMA verb issued.
    fn try_admit(&self, sim: &Sim, service: ServiceId) -> crate::Result<()> {
        let mut inner = self.inner.borrow_mut();
        let cfg = inner.control;
        if !cfg.enabled || cfg.admission_rate <= 0.0 {
            return Ok(());
        }
        let now = sim.now();
        let i = service.0;
        if inner.services[i]
            .control
            .bucket
            .admit(now, cfg.admission_rate, cfg.admission_burst)
        {
            return Ok(());
        }
        inner.sites.shed.add(&inner.stats, "dispatch.shed", 1);
        inner.services[i]
            .sites
            .shed
            .add_with(&inner.stats, || format!("server.svc{i}.shed"), 1);
        Err(Error::Overloaded { service: i })
    }

    /// Runs the λ-NIC match-action stage for one request: match the
    /// payload to a registered function, charge its quota and decide its
    /// residency. An admitted request holds one tenant in-flight slot,
    /// released once when it leaves the server (collected, or through
    /// [`Inner::release`]); the matched function travels with the
    /// request.
    fn tenancy_gate(&self, sim: &Sim, service: ServiceId, payload: &Payload) -> TenancyGate {
        let mut inner = self.inner.borrow_mut();
        let Some(tenancy) = inner.tenancy.as_mut().filter(|t| t.enabled()) else {
            return TenancyGate::Pass(None);
        };
        match tenancy.decide(sim.now(), service.0, payload) {
            Ok(a) if a.delay.is_zero() => TenancyGate::Pass(Some(a.func)),
            Ok(a) => TenancyGate::Warm(a.delay, a.func),
            Err(e) => {
                debug_assert!(matches!(
                    e,
                    Error::Overloaded { .. } | Error::Unroutable { .. }
                ));
                TenancyGate::Shed
            }
        }
    }

    /// Arms the periodic control scan (idempotent; no-op when the control
    /// plane is disabled). On the very first arm it parks each service's
    /// fleet down to [`ControlConfig::min_workers`] — construction itself
    /// stays side-effect free.
    fn arm_control(&self, sim: &mut Sim) {
        let interval = {
            let mut inner = self.inner.borrow_mut();
            if !inner.control.enabled || inner.control_armed {
                return;
            }
            inner.control_armed = true;
            if !inner.control_initialized {
                inner.control_initialized = true;
                let min = inner.control.min_workers;
                for svc in inner.services.iter_mut() {
                    for qi in min..svc.mqs.len() {
                        svc.dispatcher.park(qi);
                    }
                }
            }
            inner.control.scan_interval
        };
        let this = self.clone();
        sim.schedule_in(interval, move |sim| this.control_scan(sim));
    }

    /// One control-scan tick: finish pending drains, close each service's
    /// observation window, and act on the hysteresis-filtered decision.
    /// Runs on the dedicated control lane — its cost is modeled as the
    /// `control.lane_util` gauge, not charged to the request-path cores.
    fn control_scan(&self, sim: &mut Sim) {
        let mut drains: Vec<Mqueue> = Vec::new();
        let mut provisions: Vec<(ServiceId, usize, String)> = Vec::new();
        let mut parked: Vec<String> = Vec::new();
        let mut degrade_flips: Vec<(usize, bool)> = Vec::new();
        let (rearm, interval) = {
            let mut inner = self.inner.borrow_mut();
            let cfg = inner.control;
            let cache_on = inner.cache_cfg.enabled && inner.protocol.is_some();
            let stats = inner.stats.clone();
            stats.count("control.scans", 1);
            let mut live = false;
            for si in 0..inner.services.len() {
                // Mean occupancy over the active queues. `occupancy` reads
                // a non-empty, fully parked fleet as saturated; that state
                // never reaches this scan: validation forces
                // `min_workers >= 1` whenever the control plane is on, and
                // scale-in never parks below it.
                let occupancy = Self::occupancy(&inner, ServiceId(si));
                let svc = &mut inner.services[si];
                // 1. A queue parked by scale-in whose backlog has flushed
                //    is drained: its staged slot buffers return to the
                //    scratch pool instead of lingering until drop.
                let flushed: Vec<usize> = svc
                    .control
                    .draining
                    .iter()
                    .copied()
                    .filter(|&qi| svc.mqs[qi].in_flight() == 0)
                    .collect();
                for qi in flushed {
                    svc.control.draining.remove(&qi);
                    drains.push(svc.mqs[qi].clone());
                }
                // 2. Close the observation window.
                let window = svc.control.latency.roll();
                let p99 = (!window.is_empty()).then(|| window.percentile(99.0));
                // 3. The queues scaling acts on.
                let active: Vec<usize> = (0..svc.mqs.len())
                    .filter(|&qi| !svc.dispatcher.is_parked(qi))
                    .collect();
                if svc.mqs.iter().any(|m| m.in_flight() > 0) {
                    live = true;
                }
                // 4. The serve-stale switch reads the same occupancy
                //    signal, one band above scale-out pressure: it is the
                //    step *before* token-bucket shedding, engaged and
                //    released with its own hysteresis.
                if cache_on {
                    if let Some(on) = svc.control.degrade.decide(&cfg, occupancy) {
                        stats.count(
                            if on {
                                "control.degrade_on"
                            } else {
                                "control.degrade_off"
                            },
                            1,
                        );
                        degrade_flips.push((si, on));
                    }
                    stats.gauge(
                        &format!("control.svc{si}.degraded"),
                        if svc.control.degrade.active { 1.0 } else { 0.0 },
                    );
                }
                // 5. Act once enough consecutive windows agree.
                match svc.control.hysteresis.decide(&cfg, occupancy, p99) {
                    ScaleDecision::Out => {
                        let max = if cfg.max_workers == 0 {
                            svc.mqs.len()
                        } else {
                            cfg.max_workers.min(svc.mqs.len())
                        };
                        // Workers already live plus workers mid-provision.
                        let committed = active.len() + svc.control.provisioning.len();
                        if committed < max {
                            // Lowest-index parked queue not already in
                            // motion — deterministic and index-stable.
                            let next = (0..svc.mqs.len()).find(|qi| {
                                svc.dispatcher.is_parked(*qi)
                                    && !svc.control.provisioning.contains(qi)
                                    && !svc.control.draining.contains(qi)
                            });
                            if let Some(qi) = next {
                                svc.control.provisioning.insert(qi);
                                provisions.push((ServiceId(si), qi, svc.mqs[qi].label()));
                            }
                        }
                    }
                    ScaleDecision::In => {
                        if active.len() > cfg.min_workers && svc.control.provisioning.is_empty() {
                            // Highest-index active queue parks, then
                            // drains once its backlog flushes.
                            if let Some(&qi) = active.last() {
                                svc.dispatcher.park(qi);
                                svc.control.draining.insert(qi);
                                stats.count("control.scale_in", 1);
                                parked.push(svc.mqs[qi].label());
                            }
                        }
                    }
                    ScaleDecision::Hold => {}
                }
                let workers = svc.mqs.len() - svc.dispatcher.parked_count();
                stats.gauge(&format!("control.svc{si}.workers"), workers as f64);
            }
            // The control task's own load on its dedicated SNIC lane: one
            // occupancy probe per registered mqueue per scan.
            let scan_cost = inner.costs.scan_per_mqueue * Self::total_mqueues(&inner);
            stats.gauge(
                "control.lane_util",
                scan_cost.as_secs_f64() / cfg.scan_interval.as_secs_f64(),
            );
            let transitions = !provisions.is_empty()
                || inner
                    .services
                    .iter()
                    .any(|s| !s.control.draining.is_empty() || !s.control.provisioning.is_empty());
            let rearm = live || transitions;
            if !rearm {
                // Disarmed on idle so the simulation can terminate; the
                // next request re-arms the scan.
                inner.control_armed = false;
            }
            (rearm, cfg.scan_interval)
        };
        for mq in drains {
            mq.drain(sim);
        }
        for label in parked {
            sim.trace(|| TraceEvent::Custom {
                track: "control".into(),
                name: "ScaleIn".into(),
                detail: format!("park {label}"),
            });
        }
        for (si, on) in degrade_flips {
            sim.trace(|| TraceEvent::Custom {
                track: "control".into(),
                name: if on { "DegradeOn" } else { "DegradeOff" }.into(),
                detail: format!(
                    "svc{si} cache-only serve-stale {}",
                    if on { "engaged" } else { "released" }
                ),
            });
        }
        for (service, qi, label) in provisions {
            sim.trace(|| TraceEvent::Custom {
                track: "control".into(),
                name: "ScaleOut".into(),
                detail: format!("provision {label}"),
            });
            let this = self.clone();
            let provision = { self.inner.borrow().costs.provision };
            sim.schedule_in(provision, move |sim| {
                this.finish_provision(sim, service, qi);
            });
        }
        if rearm {
            let this = self.clone();
            sim.schedule_in(interval, move |sim| this.control_scan(sim));
        }
    }

    /// Completes one scale-out: the provisioning delay elapsed, the
    /// worker's persistent kernel is live, and its queue rejoins the
    /// dispatch set.
    fn finish_provision(&self, sim: &mut Sim, service: ServiceId, qi: usize) {
        let (label, stats) = {
            let mut inner = self.inner.borrow_mut();
            let stats = inner.stats.clone();
            let svc = &mut inner.services[service.0];
            svc.control.provisioning.remove(&qi);
            svc.dispatcher.unpark(qi);
            (svc.mqs[qi].label(), stats)
        };
        stats.count("control.scale_out", 1);
        sim.trace(|| TraceEvent::Custom {
            track: "control".into(),
            name: "WorkerUp".into(),
            detail: format!("unpark {label}"),
        });
    }
}

/// Steering key for a UDP client: the client's *host* identity, not its
/// ephemeral source port — a client machine keeps hitting the same mqueue
/// across requests (stateful services, §4.2).
fn hash_client(addr: &SockAddr) -> u64 {
    let mut h = DefaultHasher::new();
    addr.host.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_properties() {
        assert_eq!(SnicPlatform::Bluefield.cores(), 7);
        assert_eq!(SnicPlatform::HostCores(6).cores(), 6);
        assert_eq!(SnicPlatform::Bluefield.cpu_kind(), CpuKind::ArmA72);
        assert_eq!(SnicPlatform::Bluefield.to_string(), "Bluefield");
        assert_eq!(SnicPlatform::HostCores(1).to_string(), "1 Xeon core");
    }

    #[test]
    fn arm_cost_model_is_heavier() {
        let arm = CostModel::for_cpu(CpuKind::ArmA72);
        let xeon = CostModel::for_cpu(CpuKind::XeonE5);
        assert!(arm.dispatch > xeon.dispatch);
        assert!(arm.forward > xeon.forward);
        assert!(arm.scan_per_mqueue > xeon.scan_per_mqueue);
    }

    #[test]
    fn recovery_defaults_are_sane() {
        let cfg = RecoveryConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.stall_threshold > cfg.scan_interval);
        assert!(!RecoveryConfig::disabled().enabled);
    }
}
