//! Fluent construction of a [`LynxServer`].
//!
//! Replaces the imperative `new` / `add_accelerator` / `add_server_mqueue`
//! / `listen_udp` call sequence with a declarative description that is
//! validated as a whole at [`LynxServerBuilder::build`] time: invalid
//! accelerator references, empty deployments, and other misconfigurations
//! surface as [`Error::Config`](crate::Error::Config) instead of panics or
//! silently-broken servers. See [`LynxServerBuilder`] for an example.

use std::rc::Rc;

use lynx_net::{HostStack, SockAddr};
use lynx_sim::{Sim, Telemetry};

use crate::cache::{CacheConfig, CacheProtocol, SnicKernel};
use crate::pipeline::{BatchPolicy, PipelineConfig};
use crate::tenancy::{FunctionRegistry, Tenancy, TenancyConfig};
use crate::{
    ControlConfig, CostModel, DispatchPolicy, LynxServer, Mqueue, RecoveryConfig, RemoteMqManager,
    ServiceId, Validate,
};

enum Listener {
    Udp(u16),
    Tcp(u16),
}

/// Renders one validation error for the builder's aggregate message.
fn config_message(e: crate::Error) -> String {
    match e {
        crate::Error::Config(msg) => msg,
        crate::Error::InvalidConfig { field, reason } => format!("{field}: {reason}"),
        other => other.to_string(),
    }
}

/// One tenant service being described.
struct ServiceSpec {
    policy: DispatchPolicy,
    mqueues: Vec<(usize, Mqueue)>,
    listeners: Vec<Listener>,
}

/// Declarative builder for a [`LynxServer`].
///
/// ```
/// # use lynx_core::testbed::Machine;
/// # use lynx_core::{DispatchPolicy, LynxServerBuilder, Mqueue, MqueueConfig,
/// #                 MqueueKind, RemoteMqManager};
/// # use lynx_device::GpuSpec;
/// # use lynx_net::{Network, StackKind};
/// # use lynx_sim::Sim;
/// # let mut sim = Sim::new(0);
/// # let net = Network::new();
/// # let machine = Machine::new(&net, "server-0");
/// # let gpu = machine.add_gpu(GpuSpec::k40m());
/// # let cfg = MqueueConfig::default();
/// # let base = gpu.alloc(cfg.required_bytes());
/// # let mq = Mqueue::new(MqueueKind::Server, gpu.mem(), base, cfg);
/// # let stack = machine.host_stack(1, StackKind::Vma);
/// let server = LynxServerBuilder::new(stack)
///     .policy(DispatchPolicy::RoundRobin)
///     .accelerator(RemoteMqManager::new(machine.rdma_nic().loopback_qp()))
///     .server_mqueue(0, mq)
///     .listen_udp(7000)
///     .build(&mut sim)
///     .expect("valid deployment");
/// ```
///
/// Methods configuring queues and listeners apply to the *current* tenant
/// service — the default one until [`LynxServerBuilder::service`] opens
/// another (multi-tenancy, §4.5).
pub struct LynxServerBuilder {
    stack: HostStack,
    costs: Option<CostModel>,
    recovery: RecoveryConfig,
    control: ControlConfig,
    pipeline: PipelineConfig,
    accels: Vec<RemoteMqManager>,
    services: Vec<ServiceSpec>,
    bridges: Vec<(usize, Mqueue, SockAddr)>,
    cache: CacheConfig,
    cache_protocol: Option<Rc<dyn CacheProtocol>>,
    snic_compute: Option<(Rc<dyn SnicKernel>, f64)>,
    tenancy: Option<(TenancyConfig, FunctionRegistry)>,
    errors: Vec<String>,
}

impl std::fmt::Debug for LynxServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LynxServerBuilder")
            .field("accelerators", &self.accels.len())
            .field("services", &self.services.len())
            .field("errors", &self.errors)
            .finish()
    }
}

impl LynxServerBuilder {
    /// Starts describing a server that processes messages on `stack`.
    ///
    /// Defaults: ARM (BlueField) cost model, round-robin dispatch, and
    /// SNIC-side recovery **enabled** with [`RecoveryConfig::default`].
    pub fn new(stack: HostStack) -> LynxServerBuilder {
        LynxServerBuilder {
            stack,
            costs: None,
            recovery: RecoveryConfig::default(),
            control: ControlConfig::disabled(),
            pipeline: PipelineConfig::default(),
            accels: Vec::new(),
            services: vec![ServiceSpec {
                policy: DispatchPolicy::RoundRobin,
                mqueues: Vec::new(),
                listeners: Vec::new(),
            }],
            bridges: Vec::new(),
            cache: CacheConfig::disabled(),
            cache_protocol: None,
            snic_compute: None,
            tenancy: None,
            errors: Vec::new(),
        }
    }

    /// Sets the per-message CPU cost model (defaults to the BlueField ARM
    /// cores' model).
    pub fn cost_model(mut self, costs: CostModel) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Sets the per-message CPU costs from a typed platform profile
    /// (equivalent to `cost_model(CostModel::from_profile(profile))`).
    pub fn cost_profile(self, profile: &dyn lynx_device::CostProfile) -> Self {
        self.cost_model(CostModel::from_profile(profile))
    }

    /// Sets the dispatch policy of the *current* service.
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.services.last_mut().expect("one service always").policy = policy;
        self
    }

    /// Sets the SNIC health-monitor policy ([`RecoveryConfig::disabled`]
    /// reproduces the pre-recovery server).
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = cfg;
        self
    }

    /// Enables the SLO-driven elastic control plane: telemetry-fed
    /// scale-out/scale-in of the registered remote-GPU workers plus
    /// token-bucket admission control (see [`ControlConfig`]). Disabled
    /// by default — the static server of earlier releases.
    ///
    /// The configuration is validated at [`LynxServerBuilder::build`]
    /// time together with everything else.
    pub fn control(mut self, cfg: ControlConfig) -> Self {
        self.control = cfg;
        self
    }

    /// Shards the dispatcher and forwarder across `n` simulated SNIC
    /// cores. Requests shard by client hash, response forwarding by
    /// mqueue registration order; each core's work is charged to its own
    /// stack lane, so `n` must not exceed the lanes of the stack passed
    /// to [`LynxServerBuilder::new`] (checked at build time).
    pub fn snic_cores(mut self, n: usize) -> Self {
        self.pipeline.snic_cores = n;
        self
    }

    /// Sets the batching policy of the request and response pipelines
    /// (defaults to `BatchPolicy::Fixed(1)`: per-message dispatch on the
    /// shared lane pool).
    pub fn batch(mut self, policy: BatchPolicy) -> Self {
        self.pipeline.batch = policy;
        self
    }

    /// Sets the full pipeline configuration in one call (equivalent to
    /// [`LynxServerBuilder::snic_cores`] + [`LynxServerBuilder::batch`]).
    pub fn pipeline(mut self, cfg: PipelineConfig) -> Self {
        self.pipeline = cfg;
        self
    }

    /// Enables the SNIC-resident hot-key cache (ROADMAP item 4): a
    /// per-lane CLOCK cache over a byte budget consulted in the dispatch
    /// stage *before* any mqueue slot or RDMA verb is allocated. A hit
    /// replies straight from the SNIC via the (batched) UDP path; a miss
    /// takes the accelerator path unchanged and populates the cache when
    /// the response is forwarded. Requires a
    /// [`LynxServerBuilder::cache_protocol`] to classify payloads —
    /// enabling the cache without one is a build-time error.
    pub fn cache(mut self, cfg: CacheConfig) -> Self {
        self.cache = cfg;
        self
    }

    /// Sets the protocol lens the cache uses to classify request payloads
    /// into GET/SET/other and to decide which responses are cacheable
    /// (e.g. the memcached-style `lynx-apps` KV wire format).
    pub fn cache_protocol(mut self, protocol: Rc<dyn CacheProtocol>) -> Self {
        self.cache_protocol = Some(protocol);
        self
    }

    /// Registers a SNIC-compute offload kernel: when the mean occupancy of
    /// a service's mqueues reaches `min_occupancy` (a fraction in `[0, 1]`
    /// of in-flight slots), dispatch runs `kernel` on spare SNIC-core
    /// cycles instead of enqueuing to the accelerator, charging
    /// [`SnicKernel::work`](crate::SnicKernel::work) against the per-lane
    /// CPU cost model so the simulation stays honest.
    pub fn snic_compute(mut self, kernel: Rc<dyn SnicKernel>, min_occupancy: f64) -> Self {
        self.snic_compute = Some((kernel, min_occupancy));
        self
    }

    /// Installs the λ-NIC-style multi-tenancy stage
    /// ([`crate::tenancy`]): a function registry matched against every
    /// request header, per-tenant quotas and token buckets, deterministic
    /// cold-start latency and LRU residency eviction over the configured
    /// accelerator-memory budget.
    ///
    /// Validation happens in [`LynxServerBuilder::build`]; an enabled
    /// config with an empty registry, a zero memory budget or an invalid
    /// quota is reported through the aggregate
    /// [`Error::Config`](crate::Error::Config).
    pub fn tenancy(mut self, cfg: TenancyConfig, registry: FunctionRegistry) -> Self {
        self.tenancy = Some((cfg, registry));
        self
    }

    /// Registers an accelerator through its Remote MQ Manager.
    /// Accelerators receive sequential ids starting at 0, used by
    /// [`LynxServerBuilder::server_mqueue`] and
    /// [`LynxServerBuilder::backend_bridge`].
    pub fn accelerator(mut self, rmq: RemoteMqManager) -> Self {
        self.accels.push(rmq);
        self
    }

    /// Opens an additional tenant service (§4.5); subsequent
    /// `server_mqueue` / `listen_*` calls apply to it. Returns the builder;
    /// the new service's [`ServiceId`] is its position in declaration
    /// order (the default service is `ServiceId(0)`, the first `service`
    /// call opens `ServiceId(1)`, ...).
    pub fn service(mut self, policy: DispatchPolicy) -> Self {
        self.services.push(ServiceSpec {
            policy,
            mqueues: Vec::new(),
            listeners: Vec::new(),
        });
        self
    }

    /// Attaches a server mqueue of accelerator `accel` to the current
    /// service.
    pub fn server_mqueue(mut self, accel: usize, mq: Mqueue) -> Self {
        if let Err(e) = mq.config().validate() {
            self.errors
                .push(format!("mqueue '{}': {}", mq.label(), config_message(e)));
        }
        self.services
            .last_mut()
            .expect("one service always")
            .mqueues
            .push((accel, mq));
        self
    }

    /// Bridges a client mqueue of accelerator `accel` to the backend
    /// service at `dst` (§4.3).
    pub fn backend_bridge(mut self, accel: usize, mq: Mqueue, dst: SockAddr) -> Self {
        self.bridges.push((accel, mq, dst));
        self
    }

    /// Listens for UDP clients of the current service on `port`.
    pub fn listen_udp(mut self, port: u16) -> Self {
        self.services
            .last_mut()
            .expect("one service always")
            .listeners
            .push(Listener::Udp(port));
        self
    }

    /// Listens for TCP clients of the current service on `port`.
    pub fn listen_tcp(mut self, port: u16) -> Self {
        self.services
            .last_mut()
            .expect("one service always")
            .listeners
            .push(Listener::Tcp(port));
        self
    }

    /// Validates the description and assembles the server.
    ///
    /// The server's statistics registry is bound to the simulation's
    /// telemetry registry when telemetry is enabled, so `server.*`,
    /// `dispatch.*` and `mqueue.*` counters appear in telemetry exports
    /// and [`LynxServer::stats`] reads the very same cells.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`](crate::Error::Config) listing every
    /// problem found: out-of-range accelerator ids, no accelerators, a
    /// service with listeners but no mqueues, or invalid mqueue geometry.
    pub fn build(self, sim: &mut Sim) -> crate::Result<LynxServer> {
        let mut errors = self.errors;
        if self.accels.is_empty() {
            errors.push("no accelerators registered".into());
        }
        let n_accels = self.accels.len();
        for (si, svc) in self.services.iter().enumerate() {
            for (accel, mq) in &svc.mqueues {
                if *accel >= n_accels {
                    errors.push(format!(
                        "service {si}: mqueue '{}' references accelerator {accel}, \
                         but only {n_accels} are registered",
                        mq.label()
                    ));
                }
            }
            if !svc.listeners.is_empty() && svc.mqueues.is_empty() {
                errors.push(format!("service {si} has listeners but no server mqueues"));
            }
        }
        // Every config validates through the one `Validate` trait; the
        // pipeline additionally cross-checks against the stack's lanes.
        if let Err(e) = self.pipeline.check(self.stack.cores().lanes()) {
            errors.push(config_message(e));
        }
        if let Err(e) = self.control.validate() {
            errors.push(config_message(e));
        }
        if let Err(e) = self.cache.validate() {
            errors.push(config_message(e));
        }
        if self.cache.enabled && self.cache_protocol.is_none() {
            errors.push(
                "cache.enabled: requires a cache_protocol to classify payloads \
                 (see LynxServerBuilder::cache_protocol)"
                    .into(),
            );
        }
        if let Some((_, min_occupancy)) = &self.snic_compute {
            if !(0.0..=1.0).contains(min_occupancy) {
                errors.push(format!(
                    "snic_compute.min_occupancy: must be a fraction in [0, 1], got {min_occupancy}"
                ));
            }
        }
        // The tenancy stage validates as a unit (config + registry +
        // every quota) so a 10k-function registry reports each problem
        // once, through the same aggregate error as the rest.
        let tenancy = match self.tenancy {
            Some((cfg, registry)) => match Tenancy::new(cfg, registry) {
                Ok(t) => Some(t),
                Err(e) => {
                    errors.push(format!("tenancy: {}", config_message(e)));
                    None
                }
            },
            None => None,
        };
        for (i, rmq) in self.accels.iter().enumerate() {
            if let Err(e) = rmq.config().validate() {
                errors.push(format!("accelerator {i}: {}", config_message(e)));
            }
        }
        for (accel, mq, _) in &self.bridges {
            if *accel >= n_accels {
                errors.push(format!(
                    "backend bridge on mqueue '{}' references accelerator {accel}, \
                     but only {n_accels} are registered",
                    mq.label()
                ));
            }
        }
        if !errors.is_empty() {
            return Err(crate::Error::Config(errors.join("; ")));
        }

        let costs = self
            .costs
            .unwrap_or_else(|| CostModel::for_cpu(lynx_device::CpuKind::ArmA72));
        let stats = sim.telemetry().cloned().unwrap_or_else(Telemetry::new);
        let default_policy = self.services[0].policy;
        let server = LynxServer::construct(
            self.stack,
            costs,
            default_policy,
            self.recovery,
            self.control,
            stats,
            self.pipeline,
            self.cache,
            self.cache_protocol,
            self.snic_compute,
            tenancy,
        );
        for rmq in self.accels {
            server.inner_add_accelerator(rmq);
        }
        for (si, svc) in self.services.into_iter().enumerate() {
            let id = if si == 0 {
                ServiceId::DEFAULT
            } else {
                server.inner_add_service(svc.policy)
            };
            debug_assert_eq!(id.0, si);
            for (accel, mq) in svc.mqueues {
                server.inner_add_server_mqueue(id, accel, mq);
            }
            for l in svc.listeners {
                match l {
                    Listener::Udp(port) => server.inner_listen_udp(id, port),
                    Listener::Tcp(port) => server.inner_listen_tcp(id, port),
                }
            }
        }
        for (accel, mq, dst) in self.bridges {
            server.inner_add_backend_bridge(sim, accel, mq, dst);
        }
        Ok(server)
    }
}
