//! Assembly of the paper's hardware testbed (§6: "Hardware setup").
//!
//! The evaluation machines are Xeon E5-2620 v2 servers connected through a
//! 40 Gbps switch; one server carries a 25 Gbps BlueField SmartNIC, others
//! carry ConnectX-4 NICs "used for hosting remote GPUs". This module
//! builds those machines and wires complete Lynx deployments: SmartNIC (or
//! host-core) server, RDMA queue pairs to local and remote GPUs, mqueues,
//! and persistent workers.
//!
//! ```
//! use lynx_core::testbed::{DeployConfig, Machine};
//! use lynx_core::SnicPlatform;
//! use lynx_device::{EchoProcessor, GpuSpec};
//! use lynx_net::Network;
//! use lynx_sim::Sim;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new(1);
//! let net = Network::new();
//! let machine = Machine::new(&net, "server-0");
//! let gpu = machine.add_gpu(GpuSpec::k40m());
//! let site = machine.gpu_site(&gpu);
//! let cfg = DeployConfig::default();
//! let deployment = cfg.deploy(
//!     &mut sim,
//!     &net,
//!     &machine,
//!     &[site],
//!     Rc::new(lynx_core::ProcessorApp::new(Rc::new(EchoProcessor))),
//! );
//! assert_eq!(deployment.workers.len(), 1);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use lynx_device::{CpuKind, Gpu, GpuSpec, HostCpu};
use lynx_fabric::{NodeId, PcieFabric, PcieLink, QpKind, RdmaNic, WireProfile};
use lynx_net::{HostId, HostStack, LinkSpec, Network, Platform, SockAddr, StackKind, StackProfile};
use lynx_sim::Sim;

use crate::cache::{CacheConfig, CacheProtocol, SnicKernel};
use crate::tenancy::{FunctionRegistry, TenancyConfig};
use crate::{
    AccelApp, ControlConfig, CostModel, DispatchPolicy, LynxServer, LynxServerBuilder, Mqueue,
    MqueueConfig, MqueueKind, PipelineConfig, ProcessorApp, RecoveryConfig, RemoteMqManager,
    RmqConfig, SnicPlatform, ThreadblockUnit, Worker,
};

/// Multi-core contention factor of the Lynx server when it runs on several
/// host cores (shared VMA stack and QP locks); calibrated so that 6 Xeon
/// cores reach ≈4× a single core's throughput, reproducing "Bluefield
/// ... up to 45 % slower than 6 host cores" (Figure 6).
pub const HOST_LYNX_CONTENTION: f64 = 0.1;

/// One server machine of the testbed.
pub struct Machine {
    name: String,
    fabric: PcieFabric,
    host_node: NodeId,
    nic_node: NodeId,
    cpu: HostCpu,
    host_id: HostId,
    net: Network,
    gpus: RefCell<Vec<Gpu>>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.name)
            .field("host_id", &self.host_id)
            .field("gpus", &self.gpus.borrow().len())
            .finish()
    }
}

impl Machine {
    /// Creates a machine (6-core Xeon, 40 Gbps NIC) attached to `net`.
    pub fn new(net: &Network, name: impl Into<String>) -> Machine {
        let name = name.into();
        let fabric = PcieFabric::new();
        let host_node = fabric.add_node(format!("{name}/host"));
        let nic_node = fabric.add_node(format!("{name}/nic"));
        fabric.link(host_node, nic_node, PcieLink::gen3_x8());
        let host_id = net.add_host(name.clone(), LinkSpec::gbps40());
        Machine {
            name,
            fabric,
            host_node,
            nic_node,
            cpu: HostCpu::xeon_e5(),
            host_id,
            net: net.clone(),
            gpus: RefCell::new(Vec::new()),
        }
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine's network identity (its regular NIC).
    pub fn host_id(&self) -> HostId {
        self.host_id
    }

    /// The machine's host CPU.
    pub fn cpu(&self) -> &HostCpu {
        &self.cpu
    }

    /// The machine's PCIe fabric.
    pub fn fabric(&self) -> &PcieFabric {
        &self.fabric
    }

    /// The PCIe node of the machine's NIC.
    pub fn nic_node(&self) -> NodeId {
        self.nic_node
    }

    /// Installs a GPU in a Gen3 ×16 slot.
    pub fn add_gpu(&self, spec: GpuSpec) -> Gpu {
        let node = self
            .fabric
            .add_node(format!("{}/gpu{}", self.name, self.gpus.borrow().len()));
        self.fabric.link(self.host_node, node, PcieLink::gen3_x16());
        let gpu = Gpu::new(&self.fabric, node, spec);
        self.gpus.borrow_mut().push(gpu.clone());
        gpu
    }

    /// Like [`Machine::add_gpu`] but with `lanes` concurrent host-centric
    /// kernel execution lanes (for small-kernel microbenchmarks).
    pub fn add_gpu_with_exec_lanes(&self, spec: GpuSpec, lanes: usize) -> Gpu {
        let node = self
            .fabric
            .add_node(format!("{}/gpu{}", self.name, self.gpus.borrow().len()));
        self.fabric.link(self.host_node, node, PcieLink::gen3_x16());
        let gpu = Gpu::with_exec_lanes(&self.fabric, node, spec, lanes);
        self.gpus.borrow_mut().push(gpu.clone());
        gpu
    }

    /// Describes one of this machine's GPUs as a deployment target.
    pub fn gpu_site(&self, gpu: &Gpu) -> GpuSite {
        GpuSite {
            gpu: gpu.clone(),
            fabric: self.fabric.clone(),
            nic_node: self.nic_node,
        }
    }

    /// Creates a protocol stack on this machine's network identity using
    /// `n` host cores.
    pub fn host_stack(&self, n: usize, kind: StackKind) -> HostStack {
        HostStack::new(
            &self.net,
            self.host_id,
            self.cpu.take_pool(n),
            StackProfile::of(Platform::Xeon, kind),
        )
    }

    /// The machine's RDMA-capable NIC.
    pub fn rdma_nic(&self) -> RdmaNic {
        RdmaNic::new(
            self.fabric.clone(),
            self.nic_node,
            format!("{}/cx", self.name),
        )
    }
}

/// A GPU together with the fabric/NIC through which RDMA reaches it.
#[derive(Clone, Debug)]
pub struct GpuSite {
    /// The GPU.
    pub gpu: Gpu,
    /// The PCIe fabric the GPU lives on.
    pub fabric: PcieFabric,
    /// The RDMA NIC node on that fabric.
    pub nic_node: NodeId,
}

/// A complete Lynx deployment produced by [`DeployConfig::deploy`].
pub struct Deployment {
    /// The SmartNIC-side network server.
    pub server: LynxServer,
    /// The network identity clients should send to.
    pub server_addr: SockAddr,
    /// The SNIC's protocol stack.
    pub stack: HostStack,
    /// All accelerator-side workers.
    pub workers: Vec<Worker>,
    /// All server mqueues, in dispatch order.
    pub mqueues: Vec<Mqueue>,
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("server_addr", &self.server_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Deployment {
    /// Total requests completed by all workers.
    pub fn completed(&self) -> u64 {
        self.workers.iter().map(Worker::completed).sum()
    }
}

/// Configuration of a Lynx deployment.
#[derive(Clone, Debug)]
pub struct DeployConfig {
    /// Where the Lynx server runs.
    pub platform: SnicPlatform,
    /// UDP (and optionally TCP) port to listen on.
    pub port: u16,
    /// Also accept TCP clients.
    pub tcp: bool,
    /// Server mqueues (each with its own persistent worker) per GPU.
    pub mqueues_per_gpu: usize,
    /// Ring geometry and delivery options.
    pub mq: MqueueConfig,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Backend service each worker gets a client mqueue to (§6.4).
    pub backend: Option<SockAddr>,
    /// Which I/O stack the Lynx server uses (§5.1.1 compares VMA's
    /// kernel-bypass against the kernel path; VMA is the paper's default).
    pub stack_kind: StackKind,
    /// SNIC health-monitor policy. Defaults to
    /// [`RecoveryConfig::disabled`] so deployments reproduce the paper's
    /// behaviour exactly; fault-injection experiments opt in.
    pub recovery: RecoveryConfig,
    /// Timeout/retry policy of each accelerator's Remote MQ Manager (only
    /// consulted when a fault plan is armed).
    pub rmq: RmqConfig,
    /// SNIC core sharding and batching of the dispatch/forward pipeline.
    /// Defaults to one core and `Fixed(1)`: per-message dispatch on the
    /// shared lane pool.
    pub pipeline: PipelineConfig,
    /// SLO-driven elastic control plane (scale-out/in of remote-GPU
    /// workers + admission control). Defaults to
    /// [`ControlConfig::disabled`] so deployments reproduce the paper's
    /// static configurations exactly; the elastic experiments opt in.
    pub control: ControlConfig,
    /// SNIC-resident hot-key cache consulted before dispatch. Defaults to
    /// [`CacheConfig::disabled`] — the pure dispatch-and-forward SNIC of
    /// the paper; enabling it also requires a
    /// [`DeployConfig::cache_protocol`].
    pub cache: CacheConfig,
    /// Protocol lens classifying payloads for the cache (GET/SET/other
    /// plus which responses are cacheable).
    pub cache_protocol: Option<Rc<dyn CacheProtocol>>,
    /// SNIC-compute offload: run this kernel on spare SNIC cycles once the
    /// mean mqueue occupancy reaches the paired fraction.
    pub snic_compute: Option<(Rc<dyn SnicKernel>, f64)>,
    /// λ-NIC-style multi-tenancy: the function registry and tenancy
    /// config installed on the SNIC's match-action stage
    /// ([`crate::tenancy`]). `None` (the default) deploys the static
    /// multi-service server of earlier releases.
    pub tenancy: Option<(TenancyConfig, FunctionRegistry)>,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            platform: SnicPlatform::Bluefield,
            port: 7777,
            tcp: false,
            mqueues_per_gpu: 1,
            mq: MqueueConfig::default(),
            policy: DispatchPolicy::RoundRobin,
            backend: None,
            stack_kind: StackKind::Vma,
            recovery: RecoveryConfig::disabled(),
            rmq: RmqConfig::default(),
            pipeline: PipelineConfig::default(),
            control: ControlConfig::disabled(),
            cache: CacheConfig::disabled(),
            cache_protocol: None,
            snic_compute: None,
            tenancy: None,
        }
    }
}

impl DeployConfig {
    /// Builds the full deployment: SNIC stack + server, one RC QP per GPU
    /// (loopback for `snic_machine`'s own GPUs, 40 Gbps RDMA for remote
    /// sites), mqueues in GPU memory, and one persistent worker per mqueue
    /// running `app`.
    ///
    /// The host CPU configures everything up front and then "remains idle"
    /// (§4.3) — after this call returns, no host cycles are charged on the
    /// request path unless the platform is [`SnicPlatform::HostCores`].
    pub fn deploy(
        &self,
        sim: &mut Sim,
        net: &Network,
        snic_machine: &Machine,
        sites: &[GpuSite],
        app: Rc<dyn AccelApp>,
    ) -> Deployment {
        assert!(self.mqueues_per_gpu > 0, "need at least one mqueue per GPU");
        let (stack, costs) = self.snic_stack(net, snic_machine);
        let mut builder = LynxServerBuilder::new(stack.clone())
            .cost_model(costs)
            .policy(self.policy)
            .recovery(self.recovery)
            .control(self.control)
            .pipeline(self.pipeline)
            .cache(self.cache);
        if let Some(protocol) = &self.cache_protocol {
            builder = builder.cache_protocol(Rc::clone(protocol));
        }
        if let Some((kernel, min_occupancy)) = &self.snic_compute {
            builder = builder.snic_compute(Rc::clone(kernel), *min_occupancy);
        }
        if let Some((cfg, registry)) = &self.tenancy {
            builder = builder.tenancy(*cfg, registry.clone());
        }
        let snic_rdma = snic_machine.rdma_nic();

        let mut workers = Vec::new();
        let mut mqueues = Vec::new();
        for (accel, site) in sites.iter().enumerate() {
            let qp = if site.fabric.same_fabric(snic_machine.fabric()) {
                snic_rdma.loopback_qp()
            } else {
                snic_rdma.create_qp(
                    QpKind::ReliableConnection,
                    WireProfile::network_40g(),
                    site.fabric.clone(),
                    site.nic_node,
                )
            };
            builder = builder.accelerator(RemoteMqManager::with_config(qp, self.rmq));
            for _ in 0..self.mqueues_per_gpu {
                let base = site.gpu.alloc(self.mq.required_bytes());
                let mq = Mqueue::new(MqueueKind::Server, site.gpu.mem(), base, self.mq);
                builder = builder.server_mqueue(accel, mq.clone());
                let unit = Rc::new(ThreadblockUnit::new(site.gpu.spawn_block()));
                let worker = Worker::new(unit, mq.clone(), Rc::clone(&app));
                if let Some(backend) = self.backend {
                    let cbase = site.gpu.alloc(self.mq.required_bytes());
                    let cmq = Mqueue::new(MqueueKind::Client, site.gpu.mem(), cbase, self.mq);
                    worker.add_client_mqueue(cmq.clone());
                    builder = builder.backend_bridge(accel, cmq, backend);
                }
                worker.start();
                workers.push(worker);
                mqueues.push(mq);
            }
        }

        builder = builder.listen_udp(self.port);
        if self.tcp {
            builder = builder.listen_tcp(self.port);
        }
        let server = builder
            .build(sim)
            .expect("deploy produces a valid server description");
        Deployment {
            server,
            server_addr: SockAddr::new(stack.host(), self.port),
            stack,
            workers,
            mqueues,
        }
    }

    fn snic_stack(&self, net: &Network, machine: &Machine) -> (HostStack, CostModel) {
        match self.platform {
            SnicPlatform::Bluefield => {
                // Multi-homed mode: the SNIC is its own host on the network
                // with its own (25 Gbps) link and ARM cores. The ARM stack
                // profile and cost model are already ARM-denominated, so
                // the lanes run at unit speed (no double scaling).
                let host = net.add_host(format!("{}-bf", machine.name()), LinkSpec::gbps25());
                let cores =
                    lynx_sim::MultiServer::new(lynx_device::BluefieldProfile::LYNX_CORES, 1.0);
                let stack = HostStack::new(
                    net,
                    host,
                    cores,
                    StackProfile::of(Platform::ArmA72, self.stack_kind),
                );
                (stack, CostModel::for_cpu(CpuKind::ArmA72))
            }
            SnicPlatform::HostCores(n) => {
                let stack = machine.host_stack(n, self.stack_kind);
                if n > 1 {
                    stack.set_contention(HOST_LYNX_CONTENTION);
                }
                (stack, CostModel::for_cpu(CpuKind::XeonE5))
            }
        }
    }
}

/// Convenience: deploy a [`lynx_device::RequestProcessor`]-based service.
pub fn deploy_processor(
    sim: &mut Sim,
    net: &Network,
    snic_machine: &Machine,
    sites: &[GpuSite],
    cfg: &DeployConfig,
    proc: Rc<dyn lynx_device::RequestProcessor>,
) -> Deployment {
    cfg.deploy(
        sim,
        net,
        snic_machine,
        sites,
        Rc::new(ProcessorApp::new(proc)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynx_device::EchoProcessor;

    #[test]
    fn machine_wiring_is_complete() {
        let net = Network::new();
        let m = Machine::new(&net, "s0");
        let gpu = m.add_gpu(GpuSpec::k40m());
        // NIC can reach GPU memory peer-to-peer.
        assert!(m
            .fabric()
            .transfer_time(m.nic_node(), gpu.node(), 64)
            .is_ok());
    }

    #[test]
    fn deploy_creates_one_worker_per_mqueue() {
        let mut sim = Sim::new(0);
        let net = Network::new();
        let m = Machine::new(&net, "s0");
        let gpu = m.add_gpu(GpuSpec::k40m());
        let cfg = DeployConfig {
            mqueues_per_gpu: 4,
            ..DeployConfig::default()
        };
        let d = deploy_processor(
            &mut sim,
            &net,
            &m,
            &[m.gpu_site(&gpu)],
            &cfg,
            Rc::new(EchoProcessor),
        );
        assert_eq!(d.workers.len(), 4);
        assert_eq!(d.mqueues.len(), 4);
        assert_eq!(gpu.blocks_spawned(), 4);
    }

    #[test]
    fn bluefield_gets_its_own_network_identity() {
        let mut sim = Sim::new(0);
        let net = Network::new();
        let m = Machine::new(&net, "s0");
        let gpu = m.add_gpu(GpuSpec::k40m());
        let d = deploy_processor(
            &mut sim,
            &net,
            &m,
            &[m.gpu_site(&gpu)],
            &DeployConfig::default(),
            Rc::new(EchoProcessor),
        );
        assert_ne!(d.server_addr.host, m.host_id());
    }

    #[test]
    fn host_platform_uses_machine_identity_and_cores() {
        let mut sim = Sim::new(0);
        let net = Network::new();
        let m = Machine::new(&net, "s0");
        let gpu = m.add_gpu(GpuSpec::k40m());
        let cfg = DeployConfig {
            platform: SnicPlatform::HostCores(1),
            ..DeployConfig::default()
        };
        let d = deploy_processor(
            &mut sim,
            &net,
            &m,
            &[m.gpu_site(&gpu)],
            &cfg,
            Rc::new(EchoProcessor),
        );
        assert_eq!(d.server_addr.host, m.host_id());
        assert_eq!(m.cpu().remaining(), 5);
    }
}
