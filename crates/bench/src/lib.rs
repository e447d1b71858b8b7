//! # lynx-bench — shared fixtures for the figure-regeneration harnesses
//!
//! Every table and figure of the paper's evaluation (§6) has a bench
//! target (`cargo bench`) that assembles the corresponding testbed, runs
//! the workload, and prints the paper's rows next to the measured values.
//! This library holds the pieces the harnesses share: client stacks, the
//! memcached-style backend server, the face-verification accelerator app,
//! and result bookkeeping.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use lynx_apps::kv::{self, KvStore};
use lynx_apps::lbp;
use lynx_core::{AccelApp, CacheOp, CacheProtocol, SnicKernel, WorkerCtx};
use lynx_device::{GpuProfile, RequestProcessor};
use lynx_net::{HostStack, LinkSpec, Network, Platform, StackKind, StackProfile};
use lynx_sim::{MultiServer, Sim};

/// Creates a client machine's stack (Xeon cores, VMA — the paper's
/// sockperf+VMA load generators).
pub fn client_stack(net: &Network, name: &str, cores: usize) -> HostStack {
    let host = net.add_host(name, LinkSpec::gbps40());
    HostStack::new(
        net,
        host,
        MultiServer::new(cores, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    )
}

/// A memcached-style server: UDP and TCP frontends over a [`KvStore`],
/// charging [`kv::KV_GET_WORK`]/[`kv::KV_SET_WORK`] per operation on its
/// core pool.
pub struct KvServer {
    stack: HostStack,
    store: Rc<RefCell<KvStore>>,
    port: u16,
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("port", &self.port)
            .field("store", &*self.store.borrow())
            .finish()
    }
}

impl KvServer {
    /// Starts a KV server on `stack` listening on UDP and TCP `port`,
    /// with application work charged at Xeon-relative speed 1.0.
    pub fn start(stack: HostStack, port: u16) -> KvServer {
        KvServer::start_with_speed(stack, port, 1.0)
    }

    /// Like [`KvServer::start`], but with the store's per-operation work
    /// scaled by a relative CPU speed (e.g.
    /// [`lynx_device::BluefieldProfile::RELATIVE_SPEED`] when memcached runs on
    /// the BlueField's ARM cores, Figure 9).
    pub fn start_with_speed(stack: HostStack, port: u16, speed: f64) -> KvServer {
        assert!(speed > 0.0 && speed.is_finite(), "invalid speed");
        let store = Rc::new(RefCell::new(KvStore::new(64 << 20)));
        // UDP frontend.
        let st = Rc::clone(&store);
        let stack2 = stack.clone();
        stack.bind_udp(port, move |sim, dgram| {
            let work = kv::Request::decode(&dgram.payload)
                .map(|r| r.work())
                .unwrap_or(kv::KV_GET_WORK)
                .div_f64(speed);
            let st = Rc::clone(&st);
            let stack3 = stack2.clone();
            let reply_to = dgram.src;
            stack2.charge(sim, work, move |sim| {
                let resp = kv::execute_wire(&mut st.borrow_mut(), &dgram.payload);
                stack3.send_udp(sim, port, reply_to, resp);
            });
        });
        // TCP frontend (the face-verification database tier).
        let st = Rc::clone(&store);
        let stack2 = stack.clone();
        let stack4 = stack.clone();
        stack4.listen_tcp(port, move |sim, conn, payload| {
            let work = kv::Request::decode(&payload)
                .map(|r| r.work())
                .unwrap_or(kv::KV_GET_WORK)
                .div_f64(speed);
            let st = Rc::clone(&st);
            let stack3 = stack2.clone();
            stack2.charge(sim, work, move |sim| {
                let resp = kv::execute_wire(&mut st.borrow_mut(), &payload);
                stack3.send_tcp(sim, conn, resp);
            });
        });
        KvServer { stack, store, port }
    }

    /// Preloads the face database for persons `0..n`.
    pub fn preload_faces(&self, n: u32) {
        let db = lbp::FaceDb::new();
        let mut store = self.store.borrow_mut();
        for i in 0..n {
            let label = lbp::FaceDb::label(i);
            store.set(label.to_vec(), db.face(&label));
        }
    }

    /// The store handle.
    pub fn store(&self) -> Rc<RefCell<KvStore>> {
        Rc::clone(&self.store)
    }

    /// The server's socket address.
    pub fn addr(&self) -> lynx_net::SockAddr {
        lynx_net::SockAddr::new(self.stack.host(), self.port)
    }
}

/// The memcached-style store as an accelerator kernel: one simulated GPU
/// threadblock decodes the kv wire request, executes it against a shared
/// [`KvStore`], and replies. `work_multiplier` inflates the per-op cost
/// (GPUs run pointer-chasing hash lookups far slower than a Xeon; the
/// fig9 cache variant also uses it to make the accelerator the clear
/// bottleneck the SNIC cache then bypasses).
pub struct KvProcessor {
    store: Rc<RefCell<KvStore>>,
    work_multiplier: f64,
}

impl std::fmt::Debug for KvProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvProcessor")
            .field("work_multiplier", &self.work_multiplier)
            .field("store", &*self.store.borrow())
            .finish()
    }
}

impl KvProcessor {
    /// Wraps `store` as an accelerator kernel with per-op work scaled by
    /// `work_multiplier` (1.0 = Xeon-equivalent cost).
    pub fn new(store: Rc<RefCell<KvStore>>, work_multiplier: f64) -> KvProcessor {
        assert!(
            work_multiplier > 0.0 && work_multiplier.is_finite(),
            "invalid work multiplier"
        );
        KvProcessor {
            store,
            work_multiplier,
        }
    }
}

impl RequestProcessor for KvProcessor {
    fn name(&self) -> &str {
        "kv-store"
    }

    fn service_time(&self, request: &[u8]) -> Duration {
        kv::Request::decode(request)
            .map(|r| r.work())
            .unwrap_or(kv::KV_GET_WORK)
            .mul_f64(self.work_multiplier)
    }

    fn process(&self, request: &[u8]) -> Vec<u8> {
        kv::execute_wire(&mut self.store.borrow_mut(), request)
    }
}

/// The kv wire format as a [`CacheProtocol`]: GETs probe the SNIC cache
/// by key, SETs write-through-invalidate it, and only `Value` responses
/// (GET hits) are cached — `Miss`/`Stored`/`BadRequest` must keep taking
/// the accelerator path.
#[derive(Clone, Copy, Debug, Default)]
pub struct KvCacheProtocol;

impl CacheProtocol for KvCacheProtocol {
    fn classify(&self, payload: &[u8]) -> CacheOp {
        match kv::Request::decode(payload) {
            Some(kv::Request::Get { key }) => CacheOp::Get(key),
            Some(kv::Request::Set { key, .. }) => CacheOp::Set(key),
            None => CacheOp::Other,
        }
    }

    fn cacheable_response(&self, response: &[u8]) -> bool {
        matches!(kv::Response::decode(response), Some(kv::Response::Value(_)))
    }
}

/// Adapts any [`RequestProcessor`]-style kernel (the `lynx-apps` AES and
/// vecscale services, or [`KvProcessor`] itself) into a [`SnicKernel`]
/// runnable on spare SNIC-core cycles. The processor's reference service
/// time is divided by `relative_speed` — the SNIC ARM core's speed
/// relative to the reference accelerator — so the simulation charges
/// honest on-NIC compute time (e.g.
/// [`lynx_device::BluefieldProfile::RELATIVE_SPEED`]).
pub struct SnicProcessorKernel {
    proc: Rc<dyn RequestProcessor>,
    relative_speed: f64,
}

impl std::fmt::Debug for SnicProcessorKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnicProcessorKernel")
            .field("proc", &self.proc.name())
            .field("relative_speed", &self.relative_speed)
            .finish()
    }
}

impl SnicProcessorKernel {
    /// Wraps `proc`, charging `service_time / relative_speed` per request.
    pub fn new(proc: Rc<dyn RequestProcessor>, relative_speed: f64) -> SnicProcessorKernel {
        assert!(
            relative_speed > 0.0 && relative_speed.is_finite(),
            "invalid relative speed"
        );
        SnicProcessorKernel {
            proc,
            relative_speed,
        }
    }
}

impl SnicKernel for SnicProcessorKernel {
    fn name(&self) -> &str {
        self.proc.name()
    }

    fn work(&self, request: &[u8]) -> Duration {
        self.proc.service_time(request).div_f64(self.relative_speed)
    }

    fn execute(&self, request: &[u8]) -> Option<Vec<u8>> {
        Some(self.proc.process(request))
    }
}

/// The GPU-centric face-verification application (§6.4): parse the
/// request, fetch the reference image from memcached through a client
/// mqueue (blocking accelerator-side I/O), run the LBP comparison, reply
/// with the match bit.
#[derive(Debug, Default)]
pub struct FaceVerApp;

impl AccelApp for FaceVerApp {
    fn on_request(&self, sim: &mut Sim, request: lynx_sim::Payload, ctx: WorkerCtx) {
        let Some((label, probe)) = lbp::decode_request(&request) else {
            ctx.reply(sim, &[0xFF]);
            return;
        };
        let get = kv::Request::Get {
            key: label.to_vec(),
        }
        .encode();
        let probe = probe.to_vec();
        ctx.call_backend(sim, 0, &get, move |sim, ctx, db_resp| {
            let verdict = match kv::Response::decode(&db_resp) {
                Some(kv::Response::Value(reference)) => u8::from(lbp::verify(&probe, &reference)),
                _ => 0xFE, // database miss
            };
            let work = lbp::LBP_KERNEL_TIME + GpuProfile::reference().dynamic_parallelism_gap;
            ctx.compute(sim, work, move |sim, ctx| {
                ctx.reply(sim, &[verdict]);
            });
        });
    }

    fn name(&self) -> &str {
        "face-verification"
    }
}

/// A server design evaluated in the microbenchmarks (§6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// The CPU-driven baseline.
    HostCentric,
    /// Lynx on the given platform.
    Lynx(lynx_core::SnicPlatform),
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::HostCentric => f.write_str("Host-centric"),
            Design::Lynx(p) => write!(f, "Lynx on {p}"),
        }
    }
}

/// An assembled echo-server testbed ready for load.
pub struct EchoRig {
    /// The simulator.
    pub sim: Sim,
    /// The network (for adding client hosts).
    pub net: Network,
    /// Address clients send requests to.
    pub addr: lynx_net::SockAddr,
}

impl std::fmt::Debug for EchoRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EchoRig").field("addr", &self.addr).finish()
    }
}

/// Builds the §6.2 microbenchmark server: a GPU echo kernel with an
/// artificial `delay` of request processing, served by `design` with
/// `mqueues` server mqueues (Lynx designs only).
pub fn echo_rig(design: Design, delay: std::time::Duration, mqueues: usize) -> EchoRig {
    echo_rig_with(design, delay, mqueues, lynx_core::PipelineConfig::default())
}

/// Like [`echo_rig`], but with an explicit SNIC pipeline configuration
/// (core sharding + batching) for the Lynx designs. `HostCentric`
/// ignores `pipeline` — the baseline has no SNIC pipeline to shard.
pub fn echo_rig_with(
    design: Design,
    delay: std::time::Duration,
    mqueues: usize,
    pipeline: lynx_core::PipelineConfig,
) -> EchoRig {
    use lynx_core::testbed::{deploy_processor, DeployConfig, Machine};
    use lynx_core::HostCentricServer;
    use lynx_device::{DelayProcessor, GpuSpec};

    let sim = Sim::new(2020);
    let mut sim = sim;
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let port = 7777;
    let addr = match design {
        Design::HostCentric => {
            // One-threadblock kernels from concurrent CUDA streams can
            // overlap on the GPU; the driver path is the bottleneck.
            let gpu = machine.add_gpu_with_exec_lanes(GpuSpec::k40m(), 240);
            // "We run on one CPU core because more threads result in a
            // slowdown due to an NVIDIA driver bottleneck."
            let stack = machine.host_stack(1, StackKind::Vma);
            let server =
                HostCentricServer::new(stack, gpu, Rc::new(DelayProcessor::new(delay)), port);
            std::mem::forget(server); // keep alive for the whole run
            lynx_net::SockAddr::new(machine.host_id(), port)
        }
        Design::Lynx(platform) => {
            let gpu = machine.add_gpu(GpuSpec::k40m());
            let cfg = DeployConfig {
                platform,
                port,
                mqueues_per_gpu: mqueues,
                // Compact rings: 64B echo payloads, up to 240 mqueues.
                mq: lynx_core::MqueueConfig {
                    slots: 32,
                    slot_size: 256,
                    ..lynx_core::MqueueConfig::default()
                },
                pipeline,
                ..DeployConfig::default()
            };
            let d = deploy_processor(
                &mut sim,
                &net,
                &machine,
                &[machine.gpu_site(&gpu)],
                &cfg,
                Rc::new(DelayProcessor::new(delay)),
            );
            let addr = d.server_addr;
            std::mem::forget(d);
            addr
        }
    };
    EchoRig { sim, net, addr }
}

/// Like [`echo_rig`], but deploying an arbitrary [`DeployConfig`] over
/// `gpus` identical local GPUs running `proc` — the entry point the
/// auto-tuner bench uses to simulate both hand-tuned and tuned candidate
/// deployments under one roof.
///
/// [`DeployConfig`]: lynx_core::testbed::DeployConfig
pub fn rig_with_config(
    proc: Rc<dyn lynx_device::RequestProcessor>,
    gpus: usize,
    spec: lynx_device::GpuSpec,
    cfg: &lynx_core::testbed::DeployConfig,
) -> EchoRig {
    use lynx_core::testbed::{deploy_processor, Machine};

    let mut sim = Sim::new(2020);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let sites: Vec<_> = (0..gpus)
        .map(|_| {
            let gpu = machine.add_gpu(spec);
            machine.gpu_site(&gpu)
        })
        .collect();
    let d = deploy_processor(&mut sim, &net, &machine, &sites, cfg, proc);
    let addr = d.server_addr;
    std::mem::forget(d);
    EchoRig { sim, net, addr }
}

/// Outcome of one shape check against the paper's reported result.
#[derive(Clone, Debug)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: String,
    /// Whether the measured data reproduces it.
    pub pass: bool,
    /// Measured evidence.
    pub evidence: String,
}

/// Collects shape checks and prints a verdict block.
#[derive(Clone, Debug, Default)]
pub struct ShapeReport {
    checks: Vec<ShapeCheck>,
}

impl ShapeReport {
    /// Creates an empty report.
    pub fn new() -> ShapeReport {
        ShapeReport::default()
    }

    /// Records one check.
    pub fn check(&mut self, claim: impl Into<String>, pass: bool, evidence: impl Into<String>) {
        self.checks.push(ShapeCheck {
            claim: claim.into(),
            pass,
            evidence: evidence.into(),
        });
    }

    /// Prints all checks; returns `true` when everything passed.
    pub fn print(&self) -> bool {
        println!();
        let mut all = true;
        for c in &self.checks {
            let mark = if c.pass { "PASS" } else { "MISS" };
            all &= c.pass;
            println!("[{mark}] {} — measured: {}", c.claim, c.evidence);
        }
        all
    }
}

/// Whether a bench runs its short smoke profile: `--smoke` on the
/// command line or `LYNX_SMOKE=1` in the environment.
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke") || std::env::var("LYNX_SMOKE").is_ok_and(|v| v == "1")
}

/// Directory benches write their CSV series into.
pub fn results_dir() -> std::path::PathBuf {
    let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/lynx-results");
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynx_workload::{run_measured, ClosedLoopClient, RunSpec};

    #[test]
    fn kv_server_serves_udp_gets() {
        let mut sim = Sim::new(0);
        let net = Network::new();
        let kv_stack = client_stack(&net, "kv-host", 1);
        let server = KvServer::start(kv_stack, 11211);
        server
            .store()
            .borrow_mut()
            .set(b"hello".to_vec(), b"world".to_vec());
        let client = client_stack(&net, "client", 1);
        let addr = server.addr();
        let req = kv::Request::Get {
            key: b"hello".to_vec(),
        }
        .encode();
        let c = ClosedLoopClient::new(client, addr, 1, Rc::new(move |_| req.clone())).validate(
            |_, payload| {
                kv::Response::decode(payload) == Some(kv::Response::Value(b"world".to_vec()))
            },
        );
        let summary = run_measured(&mut sim, &[&c], RunSpec::quick());
        assert!(summary.received > 100);
        assert_eq!(summary.invalid, 0);
    }

    #[test]
    fn shape_report_tracks_failures() {
        let mut r = ShapeReport::new();
        r.check("a", true, "x");
        assert!(r.print());
        r.check("b", false, "y");
        assert!(!r.print());
    }
}
