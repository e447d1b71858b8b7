//! GPU model: persistent-kernel threadblocks and the host-centric launch
//! path.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx_fabric::{MemRegion, NodeId, PcieFabric};
use lynx_sim::{MultiServer, Server, Sim, SiteCounter, SiteGauge};

use crate::profile::GpuProfile;

/// Static characteristics of a GPU model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Maximum concurrently resident threadblocks.
    pub max_threadblocks: usize,
    /// Kernel speed relative to the reference K40m.
    pub speed: f64,
    /// Device memory size in bytes.
    pub mem_bytes: usize,
}

impl GpuSpec {
    /// NVIDIA Tesla K40m — the paper's primary microbenchmark GPU.
    pub fn k40m() -> GpuSpec {
        GpuSpec::from_profile(GpuProfile::k40m())
    }

    /// NVIDIA Tesla K80 (one of the two dies) — used in the scale-out
    /// experiments; "slower than K40m and achieves 3 300 req/sec at most"
    /// (§6.3, footnote 2).
    pub fn k80() -> GpuSpec {
        GpuSpec::from_profile(GpuProfile::k80())
    }

    /// Builds a spec from an analytic [`GpuProfile`].
    pub fn from_profile(p: GpuProfile) -> GpuSpec {
        GpuSpec {
            name: p.name,
            max_threadblocks: p.max_threadblocks,
            speed: p.relative_speed,
            mem_bytes: 64 << 20,
        }
    }
}

struct Inner {
    spec: GpuSpec,
    mem: MemRegion,
    next_alloc: usize,
    blocks: usize,
    driver: Server,
    exec: MultiServer,
    requests_site: SiteCounter,
    driver_util_site: SiteGauge,
    exec_util_site: SiteGauge,
}

/// A simulated GPU attached to a PCIe fabric node.
///
/// Two execution paths mirror the paper's two server designs:
///
/// * **Persistent kernels** ([`Gpu::spawn_block`]) — threadblocks that stay
///   resident, poll mqueues in device memory, and process requests without
///   any host involvement (the Lynx path).
/// * **Host-centric launches** ([`Gpu::hostcentric_request`]) — per-request
///   `cudaMemcpy`/launch/sync through the driver, whose serialization and
///   fixed overheads produce the baseline's throughput ceiling (§3.2).
///
/// Device memory is a real byte array ([`Gpu::mem`]) exposed on the fabric
/// (BAR), so the SmartNIC's RDMA engine can read and write mqueues in it.
#[derive(Clone)]
pub struct Gpu {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Gpu")
            .field("spec", &inner.spec.name)
            .field("node", &inner.mem.node())
            .field("blocks", &inner.blocks)
            .field("allocated", &inner.next_alloc)
            .finish()
    }
}

impl Gpu {
    /// Creates a GPU on fabric node `node` with a single host-centric
    /// execution lane (whole-GPU kernels, e.g. LeNet).
    pub fn new(fabric: &PcieFabric, node: NodeId, spec: GpuSpec) -> Gpu {
        Gpu::with_exec_lanes(fabric, node, spec, 1)
    }

    /// Creates a GPU with `lanes` concurrent host-centric kernel execution
    /// lanes (small kernels from independent CUDA streams can overlap; the
    /// microbenchmarks use one-threadblock kernels).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or exceeds the spec's threadblock limit.
    pub fn with_exec_lanes(fabric: &PcieFabric, node: NodeId, spec: GpuSpec, lanes: usize) -> Gpu {
        assert!(
            lanes > 0 && lanes <= spec.max_threadblocks,
            "invalid exec lane count {lanes}"
        );
        assert!(
            (node.0 as usize) < fabric.node_count(),
            "GPU node must belong to the fabric"
        );
        // Named after its fabric node (e.g. `server-0/gpu0`), so the
        // mqueues, counters and fault sites of same-model GPUs stay apart.
        let mem = MemRegion::new(node, spec.mem_bytes, fabric.node_name(node));
        Gpu {
            inner: Rc::new(RefCell::new(Inner {
                spec,
                mem,
                next_alloc: 0,
                blocks: 0,
                driver: Server::new(1.0),
                exec: MultiServer::new(lanes, spec.speed),
                requests_site: SiteCounter::new(),
                driver_util_site: SiteGauge::new(),
                exec_util_site: SiteGauge::new(),
            })),
        }
    }

    /// This GPU's specification.
    pub fn spec(&self) -> GpuSpec {
        self.inner.borrow().spec
    }

    /// The BAR-exposed device memory.
    pub fn mem(&self) -> MemRegion {
        self.inner.borrow().mem.clone()
    }

    /// The PCIe fabric node the GPU occupies.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().mem.node()
    }

    /// Bump-allocates `bytes` of device memory (64-byte aligned), returning
    /// the offset. Used by the host control plane to place mqueues.
    ///
    /// # Panics
    ///
    /// Panics when device memory is exhausted.
    pub fn alloc(&self, bytes: usize) -> usize {
        let mut inner = self.inner.borrow_mut();
        let off = (inner.next_alloc + 63) & !63;
        assert!(
            off + bytes <= inner.spec.mem_bytes,
            "GPU {} out of memory ({} requested at {})",
            inner.spec.name,
            bytes,
            off
        );
        inner.next_alloc = off + bytes;
        off
    }

    /// Spawns a persistent-kernel threadblock.
    ///
    /// # Panics
    ///
    /// Panics when all resident threadblock slots are taken.
    pub fn spawn_block(&self) -> Threadblock {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.blocks < inner.spec.max_threadblocks,
            "GPU {}: threadblock limit {} reached",
            inner.spec.name,
            inner.spec.max_threadblocks
        );
        inner.blocks += 1;
        Threadblock {
            exec: Server::new(inner.spec.speed),
        }
    }

    /// Number of persistent threadblocks spawned.
    pub fn blocks_spawned(&self) -> usize {
        self.inner.borrow().blocks
    }

    /// Executes one request on the host-centric path: H2D copy, one or more
    /// dependent kernel launches, sync, D2H copy.
    ///
    /// Models both effects of §3.2: the per-request *latency* overhead
    /// ([`GpuProfile::hostcentric_overhead`], 30 µs) and the serialized
    /// *driver occupancy* ([`GpuProfile::driver_occupancy`]) that caps
    /// throughput regardless of stream concurrency. `done` fires when
    /// the response bytes are back in host memory.
    pub fn hostcentric_request(
        &self,
        sim: &mut Sim,
        kernel_time: Duration,
        launches: u32,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        let profile = GpuProfile::reference();
        let gaps = profile.launch_gap * launches.saturating_sub(1);
        let (driver, exec) = {
            let inner = self.inner.borrow();
            if let Some(t) = sim.telemetry() {
                inner
                    .requests_site
                    .add(t, "device.gpu.hostcentric_requests", 1);
            }
            (inner.driver.clone(), inner.exec.clone())
        };
        // The driver lock is held for the occupancy window (copy issues,
        // launches, completion polling); it overlaps kernel execution, so
        // completion is the *join* of the two paths.
        let pending = Rc::new(Cell::new(2u8));
        let done = Rc::new(RefCell::new(Some(done)));
        let join = move |sim: &mut Sim| {
            if pending.get() == 1 {
                if let Some(f) = done.borrow_mut().take() {
                    f(sim);
                }
            } else {
                pending.set(pending.get() - 1);
            }
        };
        let join2 = join.clone();
        driver.submit(sim, profile.driver_occupancy + gaps, move |sim| join(sim));
        let half = profile.hostcentric_overhead / 2;
        sim.schedule_in(half, move |sim| {
            exec.submit(sim, kernel_time + gaps, move |sim| {
                sim.schedule_in(half, move |sim| join2(sim));
            });
        });
    }

    /// Publishes this GPU's driver and execution-lane utilization (fraction
    /// of sim time spent busy since time zero) as telemetry gauges
    /// `device.gpu.<name>@<node>.{driver,exec}_util`.
    ///
    /// No-op when telemetry is disabled. Call once at the end of a run —
    /// gauges overwrite, so only the last call is reported.
    pub fn publish_utilization(&self, sim: &Sim) {
        let Some(t) = sim.telemetry() else { return };
        let inner = self.inner.borrow();
        let elapsed = sim.now().saturating_since(lynx_sim::Time::ZERO);
        let spec = inner.spec.name;
        let node = inner.mem.node();
        inner.driver_util_site.set_with(
            t,
            || format!("device.gpu.{spec}@{node}.driver_util"),
            inner.driver.utilization(elapsed),
        );
        inner.exec_util_site.set_with(
            t,
            || format!("device.gpu.{spec}@{node}.exec_util"),
            inner.exec.utilization(elapsed),
        );
    }
}

/// A persistent-kernel threadblock: the accelerator-side execution context
/// of one mqueue.
///
/// Work submitted to a threadblock serializes (a block processes one
/// request at a time); the GPU's relative speed scales service times.
#[derive(Clone)]
pub struct Threadblock {
    exec: Server,
}

impl fmt::Debug for Threadblock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Threadblock")
            .field("requests", &self.exec.jobs())
            .finish()
    }
}

impl Threadblock {
    /// Runs `work` of reference-GPU kernel time on this block; `done` fires
    /// when it completes. Returns immediately.
    pub fn run(&self, sim: &mut Sim, work: Duration, done: impl FnOnce(&mut Sim) + 'static) {
        self.exec.submit(sim, work, done);
    }

    /// Requests processed so far.
    pub fn requests(&self) -> u64 {
        self.exec.jobs()
    }

    /// Accumulated busy time.
    pub fn busy_time(&self) -> Duration {
        self.exec.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynx_sim::Time;

    fn gpu() -> (Sim, Gpu) {
        let sim = Sim::new(0);
        let fabric = PcieFabric::new();
        let host = fabric.add_node("host");
        let g = fabric.add_node("gpu");
        fabric.link(host, g, lynx_fabric::PcieLink::gen3_x16());
        (sim, Gpu::new(&fabric, g, GpuSpec::k40m()))
    }

    #[test]
    fn hostcentric_latency_matches_section_3_2() {
        // 100us kernel -> 130us end-to-end (30us management overhead).
        let (mut sim, gpu) = gpu();
        let done = Rc::new(Cell::new(Time::ZERO));
        let d = Rc::clone(&done);
        gpu.hostcentric_request(&mut sim, Duration::from_micros(100), 1, move |sim| {
            d.set(sim.now());
        });
        sim.run();
        assert_eq!(done.get(), Time::from_micros(130));
    }

    #[test]
    fn driver_occupancy_caps_throughput() {
        let (mut sim, gpu) = gpu();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..100 {
            let c = Rc::clone(&count);
            gpu.hostcentric_request(&mut sim, Duration::from_micros(1), 1, move |_| {
                c.set(c.get() + 1);
            });
        }
        sim.run();
        assert_eq!(count.get(), 100);
        // 100 requests serialized at 45us each on the driver.
        assert!(sim.now() >= Time::from_micros(4_500));
    }

    #[test]
    fn multi_launch_kernels_pay_per_launch_gap() {
        let (mut sim, gpu) = gpu();
        let done = Rc::new(Cell::new(Time::ZERO));
        let d = Rc::clone(&done);
        // 8 launches (LeNet layers): 7 gaps of 9us each.
        gpu.hostcentric_request(&mut sim, Duration::from_micros(278), 8, move |sim| {
            d.set(sim.now());
        });
        sim.run();
        assert_eq!(done.get(), Time::from_micros(278 + 63 + 30));
    }

    #[test]
    fn threadblocks_serialize_their_work() {
        let (mut sim, gpu) = gpu();
        let tb = gpu.spawn_block();
        let last = Rc::new(Cell::new(Time::ZERO));
        for _ in 0..3 {
            let l = Rc::clone(&last);
            tb.run(&mut sim, Duration::from_micros(10), move |sim| {
                l.set(sim.now())
            });
        }
        sim.run();
        assert_eq!(last.get(), Time::from_micros(30));
        assert_eq!(tb.requests(), 3);
    }

    #[test]
    fn k80_is_slower_than_k40m() {
        let mut sim = Sim::new(0);
        let fabric = PcieFabric::new();
        let n = fabric.add_node("gpu");
        let k80 = Gpu::new(&fabric, n, GpuSpec::k80());
        let tb = k80.spawn_block();
        let done = Rc::new(Cell::new(Time::ZERO));
        let d = Rc::clone(&done);
        tb.run(&mut sim, Duration::from_micros(100), move |sim| {
            d.set(sim.now())
        });
        sim.run();
        assert!(done.get() > Time::from_micros(100));
    }

    #[test]
    fn block_limit_enforced() {
        let (_sim, gpu) = gpu();
        for _ in 0..240 {
            let _ = gpu.spawn_block();
        }
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gpu.spawn_block())).is_err()
        );
    }

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let (_sim, gpu) = gpu();
        let a = gpu.alloc(10);
        let b = gpu.alloc(10);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn memory_is_shared_with_fabric_peers() {
        let (_sim, gpu) = gpu();
        let m1 = gpu.mem();
        let m2 = gpu.mem();
        m1.write(0, &[42]);
        assert_eq!(m2.read(0, 1), vec![42]);
    }
}
