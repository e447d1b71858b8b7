//! The accelerator-side runtime: persistent workers and the I/O shim.
//!
//! Lynx deliberately avoids "running a resource-heavy network server and
//! work dispatch code on the accelerator" (§4.1): the accelerator runs a
//! *lightweight shim* — a poll loop over local memory, a `recv`, a `send`
//! (the paper's GPU I/O library is ~20 lines of code and one thread per
//! threadblock). [`Worker`] reproduces that loop; [`AccelApp`] is the
//! application hook, with [`WorkerCtx`] providing the three operations the
//! shim offers mid-request: compute, reply, and a blocking call to a
//! backend service through a client mqueue.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx_device::{GpuProfile, RequestProcessor, Threadblock};
use lynx_sim::{Payload, Sim, TraceEvent};

use crate::Mqueue;

/// An accelerator execution unit able to host a persistent worker: one GPU
/// threadblock, one VCA enclave thread, one FPGA processing context.
pub trait ExecUnit: fmt::Debug {
    /// Runs `work` of reference-time compute; `done` fires at completion.
    /// Work submitted while busy queues FIFO.
    fn run(&self, sim: &mut Sim, work: Duration, done: Box<dyn FnOnce(&mut Sim)>);

    /// Latency for the unit's poll loop to notice a doorbell update in
    /// local memory.
    fn poll_detect(&self) -> Duration;

    /// Cost of reading a request from / writing a response to the local
    /// mqueue (the whole point of mqueues: this is a local memory access,
    /// not a PCIe transaction).
    fn local_io(&self) -> Duration;
}

/// [`ExecUnit`] implementation for a GPU persistent-kernel threadblock.
#[derive(Clone, Debug)]
pub struct ThreadblockUnit {
    tb: Threadblock,
}

impl ThreadblockUnit {
    /// Wraps a spawned threadblock.
    pub fn new(tb: Threadblock) -> ThreadblockUnit {
        ThreadblockUnit { tb }
    }

    /// Requests processed by the underlying threadblock.
    pub fn requests(&self) -> u64 {
        self.tb.requests()
    }
}

impl ExecUnit for ThreadblockUnit {
    fn run(&self, sim: &mut Sim, work: Duration, done: Box<dyn FnOnce(&mut Sim)>) {
        self.tb.run(sim, work, done);
    }

    fn poll_detect(&self) -> Duration {
        GpuProfile::reference().poll_detect
    }

    fn local_io(&self) -> Duration {
        GpuProfile::reference().local_io
    }
}

/// Application logic running on an accelerator behind the Lynx shim.
pub trait AccelApp {
    /// Handles one request. The implementation must eventually call
    /// [`WorkerCtx::reply`] (possibly after [`WorkerCtx::compute`] steps
    /// and [`WorkerCtx::call_backend`] round trips).
    fn on_request(&self, sim: &mut Sim, request: Payload, ctx: WorkerCtx);

    /// Name for diagnostics.
    fn name(&self) -> &str {
        "accel-app"
    }
}

/// Adapts a simple [`RequestProcessor`] (echo, LeNet, …) into an
/// [`AccelApp`]: compute for the processor's service time (plus dynamic-
/// parallelism spawn overhead per child kernel launch), then reply with the
/// processed payload.
pub struct ProcessorApp {
    proc: Rc<dyn RequestProcessor>,
}

impl fmt::Debug for ProcessorApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessorApp")
            .field("processor", &self.proc.name())
            .finish()
    }
}

impl ProcessorApp {
    /// Wraps a request processor.
    pub fn new(proc: Rc<dyn RequestProcessor>) -> ProcessorApp {
        ProcessorApp { proc }
    }
}

impl AccelApp for ProcessorApp {
    fn on_request(&self, sim: &mut Sim, request: Payload, ctx: WorkerCtx) {
        let work = self.proc.service_time(&request)
            + GpuProfile::reference().dynamic_parallelism_gap * self.proc.launches();
        let response = self.proc.process(&request);
        ctx.compute(sim, work, move |sim, ctx| {
            ctx.reply(sim, &response);
        });
    }

    fn name(&self) -> &str {
        self.proc.name()
    }
}

type BackendCont = Box<dyn FnOnce(&mut Sim, Payload)>;

struct ClientPort {
    mq: Mqueue,
    pending: RefCell<Option<BackendCont>>,
}

struct Inner {
    unit: Rc<dyn ExecUnit>,
    mq: Mqueue,
    app: Rc<dyn AccelApp>,
    clients: RefCell<Vec<Rc<ClientPort>>>,
    busy: Cell<bool>,
    done_count: Cell<u64>,
    dead: Cell<bool>,
}

/// A persistent worker: one execution unit bound to one server mqueue.
///
/// The worker's lifecycle mirrors a persistent GPU kernel: poll the RX
/// doorbell, `recv` the request from local memory, run the application,
/// `send` the response, loop. One request is in flight per worker at a
/// time; responses are produced in request order.
pub struct Worker {
    inner: Rc<Inner>,
}

impl Clone for Worker {
    fn clone(&self) -> Self {
        Worker {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for Worker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker")
            .field("app", &self.inner.app.name())
            .field("busy", &self.inner.busy.get())
            .field("done", &self.inner.done_count.get())
            .finish()
    }
}

impl Worker {
    /// Creates a worker serving `mq` on `unit` with application `app`.
    pub fn new(unit: Rc<dyn ExecUnit>, mq: Mqueue, app: Rc<dyn AccelApp>) -> Worker {
        Worker {
            inner: Rc::new(Inner {
                unit,
                mq,
                app,
                clients: RefCell::new(Vec::new()),
                busy: Cell::new(false),
                done_count: Cell::new(0),
                dead: Cell::new(false),
            }),
        }
    }

    /// Attaches a client mqueue for backend calls; returns its index for
    /// [`WorkerCtx::call_backend`].
    pub fn add_client_mqueue(&self, mq: Mqueue) -> usize {
        let port = Rc::new(ClientPort {
            mq: mq.clone(),
            pending: RefCell::new(None),
        });
        let mut clients = self.inner.clients.borrow_mut();
        let idx = clients.len();
        clients.push(Rc::clone(&port));
        drop(clients);
        // Backend responses land in the client mqueue's RX ring.
        let inner = Rc::clone(&self.inner);
        mq.set_rx_watcher(move |sim| {
            let detect = inner.unit.poll_detect() + inner.unit.local_io();
            let port = Rc::clone(&port);
            sim.schedule_in(detect, move |sim| {
                if let Some((_seq, payload)) = port.mq.acc_pop_request() {
                    let cont = port.pending.borrow_mut().take();
                    match cont {
                        Some(f) => f(sim, payload),
                        None => panic!("backend response without pending call"),
                    }
                }
            });
        });
        idx
    }

    /// Starts the worker: registers the persistent poll loop on the server
    /// mqueue's RX doorbell.
    pub fn start(&self) {
        let inner = Rc::clone(&self.inner);
        self.inner.mq.set_rx_watcher(move |sim| {
            Worker::poll(&inner, sim);
        });
    }

    /// Requests fully processed (responses sent).
    pub fn completed(&self) -> u64 {
        self.inner.done_count.get()
    }

    /// Whether an injected crash has killed this worker (fault site
    /// `accel.<mqueue label>`). A dead worker never polls again; the SNIC
    /// health monitor notices the stalled mqueue and quarantines it.
    pub fn crashed(&self) -> bool {
        self.inner.dead.get()
    }

    fn poll(inner: &Rc<Inner>, sim: &mut Sim) {
        if inner.dead.get() {
            return; // crashed: requests pile up unserved
        }
        if inner.busy.get() {
            return; // picked up after the current request completes
        }
        let mut detect = inner.unit.poll_detect() + inner.unit.local_io();
        if sim.faults_enabled() {
            let site = format!("accel.{}", inner.mq.label());
            match sim.fault_at(&site) {
                Some(lynx_sim::FaultAction::Crash) => {
                    inner.dead.set(true);
                    sim.count("accel.crashed", 1);
                    return;
                }
                Some(lynx_sim::FaultAction::Hang(stall)) => detect += stall,
                _ => {}
            }
        }
        inner.busy.set(true);
        let inner = Rc::clone(inner);
        sim.schedule_in(detect, move |sim| match inner.mq.acc_pop_request() {
            Some((seq, request)) => {
                sim.count("accel.started", 1);
                let mq_evt = inner.mq.clone();
                sim.trace(|| TraceEvent::AccelStart {
                    queue: mq_evt.label(),
                    seq,
                });
                let ctx = WorkerCtx {
                    inner: Rc::clone(&inner),
                    seq,
                };
                let app = Rc::clone(&inner.app);
                app.on_request(sim, request, ctx);
            }
            None => inner.busy.set(false),
        });
    }
}

/// Per-request context handed to [`AccelApp::on_request`]; the I/O shim.
///
/// The context is linear: `compute` and `call_backend` pass it to their
/// continuation, `reply` consumes it and finishes the request.
pub struct WorkerCtx {
    inner: Rc<Inner>,
    seq: u64,
}

impl fmt::Debug for WorkerCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerCtx").field("seq", &self.seq).finish()
    }
}

impl WorkerCtx {
    /// Sequence number of the request being served.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Runs `work` of kernel time on the execution unit, then continues.
    pub fn compute(
        self,
        sim: &mut Sim,
        work: Duration,
        then: impl FnOnce(&mut Sim, WorkerCtx) + 'static,
    ) {
        let inner = Rc::clone(&self.inner);
        inner.unit.run(
            sim,
            work,
            Box::new(move |sim| {
                then(sim, self);
            }),
        );
    }

    /// Sends a request on client mqueue `backend` and resumes with the
    /// backend's response — the blocking accelerator-side I/O of the Face
    /// Verification server (§6.4).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is out of range or a call is already pending on
    /// that client mqueue.
    pub fn call_backend(
        self,
        sim: &mut Sim,
        backend: usize,
        payload: &[u8],
        then: impl FnOnce(&mut Sim, WorkerCtx, Payload) + 'static,
    ) {
        let port = {
            let clients = self.inner.clients.borrow();
            Rc::clone(
                clients
                    .get(backend)
                    .unwrap_or_else(|| panic!("no client mqueue {backend}")),
            )
        };
        {
            let mut pending = port.pending.borrow_mut();
            assert!(pending.is_none(), "backend call already pending");
            *pending = Some(Box::new(move |sim: &mut Sim, resp: Payload| {
                then(sim, self, resp);
            }));
        }
        // Local-memory write + TX doorbell: this is the entire cost of
        // sending from the accelerator (the SNIC does the heavy lifting).
        port.mq.acc_send(sim, payload);
    }

    /// Sends the response and completes the request; the worker resumes
    /// polling.
    pub fn reply(self, sim: &mut Sim, payload: &[u8]) {
        let inner = Rc::clone(&self.inner);
        inner.mq.acc_push_response(sim, self.seq, payload);
        sim.count("accel.completed", 1);
        inner.done_count.set(inner.done_count.get() + 1);
        inner.busy.set(false);
        // Serve anything that queued up while we were busy.
        Worker::poll(&inner, sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MqueueConfig, MqueueKind, ReturnAddr};
    use lynx_device::EchoProcessor;
    use lynx_device::{Gpu, GpuSpec};
    use lynx_fabric::{MemRegion, NodeId, PcieFabric};

    fn gpu_unit() -> (Gpu, Rc<dyn ExecUnit>) {
        let fabric = PcieFabric::new();
        let node = fabric.add_node("gpu");
        let gpu = Gpu::new(&fabric, node, GpuSpec::k40m());
        let unit: Rc<dyn ExecUnit> = Rc::new(ThreadblockUnit::new(gpu.spawn_block()));
        (gpu, unit)
    }

    fn server_mq() -> Mqueue {
        let cfg = MqueueConfig {
            slots: 8,
            slot_size: 256,
            ..MqueueConfig::default()
        };
        let mem = MemRegion::new(NodeId::host(), cfg.required_bytes(), "mq");
        Mqueue::new(MqueueKind::Server, mem, 0, cfg)
    }

    /// Lands a request directly (bypassing RDMA) and rings the doorbell.
    fn inject(sim: &mut Sim, mq: &Mqueue, payload: &[u8]) {
        let seq = mq.try_reserve(ReturnAddr::Fixed).unwrap();
        let slot = mq.encode_slot(seq, payload);
        mq.mem().write(mq.rx_slot_offset(seq), &slot);
        mq.notify_rx(sim);
    }

    #[test]
    fn worker_processes_request_and_replies() {
        let mut sim = Sim::new(0);
        let (_gpu, unit) = gpu_unit();
        let mq = server_mq();
        let worker = Worker::new(
            unit,
            mq.clone(),
            Rc::new(ProcessorApp::new(Rc::new(EchoProcessor))),
        );
        worker.start();
        inject(&mut sim, &mq, b"hello");
        sim.run();
        assert_eq!(worker.completed(), 1);
        let (seq, _, len) = mq.begin_pull().unwrap();
        let resp = mq.mem().read(mq.tx_slot_offset(seq) + 8, len);
        assert_eq!(resp, b"hello");
    }

    #[test]
    fn queued_requests_drain_in_order() {
        let mut sim = Sim::new(0);
        let (_gpu, unit) = gpu_unit();
        let mq = server_mq();
        let worker = Worker::new(
            unit,
            mq.clone(),
            Rc::new(ProcessorApp::new(Rc::new(EchoProcessor))),
        );
        worker.start();
        for i in 0..5u8 {
            inject(&mut sim, &mq, &[i]);
        }
        sim.run();
        assert_eq!(worker.completed(), 5);
        for i in 0..5u64 {
            let (seq, _, len) = mq.begin_pull().unwrap();
            assert_eq!(seq, i);
            assert_eq!(
                mq.mem().read(mq.tx_slot_offset(seq) + 8, len),
                vec![i as u8]
            );
            mq.complete_n(seq, 1, drop);
        }
    }

    #[test]
    fn backend_call_blocks_until_response() {
        struct DbApp;
        impl AccelApp for DbApp {
            fn on_request(&self, sim: &mut Sim, req: Payload, ctx: WorkerCtx) {
                ctx.call_backend(sim, 0, &req, |sim, ctx, db_resp| {
                    ctx.compute(sim, Duration::from_micros(50), move |sim, ctx| {
                        ctx.reply(sim, &db_resp);
                    });
                });
            }
        }
        let mut sim = Sim::new(0);
        let (_gpu, unit) = gpu_unit();
        let mq = server_mq();
        let client_cfg = MqueueConfig {
            slots: 4,
            slot_size: 256,
            ..MqueueConfig::default()
        };
        let cmem = MemRegion::new(NodeId::host(), client_cfg.required_bytes(), "cmq");
        let cmq = Mqueue::new(MqueueKind::Client, cmem, 0, client_cfg);
        let worker = Worker::new(unit, mq.clone(), Rc::new(DbApp));
        let idx = worker.add_client_mqueue(cmq.clone());
        assert_eq!(idx, 0);
        worker.start();

        // Emulate the SNIC backend bridge: echo the backend request back
        // into the client mqueue's RX ring, uppercased.
        let cmq2 = cmq.clone();
        cmq.set_tx_watcher(move |sim| {
            if let Some((seq, _ret, len)) = cmq2.begin_pull() {
                let req = cmq2.mem().read(cmq2.tx_slot_offset(seq) + 8, len);
                cmq2.complete_n(seq, 1, drop);
                let resp: Vec<u8> = req.iter().map(|b| b.to_ascii_uppercase()).collect();
                let rseq = cmq2.try_reserve(ReturnAddr::Fixed).unwrap();
                let slot = cmq2.encode_slot(rseq, &resp);
                cmq2.mem().write(cmq2.rx_slot_offset(rseq), &slot);
                cmq2.notify_rx(sim);
            }
        });

        inject(&mut sim, &mq, b"key1");
        sim.run();
        assert_eq!(worker.completed(), 1);
        let (seq, _, len) = mq.begin_pull().unwrap();
        assert_eq!(mq.mem().read(mq.tx_slot_offset(seq) + 8, len), b"KEY1");
    }

    #[test]
    fn worker_serializes_on_exec_unit() {
        let mut sim = Sim::new(0);
        let (_gpu, unit) = gpu_unit();
        let mq = server_mq();
        let proc = lynx_device::DelayProcessor::new(Duration::from_micros(100));
        let worker = Worker::new(unit, mq.clone(), Rc::new(ProcessorApp::new(Rc::new(proc))));
        worker.start();
        for i in 0..3u8 {
            inject(&mut sim, &mq, &[i]);
        }
        sim.run();
        // Three 100us requests serialized: at least 300us of simulated time.
        assert!(sim.now() >= lynx_sim::Time::from_micros(300));
        assert_eq!(worker.completed(), 3);
    }

    #[test]
    fn injected_crash_kills_the_worker() {
        use lynx_sim::{FaultAction, FaultPlan, Trigger};
        let mut sim = Sim::new(0);
        sim.enable_telemetry();
        let (_gpu, unit) = gpu_unit();
        let mq = server_mq();
        let worker = Worker::new(
            unit,
            mq.clone(),
            Rc::new(ProcessorApp::new(Rc::new(EchoProcessor))),
        );
        worker.start();
        // Second poll attempt crashes the execution unit.
        sim.enable_faults(FaultPlan::new(7).rule(
            format!("accel.{}", mq.label()),
            Trigger::Nth(2),
            FaultAction::Crash,
        ));
        inject(&mut sim, &mq, b"one");
        sim.run();
        assert_eq!(worker.completed(), 1);
        inject(&mut sim, &mq, b"two");
        sim.run();
        assert!(worker.crashed());
        assert_eq!(worker.completed(), 1, "crashed worker serves nothing");
        // First response (uncollected here) + the stuck second request.
        assert_eq!(mq.in_flight(), 2);
        assert_eq!(sim.telemetry().unwrap().counter("accel.crashed"), 1);
    }

    #[test]
    fn injected_hang_delays_but_preserves_work() {
        use lynx_sim::{FaultAction, FaultPlan, Trigger};
        let clean = {
            let mut sim = Sim::new(0);
            let (_gpu, unit) = gpu_unit();
            let mq = server_mq();
            let worker = Worker::new(
                unit,
                mq.clone(),
                Rc::new(ProcessorApp::new(Rc::new(EchoProcessor))),
            );
            worker.start();
            inject(&mut sim, &mq, b"x");
            sim.run();
            assert_eq!(worker.completed(), 1);
            sim.now()
        };
        let mut sim = Sim::new(0);
        let (_gpu, unit) = gpu_unit();
        let mq = server_mq();
        let worker = Worker::new(
            unit,
            mq.clone(),
            Rc::new(ProcessorApp::new(Rc::new(EchoProcessor))),
        );
        worker.start();
        let stall = Duration::from_micros(400);
        sim.enable_faults(FaultPlan::new(7).rule(
            format!("accel.{}", mq.label()),
            Trigger::Nth(1),
            FaultAction::Hang(stall),
        ));
        inject(&mut sim, &mq, b"x");
        sim.run();
        assert_eq!(worker.completed(), 1, "hang delays, it does not drop");
        assert!(sim.now() >= clean + stall);
    }
}
