//! # lynx-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the Lynx (ASPLOS '20) reproduction. All
//! hardware substrates — PCIe fabric, RDMA NICs, SmartNICs, GPUs — are
//! modelled as discrete-event processes scheduled on a single [`Sim`]
//! instance. The kernel is intentionally small:
//!
//! * [`Time`] — nanosecond-resolution simulated clock.
//! * [`Sim`] — an event queue of boxed closures ordered by `(time, seq)`,
//!   kept in one binary heap. Event sequence numbers make execution
//!   **fully deterministic**: two runs with the same seed replay the same
//!   event order bit-for-bit.
//! * [`Payload`] / [`BufferPool`] — cheaply-clonable shared payload
//!   buffers (`Arc`-backed, `Send + Sync`) and a per-`Sim` scratch pool,
//!   so moving a message through the model costs a refcount bump instead
//!   of a payload copy, and cross-shard envelopes carry bytes between
//!   worker threads without serialising.
//! * [`Server`] / [`MultiServer`] — FIFO work-conserving service resources
//!   used to model CPU cores, DMA engines and pipeline stages.
//! * [`Histogram`] — HDR-style log-bucketed latency histogram (≤1.6 %
//!   relative quantization error) used for every latency figure.
//! * [`stats`] — throughput meters.
//! * [`telemetry`] — opt-in structured event tracing (JSONL / Chrome
//!   `trace_event`) and named counters/gauges; zero-cost when disabled.
//! * [`faults`] — opt-in deterministic fault injection: seed-driven
//!   [`FaultPlan`]s consulted at named injection sites; zero-cost when no
//!   plan is armed.
//!
//! Model state lives in `Rc<RefCell<_>>` handles captured by event closures,
//! so simulations are single-threaded by construction; none of the handle
//! types are `Send`. This mirrors the determinism requirement: the paper's
//! figures must regenerate identically on every run.
//!
//! # Example
//!
//! ```
//! use lynx_sim::{Sim, Time};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(42);
//! sim.schedule_in(Duration::from_micros(5), |sim| {
//!     assert_eq!(sim.now(), Time::from_micros(5));
//! });
//! sim.run();
//! assert_eq!(sim.now(), Time::from_micros(5));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod faults;
mod fifo;
mod histogram;
pub mod payload;
mod server;
pub mod shard;
mod sim;
pub mod stats;
pub mod telemetry;
mod time;

pub mod rng;

pub use config::{SimConfig, ENV_SCHED, ENV_THREADS};
pub use faults::{FaultAction, FaultInjector, FaultPlan, FaultRule, Trigger};
pub use fifo::{Fifo, FifoFullError};
pub use histogram::{Histogram, WindowedHistogram};
pub use payload::{BufferPool, Payload};
pub use server::{MultiServer, Server};
pub use shard::{
    CrossShardMsg, Partition, PartitionReport, ShardCtx, ShardId, ShardReport, ShardSender,
};
pub use sim::Sim;
pub use telemetry::{
    CounterId, CounterRegistry, GaugeId, SiteCounter, SiteGauge, Telemetry, TraceEvent, TraceRecord,
};
pub use time::Time;
