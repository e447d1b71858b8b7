//! # lynx-core — the Lynx accelerator-centric network server architecture
//!
//! This crate implements the contribution of *"Lynx: A SmartNIC-driven
//! Accelerator-centric Architecture for Network Servers"* (ASPLOS '20):
//! a network server whose generic data and control planes run on a
//! SmartNIC, while application logic runs on accelerators that perform
//! network I/O through lightweight **message queues (mqueues)** — without
//! any host CPU involvement on the request path.
//!
//! ## Components (Figure 4 of the paper)
//!
//! * [`Mqueue`] — a pair of producer/consumer rings (RX and TX) residing in
//!   *accelerator* memory, with per-slot doorbells and 4-byte coalesced
//!   metadata (§5.1). Server mqueues serve RPC-style clients; client
//!   mqueues reach fixed backend services (e.g. memcached).
//! * [`RemoteMqManager`] — the SmartNIC-side agent that accesses mqueues
//!   via one-sided RDMA on a single RC QP per accelerator, keeping the SNIC
//!   accelerator-agnostic.
//! * [`LynxServer`] — the generic network server on the SNIC: listens on
//!   UDP/TCP ports, dispatches requests to mqueues ([`DispatchPolicy`]),
//!   forwards responses back to clients, and bridges client mqueues to
//!   backend services.
//! * [`Worker`] / [`AccelApp`] — the accelerator-side runtime: a persistent
//!   execution unit polling its mqueue through the ~20-line I/O shim, with
//!   zero-copy `recv`/`send` and mid-request backend calls.
//! * [`HostCentricServer`] — the traditional baseline (Figure 1a): the host
//!   CPU receives packets, copies data, launches kernels and synchronizes,
//!   paying the driver overheads of §3.2.
//! * [`InnovaReceiver`] — the §5.2 FPGA prototype: a bump-in-the-wire NICA
//!   AFU feeding custom rings over a UC QP, receive path only.
//! * [`testbed`] — assembly of the paper's hardware testbed: machines,
//!   SmartNICs, GPUs (local and remote), clients.
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs` in the repository root for a complete
//! echo server; the [`testbed`] module documentation walks through the
//! pieces.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod builder;
pub mod cache;
mod control;
mod dispatch;
mod error;
mod hostcentric;
mod innova;
mod mqueue;
pub mod pipeline;
mod rmq;
mod server;
pub mod shard;
pub mod tenancy;
pub mod testbed;
mod validate;

pub use accel::{AccelApp, ExecUnit, ProcessorApp, ThreadblockUnit, Worker, WorkerCtx};
pub use builder::LynxServerBuilder;
pub use cache::{
    CacheConfig, CacheOp, CacheProtocol, CacheTicket, FnCacheProtocol, SnicCache, SnicKernel,
};
pub use control::ControlConfig;
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use error::{Error, Result};
pub use hostcentric::HostCentricServer;
pub use innova::InnovaReceiver;
pub use mqueue::{Mqueue, MqueueConfig, MqueueKind, ReqCtx, ReturnAddr, SLOT_HEADER};
pub use pipeline::{BatchPolicy, PipelineConfig};
pub use rmq::{RemoteMqManager, RmqConfig};
pub use server::{
    CacheStats, CostModel, LynxServer, RecoveryConfig, ServerStats, ServiceId, SnicPlatform,
};
pub use shard::{conservative_window, ReplicaSet, ShardPlan};
pub use tenancy::{
    Admission, FnId, FunctionRegistry, FunctionSpec, MatchRule, Tenancy, TenancyConfig,
    TenancyStats, TenantCacheMode, TenantQuota,
};
pub use validate::Validate;
