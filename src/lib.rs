//! # Lynx — a SmartNIC-driven accelerator-centric network server
//!
//! A full-system reproduction of *"Lynx: A SmartNIC-driven
//! Accelerator-centric Architecture for Network Servers"* (Tork, Maudlej,
//! Silberstein — ASPLOS 2020) in Rust.
//!
//! This façade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `lynx-sim` | deterministic discrete-event simulation kernel |
//! | [`fabric`] | `lynx-fabric` | PCIe fabric, DMA, one-sided RDMA |
//! | [`net`] | `lynx-net` | links, switch, UDP/TCP stack cost models |
//! | [`device`] | `lynx-device` | GPU, CPUs, LLC interference, FPGA NIC, VCA |
//! | [`core`] | `lynx-core` | **the paper's contribution**: mqueues, dispatcher, forwarder, remote MQ manager, network server, accelerator shim, host-centric baseline, testbed |
//! | [`apps`] | `lynx-apps` | LeNet-5 inference, LBP face verification, KV store, AES |
//! | [`workload`] | `lynx-workload` | load generators, latency recording, reports |
//!
//! ## Example
//!
//! Run the quickstart echo server:
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! and regenerate every figure of the paper:
//!
//! ```bash
//! cargo bench --workspace
//! ```

#![warn(missing_docs)]

pub use lynx_apps as apps;
pub use lynx_core as core;
pub use lynx_device as device;
pub use lynx_fabric as fabric;
pub use lynx_net as net;
pub use lynx_sim as sim;
pub use lynx_workload as workload;

// Flat re-exports of the robustness/builder API so downstream code can
// name the common types without digging through sub-crates.
pub use lynx_core::{Error, LynxServerBuilder, RecoveryConfig, Result, RmqConfig};
pub use lynx_sim::{FaultAction, FaultPlan, FaultRule, SimConfig, Trigger};

/// One-stop import for building and driving a Lynx deployment.
///
/// ```
/// use lynx::prelude::*;
///
/// let mut sim = Sim::new(42);
/// # let _ = &mut sim;
/// ```
///
/// Everything a typical server — builder, pipeline, mqueue, fault and
/// telemetry — needs, without digging through sub-crates, plus the typed
/// platform cost profiles and the deployment auto-tuner built on them.
/// Specialised types (baselines, device models, workload generators) stay
/// in their modules.
pub mod prelude {
    pub use lynx_core::shard::{conservative_window, ReplicaSet, ShardPlan};
    pub use lynx_core::testbed::{DeployConfig, Deployment, GpuSite, Machine};
    pub use lynx_core::{
        BatchPolicy, ControlConfig, DispatchPolicy, Error, LynxServer, LynxServerBuilder, Mqueue,
        MqueueConfig, MqueueKind, PipelineConfig, RecoveryConfig, RemoteMqManager, Result,
        ReturnAddr, RmqConfig, ServiceId, SnicPlatform, Validate,
    };
    pub use lynx_device::{
        profile_for, AppProfile, BluefieldProfile, CostProfile, FpgaProfile, GpuProfile,
        VcaProfile, XeonProfile,
    };
    pub use lynx_net::{Network, SockAddr, StackKind};
    pub use lynx_sim::{
        FaultAction, FaultPlan, FaultRule, Partition, PartitionReport, Payload, ShardId, Sim,
        SimConfig, Telemetry, Time, Trigger,
    };
    pub use lynx_workload::tune::{
        predict, tune, Candidate, Prediction, Stage, TuneError, TuneGoal, TuneSpace, TunedConfig,
    };
}
