//! # wave-rpc — the Stubby-style RPC stack substrate
//!
//! The paper's third offload (§4.3/§7.3) moves an RPC stack's
//! **packet-to-host-core steering policy** (and data plane) onto the
//! SmartNIC, co-located with the thread scheduler. This crate provides:
//!
//! * [`header`] — the RPC wire header (including the SLO class the
//!   multi-queue Shinjuku policy consumes, §7.3.2), with encode/decode
//!   into queue words.
//! * [`steering`] — steering policies: hardware-style RSS hashing (the
//!   vanilla Stubby baseline) and the agent's idle-worker steering.
//! * [`stack`] — RPC-stack placement/cost models: per-RPC protocol cost,
//!   stack core pools on host x86 or NIC ARM cores, and worker-side
//!   receive/respond costs per placement.
//! * [`scenario`] — the three Fig. 6 scenarios (OnHost-All,
//!   OnHost-Schedule, Offload-All) as ready-to-run scheduling-simulation
//!   configurations.

#![forbid(unsafe_code)]

pub mod header;
pub mod scenario;
pub mod stack;
pub mod steering;

pub use header::RpcHeader;
pub use scenario::{Fig6Scenario, SchedConfigBuilder, SchedulerKind};
pub use stack::{RpcPlacement, StackModel};
pub use steering::{AgentSteering, RssSteering, Steering};
