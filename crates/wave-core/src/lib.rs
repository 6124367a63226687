//! # wave-core — the Wave offload API
//!
//! This crate implements the host↔SmartNIC API of the paper's Table 1:
//!
//! ```text
//! Shared:   START_WAVE_AGENT, KILL_WAVE_AGENT
//! Queues:   CREATE_QUEUE, DESTROY_QUEUE, ASSOC_QUEUE_WITH, SET_QUEUE_TYPE
//! Messages: SEND_MESSAGES (host)            | POLL_MESSAGES (NIC)
//! Txns:     PREFETCH_TXNS, POLL_TXNS (host) | TXN_CREATE, TXNS_COMMIT (NIC)
//! Outcomes: SET_TXNS_OUTCOMES (host)        | POLL_TXNS_OUTCOMES (NIC)
//! ```
//!
//! The key semantic — inherited from ghOSt and made *more* important by
//! the PCIe latency — is that agent decisions are **committed atomically
//! as transactions**: every transaction names its target resource and the
//! generation of that resource the agent observed; the host kernel
//! validates the generation at enforcement time and cleanly fails the
//! transaction if the resource changed or died in the meantime (e.g. "an
//! agent attempts to update page table entries for an application that
//! simultaneously exits", §3.2).
//!
//! Layout:
//!
//! * [`channel`] — [`channel::WaveChannel`], the queue triple (messages,
//!   transactions, outcomes) with the Table 1 operations.
//! * [`txn`] — transactions, outcomes, and the host-side
//!   [`txn::GenerationTable`] used for atomic validation.
//! * [`agent`] — SmartNIC agent lifecycle and its serial compute clock.
//! * [`runtime`] — the reusable agent-runtime layer: one agent's
//!   message queue + decision-slot table + pump gating, behind a
//!   [`runtime::ResourcePolicy`]-driven stage API, generic over the
//!   ingest transport (MMIO message queues for the scheduler, batched
//!   delta-compressed DMA for the memory manager). Sharded deployments
//!   instantiate one [`runtime::AgentRuntime`] per agent.
//! * [`shard_map`] — dynamic, load-aware shard ownership on top of the
//!   runtime layer: a generation-stamped [`shard_map::ShardMap`] from
//!   resource index to owning shard plus a pluggable, epoch-driven
//!   [`shard_map::Rebalancer`], used by both sharded agents to move
//!   cores/batches between shards when load counters stay skewed.
//! * [`tenant`] — the multi-tenant service layer: a
//!   [`tenant::TenantRegistry`] admits T tenants' agent bundles onto
//!   one NIC with deficit-round-robin pump arbitration
//!   ([`tenant::NicScheduler`]), per-tenant attribution on the shared
//!   DMA engine, a bounded MSI-X vector table with degraded-polling
//!   fallback on exhaustion, and a [`shard_map::FeedDemand`] rebalance
//!   axis that moves NIC cores between tenants.
//! * [`watchdog`] — the per-component on-host watchdog (§3.3: kill an
//!   agent that has made no decision for >20 ms).
//! * [`opts`] — the optimization toggles of §5.3/§5.4, used by every
//!   ablation in the evaluation.
//! * [`workload`] — streaming workload generation: the
//!   [`workload::WorkloadSource`] trait with Poisson, CSV-trace, and
//!   deterministic synthetic-production-trace sources, the
//!   [`workload::WorkloadSpec`] config value consumers embed, and the
//!   [`workload::MemPhaseSource`] phase stream for the memory agent.

#![forbid(unsafe_code)]

pub mod agent;
pub mod channel;
pub mod opts;
pub mod runtime;
pub mod shard_map;
pub mod tenant;
pub mod txn;
pub mod watchdog;
pub mod workload;

pub use agent::{Agent, AgentId, AgentState};
pub use channel::{ChannelConfig, CommitOutcome, MsixMode, WaveChannel};
pub use opts::OptLevel;
pub use runtime::{
    AgentRuntime, DmaShipment, ResourcePolicy, RuntimeConfig, SlotId, SlotTable, StageCost,
};
pub use shard_map::{
    FeedDemand, RebalanceConfig, RebalanceEvent, RebalancePolicy, Rebalancer, ResourceMove,
    ShardMap, ShedLoad,
};
pub use tenant::{
    Arbitration, Grant, NicScheduler, TenantBinding, TenantId, TenantRegistry, TenantSpec,
};
pub use txn::{GenerationTable, ResourceRef, Txn, TxnId, TxnOutcome, TxnOutcomeRecord};
pub use watchdog::Watchdog;
pub use workload::{
    MemPhase, MemPhaseSource, MixEntry, PhaseSchedule, PoissonClock, PoissonSource, ServiceMix,
    SloClass, SyntheticConfig, SyntheticTraceGenerator, Task, TraceError, TraceOptions,
    TraceRecord, TraceSource, WorkloadEvent, WorkloadSource, WorkloadSpec,
};
