//! # wave-queue — Floem-style host↔SmartNIC shared-memory queues
//!
//! Wave communicates over unidirectional shared-memory queues (§5.3): one
//! queue carries messages host→SmartNIC, another carries decisions
//! SmartNIC→host. This crate implements those queues on top of the
//! [`wave_pcie`] interconnect model, reproducing the Floem design the
//! paper builds on:
//!
//! * **Per-entry valid flags**: the producer marks an entry valid only
//!   after fully writing it, so the consumer never reads a torn entry.
//!   In the model, an entry carries the absolute time it becomes visible
//!   on the consumer's side of the link.
//! * **MMIO or DMA backing** (`SET_QUEUE_TYPE`): MMIO queues live in
//!   SmartNIC DRAM and are accessed by the host through
//!   [`wave_pcie::HostMmio`] — including write-combining batching,
//!   write-through caching, staleness, and `clflush`/prefetch. DMA queues
//!   stage entries locally and ship them in batches through
//!   [`wave_pcie::DmaEngine`], synchronously or asynchronously.
//! * **Lazy head synchronization** (after iPipe): the producer learns the
//!   consumer's progress only from a periodically-published head pointer,
//!   avoiding a PCIe round trip per push; it pays the expensive head read
//!   only when its credits run out.
//!
//! The queue is *typed*: `WaveQueue<T>` carries real payload values of
//! `T` so higher layers (messages, transactions) get lossless,
//! order-preserving delivery with accurately-costed timing.

#![forbid(unsafe_code)]

pub mod queue;

pub use queue::{
    Direction, PollOutcome, PushError, PushOutcome, QueueStats, Rejected, Transport, WaveQueue,
};
