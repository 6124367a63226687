//! # wave-kvstore — the RocksDB-like µs-scale workload
//!
//! The paper evaluates Wave against RocksDB, used in two roles:
//!
//! 1. **A µs-scale request workload** (§7.2/§7.3): 10 µs GET requests and
//!    10 ms RANGE queries driven by an open-loop load generator. The
//!    [`store`] module provides a real (small) key-value store with that
//!    service-time envelope, and [`workload`] provides the generators.
//! 2. **A large address space for memory tiering** (§7.4): a ~100 GiB
//!    database whose page-access pattern SOL learns. The [`footprint`]
//!    module models the database's pages, batches, and skewed access
//!    pattern without allocating 100 GiB.

#![forbid(unsafe_code)]

pub mod footprint;
pub mod store;
pub mod workload;

pub use footprint::{AccessPattern, DbFootprint, FootprintConfig};
pub use store::{Db, DbConfig, Request, RequestKind};
pub use workload::{KvSource, LoadGen, RequestMix};
