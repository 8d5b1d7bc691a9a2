#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Sharded execution engine: in-process scatter/gather over Γ
//! partials, with a plan cache.
//!
//! The paper's central observation is that the summary matrices
//! `n, L, Q` are *additive*: partial matrices computed over disjoint
//! horizontal partitions merge by plain addition (§3.4's four-phase
//! aggregate UDF protocol exists precisely to exploit this inside one
//! parallel DBMS). This crate scales the same property up one level:
//! instead of worker threads inside one [`nlq_engine::Db`], a
//! [`ShardedDb`] runs `S` independent `Db` shards — each with its own
//! catalog slice, worker pool, and core affinity — and gathers
//! aggregate queries by merging the shards' partial accumulator
//! states. Non-mergeable statements (DDL, DML, plain row streams) fan
//! out with a deterministic concatenating gather.
//!
//! A SQL-text-keyed [`PlanCache`] fronts the whole engine: repeated
//! statement text skips the parse entirely (the paper's Figure-1
//! long-statement overhead), and any DDL invalidates the cache.

mod affinity;
mod cache;
mod executor;
mod sharded;

pub use cache::{CacheOutcome, PlanCache};
pub use sharded::{Distribution, ShardedDb};
