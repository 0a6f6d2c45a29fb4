//! # fsi-resil — resilience for the sharded serving fleet
//!
//! PR 7 gave the serving stack a scatter-gather coordinator over remote
//! shards; this crate makes that fleet answer under partial failure. A
//! single dead `RemoteShard` no longer fails the query — an outage
//! concentrated on one shard is itself a spatial-fairness failure mode
//! (the regions mapped to that shard lose service while everyone else
//! keeps theirs).
//!
//! * [`ResiliencePolicy`] — a validated, serde-round-trippable knob
//!   set: retry budget with exponential backoff and deterministic
//!   seedable jitter, and the circuit-breaker thresholds.
//! * [`CircuitBreaker`] — per-replica consecutive-failure admission
//!   control with half-open probing; every transition is counted so
//!   breaker cycles are observable post-hoc from `/metrics`.
//! * [`ReplicaSet`] — N backends serving the same clip rectangle
//!   behind the one [`fsi_serve::ShardBackend`] interface, so
//!   `Topology`, `TopologySpec` (the `{"replicas": [...]}` slot form)
//!   and the two-phase rebuild barrier compose unchanged. Idempotent
//!   requests fail over and retry across replicas on the calling
//!   thread; writes and barrier messages broadcast to all with
//!   all-must-succeed semantics.
//! * [`ChaosShard`] — deterministic seeded fault injection (kill
//!   switch, every-Nth errors, seeded drop probability) shared by the
//!   distributed tests and the resilience benchmark.
//!
//! Everything is std-only: atomics for breakers and counters, no
//! external dependencies beyond the workspace's vendored serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod chaos;
mod error;
mod policy;
mod replica;

pub use breaker::CircuitBreaker;
pub use chaos::{ChaosShard, ChaosSwitch};
pub use error::ResilError;
pub use policy::ResiliencePolicy;
pub use replica::ReplicaSet;
