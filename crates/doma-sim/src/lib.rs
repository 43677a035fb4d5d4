//! # doma-sim
//!
//! A deterministic discrete-event simulator for message-passing protocols:
//! the substrate `doma-protocol` runs SA and DA on.
//!
//! * [`SimTime`] — a virtual clock in abstract ticks.
//! * [`Engine`] — the event loop: actors implement [`Actor`]; events are
//!   delivered in `(time, sequence)` order, so runs are fully
//!   deterministic. Links have distinct control/data message latencies
//!   ([`NetworkConfig`]) and the engine keeps exact per-kind message
//!   tallies ([`Engine::net_stats`]). Messages count when *sent*
//!   (matching the paper's cost model, which prices transmissions).
//!   Crash/recover events model processor failures: messages to a
//!   crashed node are dropped (and counted as such).
//! * Observability — [`Engine::set_obs`] counts sends, drops and faults
//!   into a [`doma_obs::Obs`] bundle, and [`Engine::trace_messages`]
//!   adds one `sim.trace` record per delivery to its event log.
//! * [`FaultPlan`] — deterministic fault injection: declarative
//!   drop/delay/duplicate/jitter rules, partitions and crash schedules,
//!   installed via [`Engine::install_faults`] and reproducible from a
//!   single seed.
//!
//! Each engine is intentionally single-threaded: determinism is worth
//! more than parallelism inside one event loop. Parallelism happens
//! *across* engines instead — the [`shard`] module runs independent
//! engines on scoped threads (one per object shard) and returns their
//! outputs in a deterministic order, and the analysis crate parallelizes
//! at the experiment level the same way.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod fault;
mod network;
pub mod shard;
mod time;

pub use engine::{Actor, Context, Engine, EngineConfig, NodeId, PendingClass, PendingEvent};
pub use fault::{CrashEvent, FaultAction, FaultPlan, FaultRule, FaultStats, LinkFilter, Partition};
pub use network::{Medium, MsgKind, NetStats, NetworkConfig};
pub use time::SimTime;
