//! # cowbird-engine — the offload engines (paper §5–6)
//!
//! An offload engine executes the compute node's requested transfers without
//! compute-node intervention: it polls the client's rings over RDMA,
//! generates the reads/writes against the memory pool, and posts completions
//! back — Probe, Execute, Complete (the Setup phase lives in
//! `p4rt::switchd` for the P4 variant and in plain constructor arguments for
//! Spot).
//!
//! The protocol logic is substrate-independent and lives in [`core`] as a
//! sans-IO state machine ([`core::EngineCore`]) that emits [`core::FabricOp`]
//! commands. One executor, [`exec::FabricExecutor`], turns those commands
//! into RDMA work requests and completions back into core callbacks, over a
//! small [`exec::Nic`] trait with two back ends. Two drivers embed it:
//!
//! * [`sim::EngineNode`] — a `simnet` node on the simulated NIC, used by
//!   every performance experiment (both engine variants; they differ in
//!   configuration: batching + range-overlap checks for Spot, per-packet +
//!   pause-all for P4 — see [`core::EngineConfig`]).
//! * [`group::EngineGroup`] — worker threads over the emulated RDMA fabric,
//!   one [`spot::SpotWiring`] per channel; this is the runnable Spot engine
//!   the examples and integration tests use, spot lifecycle included.
//!
//! [`p4`] is the Cowbird-P4 program shape on the `p4rt` pipeline: the
//! 12-stage spec whose resource fold regenerates Table 5, plus the
//! recycling rules (§5.2) expressed as tests over `rdma::wire`.

pub mod consistency;
pub mod core;
pub mod exec;
pub mod group;
pub mod p4;
pub mod sim;
pub mod spot;

pub use crate::core::{EngineConfig, EngineCore, EngineStats, EngineVariant, FabricOp};
pub use crate::group::{EngineGroup, FinishedChannel, GroupConfig, ShardSnapshot};
pub use crate::sim::{EngineNode, PoolNode};
pub use crate::spot::SpotWiring;
