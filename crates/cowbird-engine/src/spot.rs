//! Cowbird-Spot wiring: what an engine on a general-purpose core needs to
//! serve one channel over the emulated RDMA fabric ([`rdma::emu`]).
//!
//! The Spot engine itself is [`crate::group::EngineGroup`]: worker threads
//! driving [`crate::core::EngineCore`] state machines, one per channel, and
//! the group-wide spot lifecycle (preemption drain, revocation, standby
//! adoption, zombie freeze).

use rdma::emu::EmuNic;
use rdma::mem::Rkey;
use rdma::qp::QpNum;

/// Wiring one channel needs (established during the Setup phase).
#[derive(Clone)]
pub struct SpotWiring {
    /// The engine's NIC on the emulated fabric.
    pub nic: EmuNic,
    /// Engine's local QPN toward the compute node.
    pub compute_qpn: QpNum,
    /// Engine's local QPN toward the memory pool.
    pub pool_qpn: QpNum,
    /// rkey of the channel region on the compute node's NIC.
    pub channel_rkey: Rkey,
}
