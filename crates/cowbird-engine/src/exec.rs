//! The FabricOp executor every engine driver shares.
//!
//! [`EngineCore`] speaks [`FabricOp`]; a NIC speaks work requests. The
//! [`FabricExecutor`] is the one translation between them:
//! [`crate::group::EngineGroup`] runs it over an emulated NIC per channel,
//! [`crate::sim::EngineNode`] over one simulated NIC shared by every hosted
//! instance. It owns
//!
//! * the scratch region fetched data lands in, and its ring allocator;
//! * the wr-id counter and one `wr_id -> pending` table covering plain and
//!   scatter-gather reads, tagged-write acknowledgments and a standby's
//!   red-block read;
//! * routing: which queue pair (compute, probe or pool) and priority each
//!   op rides;
//! * send-queue backpressure: a WR that does not fit its queue pair waits in
//!   a per-QP FIFO and is posted once completions free a slot, so a post
//!   never fails with `SendQueueFull`.
//!
//! A back end implements [`Nic`] (free-slot query, post a same-QP run, reap
//! completions); a driver implements [`Lanes`] to hand completions to the
//! right core.

use std::collections::VecDeque;

use cowbird::layout::{GREEN_LEN, GREEN_OFFSET, RED_LEN, RED_OFFSET};
use rdma::emu::EmuNic;
use rdma::mem::{Region, Rkey};
use rdma::qp::QpNum;
use rdma::verbs::{Completion, WorkRequest, WrOp};
use simnet::fasthash::FastHashMap;
use telemetry::profile::Phase;
use telemetry::Profiler;

use crate::core::{EngineCore, FabricOp};

/// Completions a driver reaps per call, and the initial size of the
/// executor's scratch vectors.
pub const REAP_BATCH: usize = 64;

/// A NIC back end for the executor.
pub trait Nic {
    /// Free send-queue slots on `qpn`.
    fn sq_room(&self, qpn: QpNum) -> usize;
    /// Post every WR in `run` (all bound for `qpn`, at priority `prio`),
    /// leaving `run` empty. The executor never posts more than
    /// [`Nic::sq_room`] allows, so a refusal is a driver bug and panics.
    fn post(&mut self, qpn: QpNum, prio: u8, run: &mut Vec<WorkRequest>);
    /// Append up to `max` completions onto `out`; returns how many.
    fn poll_into(&mut self, max: usize, out: &mut Vec<Completion>) -> usize;
}

/// Emulated fabric: a same-QP run goes out as one chain, one NIC entry.
impl Nic for EmuNic {
    fn sq_room(&self, qpn: QpNum) -> usize {
        EmuNic::sq_room(self, qpn)
    }

    fn post(&mut self, qpn: QpNum, _prio: u8, run: &mut Vec<WorkRequest>) {
        if let Err(e) = self.post_chain(qpn, run.drain(..)) {
            panic!("engine post failed: {e}");
        }
    }

    fn poll_into(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        EmuNic::poll_into(self, max, out)
    }
}

/// Where one hosted channel's ops go.
#[derive(Clone, Copy, Debug)]
pub struct Route {
    /// Local QPN toward the compute node (data path).
    pub compute_qpn: QpNum,
    /// Local QPN for background traffic toward the compute node: the
    /// green-block probe and the telemetry readback write. Equal to
    /// `compute_qpn` where the NIC has no separate probe QP.
    pub probe_qpn: QpNum,
    /// Local QPN toward the memory pool.
    pub pool_qpn: QpNum,
    /// rkey of the channel region on the compute node's NIC.
    pub channel_rkey: Rkey,
    /// Channel-region offset of the telemetry readback block.
    pub telem_offset: u64,
    pub data_prio: u8,
    pub probe_prio: u8,
    /// Post each run of consecutive same-QP WRs as one chain (one
    /// doorbell) instead of one post per WR.
    pub chain: bool,
}

/// What a posted WR's completion means.
enum Awaiting {
    /// A plain read: `len` bytes at scratch `off` answer `tag`.
    Read { tag: u64, off: u64, len: u32 },
    /// A scatter-gather read: one `(tag, off, len)` per merged request,
    /// delivered in merge order.
    Parts(Vec<(u64, u64, u32)>),
    /// A tagged write's delivery acknowledgment (no payload).
    WriteAck { tag: u64 },
    /// A standby's read of the predecessor's red block.
    Red { off: u64 },
}

struct Pending {
    slot: usize,
    what: Awaiting,
}

/// One queue pair's send-side state.
#[derive(Default)]
struct SendQueue {
    /// Slots known free. Room only grows behind our back (completions), so
    /// a stale value is safe; it is refreshed from the NIC when short.
    room: usize,
    /// WRs that did not fit, oldest first, with their priority.
    waiting: VecDeque<(u8, WorkRequest)>,
}

/// A driver's view of the channels it hosts, indexed by slot.
pub trait Lanes<N: Nic> {
    /// The core at `slot`, its route, and the profiler charged with the
    /// Execute phase of its completions.
    fn lane(&mut self, slot: usize) -> (&mut EngineCore, Route, &Profiler);

    /// A standby's red-block read completed: `red` holds the block, or is
    /// `None` when the read failed.
    fn red_block(
        &mut self,
        exec: &mut FabricExecutor,
        nic: &mut N,
        slot: usize,
        red: Option<&[u8]>,
    );

    /// A completion for a WR posted with [`FabricExecutor::post_untracked`]
    /// (or an untagged write).
    fn unclaimed(&mut self, _exec: &mut FabricExecutor, _nic: &mut N, _c: &Completion) {}
}

/// Translates [`FabricOp`]s into work requests and completions back into
/// core callbacks.
pub struct FabricExecutor {
    scratch: Region,
    lkey: Rkey,
    cursor: u64,
    next_wr: u64,
    pending: FastHashMap<u64, Pending>,
    queues: FastHashMap<QpNum, SendQueue>,
    /// WRs parked across every send queue.
    waiting: usize,
    /// Translated WRs of one [`FabricExecutor::exec`] call, in op order.
    staged: Vec<(QpNum, u8, WorkRequest)>,
    /// The run being posted.
    run: Vec<WorkRequest>,
    /// Reap scratch: completions, fetched bytes, follow-up ops.
    cq: Vec<Completion>,
    data: Vec<u8>,
    ops: Vec<FabricOp>,
}

impl FabricExecutor {
    /// An executor landing reads in `scratch`, registered as `lkey` on the
    /// NIC it will drive. Scratch is sized up front, so a warm executor
    /// allocates only for scatter-gather bookkeeping.
    pub fn new(scratch: Region, lkey: Rkey) -> FabricExecutor {
        FabricExecutor {
            scratch,
            lkey,
            cursor: 0,
            next_wr: 1,
            pending: FastHashMap::with_capacity_and_hasher(REAP_BATCH, Default::default()),
            queues: FastHashMap::with_capacity_and_hasher(8, Default::default()),
            waiting: 0,
            staged: Vec::with_capacity(REAP_BATCH),
            run: Vec::with_capacity(REAP_BATCH),
            cq: Vec::with_capacity(REAP_BATCH),
            data: Vec::new(),
            ops: Vec::with_capacity(REAP_BATCH),
        }
    }

    /// WRs whose completion is still owed to a core, plus WRs waiting for
    /// send-queue room.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.waiting
    }

    /// Ring allocation in the scratch region: a slot never straddles the
    /// end, so it wraps to offset 0 instead.
    fn alloc(&mut self, len: u32) -> u64 {
        let cap = self.scratch.len() as u64;
        let len = len as u64;
        if self.cursor % cap + len > cap {
            self.cursor += cap - self.cursor % cap;
        }
        let off = self.cursor % cap;
        self.cursor += len;
        off
    }

    /// A read of `len` remote bytes into a fresh scratch slot.
    fn read(&mut self, rkey: Rkey, addr: u64, len: u32) -> (WrOp, u64) {
        let off = self.alloc(len);
        let op = WrOp::Read {
            local_rkey: self.lkey,
            local_addr: off,
            remote_addr: addr,
            remote_rkey: rkey,
            len,
        };
        (op, off)
    }

    /// Give `op` the next wr-id, remember what its completion is owed to,
    /// and queue it for the next flush.
    fn stage(&mut self, (qpn, prio): (QpNum, u8), op: WrOp, owed: Option<Pending>) -> u64 {
        let wr_id = self.next_wr;
        self.next_wr += 1;
        if let Some(p) = owed {
            self.pending.insert(wr_id, p);
        }
        self.staged.push((qpn, prio, WorkRequest { wr_id, op }));
        wr_id
    }

    /// Execute `ops` (left empty) for the channel at `slot`.
    pub fn exec<N: Nic>(
        &mut self,
        nic: &mut N,
        route: Route,
        slot: usize,
        ops: &mut Vec<FabricOp>,
    ) {
        let pool = (route.pool_qpn, route.data_prio);
        let probe = (route.probe_qpn, route.probe_prio);
        let compute = (route.compute_qpn, route.data_prio);
        for op in ops.drain(..) {
            let (to, op, what) = match op {
                FabricOp::ReadCompute { offset, len, tag } => {
                    // A read of exactly the green block is the probe; it
                    // rides the low-priority probe QP.
                    let is_probe = offset == GREEN_OFFSET && len == GREEN_LEN as u32;
                    let (op, off) = self.read(route.channel_rkey, offset, len);
                    let to = if is_probe { probe } else { compute };
                    (to, op, Some(Awaiting::Read { tag, off, len }))
                }
                FabricOp::ReadPool {
                    rkey,
                    addr,
                    len,
                    tag,
                } => {
                    let (op, off) = self.read(rkey, addr, len);
                    (pool, op, Some(Awaiting::Read { tag, off, len }))
                }
                FabricOp::ReadPoolSg { rkey, addr, parts } => {
                    // One SG verb for the contiguous remote run; per-part
                    // scratch segments let the single completion scatter
                    // back into per-request payloads.
                    let mut segments = Vec::with_capacity(parts.len());
                    let mut owed = Vec::with_capacity(parts.len());
                    for (len, tag) in parts {
                        let off = self.alloc(len);
                        segments.push((off, len));
                        owed.push((tag, off, len));
                    }
                    let op = WrOp::ReadSg {
                        local_rkey: self.lkey,
                        segments,
                        remote_addr: addr,
                        remote_rkey: rkey,
                    };
                    (pool, op, Some(Awaiting::Parts(owed)))
                }
                FabricOp::WriteCompute { offset, data, tag } => {
                    // The fire-and-forget telemetry readback is background
                    // traffic like the probe and rides with it.
                    let to = if tag == 0 && offset == route.telem_offset {
                        probe
                    } else {
                        compute
                    };
                    let (remote_addr, remote_rkey) = (offset, route.channel_rkey);
                    let op = WrOp::WriteInline {
                        remote_addr,
                        remote_rkey,
                        data,
                    };
                    (to, op, (tag != 0).then_some(Awaiting::WriteAck { tag }))
                }
                FabricOp::WritePool { rkey, addr, data } => {
                    let (remote_addr, remote_rkey) = (addr, rkey);
                    (
                        pool,
                        WrOp::WriteInline {
                            remote_addr,
                            remote_rkey,
                            data,
                        },
                        None,
                    )
                }
                FabricOp::WritePoolSg {
                    rkey,
                    addr,
                    segments,
                } => {
                    let (remote_addr, remote_rkey) = (addr, rkey);
                    (
                        pool,
                        WrOp::WriteSg {
                            remote_addr,
                            remote_rkey,
                            segments,
                        },
                        None,
                    )
                }
            };
            self.stage(to, op, what.map(|what| Pending { slot, what }));
        }
        self.flush(nic, route.chain);
    }

    /// Standby takeover, first leg: read the predecessor's red block from
    /// the channel region. Its completion reaches [`Lanes::red_block`].
    pub fn read_red<N: Nic>(&mut self, nic: &mut N, route: Route, slot: usize) {
        let (op, off) = self.read(route.channel_rkey, RED_OFFSET, RED_LEN as u32);
        let what = Awaiting::Red { off };
        self.stage(
            (route.compute_qpn, route.data_prio),
            op,
            Some(Pending { slot, what }),
        );
        self.flush(nic, false);
    }

    /// Post a WR the executor does not track; its completion reaches
    /// [`Lanes::unclaimed`]. Returns its wr-id.
    pub fn post_untracked<N: Nic>(&mut self, nic: &mut N, qpn: QpNum, prio: u8, op: WrOp) -> u64 {
        let wr_id = self.stage((qpn, prio), op, None);
        self.flush(nic, false);
        wr_id
    }

    /// Post the staged WRs in order, one run per same-QP stretch (or per
    /// WR without chaining).
    fn flush<N: Nic>(&mut self, nic: &mut N, chain: bool) {
        let mut staged = std::mem::take(&mut self.staged);
        let mut iter = staged.drain(..).peekable();
        while let Some((qpn, prio, wr)) = iter.next() {
            self.run.push(wr);
            while chain && iter.peek().is_some_and(|(q, p, _)| *q == qpn && *p == prio) {
                self.run.push(iter.next().expect("peeked").2);
            }
            self.submit(nic, qpn, prio);
        }
        drop(iter);
        self.staged = staged;
    }

    /// Post `self.run` to `qpn` if the send queue has room for all of it
    /// and nothing is waiting there; otherwise it waits its turn.
    fn submit<N: Nic>(&mut self, nic: &mut N, qpn: QpNum, prio: u8) {
        let sq = self.queues.entry(qpn).or_default();
        if sq.waiting.is_empty() && sq.room < self.run.len() {
            sq.room = nic.sq_room(qpn);
        }
        if sq.waiting.is_empty() && sq.room >= self.run.len() {
            sq.room -= self.run.len();
            nic.post(qpn, prio, &mut self.run);
        } else {
            self.waiting += self.run.len();
            sq.waiting.extend(self.run.drain(..).map(|wr| (prio, wr)));
        }
    }

    /// Post waiting WRs that now fit, oldest first.
    pub fn resume<N: Nic>(&mut self, nic: &mut N) {
        if self.waiting == 0 {
            return;
        }
        for (&qpn, sq) in self.queues.iter_mut() {
            if !sq.waiting.is_empty() {
                sq.room = nic.sq_room(qpn);
            }
            while sq.room > 0 {
                let Some((prio, wr)) = sq.waiting.pop_front() else {
                    break;
                };
                self.run.push(wr);
                sq.room -= 1;
                self.waiting -= 1;
                if sq.room == 0 || sq.waiting.front().is_none_or(|w| w.0 != prio) {
                    nic.post(qpn, prio, &mut self.run);
                }
            }
        }
    }

    /// Reap up to `max` completions and hand each to its core, executing
    /// the follow-up ops at once. Returns how many completions were reaped.
    pub fn reap<N: Nic, L: Lanes<N>>(&mut self, nic: &mut N, lanes: &mut L, max: usize) -> usize {
        // Scratch is taken for the duration: the callbacks below need
        // `&mut self`. The steady-state reap path allocates nothing.
        let mut comps = std::mem::take(&mut self.cq);
        let mut data = std::mem::take(&mut self.data);
        let mut ops = std::mem::take(&mut self.ops);
        comps.clear();
        let n = nic.poll_into(max, &mut comps);
        for c in &comps {
            let Some(Pending { slot, what }) = self.pending.remove(&c.wr_id) else {
                lanes.unclaimed(self, nic, c);
                continue;
            };
            match what {
                Awaiting::Red { off } => {
                    let red = if c.is_ok() {
                        self.scratch
                            .read_into(off, RED_LEN as usize, &mut data)
                            .expect("scratch slot allocated inside the region");
                        Some(data.as_slice())
                    } else {
                        None
                    };
                    lanes.red_block(self, nic, slot, red);
                }
                // A lost read or tracked publish: Go-Back-N restart.
                _ if !c.is_ok() => lanes.lane(slot).0.reset_to_committed(),
                Awaiting::WriteAck { tag } => {
                    // Red-block delivery acknowledgment: the core's
                    // write-after-read barrier can advance.
                    let (core, route, _) = lanes.lane(slot);
                    ops.clear();
                    core.on_data_into(tag, &[], &mut ops);
                    self.exec(nic, route, slot, &mut ops);
                }
                Awaiting::Read { tag, off, len } => {
                    self.scratch
                        .read_into(off, len as usize, &mut data)
                        .expect("scratch slot allocated inside the region");
                    let (core, route, prof) = lanes.lane(slot);
                    // Dispatching fetched data (and issuing the follow-up
                    // verbs) is the Execute phase.
                    let _scope = prof.scope(Phase::Execute);
                    ops.clear();
                    core.on_data_into(tag, &data, &mut ops);
                    self.exec(nic, route, slot, &mut ops);
                }
                Awaiting::Parts(parts) => {
                    // One CQE completes every merged request: scatter them
                    // through the core in merge order, one Execute visit.
                    let (core, route, prof) = lanes.lane(slot);
                    let _scope = prof.scope(Phase::Execute);
                    for (tag, off, len) in parts {
                        self.scratch
                            .read_into(off, len as usize, &mut data)
                            .expect("scratch slot allocated inside the region");
                        ops.clear();
                        core.on_data_into(tag, &data, &mut ops);
                        self.exec(nic, route, slot, &mut ops);
                    }
                }
            }
        }
        self.cq = comps;
        self.data = data;
        self.ops = ops;
        self.resume(nic);
        n
    }
}
