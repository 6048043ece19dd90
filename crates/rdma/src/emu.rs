//! An RNIC emulated with real OS threads — the runnable substrate.
//!
//! Each [`EmuNic`] spawns a service thread that plays the role of the NIC's
//! packet-processing engine: it receives encoded RoCE packets from other
//! NICs over channels, executes one-sided operations directly against the
//! registered [`Region`]s, and transmits responses — all **without any
//! involvement from the host threads**. That asymmetry is the point: a
//! Cowbird compute node's application threads only ever touch local memory,
//! while its NIC services the offload engine's reads and writes of the
//! request/response rings in the background, concurrently, just like real
//! RDMA hardware would.
//!
//! The mailbox "wire" is lossless and ordered, so Go-Back-N rarely fires
//! here (the service thread still ticks its QPs for completeness); loss and
//! reordering are exercised in the simulator instead.
//!
//! Frames are recycled, never allocated per packet: a sender encodes each
//! packet into a buffer from its own frame arena, the frame crosses the
//! receiver's mailbox, and when the receiver has parsed it (payload copied
//! into the receiving NIC's arena) dropping the frame returns it to the
//! sender's arena.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use parking_lot::{Mutex, RwLock};
use simnet::time::Instant;

use crate::buf::{BufArena, PoolBuf};
use crate::mem::{Region, Rkey};
use crate::qp::{Qp, QpConfig, QpError, QpNum};
use crate::sim::{NicOutput, SimNic};
use crate::verbs::{Completion, WorkRequest};
use crate::wire::RocePacket;

/// Identifies a NIC on the emulated fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NicId(pub u32);

/// Idle frames a NIC's frame arena keeps: 256 frames of a 4 KiB MTU are
/// 1 MiB, far above the frames one NIC has in flight at once.
const FRAME_ARENA_DEPTH: usize = 256;

/// How long an idle service thread sleeps before its retransmission sweep.
const IDLE_TICK: StdDuration = StdDuration::from_millis(10);

/// One NIC's inbound queue of wire frames. A deque under a mutex rather
/// than a channel: the deque's capacity sticks, so steady-state delivery
/// never allocates, and a sender signals the condvar only when the service
/// thread is actually asleep.
#[derive(Default)]
struct Mailbox {
    inbox: std::sync::Mutex<Inbox>,
    wake: Condvar,
}

#[derive(Default)]
struct Inbox {
    frames: VecDeque<PoolBuf>,
    sleeping: bool,
    closed: bool,
}

impl Mailbox {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inbox> {
        // Every update (push, swap, flag store) leaves the inbox valid, so
        // a lock poisoned by a panicking holder is safe to keep using.
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn send(&self, frame: PoolBuf) {
        let mut inbox = self.lock();
        if inbox.closed {
            // The NIC was shut down; drop the frame like a real network
            // would.
            return;
        }
        inbox.frames.push_back(frame);
        let sleeping = inbox.sleeping;
        drop(inbox);
        if sleeping {
            self.wake.notify_one();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_one();
    }

    /// Move every queued frame into `batch` (empty on entry; the two deques
    /// swap, so both keep their capacity), first waiting up to `timeout`
    /// for one if none is queued. Returns false once the mailbox is closed.
    fn recv_batch(&self, batch: &mut VecDeque<PoolBuf>, timeout: StdDuration) -> bool {
        let mut inbox = self.lock();
        if inbox.frames.is_empty() && !inbox.closed && !timeout.is_zero() {
            inbox.sleeping = true;
            inbox = self
                .wake
                .wait_timeout(inbox, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            inbox.sleeping = false;
        }
        std::mem::swap(&mut inbox.frames, batch);
        !inbox.closed
    }
}

#[derive(Default)]
struct Router {
    /// Indexed by `NicId`.
    mailboxes: RwLock<Vec<Arc<Mailbox>>>,
}

impl Router {
    fn deliver(&self, dst: NicId, frame: PoolBuf) {
        if let Some(mailbox) = self.mailboxes.read().get(dst.0 as usize) {
            mailbox.send(frame);
        }
    }
}

/// Interior state shared between host threads and the NIC service thread.
struct NicShared {
    /// The full protocol engine is reused from the simulator flavour; here
    /// `NodeId` slots hold `NicId` values.
    nic: Mutex<SimNic>,
    router: Arc<Router>,
    /// Two-sided receive payloads, per QP.
    receives: Mutex<HashMap<QpNum, Vec<Vec<u8>>>>,
    /// Recycled buffers for the frames this NIC transmits.
    frames: BufArena,
}

impl NicShared {
    fn transmit(&self, emits: impl IntoIterator<Item = (simnet::sim::NodeId, RocePacket)>) {
        for (dst, roce) in emits {
            let mut frame = self.frames.take();
            roce.encode_into(frame.vec_mut());
            self.router.deliver(NicId(dst.0), frame);
        }
    }
}

/// Host-side handle to an emulated NIC. Clone freely across threads.
#[derive(Clone)]
pub struct EmuNic {
    id: NicId,
    shared: Arc<NicShared>,
}

impl EmuNic {
    /// This NIC's fabric address.
    pub fn id(&self) -> NicId {
        self.id
    }

    /// Register a memory region; the NIC may now DMA into/out of it.
    pub fn register(&self, region: Region) -> Rkey {
        self.shared.nic.lock().register(region)
    }

    /// Post a work request on a QP (host CPU path).
    pub fn post(&self, qpn: QpNum, wr: WorkRequest) -> Result<(), QpError> {
        let emits = self.shared.nic.lock().post(qpn, wr, Instant::ZERO)?;
        self.shared.transmit(emits);
        Ok(())
    }

    /// Post a chain of work requests on a QP with a single NIC-lock
    /// acquisition — the emulated analogue of a doorbell-batched WR list:
    /// the host pays for entering the NIC once, every WQE in the chain is
    /// built under that one entry, and the packets of the whole chain go
    /// out together. All or nothing, like [`SimNic::post_chain`].
    pub fn post_chain<I>(&self, qpn: QpNum, wrs: I) -> Result<(), QpError>
    where
        I: IntoIterator<Item = WorkRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let emits = self.shared.nic.lock().post_chain(qpn, wrs, Instant::ZERO)?;
        self.shared.transmit(emits);
        Ok(())
    }

    /// Free send-queue slots on `qpn`. Only the posting thread adds WQEs,
    /// so the room it reads can only grow until its next post.
    pub fn sq_room(&self, qpn: QpNum) -> usize {
        self.shared.nic.lock().sq_room(qpn)
    }

    /// Poll the completion queue (host CPU path), appending up to `max`
    /// completions onto `out`. Returns how many were appended.
    pub fn poll_into(&self, max: usize, out: &mut Vec<Completion>) -> usize {
        self.shared.nic.lock().poll_into(max, out)
    }

    /// Blockingly wait until `n` completions have been collected (test and
    /// example convenience; spins with a yield like a real poller would).
    pub fn poll_blocking(&self, n: usize) -> Vec<Completion> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.poll_into(n - out.len(), &mut out) == 0 {
                std::thread::yield_now();
            }
        }
        out
    }

    /// Drain two-sided receive payloads for a QP.
    pub fn drain_receives(&self, qpn: QpNum) -> Vec<Vec<u8>> {
        self.shared
            .receives
            .lock()
            .get_mut(&qpn)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Attach a telemetry recorder to the underlying NIC (flight recorder).
    pub fn set_recorder(&self, rec: telemetry::Recorder) {
        self.shared.nic.lock().set_recorder(rec);
    }

    /// Attach a wall-clock cycle profiler to the underlying NIC: the host
    /// verb paths ([`Self::post`], [`Self::poll`]) then charge their CPU
    /// time to the NIC's attribution account.
    pub fn set_profiler(&self, prof: telemetry::Profiler) {
        self.shared.nic.lock().set_profiler(prof);
    }

    /// Revoke a registered rkey (pool-side fencing): subsequent verbs naming
    /// it are NAK'd, so a fenced engine's pool access fails closed. Returns
    /// whether the rkey was registered.
    pub fn revoke_rkey(&self, rkey: Rkey) -> bool {
        self.shared.nic.lock().revoke_rkey(rkey)
    }

    /// Direct access to the underlying protocol NIC (setup & inspection).
    pub fn with_nic<R>(&self, f: impl FnOnce(&mut SimNic) -> R) -> R {
        f(&mut self.shared.nic.lock())
    }
}

/// The emulated fabric: creates NICs and connects QPs between them.
pub struct EmuFabric {
    router: Arc<Router>,
    threads: Vec<JoinHandle<()>>,
    next_qpn: Arc<AtomicU32>,
}

impl Default for EmuFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl EmuFabric {
    pub fn new() -> EmuFabric {
        EmuFabric {
            router: Arc::new(Router::default()),
            threads: Vec::new(),
            next_qpn: Arc::new(AtomicU32::new(100)),
        }
    }

    /// Create a NIC and start its service thread.
    pub fn add_nic(&mut self) -> EmuNic {
        let (nic, service) = self.add_nic_unthreaded();
        let handle = std::thread::Builder::new()
            .name(format!("emu-nic-{}", nic.id.0))
            .spawn(move || service.run())
            .expect("spawn nic thread");
        self.threads.push(handle);
        nic
    }

    /// Create a NIC without a service thread: the caller drives its packet
    /// engine with [`NicService::serve_queued`], so a single-threaded test
    /// can step both ends of a connection by hand.
    pub fn add_nic_unthreaded(&mut self) -> (EmuNic, NicService) {
        let mailbox = Arc::new(Mailbox::default());
        let id = {
            let mut boxes = self.router.mailboxes.write();
            boxes.push(Arc::clone(&mailbox));
            NicId(boxes.len() as u32 - 1)
        };
        let nic = SimNic::new();
        let arena = nic.buf_arena().clone();
        let shared = Arc::new(NicShared {
            nic: Mutex::new(nic),
            router: Arc::clone(&self.router),
            receives: Mutex::new(HashMap::new()),
            frames: BufArena::new(FRAME_ARENA_DEPTH),
        });
        let service = NicService {
            shared: Arc::clone(&shared),
            mailbox,
            arena,
            batch: VecDeque::new(),
            out: NicOutput::default(),
        };
        (EmuNic { id, shared }, service)
    }

    /// Connect two NICs with a fresh QP pair; returns (qpn on a, qpn on b).
    pub fn connect(&self, a: &EmuNic, b: &EmuNic) -> (QpNum, QpNum) {
        let qa = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        let qb = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        a.with_nic(|nic| {
            nic.create_qp(QpConfig::new(qa, qb), simnet::sim::NodeId(b.id.0));
        });
        b.with_nic(|nic| {
            nic.create_qp(QpConfig::new(qb, qa), simnet::sim::NodeId(a.id.0));
        });
        (qa, qb)
    }
}

impl Drop for EmuFabric {
    fn drop(&mut self) {
        for mailbox in self.router.mailboxes.read().iter() {
            mailbox.close();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A NIC's packet engine: its mailbox plus the scratch it reuses for every
/// frame, so serving a warm frame allocates nothing.
pub struct NicService {
    shared: Arc<NicShared>,
    mailbox: Arc<Mailbox>,
    /// The NIC's payload arena: inbound payloads are parsed into it.
    arena: BufArena,
    batch: VecDeque<PoolBuf>,
    out: NicOutput,
}

impl NicService {
    /// Serve every frame queued in the mailbox now, without waiting.
    /// Returns how many frames were served.
    pub fn serve_queued(&mut self) -> usize {
        self.mailbox.recv_batch(&mut self.batch, StdDuration::ZERO);
        self.serve_batch()
    }

    fn serve_batch(&mut self) -> usize {
        let n = self.batch.len();
        while let Some(frame) = self.batch.pop_front() {
            self.serve_frame(&frame);
            // Dropping `frame` returns it to the sender's frame arena.
        }
        n
    }

    /// Serve one inbound wire frame: parse it into the NIC arena, run the
    /// protocol engine, hand over two-sided receives and transmit the
    /// responses as frames from this NIC's arena.
    fn serve_frame(&mut self, frame: &[u8]) {
        let Ok(roce) = RocePacket::parse_pooled(frame, &self.arena) else {
            return;
        };
        self.out.clear();
        self.shared
            .nic
            .lock()
            .handle_roce_into(roce, Instant::ZERO, &mut self.out);
        if !self.out.receives.is_empty() {
            let mut rec = self.shared.receives.lock();
            for (qpn, payload) in self.out.receives.drain(..) {
                // The emu path hands receive payloads across threads; copy
                // out so the pooled buffer recycles immediately.
                rec.entry(qpn).or_default().push(payload.to_vec());
            }
        }
        self.shared.transmit(self.out.emit.drain(..));
    }

    /// The service thread's loop: serve frames as they arrive and sweep
    /// for retransmissions when idle, until the fabric shuts down.
    fn run(mut self) {
        while self.mailbox.recv_batch(&mut self.batch, IDLE_TICK) {
            if self.serve_batch() == 0 {
                // Periodic retransmission sweep (rarely needed: the
                // mailbox wire is lossless).
                let emits = self.shared.nic.lock().tick(Instant::ZERO);
                self.shared.transmit(emits);
            }
        }
    }
}

/// Convenience re-export so emu users need not know about `Qp` internals.
pub type EmuQp = Qp;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::{WrKind, WrOp};

    #[test]
    fn one_sided_read_between_threads() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);

        let local = Region::new(1024);
        let remote = Region::new(1024);
        remote.write(40, b"emulated rdma").unwrap();
        let lkey = client.register(local.clone());
        let rkey = server.register(remote);

        client
            .post(
                cq,
                WorkRequest {
                    wr_id: 42,
                    op: WrOp::Read {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 40,
                        remote_rkey: rkey,
                        len: 13,
                    },
                },
            )
            .unwrap();
        let done = client.poll_blocking(1);
        assert_eq!(done[0].wr_id, 42);
        assert!(done[0].is_ok());
        assert_eq!(local.read_vec(0, 13).unwrap(), b"emulated rdma");
    }

    #[test]
    fn one_sided_write_lands_without_server_cpu() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);

        let local = Region::new(8192);
        let remote = Region::new(8192);
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        local.write(0, &data).unwrap();
        let lkey = client.register(local);
        let rkey = server.register(remote.clone());

        client
            .post(
                cq,
                WorkRequest {
                    wr_id: 1,
                    op: WrOp::Write {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 100,
                        remote_rkey: rkey,
                        len: 3000,
                    },
                },
            )
            .unwrap();
        let done = client.poll_blocking(1);
        assert_eq!(done[0].kind, WrKind::Write);
        // The server's host threads did nothing; the NIC thread wrote the
        // bytes.
        assert_eq!(remote.read_vec(100, 3000).unwrap(), data);
    }

    #[test]
    fn two_sided_send_receives_on_peer() {
        let mut fabric = EmuFabric::new();
        let a = fabric.add_nic();
        let b = fabric.add_nic();
        let (qa, qb) = fabric.connect(&a, &b);
        a.post(
            qa,
            WorkRequest {
                wr_id: 5,
                op: WrOp::Send {
                    payload: b"hello rpc".to_vec(),
                },
            },
        )
        .unwrap();
        a.poll_blocking(1);
        // The payload is on b now.
        let mut got = b.drain_receives(qb);
        while got.is_empty() {
            std::thread::yield_now();
            got = b.drain_receives(qb);
        }
        assert_eq!(got, vec![b"hello rpc".to_vec()]);
    }

    #[test]
    fn fabric_shutdown_with_inflight_ops_does_not_hang() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let local = Region::new(4096);
        let remote = Region::new(4096);
        let lkey = client.register(local);
        let rkey = server.register(remote);
        for i in 0..64u64 {
            client
                .post(
                    cq,
                    WorkRequest {
                        wr_id: i,
                        op: WrOp::Read {
                            local_rkey: lkey,
                            local_addr: 0,
                            remote_addr: 0,
                            remote_rkey: rkey,
                            len: 64,
                        },
                    },
                )
                .unwrap();
        }
        // Drop the fabric immediately: service threads must terminate even
        // though completions may still be in flight.
        drop(fabric);
    }

    #[test]
    fn chained_post_completes_in_chain_order() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let local = Region::new(4096);
        let remote = Region::new(4096);
        for i in 0..8u64 {
            remote.write(i * 8, &(i * 3).to_le_bytes()).unwrap();
        }
        let lkey = client.register(local.clone());
        let rkey = server.register(remote.clone());

        // One chain: a gather write followed by scatter reads, one doorbell.
        let mut wrs = vec![WorkRequest {
            wr_id: 100,
            op: WrOp::WriteSg {
                remote_addr: 1024,
                remote_rkey: rkey,
                segments: vec![vec![5u8; 8].into(), vec![6u8; 8].into()],
            },
        }];
        for i in 0..8u64 {
            wrs.push(WorkRequest {
                wr_id: i,
                op: WrOp::ReadSg {
                    local_rkey: lkey,
                    segments: vec![(i * 8, 8)],
                    remote_addr: i * 8,
                    remote_rkey: rkey,
                },
            });
        }
        client.post_chain(cq, wrs).unwrap();
        let done = client.poll_blocking(9);
        // Chain order is completion order.
        assert_eq!(done[0].wr_id, 100);
        for (k, c) in done[1..].iter().enumerate() {
            assert_eq!(c.wr_id, k as u64);
            assert!(c.is_ok());
        }
        assert_eq!(remote.read_vec(1024, 8).unwrap(), vec![5u8; 8]);
        assert_eq!(remote.read_vec(1032, 8).unwrap(), vec![6u8; 8]);
        for i in 0..8u64 {
            assert_eq!(local.read_vec(i * 8, 8).unwrap(), (i * 3).to_le_bytes());
        }
    }

    #[test]
    fn many_concurrent_ops_complete() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let local = Region::new(1 << 16);
        let remote = Region::new(1 << 16);
        for i in 0..256u64 {
            remote.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let lkey = client.register(local.clone());
        let rkey = server.register(remote);
        for i in 0..256u64 {
            client
                .post(
                    cq,
                    WorkRequest {
                        wr_id: i,
                        op: WrOp::Read {
                            local_rkey: lkey,
                            local_addr: i * 8,
                            remote_addr: i * 8,
                            remote_rkey: rkey,
                            len: 8,
                        },
                    },
                )
                .unwrap();
        }
        let done = client.poll_blocking(256);
        assert_eq!(done.len(), 256);
        for i in 0..256u64 {
            let mut buf = [0u8; 8];
            local.read(i * 8, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), i);
        }
    }
}
