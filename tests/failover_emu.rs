//! End-to-end engine failover over the real-thread emulated fabric: a
//! Cowbird-Spot engine group is preempted, killed or frozen mid-workload,
//! the client detects
//! the stall, fences the dead epoch, and attaches a standby that adopts the
//! channel from the red bookkeeping block. Every request must complete
//! exactly once, reads must still observe the writes that precede them in
//! issue order, and a zombie predecessor must be rejected by the epoch
//! fence.

use cowbird::channel::Channel;
use cowbird::error::WaitError;
use cowbird::layout::ChannelLayout;
use cowbird::poll::PollGroup;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird::reqid::OpType;
use cowbird_engine::core::EngineConfig;
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use cowbird_engine::EngineStats;
use rdma::emu::{EmuFabric, EmuNic};
use rdma::mem::{Region, Rkey};
use telemetry::{Component, EventKind, Telemetry};

/// Flight-recorder node ids for this deployment.
const NODE_COMPUTE: u16 = 0;
const NODE_ENGINE: u16 = 1;
const NODE_POOL: u16 = 2;
const NODE_STANDBY: u16 = 3;

/// One channel plus the spare parts needed to attach standby engines.
struct Rig {
    fabric: EmuFabric,
    ch: Channel,
    pool_mem: Region,
    group: Option<EngineGroup>,
    compute: EmuNic,
    pool: EmuNic,
    channel_rkey: Rkey,
    /// The primary engine's rkey for the pool region — revoked on fencing.
    pool_rkey: Rkey,
    layout: ChannelLayout,
    telemetry: Telemetry,
}

impl Rig {
    /// Attach a standby engine on a fresh NIC (a different VM): new QPs to
    /// the compute node and the pool, adopting the channel from the red
    /// block. The standby registers its *own* rkey for the pool region —
    /// fencing revokes the predecessor's rkey, so the old handle must not
    /// be reused.
    fn standby(&mut self) -> EngineGroup {
        let nic = self.fabric.add_nic();
        let (c_qpn, _) = self.fabric.connect(&nic, &self.compute);
        let (p_qpn, _) = self.fabric.connect(&nic, &self.pool);
        let rkey = self.pool.register(self.pool_mem.clone());
        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey,
                base: 0,
                size: 1 << 20,
            },
        );
        let group = EngineGroup::spawn(GroupConfig::with_workers(1));
        group.adopt_channel(
            SpotWiring {
                nic,
                compute_qpn: c_qpn,
                pool_qpn: p_qpn,
                channel_rkey: self.channel_rkey,
            },
            EngineConfig::spot(self.layout, regions, 16)
                .with_recorder(self.telemetry.recorder(NODE_STANDBY, "standby"))
                .with_channel_id(0),
        );
        group
    }

    /// Pool-side fence: revoke the primary engine's rkey so a zombie's
    /// one-sided verbs fail closed at the responder.
    fn revoke_primary_rkey(&self) -> bool {
        self.pool.revoke_rkey(self.pool_rkey)
    }
}

/// The statistics of a one-channel group's channel.
fn only(finished: Vec<cowbird_engine::FinishedChannel>) -> EngineStats {
    assert_eq!(finished.len(), 1, "one channel per group");
    finished[0].stats
}

fn deploy() -> Rig {
    let telemetry = Telemetry::new(4096);
    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let engine = fabric.add_nic();
    let pool = fabric.add_nic();
    pool.set_recorder(telemetry.recorder(NODE_POOL, "pool"));

    let pool_mem = Region::new(1 << 20);
    let pool_rkey = pool.register(pool_mem.clone());
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: 1 << 20,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let mut ch = Channel::new(0, layout, regions.clone());
    ch.set_recorder(telemetry.recorder(NODE_COMPUTE, "compute"));
    let channel_rkey = compute.register(ch.region().clone());

    let (eng_c, _) = fabric.connect(&engine, &compute);
    let (eng_p, _) = fabric.connect(&engine, &pool);
    let group = EngineGroup::spawn(GroupConfig::with_workers(1));
    group.add_channel(
        SpotWiring {
            nic: engine,
            compute_qpn: eng_c,
            pool_qpn: eng_p,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 16)
            .with_recorder(telemetry.recorder(NODE_ENGINE, "engine"))
            .with_channel_id(0),
    );
    Rig {
        fabric,
        ch,
        pool_mem,
        group: Some(group),
        compute,
        pool,
        channel_rkey,
        pool_rkey,
        layout,
        telemetry,
    }
}

/// Kill the primary mid-workload with requests in flight; the client
/// detects the stall, fences, attaches a standby, and every one of the
/// pipelined write+read pairs completes exactly once with read-after-write
/// intact across the takeover.
#[test]
fn kill_mid_workload_standby_completes_everything_exactly_once() {
    const PAIRS: u64 = 64;
    let mut rig = deploy();
    let mut group = PollGroup::new();
    let mut reads = Vec::new();

    let issue_pair = |ch: &mut Channel, group: &mut PollGroup, reads: &mut Vec<_>, i: u64| {
        let addr = i * 64;
        let w = ch
            .async_write(1, addr, &(i ^ 0xABCD).to_le_bytes())
            .unwrap();
        let r = ch.async_read(1, addr, 8).unwrap();
        group.add(w);
        group.add(r.id);
        reads.push((i, r));
    };

    // First tranche; wait until the engine is demonstrably mid-stream.
    for i in 0..20 {
        issue_pair(&mut rig.ch, &mut group, &mut reads, i);
    }
    while {
        rig.ch.refresh();
        rig.ch.progress(OpType::Read) < 5
    } {
        std::thread::yield_now();
    }

    // Revocation without warning: in-flight work is abandoned.
    let dead = only(rig.group.take().unwrap().kill());
    assert!(!dead.fenced, "killed, not fenced");

    // Keep issuing against the dead engine.
    for i in 20..PAIRS {
        issue_pair(&mut rig.ch, &mut group, &mut reads, i);
    }

    // Collect until the progress-stall watchdog trips.
    let mut done = 0usize;
    let total = 2 * PAIRS as usize;
    loop {
        match group.poll_wait_timeout(&mut rig.ch, total - done, 200_000) {
            Ok(ids) => done += ids.len(),
            Err(WaitError::EngineStalled { .. }) => break,
            Err(e) => panic!("unexpected wait error: {e}"),
        }
        assert!(done < total, "dead engine cannot finish the workload");
    }

    // The stall is the flight-recorder moment: persist the last events from
    // every node's ring and check the dump is usable forensics — valid
    // Chrome trace JSON covering both sides of the failure.
    let json_path = rig
        .telemetry
        .write_flight_dump("kill_mid_workload")
        .expect("flight dump must persist");
    let dump = rig.telemetry.dump();
    telemetry::json::validate(&dump.to_chrome_json()).expect("chrome trace must be valid JSON");
    telemetry::json::validate(&std::fs::read_to_string(&json_path).unwrap())
        .expect("persisted dump must be valid JSON");
    let nodes = dump.nodes_seen();
    assert!(
        nodes.contains(&NODE_COMPUTE) && nodes.contains(&NODE_ENGINE),
        "dump must span both nodes, got {nodes:?}"
    );
    assert!(
        dump.events
            .iter()
            .any(|e| e.kind == EventKind::EngineStalled && e.node == NODE_COMPUTE),
        "the watchdog trip itself must be on record"
    );

    // Fence the dead epoch and fail over.
    assert_eq!(rig.ch.fence_engine(), 1);
    let standby = rig.standby();
    while done < total {
        match group.poll_wait_timeout(&mut rig.ch, total - done, 200_000) {
            Ok(ids) => done += ids.len(),
            // The standby may still be adopting; keep waiting.
            Err(WaitError::EngineStalled { .. }) => continue,
            Err(e) => panic!("unexpected wait error: {e}"),
        }
    }

    // Read-after-write holds across the takeover.
    for (i, r) in &reads {
        let v = rig.ch.take_response(r).unwrap();
        assert_eq!(
            u64::from_le_bytes(v.try_into().unwrap()),
            i ^ 0xABCD,
            "pair {i}"
        );
    }
    // Exactly once: progress counters land exactly on the issue counts and
    // the pool holds every final value.
    rig.ch.refresh();
    assert_eq!(rig.ch.progress(OpType::Read), PAIRS);
    assert_eq!(rig.ch.progress(OpType::Write), PAIRS);
    assert_eq!(rig.ch.engine_epoch(), 1, "takeover epoch must be visible");
    for i in 0..PAIRS {
        let v = rig.pool_mem.read_vec(i * 64, 8).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), i ^ 0xABCD);
    }
    let st = only(standby.stop());
    assert_eq!(st.adoptions, 1);
    assert!(!st.fenced);
}

/// The two-minute warning: the group finishes what it accepted and exits
/// on its own; requests issued after the VM is gone stall until the client
/// fences the dead epoch and a standby adopts the channel.
#[test]
fn preemption_notice_drains_and_standby_takes_over() {
    let mut rig = deploy();
    rig.pool_mem.write(0, b"both engines").unwrap();
    let h1 = rig.ch.async_read(1, 0, 4).unwrap();
    assert!(rig.ch.wait(h1.id, 50_000_000));
    assert_eq!(rig.ch.take_response(&h1).unwrap(), b"both");

    let group = rig.group.take().unwrap();
    group.preempt();
    let stats = only(group.join());
    assert!(!stats.fenced);
    assert_eq!(stats.pool_reads, 1);

    let h2 = rig.ch.async_read(1, 5, 7).unwrap();
    assert!(matches!(
        rig.ch.wait_timeout(h2.id, 200_000),
        Err(WaitError::EngineStalled { .. })
    ));
    assert_eq!(rig.ch.fence_engine(), 1);
    let standby = rig.standby();
    assert!(rig.ch.wait(h2.id, 50_000_000), "standby must take over");
    assert_eq!(rig.ch.take_response(&h2).unwrap(), b"engines");
    assert_eq!(rig.ch.engine_epoch(), 1);
    let st = only(standby.stop());
    assert_eq!(st.adoptions, 1);
    assert_eq!(st.pool_reads, 1);
}

/// A frozen (not dead) primary: the standby takes over, and when the zombie
/// thaws its first probe sees the client fence word above its epoch — it
/// stands down without completing anything post-takeover.
#[test]
fn thawed_zombie_is_fenced_out_after_takeover() {
    let mut rig = deploy();
    // Warm up, then freeze.
    let h = rig.ch.async_read(1, 0, 8).unwrap();
    assert!(rig.ch.wait(h.id, u64::MAX));
    let group = rig.group.take().unwrap();
    group.set_paused(true);
    while !group.is_parked() {
        std::thread::yield_now();
    }

    // Work issued against the frozen engine stalls out.
    let w = rig.ch.async_write(1, 4096, b"takeover").unwrap();
    let r = rig.ch.async_read(1, 4096, 8).unwrap();
    assert!(matches!(
        rig.ch.wait_timeout(w, 200_000),
        Err(WaitError::EngineStalled { .. })
    ));
    assert_eq!(rig.ch.fence_engine(), 1);
    // Pool-side fence rides along with the client-side epoch bump: the
    // frozen primary's rkey is revoked, so even a zombie that somehow
    // missed the fence word would have its pool verbs NAK'd at the
    // responder. The standby registers its own rkey and is unaffected.
    assert!(rig.revoke_primary_rkey(), "primary rkey was registered");
    let standby = rig.standby();
    assert!(rig.ch.wait(w, u64::MAX));
    assert!(rig.ch.wait(r.id, u64::MAX));
    assert_eq!(rig.pool_mem.read_vec(4096, 8).unwrap(), b"takeover");
    assert_eq!(rig.ch.take_response(&r).unwrap(), b"takeover");

    // Thaw the zombie: its next probe sees the fence word, and its channel
    // is retired without executing anything further.
    group.set_paused(false);
    while group.finished().is_empty() {
        std::thread::yield_now();
    }
    let zombie = only(group.stop());
    assert!(
        zombie.fenced,
        "zombie must observe the fence and stand down"
    );
    assert_eq!(zombie.writes_executed, 0);
    assert_eq!(zombie.reads_executed, 1, "only the pre-freeze read");

    let st = only(standby.stop());
    assert_eq!(st.adoptions, 1);
    assert_eq!(st.writes_executed, 1, "the write applies exactly once");
    assert_eq!(rig.ch.engine_epoch(), 1);

    // The takeover story is on the flight recorder: revocation on the pool
    // node, the zombie's own fence observation on the engine node, and the
    // standby's adoption.
    let dump = rig.telemetry.dump();
    assert!(
        dump.events.iter().any(|e| e.kind == EventKind::RkeyRevoked
            && e.node == NODE_POOL
            && e.component == Component::Pool
            && e.a == rig.pool_rkey as u64),
        "rkey revocation must be on record"
    );
    assert!(
        dump.events
            .iter()
            .any(|e| e.kind == EventKind::FenceObserved && e.node == NODE_ENGINE),
        "the zombie's fence observation must be on record"
    );
    assert!(
        dump.events
            .iter()
            .any(|e| e.kind == EventKind::Adopted && e.node == NODE_STANDBY),
        "the standby's adoption must be on record"
    );
}
