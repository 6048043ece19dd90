//! The threaded deployment and the two emu workloads.
//!
//! One process, one application thread (the caller), one Cowbird channel,
//! an `EngineGroup` with one worker, and three emulated NICs (compute,
//! engine, pool), each with its own service thread. The application
//! thread yields whenever a poll sweep completes nothing, so on a two-core
//! machine the engine and NIC threads get the CPU they need.

use std::collections::VecDeque;
use std::time::Instant;

use cowbird::channel::{Channel, ReadHandle};
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird::reqid::ReqId;
use cowbird_engine::core::{EngineConfig, EngineStats};
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use rdma::emu::{EmuFabric, EmuNic};
use rdma::mem::Region;
use rdma::qp::{QpCounters, QpNum};
use simnet::rng::Rng;

use crate::affinity::{on_core, Core};
use crate::measure::{self, put, SetUp, Tally, Window, NIC_NAMES, STALL, WARMUP};
use crate::oracle::{check_words, write_word, ShadowPool};
use crate::procfs::{self, CpuLedger};
use crate::speed;
use crate::stats::{ratio, Report};
use crate::trace::{Call, Tracer};
use crate::{Args, Outcome};

/// The pool's region id on the channel.
pub const POOL_REGION: u16 = 1;
/// Remote pool size for the emu workloads.
const POOL_BYTES: usize = 64 << 20;
/// Response batch of the spot engine (the sim rig uses the same).
const ENGINE_BATCH: usize = 16;
/// Deployments built per run; `setup_s` is the median over those the
/// hypervisor stole no time from, and the last one runs.
pub const SETUPS: usize = 9;

/// What `op_p50_us` and `op_p99_us` time on the emu and kv workloads.
pub const LATENCY: &str = "issue to reap, wall clock";

/// The threaded substrate under one channel.
pub struct EmuBed {
    // Declared first so an early drop stops the worker before the NICs.
    group: EngineGroup,
    fabric: EmuFabric,
    nics: [EmuNic; 3],
    /// Every QP of the deployment: (NIC index, qpn).
    qps: [(usize, QpNum); 4],
}

impl EmuBed {
    /// Wire a channel to `pool` through the engine group.
    pub fn deploy(pool: &Region) -> (EmuBed, Channel) {
        let mut fabric = EmuFabric::new();
        let nics = [
            on_core(Core::App, || fabric.add_nic()),
            on_core(Core::Offload, || fabric.add_nic()),
            on_core(Core::App, || fabric.add_nic()),
        ];
        for (i, nic) in nics.iter().enumerate() {
            // Thread `emu-nic-<i>` is the row of NIC_NAMES[i].
            assert_eq!(nic.id().0 as usize, i, "NIC ids follow creation order");
        }
        let [compute, engine, pool_nic] = &nics;
        let mut regions = RegionMap::new();
        regions.insert(
            POOL_REGION,
            RemoteRegion {
                rkey: pool_nic.register(pool.clone()),
                base: 0,
                size: pool.len() as u64,
            },
        );
        let layout = ChannelLayout::default_sizes();
        let group = on_core(Core::Offload, || {
            EngineGroup::spawn(GroupConfig::with_workers(1))
        });
        let mut channel = Channel::new(0, layout, regions.clone());
        channel.set_doorbell(group.doorbell());
        let channel_rkey = compute.register(channel.region().clone());
        let (eng_c, comp_q) = fabric.connect(engine, compute);
        let (eng_p, pool_q) = fabric.connect(engine, pool_nic);
        group.add_channel(
            SpotWiring {
                nic: engine.clone(),
                compute_qpn: eng_c,
                pool_qpn: eng_p,
                channel_rkey,
            },
            EngineConfig::spot(layout, regions, ENGINE_BATCH).with_channel_id(0),
        );
        let qps = [(1, eng_c), (0, comp_q), (1, eng_p), (2, pool_q)];
        (
            EmuBed {
                group,
                fabric,
                nics,
                qps,
            },
            channel,
        )
    }

    /// Sum `f` of the QP counters over each NIC's QPs.
    fn qp_sum(&self, f: impl Fn(&QpCounters) -> u64) -> [u64; 3] {
        let mut out = [0; 3];
        for &(i, qpn) in &self.qps {
            out[i] += self.nics[i].with_nic(|s| s.qp(qpn).map_or(0, |q| f(&q.counters)));
        }
        out
    }

    /// Packets each NIC's QPs have received.
    pub fn packets(&self) -> [u64; 3] {
        self.qp_sum(|c| c.rx_packets)
    }

    /// Go-Back-N retransmit rounds over every QP.
    pub fn retransmit_rounds(&self) -> u64 {
        self.qp_sum(|c| c.retransmit_rounds).iter().sum()
    }

    /// Times the engine worker parked.
    pub fn parks(&self) -> u64 {
        self.group.shard_snapshots().iter().map(|s| s.parks).sum()
    }

    /// Stop the engine worker, then the NIC threads. Every packet a NIC
    /// accepted before shutdown is applied first, so the pool is quiescent
    /// afterwards. Returns the channel's engine statistics, if the worker
    /// had adopted the channel.
    pub fn finish(self) -> Option<EngineStats> {
        let EmuBed { group, fabric, .. } = self;
        let finished = group.stop();
        drop(fabric);
        finished.iter().find(|f| f.channel_id == 0).map(|f| f.stats)
    }
}

/// Live counters sampled at slice boundaries.
#[derive(Clone, Copy, Default)]
pub struct Live {
    pub packets: [u64; 3],
    pub parks: u64,
}

impl Live {
    pub fn take(bed: &EmuBed) -> Live {
        Live {
            packets: bed.packets(),
            parks: bed.parks(),
        }
    }

    pub fn add_delta(&mut self, a: Live, b: Live) {
        for i in 0..3 {
            self.packets[i] += b.packets[i] - a.packets[i];
        }
        self.parks += b.parks - a.parks;
    }
}

/// Engine-side ratios, over the deployment's whole life.
pub fn engine_rows(r: &mut Report, s: &EngineStats) {
    let ops = s.reads_executed + s.writes_executed;
    let f = |n: u64| n as f64;
    put(
        r,
        "cowbird-engine.probe_hit_frac",
        ratio(f(s.probes_found_work), f(s.probes_sent)),
        format!(
            "probes_found_work {} / probes_sent {}",
            s.probes_found_work, s.probes_sent
        ),
    );
    put(
        r,
        "cowbird-engine.ops_per_batch",
        ratio(f(ops), f(s.batches_flushed)),
        format!("ops executed {ops} / batches_flushed {}", s.batches_flushed),
    );
    put(
        r,
        "cowbird-engine.wrs_per_doorbell",
        ratio(f(s.chained_wrs), f(s.chain_posts)),
        format!(
            "chained_wrs {} / chain_posts {}",
            s.chained_wrs, s.chain_posts
        ),
    );
    put(
        r,
        "cowbird-engine.sg_merges_per_op",
        ratio(f(s.sg_merges), f(ops)),
        format!("sg_merges {} / ops executed {ops}", s.sg_merges),
    );
    put(
        r,
        "cowbird-engine.writes_held_per_write",
        ratio(f(s.writes_held), f(s.writes_executed)),
        format!(
            "writes_held {} / writes_executed {}",
            s.writes_held, s.writes_executed
        ),
    );
}

/// Rows both threaded workloads share: engine parks and packets over the
/// traced slices (`live`, `ops`), Go-Back-N rounds over the whole run.
pub fn fabric_rows(r: &mut Report, live: &Live, ops: u64, retransmits: u64, total_ops: u64) {
    let kops = ops as f64 / 1000.0;
    put(
        r,
        "cowbird-engine.parks_per_kop",
        ratio(live.parks as f64, kops),
        format!("ShardSnapshot.parks {} / {kops} kops", live.parks),
    );
    let packets: u64 = live.packets.iter().sum();
    put(
        r,
        "rdma.packets_per_op",
        ratio(packets as f64, ops as f64),
        format!(
            "rx packets {packets} {:?} (by {NIC_NAMES:?}) / ops {ops}",
            live.packets
        ),
    );
    let total_kops = total_ops as f64 / 1000.0;
    put(
        r,
        "rdma.retransmit_rounds_per_kop",
        ratio(retransmits as f64, total_kops),
        format!("retransmit_rounds {retransmits} / {total_kops} kops"),
    );
}

/// One emu workload's shape.
pub struct EmuSpec {
    pub op_bytes: u32,
    /// Closed-loop window: ops outstanding at once.
    pub depth: usize,
    /// Half the ops are writes when set; otherwise all are reads.
    pub writes: bool,
}

pub const READ64: EmuSpec = EmuSpec {
    op_bytes: 64,
    depth: 32,
    writes: false,
};

pub const RW4K: EmuSpec = EmuSpec {
    op_bytes: 4096,
    depth: 8,
    writes: true,
};

struct ReadOp {
    h: ReadHandle,
    op: u64,
    t0: Instant,
    expect: Vec<u64>,
}

struct WriteOp {
    id: ReqId,
    op: u64,
    t0: Instant,
}

/// The next op, generated but not yet accepted by the channel.
struct NextOp {
    write: bool,
    addr: u64,
}

/// The closed-loop generator and its oracle.
struct Load<'a> {
    spec: &'a EmuSpec,
    ch: Channel,
    shadow: ShadowPool,
    rng: Rng,
    seed: u64,
    slots: u64,
    next: Option<NextOp>,
    reads: VecDeque<ReadOp>,
    writes: VecDeque<WriteOp>,
    spare: Vec<Vec<u64>>,
    wwords: Vec<u64>,
    wbytes: Vec<u8>,
    resp: Vec<u8>,
    issued: u64,
    completed: u64,
    failed: u64,
    refusals: u64,
    polls: u64,
    latency_ns: Vec<u64>,
    record_latency: bool,
    last_progress: Instant,
    stalled: bool,
    first_fault: Option<String>,
}

impl<'a> Load<'a> {
    fn new(spec: &'a EmuSpec, ch: Channel, shadow: ShadowPool, seed: u64) -> Load<'a> {
        let words = spec.op_bytes as usize / 8;
        Load {
            spec,
            ch,
            shadow,
            rng: Rng::new(seed ^ 0x005E_ED0F_E4D0),
            seed,
            slots: POOL_BYTES as u64 / spec.op_bytes as u64,
            next: None,
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            spare: Vec::new(),
            wwords: Vec::with_capacity(words),
            wbytes: Vec::with_capacity(words * 8),
            resp: Vec::with_capacity(words * 8),
            issued: 0,
            completed: 0,
            failed: 0,
            refusals: 0,
            polls: 0,
            latency_ns: Vec::new(),
            record_latency: false,
            last_progress: Instant::now(),
            stalled: false,
            first_fault: None,
        }
    }

    fn outstanding(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn fault(&mut self, what: String) {
        self.failed += 1;
        self.first_fault.get_or_insert(what);
    }

    /// Generate the next op; a write's payload is built here, once, so a
    /// refused issue retries the same bytes.
    fn generate(&mut self) -> NextOp {
        let write = self.spec.writes && self.rng.next_u64() & 1 == 1;
        let addr = self.rng.next_below(self.slots) * self.spec.op_bytes as u64;
        if write {
            let stamp = self.seed.rotate_left(32) ^ self.issued;
            self.wwords.clear();
            self.wbytes.clear();
            for j in 0..self.spec.op_bytes as u64 / 8 {
                let w = write_word(stamp, j);
                self.wwords.push(w);
                self.wbytes.extend_from_slice(&w.to_le_bytes());
            }
        }
        NextOp { write, addr }
    }

    /// Fill the window. Stops at the first retryable refusal.
    fn issue(&mut self, tracer: &mut Tracer) {
        while self.outstanding() < self.spec.depth {
            let next = match self.next.take() {
                Some(n) => n,
                None => self.generate(),
            };
            let op = self.issued;
            let t0 = Instant::now();
            let (ch, len) = (&mut self.ch, self.spec.op_bytes);
            let accepted = if next.write {
                let bytes = &self.wbytes;
                match tracer.time(Call::CowbirdIssue, op, || {
                    ch.async_write(POOL_REGION, next.addr, bytes)
                }) {
                    Ok(id) => {
                        self.shadow.apply_write(next.addr, &self.wwords);
                        self.writes.push_back(WriteOp { id, op, t0 });
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            } else {
                match tracer.time(Call::CowbirdIssue, op, || {
                    ch.async_read(POOL_REGION, next.addr, len)
                }) {
                    Ok(h) => {
                        let mut expect = self.spare.pop().unwrap_or_default();
                        expect.clear();
                        expect.extend_from_slice(self.shadow.expected(next.addr, len));
                        self.reads.push_back(ReadOp { h, op, t0, expect });
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            };
            match accepted {
                Ok(()) => self.issued += 1,
                Err(e) if e.is_retryable() => {
                    self.refusals += 1;
                    self.next = Some(next);
                    return;
                }
                Err(e) => {
                    self.issued += 1;
                    self.fault(format!("op {op} at {:#x} refused: {e}", next.addr));
                }
            }
        }
    }

    fn completed_one(&mut self, t0: Instant, now: Instant) {
        self.completed += 1;
        self.last_progress = now;
        if self.record_latency {
            self.latency_ns.push((now - t0).as_nanos() as u64);
        }
    }

    /// Reap completed ops from the front of each queue (each op type
    /// completes in issue order). Returns how many completed.
    fn reap(&mut self, tracer: &mut Tracer) -> usize {
        let mut n = 0;
        while let Some(front) = self.reads.front() {
            let (h, op) = (front.h, front.op);
            let ch = &mut self.ch;
            self.polls += 1;
            if !tracer.time(Call::CowbirdPoll, op, || ch.is_complete(h.id)) {
                break;
            }
            let resp = &mut self.resp;
            let taken = tracer.time(Call::CowbirdTake, op, || ch.take_response_into(&h, resp));
            let now = Instant::now();
            let done = self.reads.pop_front().expect("front exists");
            match taken {
                Ok(()) => {
                    if let Err(m) = check_words(&done.expect, &self.resp) {
                        self.fault(format!("read op {op} ({:?}) wrong data: {m:?}", h.id));
                    }
                }
                Err(e) => self.fault(format!("read op {op} ({:?}) lost its response: {e}", h.id)),
            }
            self.completed_one(done.t0, now);
            self.spare.push(done.expect);
            n += 1;
        }
        while let Some(front) = self.writes.front() {
            let (id, op) = (front.id, front.op);
            let ch = &mut self.ch;
            self.polls += 1;
            if !tracer.time(Call::CowbirdPoll, op, || ch.is_complete(id)) {
                break;
            }
            let now = Instant::now();
            let done = self.writes.pop_front().expect("front exists");
            self.completed_one(done.t0, now);
            n += 1;
        }
        n
    }

    /// Fail every outstanding op after a stall past [`STALL`].
    fn stall(&mut self) {
        let n = self.outstanding() as u64;
        self.failed += n;
        self.first_fault.get_or_insert(format!(
            "stall: {n} ops outstanding with no completion for {STALL:?} (oldest read {:?})",
            self.reads.front().map(|r| r.h.id)
        ));
        self.reads.clear();
        self.writes.clear();
        self.stalled = true;
    }

    /// Closed loop until `end`: fill the window, reap, yield when a sweep
    /// completed nothing.
    fn run_until(&mut self, end: Instant, tracer: &mut Tracer) {
        while !self.stalled {
            let now = Instant::now();
            if now >= end {
                break;
            }
            self.issue(tracer);
            if self.reap(tracer) == 0 {
                if self.outstanding() > 0 && now - self.last_progress > STALL {
                    self.stall();
                    break;
                }
                std::thread::yield_now();
            }
        }
    }

    /// Reap everything still outstanding (bounded by the stall check).
    fn drain(&mut self, tracer: &mut Tracer) {
        self.last_progress = Instant::now();
        while self.outstanding() > 0 && !self.stalled {
            if self.reap(tracer) == 0 {
                if self.last_progress.elapsed() > STALL {
                    self.stall();
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Run `emu_read64` or `emu_rw4k`.
pub fn run(spec: &EmuSpec, args: &Args) -> Outcome {
    // Set-up, several times: seed the pool and its shadow, wire the
    // deployment. All but the last are torn down again.
    let mut setups = Vec::new();
    let mut deployed = None;
    for _ in 0..SETUPS {
        if let Some((bed, ch, _, _)) = deployed.take() {
            drop::<Channel>(ch);
            EmuBed::finish(bed);
        }
        let before = speed::slowness();
        let steal0 = procfs::steal_ns();
        let t0 = Instant::now();
        let (shadow, pool) = ShadowPool::seeded(args.seed, POOL_BYTES);
        let (bed, ch) = EmuBed::deploy(&pool);
        let wall = t0.elapsed();
        let steal = measure::steal_share(steal0, procfs::steal_ns(), wall);
        setups.push(SetUp {
            wall_s: wall.as_secs_f64(),
            slowness: speed::between(before, speed::slowness()),
            steal,
        });
        deployed = Some((bed, ch, shadow, pool));
    }
    let (bed, ch, shadow, pool) = deployed.expect("at least one set-up");

    let mut tracer = Tracer::new();
    let empty_ns = if args.trace {
        tracer.calibrate(200_000)
    } else {
        0
    };
    let mut load = Load::new(spec, ch, shadow, args.seed);
    load.latency_ns = measure::sample_buffer(args.seconds);
    load.run_until(Instant::now() + WARMUP, &mut tracer);

    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut windows = Vec::new();
    let mut ledger = CpuLedger::default();
    let mut live = Live::default();
    let (mut polls, mut refusals, mut runs) = (0u64, 0u64, 0u64);
    // End-to-end windows start and end idle, between host-speed probes.
    let mut slow = 0.0;
    if !args.trace {
        load.drain(&mut tracer);
        slow = speed::slowness();
    }
    for (len, on) in measure::plan(args.seconds, args.trace) {
        tracer.set_on(on);
        load.record_latency = !args.trace;
        let before = (
            Live::take(&bed),
            load.polls,
            load.refusals,
            load.ch.stats.completion_runs,
        );
        if on {
            ledger.begin();
        }
        let (c0, l0, p0) = (
            load.completed,
            load.latency_ns.len(),
            procfs::threads_cpu_ns(),
        );
        let steal0 = procfs::steal_ns();
        let t0 = Instant::now();
        load.run_until(t0 + len, &mut tracer);
        let (ops, wall) = (load.completed - c0, t0.elapsed());
        let steal = measure::steal_share(steal0, procfs::steal_ns(), wall);
        if on {
            ledger.end();
        } else if !args.trace {
            let (cpu_ns, lat) = (procfs::threads_cpu_ns() - p0, l0..load.latency_ns.len());
            load.record_latency = false;
            load.drain(&mut tracer);
            let after = speed::slowness();
            windows.push(Window {
                ops,
                wall,
                cpu_ns,
                lat,
                slowness: speed::between(slow, after),
                steal,
            });
            slow = after;
        }
        if on {
            traced.add(ops, wall);
            live.add_delta(before.0, Live::take(&bed));
            polls += load.polls - before.1;
            refusals += load.refusals - before.2;
            runs += load.ch.stats.completion_runs - before.3;
        } else {
            plain.add(ops, wall);
        }
    }
    tracer.set_on(false);
    load.record_latency = false;
    load.drain(&mut tracer);
    let retransmits = bed.retransmit_rounds();
    let total_ops = load.completed;
    let Load {
        ch,
        shadow,
        latency_ns,
        issued,
        mut failed,
        first_fault,
        ..
    } = load;
    drop(ch);
    let stats = bed.finish().expect("the engine adopted the loaded channel");

    // Quiescent sweep: every thread that writes the pool has stopped.
    let bad_lines = shadow.sweep(&pool);
    let mut notes = Vec::new();
    if let Some(f) = first_fault {
        notes.push(format!("first failed op: {f}"));
    }
    if bad_lines > 0 {
        failed += 1;
        notes.push(format!(
            "quiescent sweep: {bad_lines} pool lines differ from the shadow"
        ));
    }
    notes.push(format!(
        "{issued} ops issued, {total_ops} completed; sweep of {} lines: {bad_lines} differ",
        POOL_BYTES / 64
    ));

    let mut report = Report::default();
    let mut correct = failed == 0;
    if !args.trace {
        measure::end_to_end(&mut report, &windows, &latency_ns, LATENCY, &setups);
    } else {
        let ops = traced.ops as f64;
        put(
            &mut report,
            "cowbird.issue_ns",
            tracer.net_median(Call::CowbirdIssue, empty_ns),
            "median async_read/async_write",
        );
        put(
            &mut report,
            "cowbird.poll_ns",
            tracer.net_median(Call::CowbirdPoll, empty_ns),
            "median is_complete",
        );
        put(
            &mut report,
            "cowbird.take_ns",
            tracer.net_median(Call::CowbirdTake, empty_ns),
            "median take_response_into",
        );
        put(
            &mut report,
            "cowbird.polls_per_completion",
            ratio(polls as f64, ops),
            format!("is_complete calls {polls} / completions {}", traced.ops),
        );
        put(
            &mut report,
            "cowbird.completions_per_run",
            ratio(ops, runs as f64),
            format!(
                "completions {} / ChannelStats.completion_runs {runs}",
                traced.ops
            ),
        );
        put(
            &mut report,
            "cowbird.issue_refusals_per_op",
            ratio(refusals as f64, ops),
            format!("retryable IssueErrors {refusals} / ops {}", traced.ops),
        );
        engine_rows(&mut report, &stats);
        fabric_rows(&mut report, &live, traced.ops, retransmits, total_ops);
        correct &= measure::cpu_rows(&mut report, &ledger, plain, traced);
        measure::fill_per_layer(&mut report);
        tracer.write_spans(&args.workload, args.seed);
    }
    Outcome {
        correct,
        // The quiescent sweep is one more check.
        attempted: issued + 1,
        failed,
        notes,
        report,
    }
}
