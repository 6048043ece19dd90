//! `kv_ycsb_b`: `FasterKv` over one `CowbirdDevice` on the threaded
//! deployment, with the remote hash index on and cold GETs served by one
//! pointer-chase round trip.

use std::collections::HashMap;
use std::time::Instant;

use kvstore::record::Record;
use kvstore::store::PendingId;
use kvstore::{CowbirdDevice, FasterKv, GetStats, ReadResult, RemoteIndex, StoreConfig};
use rdma::mem::Region;
use simnet::rng::Rng;
use workloads::zipf::ZipfSampler;

use crate::emu::{engine_rows, fabric_rows, EmuBed, Live, LATENCY, POOL_REGION, SETUPS};
use crate::measure::{self, put, SetUp, Tally, Window, STALL, WARMUP};
use crate::oracle::KvOracle;
use crate::procfs::{self, CpuLedger};
use crate::speed;
use crate::stats::{ratio, Report};
use crate::trace::{Call, Tracer};
use crate::{Args, Outcome};

/// In-memory log window of the store's one shard; the keyspace is eight
/// windows. 256 KiB keeps the load short and, with the sparse index
/// below, gave the steadiest figures in probes.
const WINDOW: u64 = 256 << 10;
const VALUE_BYTES: usize = 64;
/// Remote pool: the log's address space, then the index mirror.
const POOL_BYTES: usize = 64 << 20;
const MIRROR_BASE: u64 = 60 << 20;
/// Index slots: about 5.5 per key, so few keys share a hash bucket and
/// few GETs walk a chain.
const INDEX_SLOTS: usize = 1 << 17;
/// The loader flushes the log after this many upserts; see [`set_up`].
const LOAD_FLUSH_EVERY: u64 = 256;
/// Longest the steady-state warm-up may take.
const WARMUP_BOUND: std::time::Duration = std::time::Duration::from_secs(10);
/// GETs pending at once.
const DEPTH: usize = 32;
/// YCSB-B: 5% upserts, Zipf 0.99 keys.
const UPSERT_SHARE: f64 = 0.05;
const ZIPF_THETA: f64 = 0.99;

/// Keys: eight in-memory windows' worth of records.
fn keys() -> u64 {
    8 * WINDOW / Record::footprint(VALUE_BYTES)
}

type Store = FasterKv<CowbirdDevice>;

struct Pending {
    key: u64,
    at_issue: u64,
    op: u64,
    t0: Instant,
}

struct KvLoad {
    kv: Store,
    oracle: KvOracle,
    zipf: ZipfSampler,
    rng: Rng,
    value: Vec<u8>,
    pending: HashMap<PendingId, Pending>,
    issued: u64,
    upserts: u64,
    completed: u64,
    failed: u64,
    latency_ns: Vec<u64>,
    record_latency: bool,
    last_progress: Instant,
    stalled: bool,
    first_fault: Option<String>,
}

impl KvLoad {
    fn fault(&mut self, what: String) {
        self.failed += 1;
        self.first_fault.get_or_insert(what);
    }

    fn completed_one(&mut self, t0: Instant, now: Instant) {
        self.completed += 1;
        self.last_progress = now;
        if self.record_latency {
            self.latency_ns.push((now - t0).as_nanos() as u64);
        }
    }

    fn check(&mut self, key: u64, at_issue: u64, op: u64, got: Option<&[u8]>) {
        match self.oracle.check(key, at_issue, got) {
            Ok(()) => {}
            Err(f) => self.fault(format!("GET op {op} of key {key}: {f:?}")),
        }
    }

    /// Issue until `DEPTH` GETs are pending. Upserts and in-memory GETs
    /// complete inside the call.
    fn issue(&mut self, tracer: &mut Tracer) {
        while self.pending.len() < DEPTH {
            let upsert = self.rng.chance(UPSERT_SHARE);
            let key = self.zipf.sample_scrambled(&mut self.rng);
            let op = self.issued;
            self.issued += 1;
            if upsert {
                self.oracle.next_value(key, &mut self.value);
            }
            // The oracle's bookkeeping stays outside the timed interval.
            let at_issue = self.oracle.version(key);
            let t0 = Instant::now();
            if upsert {
                let (kv, value) = (&self.kv, &self.value);
                tracer.time(Call::KvUpsert, op, || kv.upsert(key, value));
                self.upserts += 1;
                self.completed_one(t0, Instant::now());
                continue;
            }
            let kv = &self.kv;
            match tracer.time(Call::KvRead, op, || kv.read(key)) {
                ReadResult::Found(v) => {
                    let now = Instant::now();
                    self.check(key, at_issue, op, Some(&v));
                    self.completed_one(t0, now);
                }
                ReadResult::NotFound => {
                    let now = Instant::now();
                    self.check(key, at_issue, op, None);
                    self.completed_one(t0, now);
                }
                ReadResult::Pending(pid) => {
                    self.pending.insert(
                        pid,
                        Pending {
                            key,
                            at_issue,
                            op,
                            t0,
                        },
                    );
                }
            }
        }
    }

    /// Collect completed GETs; returns how many completed.
    fn reap(&mut self, tracer: &mut Tracer) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let kv = &self.kv;
        let done = tracer.time(Call::KvPoll, self.issued, || kv.poll(0));
        let now = Instant::now();
        let n = done.len();
        for (pid, v) in done {
            match self.pending.remove(&pid) {
                Some(p) => {
                    self.check(p.key, p.at_issue, p.op, v.as_deref());
                    self.completed_one(p.t0, now);
                }
                None => self.fault(format!("completion for unknown {pid:?}")),
            }
        }
        n
    }

    fn stall(&mut self) {
        let n = self.pending.len() as u64;
        self.failed += n;
        let oldest = self.pending.values().map(|p| p.op).min();
        self.first_fault.get_or_insert(format!(
            "stall: {n} GETs pending with no completion for {STALL:?} (oldest op {oldest:?})"
        ));
        self.pending.clear();
        self.stalled = true;
    }

    fn run_until(&mut self, end: Instant, tracer: &mut Tracer) {
        while !self.stalled {
            let now = Instant::now();
            if now >= end {
                break;
            }
            self.issue(tracer);
            if self.reap(tracer) == 0 {
                if !self.pending.is_empty() && now - self.last_progress > STALL {
                    self.stall();
                    break;
                }
                std::thread::yield_now();
            }
        }
    }

    fn drain(&mut self, tracer: &mut Tracer) {
        self.last_progress = Instant::now();
        while !self.pending.is_empty() && !self.stalled {
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

/// Deploy, build the store and load every key at version 1.
///
/// The loader flushes the log every [`LOAD_FLUSH_EVERY`] upserts, which
/// waits for every device write issued so far. Without it the first
/// window's ~2 900 index-mirror writes reach the channel back to back, the
/// engine fetches them in one sweep, posts more than a queue pair's 1024
/// outstanding work requests, and its worker panics (`group post:
/// SendQueueFull`). That engine defect is reported, not hidden: the
/// flush cadence is the only pacing the benchmark adds, and the timed
/// phase never comes near the limit.
fn set_up() -> (EmuBed, Store, KvOracle) {
    let (bed, ch) = EmuBed::deploy(&Region::new(POOL_BYTES));
    let kv = FasterKv::new(
        StoreConfig {
            memory_per_shard: WINDOW,
            mutable_fraction: 0.25,
            index_slots: INDEX_SLOTS,
            max_value_bytes: VALUE_BYTES as u32,
            remote_index: Some(RemoteIndex {
                base: MIRROR_BASE,
                chase: true,
            }),
        },
        vec![CowbirdDevice::new(ch, POOL_REGION)],
    );
    let mut oracle = KvOracle::new(keys() as usize, VALUE_BYTES);
    let mut value = Vec::with_capacity(VALUE_BYTES);
    for key in 0..keys() {
        oracle.next_value(key, &mut value);
        kv.upsert(key, &value);
        if (key + 1) % LOAD_FLUSH_EVERY == 0 {
            kv.flush_all();
        }
    }
    (bed, kv, oracle)
}

/// GET-path and log counters sampled at slice boundaries.
#[derive(Clone, Copy, Default)]
struct KvLive {
    emu: Live,
    gets: GetStats,
    flushed: u64,
}

impl KvLive {
    fn take(bed: &EmuBed, kv: &Store) -> KvLive {
        KvLive {
            emu: Live::take(bed),
            gets: kv.get_stats(),
            flushed: kv.log_stats().0,
        }
    }

    fn add_delta(&mut self, a: KvLive, b: KvLive) {
        self.emu.add_delta(a.emu, b.emu);
        let (g, x, y) = (&mut self.gets, a.gets, b.gets);
        g.gets += y.gets - x.gets;
        g.local_hits += y.local_hits - x.local_hits;
        g.round_trips += y.round_trips - x.round_trips;
        g.chase_gets += y.chase_gets - x.chase_gets;
        g.chase_fallbacks += y.chase_fallbacks - x.chase_fallbacks;
        self.flushed += b.flushed - a.flushed;
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setups = Vec::new();
    let mut deployed = None;
    for _ in 0..SETUPS {
        if let Some((bed, kv, _)) = deployed.take() {
            drop::<Store>(kv);
            EmuBed::finish(bed);
        }
        let before = speed::slowness();
        let steal0 = procfs::steal_ns();
        let t0 = Instant::now();
        let d = set_up();
        let wall = t0.elapsed();
        let steal = measure::steal_share(steal0, procfs::steal_ns(), wall);
        setups.push(SetUp {
            wall_s: wall.as_secs_f64(),
            slowness: speed::between(before, speed::slowness()),
            steal,
        });
        deployed = Some(d);
    }
    let (bed, kv, oracle) = deployed.expect("at least one set-up");
    println!(
        "  {} keys x {VALUE_BYTES} B, {} KiB in-memory window, load flushed {} KiB in {} evictions",
        keys(),
        WINDOW >> 10,
        kv.log_stats().0 >> 10,
        kv.log_stats().1
    );

    let mut tracer = Tracer::new();
    let empty_ns = if args.trace {
        tracer.calibrate(200_000)
    } else {
        0
    };
    let mut load = KvLoad {
        kv,
        oracle,
        zipf: ZipfSampler::new(keys(), ZIPF_THETA),
        rng: Rng::new(args.seed ^ 0x4B56_59C5),
        value: Vec::with_capacity(VALUE_BYTES),
        pending: HashMap::with_capacity(2 * DEPTH),
        issued: 0,
        upserts: 0,
        completed: 0,
        failed: 0,
        latency_ns: measure::sample_buffer(args.seconds),
        record_latency: false,
        last_progress: Instant::now(),
        stalled: false,
        first_fault: None,
    };
    // Warm up until the upserts have appended one in-memory window of
    // records: the window then holds the hot keys, as in steady state,
    // rather than the last keys the loader wrote.
    let window_records = WINDOW / Record::footprint(VALUE_BYTES);
    let warm = Instant::now();
    while load.upserts < window_records && !load.stalled && warm.elapsed() < WARMUP_BOUND {
        load.run_until(Instant::now() + WARMUP, &mut tracer);
    }

    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut windows = Vec::new();
    let mut ledger = CpuLedger::default();
    let mut live = KvLive::default();
    // End-to-end windows start and end idle, between host-speed probes.
    let mut slow = 0.0;
    if !args.trace {
        load.drain(&mut tracer);
        slow = speed::slowness();
    }
    for (len, on) in measure::plan(args.seconds, args.trace) {
        tracer.set_on(on);
        load.record_latency = !args.trace;
        let before = KvLive::take(&bed, &load.kv);
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
            live.add_delta(before, KvLive::take(&bed, &load.kv));
        } else {
            plain.add(ops, wall);
        }
    }
    tracer.set_on(false);
    load.record_latency = false;
    load.drain(&mut tracer);
    let retransmits = bed.retransmit_rounds();
    let total_ops = load.completed;
    let KvLoad {
        kv,
        latency_ns,
        issued,
        failed,
        first_fault,
        ..
    } = load;
    drop(kv);
    let stats = bed.finish().expect("the engine adopted the loaded channel");

    let mut notes = Vec::new();
    if let Some(f) = first_fault {
        notes.push(format!("first failed op: {f}"));
    }
    notes.push(format!("{issued} ops issued, {total_ops} completed"));
    let mut report = Report::default();
    let mut correct = failed == 0;
    if !args.trace {
        measure::end_to_end(&mut report, &windows, &latency_ns, LATENCY, &setups);
    } else {
        let ops = traced.ops as f64;
        let g = live.gets;
        put(
            &mut report,
            "kvstore.read_ns",
            tracer.net_median(Call::KvRead, empty_ns),
            "median read",
        );
        put(
            &mut report,
            "kvstore.poll_ns",
            tracer.net_median(Call::KvPoll, empty_ns),
            "median poll",
        );
        put(
            &mut report,
            "kvstore.upsert_ns",
            tracer.net_median(Call::KvUpsert, empty_ns),
            "median upsert",
        );
        put(
            &mut report,
            "kvstore.local_hit_frac",
            ratio(g.local_hits as f64, g.gets as f64),
            format!("GetStats.local_hits {} / gets {}", g.local_hits, g.gets),
        );
        let cold = g.gets - g.local_hits;
        put(
            &mut report,
            "kvstore.round_trips_per_cold_get",
            ratio(g.round_trips as f64, cold as f64),
            format!("GetStats.round_trips {} / cold gets {cold}", g.round_trips),
        );
        put(
            &mut report,
            "kvstore.chase_fallback_frac",
            ratio(g.chase_fallbacks as f64, g.chase_gets as f64),
            format!(
                "GetStats.chase_fallbacks {} / chase_gets {}",
                g.chase_fallbacks, g.chase_gets
            ),
        );
        put(
            &mut report,
            "kvstore.flush_bytes_per_op",
            ratio(live.flushed as f64, ops),
            format!("log bytes flushed {} / ops {}", live.flushed, traced.ops),
        );
        engine_rows(&mut report, &stats);
        fabric_rows(&mut report, &live.emu, traced.ops, retransmits, total_ops);
        correct &= measure::cpu_rows(&mut report, &ledger, plain, traced);
        measure::fill_per_layer(&mut report);
        tracer.write_spans(&args.workload, args.seed);
    }
    Outcome {
        correct,
        attempted: issued,
        failed,
        notes,
        report,
    }
}
