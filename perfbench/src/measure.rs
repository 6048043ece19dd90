//! What every workload shares: the slice plan, throughput tallies, the
//! canonical metric lists and the per-layer rows every workload reports
//! the same way.

use std::ops::Range;
use std::time::Duration;

use crate::procfs::{self, CpuLedger, Role};
use crate::stats::{median_f64, percentile, ratio, trimmed_mean, Report, Summary, TRIM};

/// Untraced warm-up before any timing: lazy set-up, arena and cache fill.
pub const WARMUP: Duration = Duration::from_millis(300);

/// A run with no completion for this long while work is outstanding is
/// stalled: the outstanding ops count as failed and the run stops.
pub const STALL: Duration = Duration::from_secs(2);

/// Traced runs alternate untraced and traced slices of about this length.
const SLICE: Duration = Duration::from_millis(500);

/// End-to-end runs measure in windows of this length, each between two
/// host-speed probes, and report the interquartile mean over the windows,
/// so a host hiccup in a few windows does not move a metric.
const WINDOW: Duration = Duration::from_millis(250);

/// Conservation bound: the per-thread CPU rows must add up to the
/// process's CPU time within this share. The two sources are independent
/// kernel counters; the process one ticks in 10 ms steps.
pub const CPU_RESIDUAL_BOUND: f64 = 0.03;

/// End-to-end metrics, in report order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("cpu_ns_per_op", "ns/op"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, in report order. Every traced run reports all of
/// them; a layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("cowbird.issue_ns", "ns"),
    ("cowbird.poll_ns", "ns"),
    ("cowbird.take_ns", "ns"),
    ("cowbird.polls_per_completion", "polls/op"),
    ("cowbird.completions_per_run", "ops/run"),
    ("cowbird.issue_refusals_per_op", "refusals/op"),
    ("app.cpu_ns_per_op", "ns/op"),
    ("cowbird-engine.cpu_ns_per_op", "ns/op"),
    ("cowbird-engine.probe_hit_frac", "fraction"),
    ("cowbird-engine.ops_per_batch", "ops/batch"),
    ("cowbird-engine.wrs_per_doorbell", "wrs/doorbell"),
    ("cowbird-engine.sg_merges_per_op", "merges/op"),
    ("cowbird-engine.writes_held_per_write", "holds/write"),
    ("cowbird-engine.parks_per_kop", "parks/kop"),
    ("cowbird-engine.ctx_switches_per_op", "switches/op"),
    ("rdma.nic_cpu_ns_per_op", "ns/op"),
    ("rdma.compute_nic.cpu_ns_per_op", "ns/op"),
    ("rdma.engine_nic.cpu_ns_per_op", "ns/op"),
    ("rdma.pool_nic.cpu_ns_per_op", "ns/op"),
    ("rdma.packets_per_op", "packets/op"),
    ("rdma.ctx_switches_per_op", "switches/op"),
    ("rdma.retransmit_rounds_per_kop", "rounds/kop"),
    ("kvstore.read_ns", "ns"),
    ("kvstore.poll_ns", "ns"),
    ("kvstore.upsert_ns", "ns"),
    ("kvstore.local_hit_frac", "fraction"),
    ("kvstore.round_trips_per_cold_get", "trips/get"),
    ("kvstore.chase_fallback_frac", "fraction"),
    ("kvstore.flush_bytes_per_op", "B/op"),
    ("simnet.events_per_op", "events/op"),
    ("simnet.ns_per_event", "ns/event"),
    ("cpu.process_ns_per_op", "ns/op"),
    ("cpu.other_ns_per_op", "ns/op"),
    ("cpu.residual_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Add a declared metric, with the base a ratio was computed from.
pub fn put(r: &mut Report, name: &'static str, value: f64, base: impl Into<String>) {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
        .1;
    r.add(name, value, unit, base.into());
}

/// Add every declared per-layer metric the workload did not report, as 0.
pub fn fill_per_layer(r: &mut Report) {
    for (name, unit) in PER_LAYER {
        if r.metrics.iter().all(|m| m.name != name) {
            r.add(name, 0.0, unit, "not run by this workload".into());
        }
    }
    // Report order follows the declaration.
    r.metrics
        .sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
}

/// The slices of the timed phase: `(length, traced)`. The end-to-end run
/// is a row of untraced windows; the traced run alternates
/// untraced and traced slices in ABBA order so drift cancels out of
/// `trace.overhead_frac`.
pub fn plan(seconds: u64, trace: bool) -> Vec<(Duration, bool)> {
    let total = Duration::from_secs(seconds);
    if !trace {
        let n = (total.as_secs_f64() / WINDOW.as_secs_f64())
            .round()
            .max(1.0) as u32;
        return vec![(total / n, false); n as usize];
    }
    let pairs = ((total.as_secs_f64() / (2.0 * SLICE.as_secs_f64())).round() as u32).max(1);
    let len = total / (2 * pairs);
    (0..2 * pairs)
        .map(|i| (len, matches!(i % 4, 1 | 2)))
        .collect()
}

/// Ops completed and wall time spent in one kind of slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub wall: Duration,
}

impl Tally {
    pub fn add(&mut self, ops: u64, wall: Duration) {
        self.ops += ops;
        self.wall += wall;
    }

    pub fn rate(&self) -> f64 {
        ratio(self.ops as f64, self.wall.as_secs_f64())
    }
}

/// Latency samples per second of run the sample buffer has room for;
/// above the fastest workload's rate.
const SAMPLES_PER_S: usize = 1 << 18;

/// An empty latency-sample buffer with room for a run of `seconds`, its
/// pages touched up front. The benchmark's own samples then add the same
/// resident memory to `peak_rss_mib` in every run, not an amount that
/// follows the run's throughput (up to 10% of the peak).
pub fn sample_buffer(seconds: u64) -> Vec<u64> {
    let mut v = vec![1u64; seconds as usize * SAMPLES_PER_S];
    std::hint::black_box(&mut v);
    v.clear();
    v
}

/// One window of an end-to-end run.
#[derive(Clone, Debug)]
pub struct Window {
    pub ops: u64,
    pub wall: Duration,
    /// CPU time of all the process's threads in the window.
    pub cpu_ns: u64,
    /// The window's samples in the run's latency vector.
    pub lat: Range<usize>,
    /// Host slowness over the window (`speed::between` of the probes at
    /// its two ends).
    pub slowness: f64,
    /// Share of the VM's CPU time the hypervisor gave to someone else
    /// during the window ([`steal_share`]).
    pub steal: f64,
}

/// A window in which the hypervisor took more than this share of the VM's
/// CPU time measured the host, not the program. `/proc/stat` counts steal
/// in 10 ms ticks, so no window is clean to finer than that; in runs where
/// most windows lost a tick or two, `emu_rw4k`'s `op_p99_us` read 20-35%
/// higher than in runs without steal, so only windows without a stolen
/// tick count. In longer stretches of heavy steal, tail latency grew
/// tenfold and throughput halved.
pub const STEAL_MAX: f64 = 0.0;

/// Share of the VM's CPU time stolen between two [`procfs::steal_ns`]
/// readings taken `wall` apart.
pub fn steal_share(a: (u64, usize), b: (u64, usize), wall: Duration) -> f64 {
    ratio(
        b.0.saturating_sub(a.0) as f64,
        a.1 as f64 * wall.as_nanos() as f64,
    )
}

/// One set-up of a run's deployment.
#[derive(Clone, Copy, Debug)]
pub struct SetUp {
    pub wall_s: f64,
    /// Host slowness around the set-up.
    pub slowness: f64,
    /// Share of the VM's CPU time stolen during the set-up.
    pub steal: f64,
}

/// The samples the end-to-end metrics use: every window or set-up with at
/// most [`STEAL_MAX`] stolen, or, when fewer than a quarter of them
/// qualify, the quarter with the least steal.
fn calm<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let kept: Vec<&T> = items.iter().filter(|x| steal(x) <= STEAL_MAX).collect();
    let floor = items.len().div_ceil(4);
    if kept.len() >= floor {
        return kept;
    }
    let mut by_steal: Vec<&T> = items.iter().collect();
    by_steal.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    by_steal.truncate(floor);
    by_steal
}

/// Median and range of `v`, for the human-readable bases.
fn spread_of(v: &[f64]) -> (f64, f64, f64) {
    let med = median_f64(&mut v.to_vec()).unwrap_or(0.0);
    let lo = v.iter().copied().fold(f64::MAX, f64::min);
    let hi = v.iter().copied().fold(0.0, f64::max);
    (med, lo, hi)
}

/// The end-to-end metrics, in reference time (`speed`): each window's
/// throughput is multiplied by the window's host slowness, and its latency
/// percentiles and CPU per op are divided by it; each metric is then the
/// interquartile mean over the [`calm`] windows. `latency_ns` holds every
/// sample, `label` says what one sample times. `setup_s` is the median
/// over the [`calm`] set-ups of wall seconds over host slowness.
pub fn end_to_end(
    r: &mut Report,
    windows: &[Window],
    latency_ns: &[u64],
    label: &str,
    setups: &[SetUp],
) {
    let all = windows.len();
    let steal: Vec<f64> = windows.iter().map(|w| w.steal).collect();
    let (st_med, _, st_hi) = spread_of(&steal);
    let windows = calm(windows, |w| w.steal);
    let n = windows.len();
    println!(
        "  {n} of {all} windows used; steal median {st_med:.3}, max {st_hi:.3} of the VM's CPU time, {} windows above {STEAL_MAX}",
        steal.iter().filter(|s| **s > STEAL_MAX).count()
    );
    let mean = |mut v: Vec<f64>| trimmed_mean(&mut v, TRIM).unwrap_or(0.0);
    let slow: Vec<f64> = windows.iter().map(|w| w.slowness).collect();
    let (s_med, s_lo, s_hi) = spread_of(&slow);
    println!(
        "  host slowness over those windows: median {s_med:.3}, {s_lo:.3}..{s_hi:.3} (1.0 = reference speed)"
    );
    let base = |what: &str, wall: f64| {
        format!(
            "interquartile mean of {n} of {all} windows in reference time; wall-clock median {wall:.4}; {what}"
        )
    };
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| ratio(w.ops as f64, w.wall.as_secs_f64()))
        .collect();
    let ops: u64 = windows.iter().map(|w| w.ops).sum();
    put(
        r,
        "ops_per_s",
        mean(rates.iter().zip(&slow).map(|(x, s)| x * s).collect()),
        base(&format!("{ops} ops in all"), spread_of(&rates).0),
    );
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for w in &windows {
        let mut v = latency_ns[w.lat.clone()].to_vec();
        if let Some(s) = Summary::of(&mut v) {
            p50.push((s.median as f64 / 1000.0, w.slowness));
            p99.push((percentile(&v, 99.0) as f64 / 1000.0, w.slowness));
        }
    }
    let all = Summary::of(&mut latency_ns.to_vec());
    if let Some(all) = all {
        println!(
            "  op latency ({label}), whole run: {}",
            all.describe("us", 1000.0)
        );
    }
    let samples = all.map_or(0, |a| a.n);
    for (name, v) in [("op_p50_us", p50), ("op_p99_us", p99)] {
        let wall: Vec<f64> = v.iter().map(|(x, _)| *x).collect();
        put(
            r,
            name,
            mean(v.iter().map(|(x, s)| x / s).collect()),
            base(&format!("{samples} samples"), spread_of(&wall).0),
        );
    }
    let cpu: Vec<f64> = windows
        .iter()
        .map(|w| ratio(w.cpu_ns as f64, w.ops as f64))
        .collect();
    let cpu_ns: u64 = windows.iter().map(|w| w.cpu_ns).sum();
    put(
        r,
        "cpu_ns_per_op",
        mean(cpu.iter().zip(&slow).map(|(x, s)| x / s).collect()),
        base(
            &format!("process cpu / ops; {cpu_ns} ns in all"),
            spread_of(&cpu).0,
        ),
    );
    put(r, "peak_rss_mib", procfs::peak_rss_mib(), "VmHWM");
    let all_setups = setups.len();
    let setups = calm(setups, |s| s.steal);
    let wall: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    let mut reference: Vec<f64> = setups.iter().map(|s| s.wall_s / s.slowness).collect();
    put(
        r,
        "setup_s",
        median_f64(&mut reference).expect("set-up samples"),
        format!(
            "median of {} of {all_setups} set-ups in reference time; wall-clock median {:.4}",
            setups.len(),
            spread_of(&wall).0
        ),
    );
}

/// NIC role names by emu NIC id: the deployment adds compute, engine and
/// pool NICs in this order.
pub const NIC_NAMES: [&str; 3] = ["compute", "engine", "pool"];

/// Per-thread rows of the traced slices, the conservation check and the
/// trace overhead. Returns whether the conservation check held.
pub fn cpu_rows(r: &mut Report, ledger: &CpuLedger, plain: Tally, traced: Tally) -> bool {
    let ops = traced.ops as f64;
    let per_op = |ns: u64| ratio(ns as f64, ops);
    let base = |what: &str| format!("{what} / {} ops", traced.ops);
    println!("  cpu rows over traced slices ({} ops):", traced.ops);
    for (role, row) in &ledger.rows {
        println!(
            "    {:<12} {:>14} ns cpu {:>10.1} ns/op {:>9} voluntary {:>9} involuntary switches",
            format!("{role:?}"),
            row.cpu_ns,
            per_op(row.cpu_ns),
            row.voluntary,
            row.involuntary
        );
    }
    let app = ledger.row(Role::App).cpu_ns;
    put(
        r,
        "app.cpu_ns_per_op",
        per_op(app),
        base("app thread cpu ns"),
    );
    let engine = ledger.row(Role::Engine);
    put(
        r,
        "cowbird-engine.cpu_ns_per_op",
        per_op(engine.cpu_ns),
        base("engine worker cpu ns"),
    );
    put(
        r,
        "cowbird-engine.ctx_switches_per_op",
        per_op(engine.voluntary + engine.involuntary),
        base("engine worker context switches"),
    );
    let nics: Vec<_> = (0..NIC_NAMES.len() as u32)
        .map(|n| ledger.row(Role::Nic(n)))
        .collect();
    let nic_ns: u64 = nics.iter().map(|n| n.cpu_ns).sum();
    put(
        r,
        "rdma.nic_cpu_ns_per_op",
        per_op(nic_ns),
        base("emu NIC threads cpu ns"),
    );
    for (name, row) in [
        "rdma.compute_nic.cpu_ns_per_op",
        "rdma.engine_nic.cpu_ns_per_op",
        "rdma.pool_nic.cpu_ns_per_op",
    ]
    .into_iter()
    .zip(&nics)
    {
        put(r, name, per_op(row.cpu_ns), base("NIC thread cpu ns"));
    }
    put(
        r,
        "rdma.ctx_switches_per_op",
        per_op(nics.iter().map(|n| n.voluntary).sum()),
        base("NIC thread voluntary switches (hand-off wakeups)"),
    );
    let process = ledger.process_ns;
    let threads = ledger.threads_ns();
    put(
        r,
        "cpu.process_ns_per_op",
        per_op(process),
        base("process cpu ns"),
    );
    put(
        r,
        "cpu.other_ns_per_op",
        per_op(ledger.row(Role::Other).cpu_ns),
        base("other threads cpu ns"),
    );
    let residual = ratio(process as f64 - threads as f64, process as f64);
    put(
        r,
        "cpu.residual_frac",
        residual,
        format!("(process {process} - thread rows {threads}) / process {process} ns"),
    );
    let overhead = 1.0 - ratio(traced.rate(), plain.rate());
    put(
        r,
        "trace.overhead_frac",
        overhead,
        format!(
            "1 - traced {} ops in {:?} / untraced {} ops in {:?}",
            traced.ops, traced.wall, plain.ops, plain.wall
        ),
    );
    let ok = residual.abs() <= CPU_RESIDUAL_BOUND;
    println!(
        "  cpu conservation: thread rows {threads} ns vs process {process} ns, residual {:.4} (bound {CPU_RESIDUAL_BOUND}): {}",
        residual,
        if ok { "ok" } else { "VIOLATED" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &obj[at..];
                        let q = rest.find('"').expect("open quote") + 1;
                        rest[q..q + rest[q..].find('"').expect("close quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn windows_with_steal_are_dropped_down_to_a_quarter() {
        let w = |steal: f64| Window {
            ops: 1,
            wall: Duration::from_millis(250),
            cpu_ns: 1,
            lat: 0..0,
            slowness: 1.0,
            steal,
        };
        let steals = |v: Vec<&Window>| v.iter().map(|w| w.steal).collect::<Vec<_>>();
        fn usable(v: &[Window]) -> Vec<&Window> {
            calm(v, |w| w.steal)
        }
        let quiet = [w(0.0), w(0.3), w(0.0), w(0.02), w(0.0), w(0.9)];
        assert_eq!(steals(usable(&quiet)), vec![0.0, 0.0, 0.0]);
        // Too few calm windows: the quarter with the least steal.
        let stormy = [
            w(0.5),
            w(0.2),
            w(0.3),
            w(0.01),
            w(0.6),
            w(0.4),
            w(0.7),
            w(0.8),
        ];
        assert_eq!(steals(usable(&stormy)), vec![0.01, 0.2]);
        assert_eq!(
            steal_share((0, 2), (50_000_000, 2), Duration::from_millis(250)),
            0.1
        );
    }

    #[test]
    fn traced_plan_alternates_abba() {
        assert_eq!(
            plan(10, false),
            vec![(Duration::from_millis(250), false); 40]
        );
        let p = plan(10, true);
        assert_eq!(p.len(), 20);
        let traced: Vec<bool> = p.iter().map(|s| s.1).collect();
        assert_eq!(
            &traced[..8],
            &[false, true, true, false, false, true, true, false]
        );
        assert_eq!(traced.iter().filter(|t| **t).count(), 10);
        assert_eq!(
            p.iter().map(|s| s.0).sum::<Duration>(),
            Duration::from_secs(10)
        );
        assert_eq!(plan(1, true).len(), 2);
    }
}
