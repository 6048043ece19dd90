//! `sim_rig`: the deterministic packet simulator running the standard
//! three-node Cowbird rig (`experiments::harness::build_cowbird_rig`) for a
//! fixed op count per round, as many rounds as fit the run.
//!
//! Wall-clock figures are the simulator's own speed. The rig's virtual-time
//! outputs (latency histogram, finish time, event count) are model values:
//! they only feed the determinism digest that checks each round.

use std::time::Instant;

use cowbird_engine::sim::EngineNode;
use experiments::harness::{build_cowbird_rig, CowbirdClientNode, CowbirdRig};
use simnet::sim::{NodeId, Sim};
use simnet::time::Duration as SimDuration;
use telemetry::MetricsRegistry;

use crate::emu::engine_rows;
use crate::measure::{self, put, SetUp, Tally, Window};
use crate::oracle::mix64;
use crate::procfs::{self, CpuLedger};
use crate::speed;
use crate::stats::{ratio, Report};
use crate::trace::{Call, Tracer};
use crate::{Args, Outcome};

/// Simulated client ops per round.
const ROUND_OPS: u64 = 50_000;
/// Rounds cycle over this many rig seeds derived from `--seed`, so a run
/// averages over loss patterns and each seed's digest is checked again
/// every time it comes round.
const RIG_SEEDS: usize = 8;
/// Virtual time per `run_until` call; each call that completes ops gives
/// one sample of wall time per simulated op.
const SLICE: SimDuration = SimDuration::from_micros(5);
/// Pool records are 64 B: an 8-byte record index, then zeros.
const RECORD: u64 = 64;

fn rig(seed: u64) -> CowbirdRig {
    CowbirdRig {
        seed,
        record_size: RECORD as u32,
        inflight: 32,
        target_ops: ROUND_OPS,
        engine_batch: 16,
        drop_probability: 0.001,
        ..CowbirdRig::default()
    }
}

/// Everything a round's outcome depends on; equal for equal seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Digest {
    events: u64,
    done_at_ns: u64,
    latency: (u64, u64, u64, u64),
    engine_reads: u64,
    retransmit_rounds: u64,
    rx_packets: u64,
}

/// Sum a counter over every label set in `reg`.
fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.snapshot()
        .counters
        .iter()
        .filter(|(k, _)| k.split('{').next() == Some(name))
        .map(|(_, v)| v)
        .sum()
}

struct Round {
    setup_s: f64,
    wall: std::time::Duration,
    cpu_ns: u64,
    events: u64,
    digest: Digest,
    /// Ops short of the target, plus malformed responses in the ring.
    faults: Vec<String>,
    failed: u64,
    engine: cowbird_engine::core::EngineStats,
}

/// Build a rig and run it to its op target in virtual-time slices.
fn round(seed: u64, tracer: &mut Tracer, per_op_ns: &mut Vec<u64>, record: bool) -> Round {
    let t0 = Instant::now();
    let (mut sim, client_id, engine_id) = build_cowbird_rig(rig(seed));
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = procfs::threads_cpu_ns();
    let start = Instant::now();
    let mut done_before = 0;
    let mut slice = 0u64;
    loop {
        let t = Instant::now();
        let deadline = sim.now() + SLICE;
        tracer.time(Call::SimRun, slice, || sim.run_until(Some(deadline)));
        slice += 1;
        let client: &CowbirdClientNode = sim.node_ref(client_id);
        let done = client.completed();
        if record && done > done_before {
            per_op_ns.push(t.elapsed().as_nanos() as u64 / (done - done_before));
        }
        done_before = done;
        if client.done_at.is_some() || slice > 1_000_000 {
            break;
        }
    }
    let wall = start.elapsed();
    let cpu_ns = procfs::threads_cpu_ns() - cpu0;
    let (digest, faults, failed) = check(&sim, client_id, engine_id);
    let engine: &EngineNode = sim.node_ref(engine_id);
    Round {
        setup_s,
        wall,
        cpu_ns,
        events: digest.events,
        digest,
        faults,
        failed,
        engine: engine.core(0).stats,
    }
}

/// Check a finished round: the faults found, the ops they fail, and the
/// round's digest.
fn check(sim: &Sim, client_id: NodeId, engine_id: NodeId) -> (Digest, Vec<String>, u64) {
    let client: &CowbirdClientNode = sim.node_ref(client_id);
    let engine: &EngineNode = sim.node_ref(engine_id);
    let mut faults = Vec::new();
    let mut failed = ROUND_OPS.saturating_sub(client.completed());
    if failed > 0 || client.outstanding() > 0 {
        faults.push(format!(
            "{} of {ROUND_OPS} ops completed, {} outstanding",
            client.completed(),
            client.outstanding()
        ));
    }
    // The response ring holds the last ring-capacity responses. Each must
    // be a whole pool record: its index below the pool's record count,
    // then 56 zero bytes. Per-op addresses stay inside the rig, so a
    // well-formed record from the wrong address is outside this check.
    let ch = client.channel();
    let layout = ch.layout();
    let records = ch.regions().get(1).expect("pool region").size / RECORD;
    let mut buf = [0u8; RECORD as usize];
    let mut bad = 0u64;
    for v in (0..layout.rdata_capacity).step_by(RECORD as usize) {
        ch.region()
            .read(layout.rdata_phys(v), &mut buf)
            .expect("ring read");
        let index = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        if index >= records || buf[8..].iter().any(|&b| b != 0) {
            bad += 1;
        }
    }
    if bad > 0 {
        faults.push(format!("{bad} malformed responses in the response ring"));
        failed += bad;
    }
    let reg = MetricsRegistry::new();
    client.nic().export_metrics(&reg, &[("node", "compute")]);
    engine.nic().export_metrics(&reg, &[("node", "engine")]);
    let lat = &client.latency;
    let digest = Digest {
        events: sim.events_processed(),
        done_at_ns: client.done_at.map_or(0, |t| t.nanos()),
        latency: (lat.count(), lat.median(), lat.p99(), lat.max()),
        engine_reads: engine.core(0).stats.reads_executed,
        retransmit_rounds: counter(&reg, "rdma.qp.retransmit_rounds"),
        rx_packets: counter(&reg, "rdma.nic.rx_packets"),
    };
    (digest, faults, failed)
}

pub fn run(args: &Args) -> Outcome {
    let mut tracer = Tracer::new();
    let empty_ns = if args.trace {
        tracer.calibrate(200_000)
    } else {
        0
    };
    let mut per_op_ns = measure::sample_buffer(args.seconds);
    let seeds: Vec<u64> = (0..RIG_SEEDS as u64)
        .map(|i| mix64(args.seed ^ (i << 48)))
        .collect();
    let mut reference: Vec<Option<Digest>> = vec![None; RIG_SEEDS];
    // Warm-up round: page in the code and the allocator's arenas.
    // Host-speed probes between rounds put each round, set-up included,
    // in reference time.
    let mut slow = speed::slowness();
    let (steal0, t0) = (procfs::steal_ns(), Instant::now());
    let first = round(seeds[0], &mut tracer, &mut per_op_ns, false);
    let steal = measure::steal_share(steal0, procfs::steal_ns(), t0.elapsed());
    let after = speed::slowness();
    reference[0] = Some(first.digest.clone());
    let mut setups = vec![SetUp {
        wall_s: first.setup_s,
        slowness: speed::between(slow, after),
        steal,
    }];
    slow = after;
    let (mut attempted, mut failed) = (ROUND_OPS, first.failed);
    let mut faults = first.faults;
    let (mut traced_retransmits, mut traced_packets) = (0u64, 0u64);

    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut windows = Vec::new();
    let mut traced_events = 0u64;
    let mut ledger = CpuLedger::default();
    let mut rounds = 0usize;
    let mut engine = first.engine;
    // Each round of an end-to-end run is one window, so it runs rounds for
    // the whole timed phase; slices of the shorter plan would each
    // overrun by part of a round.
    let slices = if args.trace {
        measure::plan(args.seconds, true)
    } else {
        vec![(std::time::Duration::from_secs(args.seconds), false)]
    };
    for (len, on) in slices {
        tracer.set_on(on);
        let slice_end = Instant::now() + len;
        // Whole rounds only; a slice runs at least one.
        loop {
            if on {
                ledger.begin();
            }
            let l0 = per_op_ns.len();
            let k = (rounds + 1) % RIG_SEEDS;
            let (steal0, t0) = (procfs::steal_ns(), Instant::now());
            let r = round(seeds[k], &mut tracer, &mut per_op_ns, !args.trace);
            let steal = measure::steal_share(steal0, procfs::steal_ns(), t0.elapsed());
            if on {
                ledger.end();
            }
            rounds += 1;
            attempted += ROUND_OPS;
            failed += r.failed;
            faults.extend(r.faults);
            match &reference[k] {
                None => reference[k] = Some(r.digest.clone()),
                Some(d) if *d != r.digest => {
                    failed += 1;
                    faults.push(format!(
                        "round {rounds} diverged from an earlier round with rig seed {:#x}: {:?} vs {d:?}",
                        seeds[k], r.digest
                    ));
                }
                Some(_) => {}
            }
            let slowness = if args.trace {
                1.0
            } else {
                let after = speed::slowness();
                let s = speed::between(slow, after);
                slow = after;
                s
            };
            setups.push(SetUp {
                wall_s: r.setup_s,
                slowness,
                steal,
            });
            let ops = ROUND_OPS - r.failed.min(ROUND_OPS);
            if on {
                traced.add(ops, r.wall);
                traced_events += r.events;
                traced_retransmits += r.digest.retransmit_rounds;
                traced_packets += r.digest.rx_packets;
            } else {
                plain.add(ops, r.wall);
            }
            if !args.trace {
                windows.push(Window {
                    ops,
                    wall: r.wall,
                    cpu_ns: r.cpu_ns,
                    lat: l0..per_op_ns.len(),
                    slowness,
                    steal,
                });
            }
            engine = r.engine;
            if Instant::now() >= slice_end {
                break;
            }
        }
    }
    let mut notes: Vec<String> = faults.into_iter().take(3).collect();
    notes.push(format!(
        "{} rounds of {ROUND_OPS} ops over {RIG_SEEDS} rig seeds; model digest of the first (events, virtual finish ns, virtual latency count/p50/p99/max, engine reads, GBN rounds, rx packets) = {:?}",
        rounds + 1,
        reference[0]
    ));

    let mut report = Report::default();
    let mut correct = true;
    if !args.trace {
        let label = "wall time per simulated op, one sample per 5 us virtual slice";
        measure::end_to_end(&mut report, &windows, &per_op_ns, label, &setups);
    } else {
        tracer.net_median(Call::SimRun, empty_ns);
        put(
            &mut report,
            "simnet.events_per_op",
            ratio(traced_events as f64, traced.ops as f64),
            format!("events {traced_events} / ops {}", traced.ops),
        );
        put(
            &mut report,
            "simnet.ns_per_event",
            ratio(traced.wall.as_nanos() as f64, traced_events as f64),
            format!("run_until wall {:?} / events {traced_events}", traced.wall),
        );
        put(
            &mut report,
            "rdma.retransmit_rounds_per_kop",
            ratio(traced_retransmits as f64 * 1000.0, traced.ops as f64),
            format!(
                "retransmit_rounds {traced_retransmits} / {} kops",
                traced.ops as f64 / 1000.0
            ),
        );
        put(
            &mut report,
            "rdma.packets_per_op",
            ratio(traced_packets as f64, traced.ops as f64),
            format!(
                "compute+engine NIC rx packets {traced_packets} / ops {}",
                traced.ops
            ),
        );
        engine_rows(&mut report, &engine);
        correct &= measure::cpu_rows(&mut report, &ledger, plain, traced);
        measure::fill_per_layer(&mut report);
        tracer.write_spans(&args.workload, args.seed);
    }
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        notes,
        report,
    }
}
