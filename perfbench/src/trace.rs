//! Benchmark-side spans around every call the benchmark makes into a
//! layer's public functions. Tracing is off in the end-to-end run; in the
//! traced run every call is timed with two clock reads, and the cost of
//! timing an empty call, measured in the same run, is subtracted from each
//! reported median.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::Summary;

/// The layer calls the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    CowbirdIssue,
    CowbirdPoll,
    CowbirdTake,
    KvRead,
    KvPoll,
    KvUpsert,
    SimRun,
    Empty,
}

/// Number of [`Call`] kinds (`Empty` is the last).
const CALLS: usize = Call::Empty as usize + 1;

impl Call {
    fn label(self) -> &'static str {
        match self {
            Call::CowbirdIssue => "cowbird.async_read|async_write",
            Call::CowbirdPoll => "cowbird.is_complete",
            Call::CowbirdTake => "cowbird.take_response_into",
            Call::KvRead => "kvstore.read",
            Call::KvPoll => "kvstore.poll",
            Call::KvUpsert => "kvstore.upsert",
            Call::SimRun => "simnet.run_until",
            Call::Empty => "empty",
        }
    }
}

/// Spans kept for the span file; per-call durations are kept in full.
const SPAN_CAP: usize = 1 << 16;

/// One timed call: which call, the benchmark op it served, start (ns after
/// the tracer was created) and duration.
struct Span {
    call: Call,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    durations: [Vec<u64>; CALLS],
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            durations: Default::default(),
            spans: Vec::with_capacity(SPAN_CAP),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f`; when tracing, record its span tagged with `op`.
    #[inline]
    pub fn time<R>(&mut self, call: Call, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let dur_ns = (t1 - t0).as_nanos() as u64;
        self.durations[call as usize].push(dur_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                call,
                op,
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
        r
    }

    /// Time `n` empty calls through the same path; returns their median.
    /// Leaves tracing off and keeps the samples out of the span file.
    pub fn calibrate(&mut self, n: usize) -> u64 {
        self.on = true;
        let keep = self.spans.len();
        for i in 0..n {
            self.time(Call::Empty, i as u64, || black_box(()));
        }
        self.spans.truncate(keep);
        self.on = false;
        Summary::of(&mut self.durations[Call::Empty as usize])
            .expect("calibration samples")
            .median
    }

    /// Median of `call` less the empty-call cost `overhead`, or 0 when the
    /// call was never made. Prints the median, tail and sample count.
    pub fn net_median(&mut self, call: Call, overhead: u64) -> f64 {
        match Summary::of(&mut self.durations[call as usize]) {
            Some(s) => {
                println!(
                    "  timing {:<32} {} ; empty-call cost {overhead} ns subtracted",
                    call.label(),
                    s.describe("ns", 1.0)
                );
                s.median.saturating_sub(overhead) as f64
            }
            None => 0.0,
        }
    }

    /// Write the kept spans as tab-separated lines to
    /// `.perfbench_out/<workload>-seed<seed>.spans.tsv` under the working
    /// directory, and say where.
    pub fn write_spans(&self, workload: &str, seed: u64) {
        let path = PathBuf::from(format!(".perfbench_out/{workload}-seed{seed}.spans.tsv"));
        let mut out = String::from("call\top\tstart_ns\tdur_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.call.label(),
                s.op,
                s.start_ns,
                s.dur_ns
            );
        }
        let written =
            std::fs::create_dir_all(".perfbench_out").and_then(|()| std::fs::write(&path, out));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  spans not written ({}): {e}", path.display()),
        }
    }
}
