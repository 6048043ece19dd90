//! The repository benchmark. One command runs one workload and prints
//! every metric by name and unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload emu_read64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from a run that times every call the benchmark makes
//! into a layer. See `perfbench/README.md` for the workloads, the
//! layer-to-metric map and the clock of every number.

mod affinity;
mod emu;
mod kv;
mod measure;
mod oracle;
mod procfs;
mod sim;
mod speed;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use stats::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["emu_read64", "emu_rw4k", "kv_ycsb_b", "sim_rig"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub report: Report,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: 0 or 1")),
        },
    })
}

/// Whole-run bound, from start to result line.
const RUN_BOUND: Duration = Duration::from_secs(150);

/// A call into the program that never returns (a spin on a dead engine)
/// cannot be bounded from the calling thread. Past [`RUN_BOUND`] this
/// thread reports the run as failed and ends the process.
fn spawn_watchdog(seconds: u64) {
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(RUN_BOUND);
            println!(
                "  run exceeded {RUN_BOUND:?} ({seconds} s measured): a call into the program did not return"
            );
            println!(
                "{}",
                Report::default().result_line(false, 1, 1)
            );
            std::process::exit(0);
        })
        .expect("spawn watchdog");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cores = affinity::init();
    println!(
        "perfbench {} seed {} for {} s, trace {}; available parallelism {}; (app core, offload core) = {cores:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallelism
    );
    spawn_watchdog(args.seconds);
    speed::warm();
    let out = match args.workload.as_str() {
        "emu_read64" => emu::run(&emu::READ64, &args),
        "emu_rw4k" => emu::run(&emu::RW4K, &args),
        "kv_ycsb_b" => kv::run(&args),
        "sim_rig" => sim::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    for n in &out.notes {
        println!("  {n}");
    }
    out.report.print_table();
    println!(
        "  correct {} ; failed {} of {} attempted",
        out.correct, out.failed, out.attempted
    );
    println!(
        "{}",
        out.report
            .result_line(out.correct, out.attempted.max(1), out.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_line_flags() {
        let a = args("--workload kv_ycsb_b --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv_ycsb_b", 42, 7, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload sim_rig --trace 2").is_err());
        assert!(args("--workload sim_rig --seconds 0").is_err());
        assert!(args("--workload sim_rig --seed").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn workload_names_are_valid() {
        assert!(WORKLOADS.iter().all(|w| stats::valid_name(w)));
    }
}
