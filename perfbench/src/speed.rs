//! Host-speed probe: how fast this machine runs right now, against a fixed
//! reference.
//!
//! The benchmark was built on a 2-vCPU VM of a shared host, where the
//! speed of a vCPU follows the load of the host's other tenants. A
//! deterministic single-threaded run of `sim_rig` went from 370 k to 250 k
//! simulated ops/s halfway through one run, and its CPU time per op rose
//! with it, so the drop was the host and not the program. Sets of ten runs
//! of the same code spread by 20 to 35% on most wall-clock metrics.
//!
//! Every end-to-end timing is therefore reported in *reference time*: wall
//! time divided by the host's slowness, measured by this probe at both
//! ends of each measurement window. The probe is benchmark code that
//! shares nothing with the program: a fixed sequence of pseudo-random
//! read-modify-writes and then a chain of dependent loads over an 8 MiB
//! buffer, which loads a core, its caches and memory as the workloads do.
//! It runs once on each of the two cores the benchmark uses, while the
//! deployment has no op outstanding, and it reads the thread's own CPU
//! clock: a program thread that runs on the same core in the meantime does
//! not lengthen it, so the probe follows the host, not the program.
//!
//! Slowness is the mean over the two cores of `probe CPU time /
//! REFERENCE_NS`: 1.0 at reference speed, 1.3 on a host running 1.3 times
//! slower.

use std::cell::RefCell;
use std::os::raw::{c_int, c_long};

use crate::affinity::{on_core, Core};

/// Probe CPU time at reference speed: about the fastest the probe ran on
/// the machine the benchmark was built on (4.1 to 7 ms there).
pub const REFERENCE_NS: f64 = 4.5e6;

/// Words in the probe buffer (8 MiB).
const WORDS: usize = 1 << 20;
/// Read-modify-writes, then dependent loads, per probe.
const RMW_STEPS: u32 = 200_000;
const CHASE_STEPS: u32 = 20_000;

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time of the calling thread, in ns.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime: {}", std::io::Error::last_os_error());
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

thread_local! {
    static BUF: RefCell<Vec<u64>> = RefCell::new(vec![1; WORDS]);
}

/// The probe's work: xorshift-indexed read-modify-writes, which keep
/// several misses in flight, then a chain of dependent loads, which waits
/// out one miss at a time.
fn walk(buf: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mask = buf.len() - 1;
    for _ in 0..RMW_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        buf[i] = buf[i].wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(x);
    }
    for _ in 0..CHASE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x ^ buf[x as usize & mask]) as usize & mask;
        x = x.wrapping_add(buf[i] | 1);
    }
    x
}

/// Run the probe once on the calling thread; its slowness.
fn probe_here() -> f64 {
    BUF.with(|b| {
        let mut buf = b.borrow_mut();
        let t0 = thread_cpu_ns();
        std::hint::black_box(walk(&mut buf));
        (thread_cpu_ns() - t0) as f64 / REFERENCE_NS
    })
}

/// The host's slowness now: the probe on the application core, then on
/// the offload core, averaged. Call from the application thread.
pub fn slowness() -> f64 {
    let app = probe_here();
    let offload = on_core(Core::Offload, probe_here);
    (app + offload) / 2.0
}

/// Page the probe buffer in and run the probe, untimed. Call once before
/// timing anything.
pub fn warm() {
    slowness();
}

/// Slowness over a window: the mean of the probes at its two ends.
pub fn between(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_fixed_work_with_a_positive_time() {
        let mut a = vec![1u64; 1 << 12];
        let mut b = vec![1u64; 1 << 12];
        assert_eq!(walk(&mut a), walk(&mut b));
        assert_eq!(a, b);
        assert_ne!(a, vec![1u64; 1 << 12]);
        warm();
        let s = slowness();
        assert!(s.is_finite() && s > 0.0, "{s}");
        assert_eq!(between(1.0, 2.0), 1.5);
    }
}
