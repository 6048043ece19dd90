//! Thread placement: an application core and an offload core.
//!
//! Left to the scheduler, five busy threads on two CPUs settle into a
//! different arrangement each run, and emu throughput swings by almost 2x
//! between runs. The benchmark therefore pins every thread. The
//! application core runs the application thread with the compute NIC and
//! the pool NIC; the offload core runs the engine worker with the engine's
//! NIC, the offload side of the paper's deployment. The worker spins while
//! ops are in flight, so the NIC threads that wake on every packet sit
//! with the application thread, which yields. A thread inherits the CPU
//! mask of the thread that spawns it, so the application thread moves to
//! the target core while a deployment spawns a thread and moves back
//! afterwards.

use std::os::raw::{c_int, c_ulong};
use std::sync::OnceLock;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
}

/// `(application core, offload core)`, or `None` with fewer than two CPUs.
static CORES: OnceLock<Option<(usize, usize)>> = OnceLock::new();

/// CPUs the calling thread may run on (the first 64).
fn allowed() -> Vec<usize> {
    let mut mask: c_ulong = 0;
    // SAFETY: `mask` is a valid, writable buffer of exactly `cpusetsize`
    // bytes, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<c_ulong>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..c_ulong::BITS as usize)
        .filter(|c| mask >> c & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpu`.
fn pin_current(cpu: usize) {
    let mask: c_ulong = 1 << cpu;
    // SAFETY: `mask` is a valid buffer of exactly `cpusetsize` bytes that
    // the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<c_ulong>(), &mask) };
    assert_eq!(
        rc,
        0,
        "pin to CPU {cpu}: {}",
        std::io::Error::last_os_error()
    );
}

/// Pin the calling thread, the application thread, to the application
/// core. Call once, before any deployment. Returns the layout.
pub fn init() -> Option<(usize, usize)> {
    *CORES.get_or_init(|| {
        let cpus = allowed();
        let cores = (cpus.len() >= 2).then(|| (cpus[0], cpus[1]));
        if let Some((app, _)) = cores {
            pin_current(app);
        }
        cores
    })
}

/// The two cores of the layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Core {
    App,
    Offload,
}

/// Run `spawn` on `core`, so every thread it starts runs there, then
/// return the calling thread to the application core.
pub fn on_core<R>(core: Core, spawn: impl FnOnce() -> R) -> R {
    let cores = init();
    if let (Some((_, offload)), Core::Offload) = (cores, core) {
        pin_current(offload);
    }
    let r = spawn();
    if let (Some((app, _)), Core::Offload) = (cores, core) {
        pin_current(app);
    }
    r
}
