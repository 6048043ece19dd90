//! The idle ladder is genuinely idle — measured with a counting allocator.
//!
//! A polling group whose shard has gone quiet must converge to *parked*,
//! not merely "spinning politely": over a verified-quiet window the whole
//! process performs **zero heap allocations** and the shard records **zero
//! busy-spin iterations** (and zero sweeps — the worker never woke at
//! all). A client post then bumps the channel's doorbell word and rings
//! the group doorbell, and the parked worker completes the request orders
//! of magnitude faster than the park timeout or the backed-off probe
//! interval — proving it was the doorbell, not a timer, that woke it.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so
//! this file holds exactly one test: the quiet window is only meaningful
//! while no sibling test thread is allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::{EngineConfig, EngineGroup, GroupConfig, SpotWiring};
use rdma::emu::EmuFabric;
use rdma::mem::Region;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn idle_shard_allocates_nothing_and_spins_never_until_doorbell() {
    // One worker, one channel. Long park bound; adaptive probing ramps the
    // idle channel from a 2 ms active rate toward a 30 s baseline, so once
    // quiescent the worker's next timer wake is far beyond the window.
    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let pool = fabric.add_nic();
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
    let group = EngineGroup::spawn(GroupConfig {
        park_timeout: Duration::from_secs(30),
        ..GroupConfig::with_workers(1)
    });
    let mut ch = Channel::new(0, layout, regions.clone());
    ch.set_doorbell(group.doorbell());
    let channel_rkey = compute.register(ch.region().clone());
    let engine = fabric.add_nic();
    let (c_qpn, _) = fabric.connect(&engine, &compute);
    let (p_qpn, _) = fabric.connect(&engine, &pool);
    group.add_channel(
        SpotWiring {
            nic: engine,
            compute_qpn: c_qpn,
            pool_qpn: p_qpn,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 16)
            .with_probe_interval(simnet::Duration::from_millis(2))
            .with_adaptive_probe(simnet::Duration::from_secs(30), 2),
    );

    // Warm up: one full round trip so rings, arena, and scratch paths have
    // all been touched before idleness is judged.
    pool_mem.write(512, b"steady-state").unwrap();
    let h = ch.async_read(1, 512, 12).unwrap();
    assert!(ch.wait(h.id, 30_000_000_000), "warm-up read must complete");
    assert_eq!(ch.take_response(&h).unwrap(), b"steady-state");

    // Find a verified-quiet window: worker parked at both edges, and over
    // the window zero sweeps, zero spins, zero heap allocations anywhere
    // in the process. The adaptive ramp guarantees such a window exists
    // once the probe interval exceeds the window length.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut quiet = false;
    while Instant::now() < deadline {
        if group.doorbell().parked() == 0 {
            std::thread::yield_now();
            continue;
        }
        let before = group.shard_snapshots().remove(0);
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(250));
        let allocs_after = ALLOCS.load(Ordering::Relaxed);
        let after = group.shard_snapshots().remove(0);
        if group.doorbell().parked() > 0
            && after.sweeps == before.sweeps
            && after.spins == before.spins
            && allocs_after == allocs_before
        {
            quiet = true;
            break;
        }
    }
    assert!(
        quiet,
        "an idle shard must reach a parked state with zero allocations and zero spins"
    );

    // Doorbell wake: the post rings through the channel and the parked
    // worker serves it immediately — far inside the 30 s park bound and
    // the backed-off probe interval, i.e. within one (active) poll
    // interval of the wake rather than one idle timer period.
    pool_mem.write(2048, b"rung!").unwrap();
    let wakes_before = group.shard_snapshots().remove(0).wakes;
    let t0 = Instant::now();
    let h = ch.async_read(1, 2048, 5).unwrap();
    assert!(
        ch.wait(h.id, 5_000_000_000),
        "doorbell must wake the worker"
    );
    assert_eq!(ch.take_response(&h).unwrap(), b"rung!");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "completion must beat every timer by orders of magnitude"
    );
    assert!(
        group.shard_snapshots().remove(0).wakes > wakes_before,
        "the wake must be attributed to the doorbell"
    );
    group.stop();
}
