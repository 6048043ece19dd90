//! Quickstart: remote memory through purely local operations.
//!
//! Sets up the full Cowbird system on the in-process emulated RDMA fabric —
//! a compute node, a memory pool, and a Cowbird-Spot offload engine running
//! on its own thread — then reads and writes remote memory from the
//! application thread using nothing but `async_read` / `async_write` /
//! `poll_wait_timeout`. No RDMA verb is ever posted by this thread; the engine
//! does all of it.
//!
//! Run with: `cargo run --release --example quickstart`

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::poll::PollGroup;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use rdma::emu::EmuFabric;
use rdma::mem::Region;

fn main() {
    // ------------------------------------------------------------------
    // Setup phase (paper §5.2 Phase I): fabric, NICs, memory, QPs.
    // ------------------------------------------------------------------
    let mut fabric = EmuFabric::new();
    let compute_nic = fabric.add_nic();
    let engine_nic = fabric.add_nic();
    let pool_nic = fabric.add_nic();

    // The memory pool exposes 16 MiB of remote memory.
    let pool_mem = Region::new(16 << 20);
    let pool_rkey = pool_nic.register(pool_mem.clone());

    // The application registers that remote region as region id 1.
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: 16 << 20,
        },
    );

    // One channel = one application thread's rings, registered with the
    // compute NIC so the engine can reach them.
    let layout = ChannelLayout::default_sizes();
    let mut channel = Channel::new(0, layout, regions.clone());
    let channel_rkey = compute_nic.register(channel.region().clone());

    // Wire the engine to both sides and start its worker thread.
    let (eng_to_compute, _) = fabric.connect(&engine_nic, &compute_nic);
    let (eng_to_pool, _) = fabric.connect(&engine_nic, &pool_nic);
    let engine = EngineGroup::spawn(GroupConfig::with_workers(1));
    channel.set_doorbell(engine.doorbell());
    engine.add_channel(
        SpotWiring {
            nic: engine_nic,
            compute_qpn: eng_to_compute,
            pool_qpn: eng_to_pool,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 16),
    );

    // ------------------------------------------------------------------
    // The application: local operations only from here on.
    // ------------------------------------------------------------------

    // Write a greeting to remote offset 4096.
    let w = channel
        .async_write(1, 4096, b"hello, disaggregated world!")
        .expect("issue write");
    assert!(channel.wait(w, u64::MAX), "write completes");
    println!("wrote 27 bytes to remote offset 4096 (request {w:?})");

    // Read it back asynchronously, tracking completion with a poll group.
    let mut group = PollGroup::new();
    let h = channel.async_read(1, 4096, 27).expect("issue read");
    group.add(h.id);
    let done = group
        .poll_wait_timeout(&mut channel, 1, u64::MAX)
        .expect("engine alive");
    assert_eq!(done, vec![h.id]);
    let data = channel.take_response(&h).expect("take response");
    println!("read back: {:?}", String::from_utf8_lossy(&data));

    // Verify against the pool's ground truth.
    assert_eq!(pool_mem.read_vec(4096, 27).unwrap(), data);

    // Pipeline a burst of reads — the asynchronous pattern that lets the
    // CPU compute while the engine moves data.
    for i in 0..64u64 {
        pool_mem
            .write(64 * 1024 + i * 8, &(i * i).to_le_bytes())
            .unwrap();
    }
    let mut handles = Vec::new();
    for i in 0..64u64 {
        let h = channel.async_read(1, 64 * 1024 + i * 8, 8).expect("issue");
        group.add(h.id);
        handles.push(h);
    }
    let mut completed = 0;
    while completed < 64 {
        completed += group
            .poll_wait_timeout(&mut channel, 64, u64::MAX)
            .expect("engine alive")
            .len();
    }
    for (i, h) in handles.iter().enumerate() {
        let v = channel.take_response(h).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), (i * i) as u64);
    }
    println!("pipelined 64 reads; all correct");

    let stats = engine.stop()[0].stats;
    println!(
        "engine: {} probes ({} found work), {} pool reads, {} batched flushes, {} bytes to compute",
        stats.probes_sent,
        stats.probes_found_work,
        stats.pool_reads,
        stats.batches_flushed,
        stats.bytes_to_compute
    );
    println!(
        "client: {} reads, {} writes, {} polls, 0 RDMA verbs posted by this thread",
        channel.stats.reads_issued, channel.stats.writes_issued, channel.stats.polls
    );
}
