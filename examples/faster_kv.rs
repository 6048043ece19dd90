//! The paper's §7 case study, runnable: a FASTER-style KV store whose cold
//! log lives in remote memory behind Cowbird.
//!
//! Loads a keyspace far larger than the store's in-memory window, runs a
//! YCSB-style read-heavy workload, and reports hit/miss behaviour plus the
//! engine-side statistics — demonstrating that the hybrid log spills to
//! remote memory and reads back through the offload engine, with the
//! application thread never posting a verb.
//!
//! Run with: `cargo run --release --example faster_kv`

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use kvstore::{CowbirdDevice, FasterKv, ReadResult, StoreConfig};
use rdma::emu::EmuFabric;
use rdma::mem::Region;
use simnet::rng::Rng;
use workloads::zipf::ZipfSampler;

const KEYS: u64 = 80_000;
const VALUE_SIZE: usize = 64;
const OPS: u64 = 150_000;

fn main() {
    // --- Deploy the Cowbird substrate (one channel; one store shard). ---
    let mut fabric = EmuFabric::new();
    let compute_nic = fabric.add_nic();
    let engine_nic = fabric.add_nic();
    let pool_nic = fabric.add_nic();

    // Remote memory sized for the whole log address space.
    let pool_span: u64 = 64 << 20;
    let pool_mem = Region::new(pool_span as usize);
    let pool_rkey = pool_nic.register(pool_mem);
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: pool_span,
        },
    );

    let layout = ChannelLayout::default_sizes();
    let mut channel = Channel::new(0, layout, regions.clone());
    let channel_rkey = compute_nic.register(channel.region().clone());
    let (eng_c, _) = fabric.connect(&engine_nic, &compute_nic);
    let (eng_p, _) = fabric.connect(&engine_nic, &pool_nic);
    let engine = EngineGroup::spawn(GroupConfig::with_workers(1));
    channel.set_doorbell(engine.doorbell());
    engine.add_channel(
        SpotWiring {
            nic: engine_nic,
            compute_qpn: eng_c,
            pool_qpn: eng_p,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 32),
    );

    // --- The store: a small in-memory window forces storage traffic. ---
    let device = CowbirdDevice::new(channel, 1);
    let kv = FasterKv::new(
        StoreConfig {
            memory_per_shard: 1 << 20, // 1 MiB window vs ~7 MiB of data
            mutable_fraction: 0.25,
            index_slots: 1 << 17,
            max_value_bytes: VALUE_SIZE as u32,
            remote_index: None,
        },
        vec![device],
    );

    // Load phase.
    let t0 = std::time::Instant::now();
    let mut value = [0u8; VALUE_SIZE];
    for k in 0..KEYS {
        value[..8].copy_from_slice(&k.to_le_bytes());
        kv.upsert(k, &value);
    }
    let (flushed, evictions) = kv.log_stats();
    println!(
        "loaded {KEYS} keys x {VALUE_SIZE} B in {:.2}s; hybrid log flushed {:.1} MiB over Cowbird in {evictions} evictions",
        t0.elapsed().as_secs_f64(),
        flushed as f64 / (1 << 20) as f64
    );

    // YCSB-C-style read phase, Zipfian 0.99 — pipelined: storage misses
    // stay in flight while the thread keeps issuing (the asynchronous
    // pattern Cowbird exists for; blocking per miss would serialize on the
    // engine round trip).
    let zipf = ZipfSampler::new(KEYS, 0.99);
    let mut rng = Rng::new(7);
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut inflight = std::collections::HashMap::new();
    let mut issued = 0u64;
    let mut completed = 0u64;
    let t1 = std::time::Instant::now();
    while completed < OPS {
        while inflight.len() < 32 && issued < OPS {
            let key = zipf.sample_scrambled(&mut rng);
            issued += 1;
            match kv.read(key) {
                ReadResult::Found(v) => {
                    debug_assert_eq!(&v[..8], &key.to_le_bytes());
                    hits += 1;
                    completed += 1;
                }
                ReadResult::Pending(pid) => {
                    inflight.insert(pid, key);
                }
                ReadResult::NotFound => panic!("lost key {key}"),
            }
        }
        if inflight.is_empty() {
            continue;
        }
        let done = kv.poll(0);
        if done.is_empty() {
            std::thread::yield_now();
        }
        for (pid, v) in done {
            let key = inflight.remove(&pid).expect("known pending");
            let v = v.expect("key must exist");
            debug_assert_eq!(&v[..8], &key.to_le_bytes());
            misses += 1;
            completed += 1;
        }
    }
    let dt = t1.elapsed().as_secs_f64();
    println!(
        "ran {OPS} zipfian reads in {dt:.2}s ({:.0} kops/s): {hits} memory hits, {misses} remote misses ({:.1}% storage-serviced)",
        OPS as f64 / dt / 1e3,
        misses as f64 / OPS as f64 * 100.0
    );

    let stats = engine.stop()[0].stats;
    println!(
        "engine: {} pool reads, {} pool writes, {} response batches, {:.1} MiB to compute",
        stats.pool_reads,
        stats.pool_writes,
        stats.batches_flushed,
        stats.bytes_to_compute as f64 / (1 << 20) as f64
    );
    assert!(misses > 0, "workload must exercise remote memory");
}
