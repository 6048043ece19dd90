//! The FASTER-style store against a `HashMap` oracle, under eviction
//! pressure, over both a local device and the full Cowbird stack.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use kvstore::{CowbirdDevice, Device, FasterKv, LocalMemoryDevice, RemoteIndex, StoreConfig};
use proptest::prelude::*;
use rdma::emu::{EmuFabric, EmuNic};
use rdma::mem::Region;
use simnet::rng::Rng;

fn tiny_cfg() -> StoreConfig {
    StoreConfig {
        memory_per_shard: 8 << 10, // 8 KiB window: constant eviction
        mutable_fraction: 0.25,
        index_slots: 1 << 10,
        max_value_bytes: 64,
        remote_index: None,
    }
}

#[derive(Clone, Debug)]
enum KvOp {
    Upsert { key: u8, val: u8, len: u8 },
    Read { key: u8 },
}

fn arb_kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..64).prop_map(|(key, val, len)| KvOp::Upsert {
            key,
            val,
            len
        }),
        any::<u8>().prop_map(|key| KvOp::Read { key }),
    ]
}

fn run_against_oracle<D: Device>(kv: &FasterKv<D>, ops: &[KvOp]) {
    let mut oracle: HashMap<u64, Vec<u8>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            KvOp::Upsert { key, val, len } => {
                let v = vec![val; len as usize];
                kv.upsert(key as u64, &v);
                oracle.insert(key as u64, v);
            }
            KvOp::Read { key } => {
                let got = kv.read_blocking(key as u64);
                assert_eq!(got.as_ref(), oracle.get(&(key as u64)), "op {i}: key {key}");
            }
        }
    }
    // Full verification at the end.
    for (k, v) in &oracle {
        assert_eq!(kv.read_blocking(*k).as_ref(), Some(v), "final key {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_hashmap_oracle_under_eviction(
        ops in proptest::collection::vec(arb_kv_op(), 1..300),
    ) {
        let kv = FasterKv::new(tiny_cfg(), vec![LocalMemoryDevice::new()]);
        run_against_oracle(&kv, &ops);
    }

    #[test]
    fn sharded_store_matches_oracle(
        ops in proptest::collection::vec(arb_kv_op(), 1..200),
    ) {
        let kv = FasterKv::new(
            tiny_cfg(),
            (0..3).map(|_| LocalMemoryDevice::new()).collect(),
        );
        run_against_oracle(&kv, &ops);
    }
}

/// A one-worker engine group serving one Cowbird channel over `pool`, a
/// NIC on `fabric` with `pool_bytes` registered, and the store on top of
/// it. The group and fabric must outlive the store. Also returns the
/// channel's engine-side wiring.
fn store_over_cowbird(
    mut fabric: EmuFabric,
    pool: EmuNic,
    pool_bytes: usize,
    cfg: StoreConfig,
) -> (EngineGroup, EmuFabric, FasterKv<CowbirdDevice>, SpotWiring) {
    let compute = fabric.add_nic();
    let engine = fabric.add_nic();
    let pool_rkey = pool.register(Region::new(pool_bytes));
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: pool_bytes as u64,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let mut channel = Channel::new(0, layout, regions.clone());
    let group = EngineGroup::spawn(GroupConfig::with_workers(1));
    channel.set_doorbell(group.doorbell());
    let channel_rkey = compute.register(channel.region().clone());
    let (eng_c, _) = fabric.connect(&engine, &compute);
    let (eng_p, _) = fabric.connect(&engine, &pool);
    let wiring = SpotWiring {
        nic: engine,
        compute_qpn: eng_c,
        pool_qpn: eng_p,
        channel_rkey,
    };
    group.add_channel(wiring.clone(), EngineConfig::spot(layout, regions, 16));
    let kv = FasterKv::new(cfg, vec![CowbirdDevice::new(channel, 1)]);
    (group, fabric, kv, wiring)
}

/// The same oracle discipline over the full emulated Cowbird stack: the
/// store's device reads/writes travel through the offload engine.
#[test]
fn store_over_cowbird_matches_oracle() {
    let mut fabric = EmuFabric::new();
    let pool = fabric.add_nic();
    let (_group, _fabric, kv, _) = store_over_cowbird(fabric, pool, 8 << 20, tiny_cfg());
    // A deterministic random workload (proptest would spin up a fabric per
    // case; one long deterministic run covers the same ground).
    let mut rng = Rng::new(99);
    let mut ops = Vec::new();
    for _ in 0..800 {
        if rng.chance(0.6) {
            ops.push(KvOp::Upsert {
                key: rng.next_below(64) as u8,
                val: rng.next_below(256) as u8,
                len: rng.next_below(64) as u8,
            });
        } else {
            ops.push(KvOp::Read {
                key: rng.next_below(64) as u8,
            });
        }
    }
    run_against_oracle(&kv, &ops);
}

/// An unpaced bulk load with the remote index: evicting a window sends
/// thousands of log and index-mirror writes to the channel back to back,
/// and a write completes to the client when the engine queues it, so the
/// engine's pool queue pair can fill past its send-queue bound. The pool
/// NIC here serves nothing until that queue pair is full, holds it full
/// for 100 ms while the load offers more, then serves every millisecond:
/// the engine must hold the excess until acknowledgments free room, not
/// fail the post. The load runs on its own
/// thread under a watchdog, so an engine that dies mid-load fails the test
/// instead of hanging it.
#[test]
fn unpaced_bulk_load_with_remote_index_completes() {
    const WINDOW: u64 = 256 << 10;
    // A queue pair's send-queue bound (`rdma::qp::Qp`'s default).
    const SEND_QUEUE_DEPTH: usize = 1024;
    // Eight in-memory windows of 64-byte records over a sparse index.
    let keys = 8 * WINDOW / kvstore::record::Record::footprint(64);
    let cfg = StoreConfig {
        memory_per_shard: WINDOW,
        mutable_fraction: 0.25,
        index_slots: 1 << 17,
        max_value_bytes: 64,
        remote_index: Some(RemoteIndex {
            base: 60 << 20,
            chase: true,
        }),
    };
    let mut fabric = EmuFabric::new();
    let (pool, mut service) = fabric.add_nic_unthreaded();
    let (group, fabric, kv, wiring) = store_over_cowbird(fabric, pool, 64 << 20, cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let outstanding = || {
                let qpn = wiring.pool_qpn;
                wiring
                    .nic
                    .with_nic(|n| n.qp(qpn).expect("pool QP").outstanding())
            };
            while !stop.load(Ordering::Acquire) && outstanding() < SEND_QUEUE_DEPTH {
                std::thread::yield_now();
            }
            // Hold the full queue long enough for the load to offer more.
            std::thread::sleep(Duration::from_millis(100));
            while !stop.load(Ordering::Acquire) {
                service.serve_queued();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let load = std::thread::spawn(move || {
        let _engine = (group, fabric);
        for key in 0..keys {
            kv.upsert(key, &[key as u8; 64]);
        }
        for key in (0..keys).step_by(97) {
            assert_eq!(
                kv.read_blocking(key),
                Some(vec![key as u8; 64]),
                "key {key}"
            );
        }
        tx.send(()).unwrap();
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60));
    stop.store(true, Ordering::Release);
    pump.join().expect("pool pump thread");
    match outcome {
        Ok(()) => load.join().expect("bulk load thread"),
        Err(RecvTimeoutError::Timeout) => {
            panic!("bulk load stalled: the engine stopped serving the channel")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(load.join().expect_err("the load thread panicked"))
        }
    }
}
