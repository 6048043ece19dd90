//! Multiple Cowbird instances on one offload engine (paper §5.4).
//!
//! Three application threads, each with its own per-thread channel, share a
//! single Cowbird-Spot engine core and a single memory pool — the
//! "multiple compute/memory node pairs" scenario. The engine multiplexes
//! the channels (the paper's switch uses round-robin TDM; the spot engine's
//! one worker makes a non-blocking pass per channel per sweep) while each
//! thread sees an isolated remote-memory API.
//!
//! Run with: `cargo run --release --example multi_tenant`

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use rdma::emu::EmuFabric;
use rdma::mem::Region;

const TENANTS: usize = 3;
const OPS_PER_TENANT: u64 = 2_000;

fn main() {
    let mut fabric = EmuFabric::new();
    let compute_nic = fabric.add_nic();
    let pool_nic = fabric.add_nic();

    // One shared pool; each tenant gets a disjoint 4 MiB slice registered
    // as its own region id.
    let pool_mem = Region::new(TENANTS * (4 << 20));
    let pool_rkey = pool_nic.register(pool_mem.clone());

    let engine = EngineGroup::spawn(GroupConfig::with_workers(1));
    let mut channels = Vec::new();
    for t in 0..TENANTS {
        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey: pool_rkey,
                base: (t * (4 << 20)) as u64,
                size: 4 << 20,
            },
        );
        let layout = ChannelLayout::default_sizes();
        let mut channel = Channel::new(t as u16, layout, regions.clone());
        channel.set_doorbell(engine.doorbell());
        let channel_rkey = compute_nic.register(channel.region().clone());

        // One engine NIC per instance on the shared fabric (a real switch
        // would multiplex QPs on one device; the spot model is per-channel).
        let engine_nic = fabric.add_nic();
        let (eng_c, _) = fabric.connect(&engine_nic, &compute_nic);
        let (eng_p, _) = fabric.connect(&engine_nic, &pool_nic);
        engine.add_channel(
            SpotWiring {
                nic: engine_nic,
                compute_qpn: eng_c,
                pool_qpn: eng_p,
                channel_rkey,
            },
            EngineConfig::spot(layout, regions, 16).with_channel_id(t as u16),
        );
        channels.push(channel);
    }

    // Each tenant thread hammers its own region; tenants must never observe
    // each other's data.
    let handles: Vec<_> = channels
        .into_iter()
        .enumerate()
        .map(|(t, mut ch)| {
            std::thread::spawn(move || {
                let marker = (t as u8 + 1) * 0x11;
                for i in 0..OPS_PER_TENANT {
                    let off = (i % 1024) * 64;
                    let w = ch.async_write(1, off, &[marker; 64]).expect("write issues");
                    assert!(ch.wait(w, u64::MAX));
                    let h = ch.async_read(1, off, 64).expect("read issues");
                    assert!(ch.wait(h.id, u64::MAX));
                    let data = ch.take_response(&h).unwrap();
                    assert!(
                        data.iter().all(|&b| b == marker),
                        "tenant {t} observed foreign bytes: {:?}",
                        &data[..8]
                    );
                }
                (t, ch.stats)
            })
        })
        .collect();

    for h in handles {
        let (t, stats) = h.join().expect("tenant thread");
        println!(
            "tenant {t}: {} writes + {} reads completed, isolation verified",
            stats.writes_issued, stats.reads_issued
        );
    }

    // Ground truth: the pool holds each tenant's marker in its slice.
    for t in 0..TENANTS {
        let base = (t * (4 << 20)) as u64;
        let marker = (t as u8 + 1) * 0x11;
        assert!(pool_mem
            .read_vec(base, 64)
            .unwrap()
            .iter()
            .all(|&b| b == marker));
    }
    println!("pool slices hold the right data; {TENANTS} tenants served by shared infrastructure");

    let finished = engine.stop();
    assert_eq!(finished.len(), TENANTS);
    for f in finished {
        assert_eq!(f.stats.reads_executed, OPS_PER_TENANT);
        assert_eq!(f.stats.writes_executed, OPS_PER_TENANT);
    }
}
