//! `cowbird_top` — a live, `top`-style cycle-attribution view of a Cowbird
//! deployment on the emulated fabric.
//!
//! Runs a real-thread workload (compute client + Spot engine group + memory
//! pool), with every layer charging wall-clock nanoseconds into the
//! cycle-attribution profiler, then prints the ranked attribution table
//! (who burned which cycles, in which phase) and writes the Chrome-trace
//! counter tracks next to the flight dumps.
//!
//!     cargo run --example cowbird_top
//!
//! Open the written `.counters.json` in `chrome://tracing` or Perfetto to
//! see per-(node, component) cycle counters.

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::poll::PollGroup;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::group::{EngineGroup, GroupConfig};
use cowbird_engine::spot::SpotWiring;
use rdma::emu::EmuFabric;
use rdma::mem::Region;
use telemetry::{Component, Telemetry};

const OPS: u64 = 20_000;
const RECORD: u32 = 64;

fn main() {
    let hub = Telemetry::new(4096);

    // Deploy: compute NIC + pool NIC + engine NIC on one emulated fabric.
    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let pool = fabric.add_nic();
    let pool_mem = Region::new(8 << 20);
    let pool_rkey = pool.register(pool_mem.clone());
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: 8 << 20,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let mut ch = Channel::new(0, layout, regions.clone());
    ch.set_recorder(hub.recorder(0, "compute"));
    // Wall-clock profilers: the client library and the client's NIC verbs
    // charge node 0; the engine (and its verbs) charge node 1.
    ch.set_profiler(hub.profiler(0, "compute", Component::Client));
    compute.set_profiler(hub.profiler(0, "compute", Component::Nic));
    let channel_rkey = compute.register(ch.region().clone());
    let engine = fabric.add_nic();
    engine.set_profiler(hub.profiler(1, "engine", Component::Nic));
    let (eng_c, _) = fabric.connect(&engine, &compute);
    let (eng_p, _) = fabric.connect(&engine, &pool);
    let engine_group = EngineGroup::spawn(GroupConfig::with_workers(1));
    ch.set_doorbell(engine_group.doorbell());
    engine_group.add_channel(
        SpotWiring {
            nic: engine,
            compute_qpn: eng_c,
            pool_qpn: eng_p,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 16)
            .with_recorder(hub.recorder(1, "engine"))
            .with_profiler(hub.profiler(1, "engine", Component::Engine))
            .with_channel_id(0),
    );

    // Workload: seed the pool, then read it back with a pipelined poll
    // group — the steady-state shape of a disaggregated-memory client.
    println!("cowbird_top: running {OPS} reads over the emulated fabric...");
    for i in 0..128u64 {
        let w = ch
            .async_write(1, i * RECORD as u64, &i.to_le_bytes())
            .unwrap();
        assert!(ch.wait(w, u64::MAX));
    }
    let mut group = PollGroup::new();
    let mut outstanding = Vec::new();
    let mut done = 0u64;
    let mut issued = 0u64;
    // Live readback: the engine publishes a seqlock-stamped counter
    // snapshot into the channel's telemetry region; the client scrapes it
    // for free on its normal poll sweep. Print one line per quarter of the
    // run — a `top`-style view with zero extra verbs on the wire.
    let mut next_readback = OPS / 4;
    while done < OPS {
        if done >= next_readback {
            next_readback += OPS / 4;
            if let Some((seq, t)) = ch.engine_telemetry() {
                println!(
                    "  readback #{seq}: sweeps {} backlog {} reads {} \
                     chain posts {} (wrs {}) arena hit/miss {}/{} shard {} depth {}",
                    t.sweeps,
                    t.backlog,
                    t.reads_executed,
                    t.chain_posts,
                    t.chained_wrs,
                    t.arena_hits,
                    t.arena_misses,
                    t.shard_id,
                    t.shard_queue_depth,
                );
            }
        }
        while outstanding.len() < 16 && issued < OPS {
            match ch.async_read(1, (issued % 128) * RECORD as u64, 8) {
                Ok(h) => {
                    group.add(h.id);
                    outstanding.push(h);
                    issued += 1;
                }
                Err(e) if e.is_retryable() => break,
                Err(e) => panic!("issue failed: {e}"),
            }
        }
        for id in group
            .poll_wait_timeout(&mut ch, 16, u64::MAX)
            .expect("engine alive")
        {
            let pos = outstanding.iter().position(|h| h.id == id).unwrap();
            let h = outstanding.swap_remove(pos);
            ch.take_response(&h).unwrap();
            done += 1;
        }
    }
    let stats = engine_group.stop()[0].stats;
    assert_eq!(stats.reads_executed, OPS);

    // Final scraped snapshot vs. the engine's own account: the in-band
    // readback plane should agree with the stats the engine handed back.
    if let Some((seq, t)) = ch.engine_telemetry() {
        println!();
        println!(
            "final readback snapshot #{seq}: {} sweeps, {} reads executed \
             (engine says {}), {} red updates, {} scrapes",
            t.sweeps, t.reads_executed, stats.reads_executed, t.red_updates, ch.stats.telem_scrapes,
        );
    }

    // The top-style report: ranked (node, component, phase) rows with
    // per-op means and cumulative CPU share.
    let dump = hub.attribution();
    println!();
    print!("{}", dump.to_text());
    println!();
    println!(
        "client remote-memory cycle share: {:.1}% across {} charged phases",
        dump.remote_memory_frac(0) * 100.0,
        dump.rows.len(),
    );
    match hub.write_attribution("cowbird_top") {
        Ok(path) => {
            println!("attribution table: {}", path.display());
            println!(
                "chrome counter track: {}",
                path.with_extension("")
                    .with_extension("counters.json")
                    .display()
            );
        }
        Err(e) => eprintln!("attribution write failed: {e}"),
    }
}
