//! Criterion micro-benchmarks of the hot paths the paper's argument rests
//! on: the Cowbird client issue/poll path (which must be a few tens of
//! nanoseconds for the whole design to make sense), the request-id and wire
//! codecs, ring reservation, and the workload generators.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cowbird::channel::Channel;
use cowbird::layout::{ChannelLayout, RED_META_HEAD, RED_READ_PROGRESS, RED_WRITE_PROGRESS};
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird::reqid::{OpType, ReqId};
use rdma::mem::Region;
use rdma::wire::RocePacket;
use rdma::BufArena;
use simnet::rng::Rng;
use workloads::zipf::ZipfSampler;

fn regions() -> RegionMap {
    let mut m = RegionMap::new();
    m.insert(
        1,
        RemoteRegion {
            rkey: 1,
            base: 0,
            size: 1 << 30,
        },
    );
    m
}

/// The headline number: a Cowbird `async_read` is a handful of local
/// stores. (Compare against Figure 2's ~350 ns RDMA post.)
fn bench_issue_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("client_issue");
    g.bench_function("async_read", |b| {
        b.iter_batched_ref(
            || Channel::new(0, ChannelLayout::default_sizes(), regions()),
            |ch| {
                // Issue as many as the ring holds; amortized per-op cost.
                for i in 0..1000u64 {
                    black_box(ch.async_read(1, i * 64, 64).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("async_write_64B", |b| {
        let payload = [7u8; 64];
        b.iter_batched_ref(
            || Channel::new(0, ChannelLayout::default_sizes(), regions()),
            |ch| {
                for i in 0..1000u64 {
                    black_box(ch.async_write(1, i * 64, &payload).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The poll path: a refresh is three acquire loads plus queue pops.
fn bench_poll_path(c: &mut Criterion) {
    let mut ch = Channel::new(0, ChannelLayout::default_sizes(), regions());
    let region = ch.region().clone();
    let h = ch.async_read(1, 0, 64).unwrap();
    region.store_u64(RED_META_HEAD, 1, std::sync::atomic::Ordering::Release);
    region.store_u64(RED_READ_PROGRESS, 1, std::sync::atomic::Ordering::Release);
    region.store_u64(RED_WRITE_PROGRESS, 0, std::sync::atomic::Ordering::Release);
    c.bench_function("client_poll/refresh_and_check", |b| {
        b.iter(|| {
            ch.refresh();
            black_box(h.id.completed_by(ch.progress(OpType::Read)))
        })
    });
}

fn bench_reqid(c: &mut Criterion) {
    c.bench_function("reqid/encode_decode", |b| {
        b.iter(|| {
            let id = ReqId::new(OpType::Write, black_box(17), black_box(123456));
            black_box((id.op(), id.channel(), id.seq(), id.completed_by(200000)))
        })
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let pkt = RocePacket::write_only(7, 42, 0x1000, 3, vec![0xAB; 256]);
    let arena = BufArena::new(4);
    let mut bytes = Vec::new();
    pkt.encode_into(&mut bytes);
    let mut g = c.benchmark_group("wire");
    g.bench_function("encode_write_256B", |b| {
        b.iter(|| {
            let mut frame = arena.take();
            pkt.encode_into(frame.vec_mut());
            black_box(frame)
        })
    });
    g.bench_function("parse_write_256B", |b| {
        b.iter(|| black_box(RocePacket::parse_pooled(&bytes, &arena).unwrap()))
    });
    g.finish();
}

/// Region block copy at an unaligned offset (a partial head and tail word
/// around the whole-word body), against a plain `memcpy` of the same size.
fn bench_region_copy(c: &mut Criterion) {
    let region = Region::new(1 << 16);
    let mut g = c.benchmark_group("region");
    for len in [64usize, 4096] {
        let src = vec![0x5Au8; len];
        let mut dst = vec![0u8; len];
        g.bench_function(&format!("read_{len}B"), |b| {
            b.iter(|| region.read(black_box(4099), &mut dst).unwrap())
        });
        g.bench_function(&format!("write_{len}B"), |b| {
            b.iter(|| region.write(black_box(4099), &src).unwrap())
        });
        g.bench_function(&format!("memcpy_{len}B"), |b| {
            b.iter(|| dst.copy_from_slice(black_box(&src)))
        });
    }
    g.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let z = ZipfSampler::new(250_000_000, 0.99);
    let mut rng = Rng::new(1);
    c.bench_function("zipf/sample_250M", |b| {
        b.iter(|| black_box(z.sample_scrambled(&mut rng)))
    });
}

fn bench_kvstore(c: &mut Criterion) {
    use kvstore::{FasterKv, LocalMemoryDevice, StoreConfig};
    let kv = FasterKv::new(
        StoreConfig {
            memory_per_shard: 8 << 20,
            ..Default::default()
        },
        vec![LocalMemoryDevice::new()],
    );
    for k in 0..100_000u64 {
        kv.upsert(k, &k.to_le_bytes());
    }
    let mut rng = Rng::new(2);
    let mut g = c.benchmark_group("kvstore");
    g.bench_function("read_hot", |b| {
        b.iter(|| {
            let k = rng.next_below(100_000);
            black_box(kv.read(black_box(k)))
        })
    });
    g.bench_function("upsert_64B", |b| {
        let v = [9u8; 64];
        b.iter(|| {
            let k = rng.next_below(100_000);
            kv.upsert(black_box(k), &v)
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_issue_path, bench_poll_path, bench_reqid, bench_wire_codec, bench_region_copy, bench_zipf, bench_kvstore
);
criterion_main!(benches);
