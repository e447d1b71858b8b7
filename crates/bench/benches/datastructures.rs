//! Criterion microbenchmarks of the core data structures and application
//! kernels: how fast is the *simulator itself* and the functional logic it
//! executes.

use std::rc::Rc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lynx_apps::aes::Aes128;
use lynx_apps::kv::KvStore;
use lynx_apps::lbp::{self, FaceDb};
use lynx_apps::nn::{avg_pool2, conv2d, dense, tanh, DigitGenerator, LeNet, Tensor};
use lynx_core::{Mqueue, MqueueConfig, MqueueKind, ReturnAddr};
use lynx_fabric::{MemRegion, NodeId};
use lynx_sim::{Histogram, Sim};

fn bench_sim_events(c: &mut Criterion) {
    c.bench_function("sim/schedule+run 10k events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            for i in 0..10_000u64 {
                sim.schedule_in(Duration::from_nanos(i), |_| {});
            }
            sim.run();
            black_box(sim.executed())
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record 10k + percentiles", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            for i in 0..10_000u64 {
                h.record(Duration::from_nanos(i * 37 % 1_000_000));
            }
            black_box((h.percentile(50.0), h.percentile(99.0)))
        })
    });
}

fn bench_mqueue(c: &mut Criterion) {
    c.bench_function("mqueue/push-pop roundtrip", |b| {
        let cfg = MqueueConfig {
            slots: 64,
            slot_size: 256,
            ..MqueueConfig::default()
        };
        let mem = MemRegion::new(NodeId::host(), cfg.required_bytes(), "bench");
        let mq = Mqueue::new(MqueueKind::Server, mem, 0, cfg);
        let mut sim = Sim::new(0);
        let payload = [0xAB; 64];
        b.iter(|| {
            let seq = mq.try_reserve(ReturnAddr::Fixed).expect("free slot");
            let slot = mq.encode_slot(seq, &payload);
            mq.mem().write(mq.rx_slot_offset(seq), &slot);
            let (s, data) = mq.acc_pop_request().expect("pending request");
            mq.acc_push_response(&mut sim, s, &data);
            let (s2, _, _) = mq.begin_pull().expect("pending response");
            mq.complete_n(s2, 1, drop);
            black_box(s2)
        })
    });
}

fn bench_kv(c: &mut Criterion) {
    c.bench_function("kv/get hot key", |b| {
        let mut kv = KvStore::new(1 << 20);
        for i in 0..1000u32 {
            kv.set(i.to_le_bytes().to_vec(), vec![0; 64]);
        }
        b.iter(|| black_box(kv.get(&7u32.to_le_bytes())).is_some())
    });
    c.bench_function("kv/set with eviction", |b| {
        let mut kv = KvStore::new(64 << 10);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            kv.set(i.to_le_bytes().to_vec(), vec![0; 64]);
            black_box(kv.len())
        })
    });
}

/// `n` deterministic weights in `±1/√fan_in`, LeNet's init range.
fn weights(n: usize, fan_in: usize) -> Vec<f32> {
    let scale = (1.0 / fan_in as f32).sqrt();
    (0..n)
        .map(|i| ((i * 7919 % 1000) as f32 / 500.0 - 1.0) * scale)
        .collect()
}

fn bench_lenet(c: &mut Criterion) {
    let img = DigitGenerator::new(0).image(5);
    c.bench_function("nn/lenet forward pass", |b| {
        let net = LeNet::new(0);
        b.iter(|| black_box(net.classify(&img)))
    });
    // LeNet's three costliest layers at its shapes, through the public
    // wrappers, so a per-layer regression shows up on its own.
    let input = Tensor::from_vec(1, 28, 28, img.iter().map(|&p| p as f32 / 255.0).collect());
    let (w1, b1) = (weights(6 * 25, 25), weights(6, 25));
    c.bench_function("nn/conv2d lenet-conv1", |b| {
        b.iter(|| black_box(conv2d(&input, &w1, &b1, 6, 5, 2)))
    });
    let p1 = avg_pool2(&tanh(&conv2d(&input, &w1, &b1, 6, 5, 2)));
    let (w2, b2) = (weights(16 * 150, 150), weights(16, 150));
    c.bench_function("nn/conv2d lenet-conv2", |b| {
        b.iter(|| black_box(conv2d(&p1, &w2, &b2, 16, 5, 0)))
    });
    let p2 = avg_pool2(&tanh(&conv2d(&p1, &w2, &b2, 16, 5, 0)));
    let (w3, b3) = (weights(120 * 400, 400), weights(120, 400));
    c.bench_function("nn/dense lenet-fc1", |b| {
        b.iter(|| black_box(dense(&p2, &w3, &b3, 120)))
    });
}

fn bench_lbp(c: &mut Criterion) {
    c.bench_function("lbp/verify 32x32 pair", |b| {
        let db = FaceDb::new();
        let label = FaceDb::label(1);
        let probe = db.probe(&label, 3);
        let reference = db.face(&label);
        b.iter(|| black_box(lbp::verify(&probe, &reference)))
    });
}

fn bench_aes(c: &mut Criterion) {
    c.bench_function("aes/encrypt block", |b| {
        let aes = Aes128::new([7; 16]);
        let block = [0x42; 16];
        b.iter(|| black_box(aes.encrypt_block(block)))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    c.bench_function("sim/full echo testbed 10ms", |b| {
        use lynx_bench::{client_stack, echo_rig, Design};
        use lynx_core::SnicPlatform;
        use lynx_workload::{run_measured, ClosedLoopClient, RunSpec};
        b.iter(|| {
            let mut rig = echo_rig(
                Design::Lynx(SnicPlatform::Bluefield),
                Duration::from_micros(20),
                4,
            );
            let client = ClosedLoopClient::new(
                client_stack(&rig.net, "c", 2),
                rig.addr,
                8,
                Rc::new(|_| vec![0; 64]),
            );
            let spec = RunSpec {
                warmup: Duration::from_millis(2),
                measure: Duration::from_millis(10),
            };
            black_box(run_measured(&mut rig.sim, &[&client], spec).received)
        })
    });
}

criterion_group!(
    benches,
    bench_sim_events,
    bench_histogram,
    bench_mqueue,
    bench_kv,
    bench_lenet,
    bench_lbp,
    bench_aes,
    bench_end_to_end
);
criterion_main!(benches);
