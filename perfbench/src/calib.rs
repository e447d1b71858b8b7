//! The host-speed reference: host-time metrics are scaled to a host of
//! fixed speed.
//!
//! On a shared VM the host's speed drifts by tens of percent over minutes,
//! so a run's host times depend on when it ran more than on the program.
//! A fixed loop of the benchmark's own (hash-map updates, small
//! allocations, float multiply-adds, none of it the program's code) is
//! timed right before each timed piece of work, and that work's host time
//! is scaled by `NOMINAL_S / reference time`. A faster or slower program
//! moves the scaled times as much as the raw ones; a faster or slower host
//! moves the reference loop too, and cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Host time of one reference pass on the reference host (a shared 2-vCPU
/// VM took 3.9 to 9.4 ms).
pub const NOMINAL_S: f64 = 0.005;

/// Host seconds of one pass of the reference loop.
fn reference_s() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 14);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x & 0xFFFF).or_insert(0) += i;
        acc = acc.wrapping_add(map.get(&(x >> 48)).copied().unwrap_or(0));
        if i % 64 == 0 {
            black_box(vec![0u8; (x & 1023) as usize + 64]);
        }
    }
    let v: Vec<f32> = (0..4096).map(|i| i as f32 * 0.5).collect();
    let mut f = 0f32;
    for r in 0..120 {
        for j in 0..4096 {
            f += v[j] * v[(j + r) & 4095];
        }
    }
    black_box(acc);
    black_box(f);
    t.elapsed().as_secs_f64()
}

/// Factor that scales host times measured now to the reference host. The
/// faster of two passes, so that one pass cut short by the scheduler does
/// not stand for the host's speed.
pub fn scale() -> f64 {
    NOMINAL_S / reference_s().min(reference_s())
}
