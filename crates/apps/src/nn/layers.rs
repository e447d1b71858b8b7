//! Neural-network layers: one slice kernel per layer.
//!
//! [`LeNet::infer`](super::LeNet::infer) calls the `*_into` slice kernels
//! on fixed-size buffers; the public [`Tensor`] functions are thin
//! wrappers over the same kernels.
//!
//! Every kernel keeps each output's floating-point summation order, so
//! the results are bit-identical to the textbook scalar loops:
//!
//! * a convolution output starts from its bias and adds `w · x` for the
//!   taps in ascending `(ic, ky, kx)` order, skipping the taps that fall
//!   into the padding (never adding a padded zero: `-0.0 + +0.0` is
//!   `+0.0`);
//! * a dense output is `bias + s`, where `s` starts from `-0.0` and adds
//!   `w[i][j] · x[j]` in ascending `j` (what `Iterator::sum::<f32>` folds).
//!
//! Speed comes from computing many outputs at once, never from
//! reassociating one output's sum.

use std::ops::Range;

use super::Tensor;

/// Geometry of a stride-1 convolution with square `k × k` kernels and
/// symmetric zero padding `pad` over an `in_ch × h × w` input.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConvShape {
    pub(crate) in_ch: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) k: usize,
    pub(crate) pad: usize,
}

impl ConvShape {
    /// Output height.
    pub(crate) const fn oh(&self) -> usize {
        self.h + 2 * self.pad + 1 - self.k
    }

    /// Output width.
    pub(crate) const fn ow(&self) -> usize {
        self.w + 2 * self.pad + 1 - self.k
    }
}

/// One output row of a block of `C` consecutive output channels, ready
/// to be computed in segments.
struct ConvRows<'a, const C: usize> {
    input: &'a [f32],
    s: ConvShape,
    /// The block's `C` kernels, `in_ch × k × k` weights each.
    wk: [&'a [f32]; C],
    bias: &'a [f32],
    oy: usize,
    /// The kernel rows whose taps land inside the input for this row.
    ky: Range<usize>,
}

impl<const C: usize> ConvRows<'_, C> {
    /// Outputs `[ox, ox + B)` of the row in each of the `C` channels, each
    /// started from its bias with the taps added in ascending
    /// `(ic, ky, kx)` order. `kx` must hold only taps that land inside the
    /// input for every one of the `B` columns. The `C × B` accumulators
    /// are independent, so their additions overlap, and they stay in
    /// registers.
    #[inline(always)]
    fn segment<const B: usize>(&self, ox: usize, kx: Range<usize>) -> [[f32; B]; C] {
        let ConvShape {
            in_ch,
            h,
            w,
            k,
            pad,
        } = self.s;
        let mut acc: [[f32; B]; C] = std::array::from_fn(|c| [self.bias[c]; B]);
        for ic in 0..in_ch {
            for ky in self.ky.clone() {
                let row = &self.input[(ic * h + self.oy + ky - pad) * w..][..w];
                let tap = (ic * k + ky) * k;
                for kx in kx.clone() {
                    let x: &[f32; B] = row[ox + kx - pad..][..B]
                        .try_into()
                        .expect("segment length");
                    for (acc, wk) in acc.iter_mut().zip(&self.wk) {
                        let wv = wk[tap + kx];
                        for (a, x) in acc.iter_mut().zip(x) {
                            *a += wv * x;
                        }
                    }
                }
            }
        }
        acc
    }
}

/// Writes segment `seg` at column `ox` of row `oy` of each of its planes
/// and returns its width.
fn put<const C: usize, const B: usize>(
    planes: &mut [f32],
    (oh, ow): (usize, usize),
    oy: usize,
    ox: usize,
    seg: [[f32; B]; C],
) -> usize {
    for (plane, seg) in planes.chunks_exact_mut(oh * ow).zip(&seg) {
        plane[oy * ow + ox..][..B].copy_from_slice(seg);
    }
    B
}

/// Output channels `[oc, oc + C)`: each row is cut into segments of 8, 4,
/// 2 and 1 columns. Columns whose taps all land inside the input take the
/// whole `kx` range; each padded border column is a segment of one with
/// its `kx` range clipped. Returns `C`.
fn conv_block<const C: usize>(
    input: &[f32],
    s: ConvShape,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
    oc: usize,
) -> usize {
    let (oh, ow, kk) = (s.oh(), s.ow(), s.in_ch * s.k * s.k);
    let planes = &mut out[oc * oh * ow..][..C * oh * ow];
    let wk = std::array::from_fn(|c| &weights[(oc + c) * kk..][..kk]);
    // Columns [lo, hi) take every kx tap.
    let lo = s.pad.min(ow);
    let hi = (s.w + s.pad + 1).saturating_sub(s.k).max(lo);
    for oy in 0..oh {
        let r = ConvRows::<C> {
            input,
            s,
            wk,
            bias: &bias[oc..][..C],
            oy,
            ky: s.pad.saturating_sub(oy)..(s.h + s.pad).saturating_sub(oy).min(s.k),
        };
        let at = (oh, ow);
        let mut ox = 0;
        while ox < ow {
            ox += if ox < lo || ox >= hi {
                let kx = s.pad.saturating_sub(ox)..(s.w + s.pad).saturating_sub(ox).min(s.k);
                put(planes, at, oy, ox, r.segment::<1>(ox, kx))
            } else {
                match hi - ox {
                    8.. => put(planes, at, oy, ox, r.segment::<8>(ox, 0..s.k)),
                    4.. => put(planes, at, oy, ox, r.segment::<4>(ox, 0..s.k)),
                    2.. => put(planes, at, oy, ox, r.segment::<2>(ox, 0..s.k)),
                    _ => put(planes, at, oy, ox, r.segment::<1>(ox, 0..s.k)),
                }
            };
        }
    }
    C
}

/// The convolution kernel: `out_ch = bias.len()` output planes of
/// `s.oh() × s.ow()`, written to `out`, in blocks of 4, 2 and 1 output
/// channels.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
pub(crate) fn conv2d_into(
    input: &[f32],
    s: ConvShape,
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let out_ch = bias.len();
    assert_eq!(input.len(), s.in_ch * s.h * s.w, "bad conv input");
    assert_eq!(
        weights.len(),
        out_ch * s.in_ch * s.k * s.k,
        "bad conv weights"
    );
    assert_eq!(out.len(), out_ch * s.oh() * s.ow(), "bad conv output");
    let mut oc = 0;
    while oc < out_ch {
        oc += match out_ch - oc {
            4.. => conv_block::<4>(input, s, weights, bias, out, oc),
            2.. => conv_block::<2>(input, s, weights, bias, out, oc),
            _ => conv_block::<1>(input, s, weights, bias, out, oc),
        };
    }
}

/// 2-D convolution with square kernels, stride 1 and symmetric zero
/// padding.
///
/// `weights` is `out_ch` kernels of shape `in_ch × k × k` (flattened,
/// row-major); `bias` has one entry per output channel.
///
/// # Panics
///
/// Panics if the weight/bias sizes do not match the declared geometry or
/// the padded input is smaller than the kernel.
pub fn conv2d(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_ch: usize,
    k: usize,
    pad: usize,
) -> Tensor {
    let (in_ch, h, w) = input.shape();
    assert_eq!(weights.len(), out_ch * in_ch * k * k, "bad conv weights");
    assert_eq!(bias.len(), out_ch, "bad conv bias");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "kernel larger than input"
    );
    let s = ConvShape {
        in_ch,
        h,
        w,
        k,
        pad,
    };
    let mut out = vec![0.0; out_ch * s.oh() * s.ow()];
    conv2d_into(input.as_slice(), s, weights, bias, &mut out);
    Tensor::from_vec(out_ch, s.oh(), s.ow(), out)
}

/// The 2×2 stride-2 average-pooling kernel over `c` planes of `h × w`:
/// `((a + b) + c + d) / 4` per quad, in row-major quad order.
pub(crate) fn avg_pool2_into(input: &[f32], (c, h, w): (usize, usize, usize), out: &mut [f32]) {
    assert!(h % 2 == 0 && w % 2 == 0, "avg_pool2 needs even dims");
    assert_eq!(input.len(), c * h * w, "bad pool input");
    assert_eq!(out.len(), c * (h / 2) * (w / 2), "bad pool output");
    let (oh, ow) = (h / 2, w / 2);
    for (plane, o) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (pair, orow) in plane.chunks_exact(2 * w).zip(o.chunks_exact_mut(ow)) {
            let (r0, r1) = pair.split_at(w);
            for (x, v) in orow.iter_mut().enumerate() {
                *v = (r0[2 * x] + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1]) / 4.0;
            }
        }
    }
}

/// 2×2 average pooling with stride 2.
///
/// # Panics
///
/// Panics if height or width is odd.
pub fn avg_pool2(input: &Tensor) -> Tensor {
    let (c, h, w) = input.shape();
    let mut out = vec![0.0; c * (h / 2) * (w / 2)];
    avg_pool2_into(input.as_slice(), (c, h, w), &mut out);
    Tensor::from_vec(c, h / 2, w / 2, out)
}

/// Applies `f32::tanh` to every element in place.
pub(crate) fn tanh_in_place(x: &mut [f32]) {
    for v in x {
        *v = v.tanh();
    }
}

/// Element-wise hyperbolic tangent (LeNet's classic activation).
pub fn tanh(input: &Tensor) -> Tensor {
    let (c, h, w) = input.shape();
    let mut out = input.as_slice().to_vec();
    tanh_in_place(&mut out);
    Tensor::from_vec(c, h, w, out)
}

/// Outputs `0..R` of a dense layer whose `R` weight rows start `w`: `R`
/// independent accumulators, each from `-0.0` over ascending `j`. Four
/// inputs at a time, each row's four products are taken together and
/// then added in order.
#[inline(always)]
fn dense_rows<const R: usize>(x: &[f32], w: &[f32], bias: &[f32], out: &mut [f32]) {
    let n = x.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &w[r * n..][..n]);
    let mut acc = [-0.0f32; R];
    let quads = x.chunks_exact(4);
    let tail = quads.remainder().len();
    for (q, xq) in quads.enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            let wq = &row[4 * q..][..4];
            for p in [wq[0] * xq[0], wq[1] * xq[1], wq[2] * xq[2], wq[3] * xq[3]] {
                *a += p;
            }
        }
    }
    for j in n - tail..n {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[j] * x[j];
        }
    }
    for ((o, b), a) in out.iter_mut().zip(bias).zip(acc) {
        *o = b + a;
    }
}

/// The dense-layer kernel: `out[i] = bias[i] + Σ_j W[i][j] · x[j]` with
/// row-major `weights`, eight rows at a time.
///
/// # Panics
///
/// Panics if `weights.len() != out.len() * x.len()` or
/// `bias.len() != out.len()`.
pub(crate) fn dense_into(x: &[f32], weights: &[f32], bias: &[f32], out: &mut [f32]) {
    const R: usize = 8;
    let n = x.len();
    assert_eq!(weights.len(), out.len() * n, "bad dense weights");
    assert_eq!(bias.len(), out.len(), "bad dense bias");
    let rows = out.chunks_mut(R).zip(bias.chunks(R));
    for (blk, (o, b)) in rows.enumerate() {
        let w = &weights[blk * R * n..];
        if o.len() == R {
            dense_rows::<R>(x, w, b, o);
        } else {
            for (i, (o, b)) in o.chunks_mut(1).zip(b.chunks(1)).enumerate() {
                dense_rows::<1>(x, &w[i * n..], b, o);
            }
        }
    }
}

/// Fully connected layer: `out[i] = bias[i] + Σ_j W[i][j] · in[j]`,
/// flattening the input.
///
/// # Panics
///
/// Panics if `weights.len() != out_n * input.len()` or
/// `bias.len() != out_n`.
pub fn dense(input: &Tensor, weights: &[f32], bias: &[f32], out_n: usize) -> Tensor {
    let mut out = vec![0.0; out_n];
    dense_into(input.as_slice(), weights, bias, &mut out);
    Tensor::vector(out)
}

/// Numerically stable softmax in place: `exp(x - max) / Σ exp(x - max)`.
pub(crate) fn softmax_in_place(x: &mut [f32]) {
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in x.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = x.iter().sum();
    for v in x {
        *v /= sum;
    }
}

/// Numerically stable softmax over the flattened input.
pub fn softmax(input: &Tensor) -> Tensor {
    let mut out = input.as_slice().to_vec();
    softmax_in_place(&mut out);
    Tensor::vector(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The textbook scalar convolution: the bit-identity oracle.
    fn conv2d_reference(
        input: &Tensor,
        weights: &[f32],
        bias: &[f32],
        out_ch: usize,
        k: usize,
        pad: usize,
    ) -> Tensor {
        let (in_ch, h, w) = input.shape();
        let oh = h + 2 * pad - k + 1;
        let ow = w + 2 * pad - k + 1;
        let mut out = Tensor::zeros(out_ch, oh, ow);
        for oc in 0..out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy + ky;
                                let ix = ox + kx;
                                if iy < pad || ix < pad {
                                    continue;
                                }
                                let (iy, ix) = (iy - pad, ix - pad);
                                if iy >= h || ix >= w {
                                    continue;
                                }
                                let wv = weights[((oc * in_ch + ic) * k + ky) * k + kx];
                                acc += wv * input.get(ic, iy, ix);
                            }
                        }
                    }
                    out.set(oc, oy, ox, acc);
                }
            }
        }
        out
    }

    /// The textbook dense layer: the bit-identity oracle.
    fn dense_reference(input: &Tensor, weights: &[f32], bias: &[f32], out_n: usize) -> Tensor {
        let n = input.len();
        let x = input.as_slice();
        let mut out = vec![0.0f32; out_n];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &weights[i * n..(i + 1) * n];
            *o = bias[i] + row.iter().zip(x).map(|(a, b)| a * b).sum::<f32>();
        }
        Tensor::vector(out)
    }

    /// `n` values in [-2, 2), a quarter of them signed zeros.
    fn values(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// The convolution kernel reproduces the scalar loop bit for bit
        /// over random geometry, padding and signed zeros.
        #[test]
        fn conv2d_is_bit_identical_to_the_scalar_loop(
            in_ch in 1usize..=8,
            out_ch in 1usize..=16,
            k in 1usize..=5,
            pad in 0usize..=2,
            h in 0usize..=32,
            w in 0usize..=32,
            seed in any::<u64>(),
        ) {
            let min = k.saturating_sub(2 * pad).max(1);
            let (h, w) = (h.max(min), w.max(min));
            let mut rng = StdRng::seed_from_u64(seed);
            let input = Tensor::from_vec(in_ch, h, w, values(&mut rng, in_ch * h * w));
            let weights = values(&mut rng, out_ch * in_ch * k * k);
            let bias = values(&mut rng, out_ch);
            let got = conv2d(&input, &weights, &bias, out_ch, k, pad);
            let want = conv2d_reference(&input, &weights, &bias, out_ch, k, pad);
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// The dense kernel reproduces the scalar loop bit for bit,
        /// including the rows after the last full block.
        #[test]
        fn dense_is_bit_identical_to_the_scalar_loop(
            n in 1usize..=160,
            out_n in 1usize..=40,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let input = Tensor::vector(values(&mut rng, n));
            let weights = values(&mut rng, out_n * n);
            let bias = values(&mut rng, out_n);
            let got = dense(&input, &weights, &bias, out_n);
            let want = dense_reference(&input, &weights, &bias, out_n);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel of weight 1: output equals input.
        let input = Tensor::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv2d(&input, &[1.0], &[0.0], 1, 1, 0);
        assert_eq!(out, input);
    }

    #[test]
    fn conv_known_values() {
        // 2x2 input, 2x2 kernel of ones, no pad: single output = sum.
        let input = Tensor::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv2d(&input, &[1.0; 4], &[0.5], 1, 2, 0);
        assert_eq!(out.shape(), (1, 1, 1));
        assert_eq!(out.get(0, 0, 0), 10.5);
    }

    #[test]
    fn conv_padding_preserves_size() {
        let input = Tensor::zeros(1, 28, 28);
        let out = conv2d(&input, &[0.0; 25], &[0.0], 1, 5, 2);
        assert_eq!(out.shape(), (1, 28, 28));
    }

    #[test]
    fn conv_multi_channel_sums_contributions() {
        // Two input channels of constant 1 and 2; kernel weight 1 each.
        let mut input = Tensor::zeros(2, 1, 1);
        input.set(0, 0, 0, 1.0);
        input.set(1, 0, 0, 2.0);
        let out = conv2d(&input, &[1.0, 1.0], &[0.0], 1, 1, 0);
        assert_eq!(out.get(0, 0, 0), 3.0);
    }

    #[test]
    fn conv_skips_padded_taps_instead_of_adding_zero() {
        // A -0.0 bias stays -0.0 where every tap is padding; adding a
        // padded +0.0 product would turn it into +0.0.
        let input = Tensor::from_vec(1, 1, 1, vec![1.0]);
        let out = conv2d(&input, &[1.0], &[-0.0], 1, 1, 1);
        assert_eq!(out.shape(), (1, 3, 3));
        assert_eq!(out.get(0, 0, 0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(out.get(0, 1, 1), 1.0);
    }

    #[test]
    fn pool_averages_quads() {
        let input = Tensor::from_vec(1, 2, 2, vec![1.0, 3.0, 5.0, 7.0]);
        let out = avg_pool2(&input);
        assert_eq!(out.shape(), (1, 1, 1));
        assert_eq!(out.get(0, 0, 0), 4.0);
    }

    #[test]
    fn dense_matches_manual_dot() {
        let input = Tensor::vector(vec![1.0, 2.0]);
        // W = [[1,2],[3,4]], b = [10, 20]
        let out = dense(&input, &[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0], 2);
        assert_eq!(out.as_slice(), &[15.0, 31.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let out = softmax(&Tensor::vector(vec![1.0, 2.0, 3.0]));
        let s: f32 = out.as_slice().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert_eq!(out.argmax(), 2);
        assert!(out.as_slice().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let out = softmax(&Tensor::vector(vec![1000.0, 1001.0]));
        assert!(out.as_slice().iter().all(|p| p.is_finite()));
        assert!((out.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_bounds() {
        let out = tanh(&Tensor::vector(vec![-100.0, 0.0, 100.0]));
        assert_eq!(out.as_slice(), &[-1.0, 0.0, 1.0]);
    }
}
