//! LeNet-5 digit recognition (§6.3).

use std::fmt;
use std::time::Duration;

use lynx_device::RequestProcessor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::layers::{
    avg_pool2_into, conv2d_into, dense_into, softmax_in_place, tanh_in_place, ConvShape,
};
use super::{IMAGE_BYTES, IMAGE_SIDE};

/// Measured LeNet inference time on the reference GPU. The paper reports a
/// theoretical single-GPU maximum of 3.6 Kreq/s (§6.3) ⇒ ≈278 µs per
/// request of pure kernel time.
pub const LENET_KERNEL_TIME: Duration = Duration::from_micros(278);

/// Number of fused TVM kernels (one per layer group): two conv+pool
/// blocks, three dense layers and the classifier epilogue, launched
/// per-request — 8 dependent launches on the host-centric path, 8 dynamic-
/// parallelism spawns under Lynx.
pub const LENET_LAUNCHES: u32 = 8;

/// conv1: 6 planes of 28×28 over the 1×28×28 image (5×5, pad 2).
const CONV1: ConvShape = ConvShape {
    in_ch: 1,
    h: IMAGE_SIDE,
    w: IMAGE_SIDE,
    k: 5,
    pad: 2,
};
const C1: usize = 6;
/// conv2: 16 planes of 10×10 over the pooled 6×14×14 (5×5, no pad).
const CONV2: ConvShape = ConvShape {
    in_ch: C1,
    h: CONV1.oh() / 2,
    w: CONV1.ow() / 2,
    k: 5,
    pad: 0,
};
const C2: usize = 16;
/// The flattened second pooling output: 16×5×5.
const FLAT: usize = C2 * (CONV2.oh() / 2) * (CONV2.ow() / 2);
const FC1: usize = 120;
const FC2: usize = 84;
const CLASSES: usize = 10;

/// One layer's weights and biases.
struct Params {
    w: Vec<f32>,
    b: Vec<f32>,
}

/// The LeNet-5 network: conv(6@5×5, pad 2) → tanh → pool → conv(16@5×5)
/// → tanh → pool → dense 120 → tanh → dense 84 → tanh → dense 10 →
/// softmax.
///
/// Weights are generated from a seeded PRNG (no training data ships with
/// the repository); classification is therefore arbitrary but fully
/// deterministic, which is what the timing experiments need. Use
/// [`LeNet::infer`] for the class-probability vector.
pub struct LeNet {
    conv1: Params,
    conv2: Params,
    fc1: Params,
    fc2: Params,
    fc3: Params,
    seed: u64,
}

impl fmt::Debug for LeNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeNet")
            .field("seed", &self.seed)
            .field("params", &self.param_count())
            .finish()
    }
}

impl LeNet {
    /// Builds the network with weights drawn from `seed`.
    pub fn new(seed: u64) -> LeNet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |n: usize, fan_in: usize| -> Vec<f32> {
            let scale = (1.0 / fan_in as f32).sqrt();
            (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        LeNet {
            conv1: Params {
                w: draw(C1 * 5 * 5, 25),
                b: draw(C1, 25),
            },
            conv2: Params {
                w: draw(C2 * C1 * 5 * 5, 150),
                b: draw(C2, 150),
            },
            fc1: Params {
                w: draw(FC1 * FLAT, FLAT),
                b: draw(FC1, FLAT),
            },
            fc2: Params {
                w: draw(FC2 * FC1, FC1),
                b: draw(FC2, FC1),
            },
            fc3: Params {
                w: draw(CLASSES * FC2, FC2),
                b: draw(CLASSES, FC2),
            },
            seed,
        }
    }

    /// Total trainable parameters (the classic LeNet-5 count).
    pub fn param_count(&self) -> usize {
        self.conv1.w.len()
            + self.conv1.b.len()
            + self.conv2.w.len()
            + self.conv2.b.len()
            + self.fc1.w.len()
            + self.fc1.b.len()
            + self.fc2.w.len()
            + self.fc2.b.len()
            + self.fc3.w.len()
            + self.fc3.b.len()
    }

    /// Runs the forward pass on a 28×28 grayscale image (one byte per
    /// pixel), returning the 10 class probabilities.
    ///
    /// Every layer writes a fixed-size stack buffer: the pass makes no
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != 784`.
    pub fn infer(&self, image: &[u8]) -> [f32; 10] {
        assert_eq!(image.len(), IMAGE_BYTES, "LeNet expects a 28x28 image");
        let mut input = [0.0f32; IMAGE_BYTES];
        for (x, &p) in input.iter_mut().zip(image) {
            *x = p as f32 / 255.0;
        }
        let mut c1 = [0.0f32; C1 * CONV1.oh() * CONV1.ow()];
        conv2d_into(&input, CONV1, &self.conv1.w, &self.conv1.b, &mut c1);
        tanh_in_place(&mut c1);
        let mut p1 = [0.0f32; C1 * CONV2.h * CONV2.w];
        avg_pool2_into(&c1, (C1, CONV1.oh(), CONV1.ow()), &mut p1);
        let mut c2 = [0.0f32; C2 * CONV2.oh() * CONV2.ow()];
        conv2d_into(&p1, CONV2, &self.conv2.w, &self.conv2.b, &mut c2);
        tanh_in_place(&mut c2);
        let mut p2 = [0.0f32; FLAT];
        avg_pool2_into(&c2, (C2, CONV2.oh(), CONV2.ow()), &mut p2);
        let mut f1 = [0.0f32; FC1];
        dense_into(&p2, &self.fc1.w, &self.fc1.b, &mut f1);
        tanh_in_place(&mut f1);
        let mut f2 = [0.0f32; FC2];
        dense_into(&f1, &self.fc2.w, &self.fc2.b, &mut f2);
        tanh_in_place(&mut f2);
        let mut out = [0.0f32; CLASSES];
        dense_into(&f2, &self.fc3.w, &self.fc3.b, &mut out);
        softmax_in_place(&mut out);
        out
    }

    /// Returns the most likely digit for an image.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != 784`.
    pub fn classify(&self, image: &[u8]) -> u8 {
        let probs = self.infer(image);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
            .map(|(i, _)| i as u8)
            .expect("ten classes")
    }
}

/// [`RequestProcessor`] wrapper: request = 784-byte image, response = one
/// byte carrying the recognized digit.
pub struct LeNetProcessor {
    net: LeNet,
}

impl fmt::Debug for LeNetProcessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeNetProcessor").finish_non_exhaustive()
    }
}

impl LeNetProcessor {
    /// Creates the inference server logic with model weights from `seed`.
    pub fn new(seed: u64) -> LeNetProcessor {
        LeNetProcessor {
            net: LeNet::new(seed),
        }
    }
}

impl RequestProcessor for LeNetProcessor {
    fn name(&self) -> &str {
        "lenet"
    }

    fn service_time(&self, _request: &[u8]) -> Duration {
        LENET_KERNEL_TIME
    }

    fn process(&self, request: &[u8]) -> Vec<u8> {
        if request.len() != IMAGE_BYTES {
            return vec![0xFF]; // malformed request marker
        }
        vec![self.net.classify(request)]
    }

    fn launches(&self) -> u32 {
        LENET_LAUNCHES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::DigitGenerator;

    /// FNV-1a over the bit patterns of every probability that
    /// `LeNet::new(s).infer` returns for 200 generated digits under each
    /// of three seeds, as computed by the scalar layer loops that
    /// `layers.rs` keeps as test oracles. A kernel that reorders an
    /// output's floating-point sum changes it.
    const GOLDEN_INFER_DIGEST: u64 = 0x60af_e8ce_02b8_33cd;

    #[test]
    fn inference_matches_the_golden_digest() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in [0u64, 7, 99] {
            let net = LeNet::new(seed);
            for (_, img) in DigitGenerator::new(seed).batch(200) {
                for p in net.infer(&img) {
                    for b in p.to_bits().to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(h, GOLDEN_INFER_DIGEST, "digest {h:#018x}");
    }

    #[test]
    fn parameter_count_matches_lenet5() {
        // Classic LeNet-5: 61,706 parameters.
        assert_eq!(LeNet::new(0).param_count(), 61_706);
    }

    #[test]
    fn inference_is_deterministic() {
        let net = LeNet::new(7);
        let mut gen = DigitGenerator::new(3);
        let img = gen.image(5);
        assert_eq!(net.infer(&img), net.infer(&img));
        assert_eq!(LeNet::new(7).infer(&img), net.infer(&img));
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let net = LeNet::new(1);
        let mut gen = DigitGenerator::new(1);
        for d in 0..10 {
            let p = net.infer(&gen.image(d));
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn different_images_can_differ() {
        let net = LeNet::new(1);
        let mut gen = DigitGenerator::new(1);
        let a = net.infer(&gen.image(0));
        let b = net.infer(&gen.image(8));
        assert_ne!(a, b);
    }

    #[test]
    fn processor_roundtrip() {
        let p = LeNetProcessor::new(0);
        let mut gen = DigitGenerator::new(0);
        let img = gen.image(3);
        let resp = p.process(&img);
        assert_eq!(resp.len(), 1);
        assert!(resp[0] < 10);
        assert_eq!(p.launches(), 8);
        assert_eq!(p.service_time(&img), LENET_KERNEL_TIME);
    }

    #[test]
    fn malformed_request_flagged() {
        let p = LeNetProcessor::new(0);
        assert_eq!(p.process(&[0; 10]), vec![0xFF]);
    }

    #[test]
    #[should_panic(expected = "28x28")]
    fn wrong_image_size_panics() {
        LeNet::new(0).classify(&[0; 100]);
    }
}
