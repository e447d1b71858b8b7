//! Neural-network inference: tensors, layers, LeNet-5, synthetic MNIST.
//!
//! The paper's model-serving experiments (§6.3) run "written digits
//! recognition using the standard LeNet Convolutional Neural Network
//! architecture": clients send 28×28 grayscale images, the server returns
//! the recognized digit, with the whole network executing on the GPU as a
//! persistent kernel spawning per-layer child kernels via dynamic
//! parallelism. This module implements the full forward pass in Rust so
//! the simulated GPU produces *real* classifications.

mod layers;
mod lenet;
mod mnist;
mod tensor;

pub use layers::{avg_pool2, conv2d, dense, softmax, tanh};
pub use lenet::{LeNet, LeNetProcessor, LENET_KERNEL_TIME, LENET_LAUNCHES};
pub use mnist::{DigitGenerator, IMAGE_BYTES, IMAGE_SIDE};
pub use tensor::Tensor;
