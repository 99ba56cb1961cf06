//! # solo-nn
//!
//! A from-scratch neural-network layer library with manual reverse-mode
//! differentiation, built on [`solo_tensor`]. It implements every building
//! block the SOLO paper's networks need:
//!
//! * [`Linear`], [`Conv2d`], [`LayerNorm`], [`ChannelNorm`] and the
//!   activation layers — enough to assemble the HRNet-/SegFormer-/DeepLab-
//!   style segmentation backbones in `solo-core`;
//! * [`MultiHeadAttention`] and [`TransformerBlock`] — the GT-ViT gaze
//!   tracker (8 blocks, 6 heads, dim 384 in the paper's configuration);
//! * [`RnnCell`] / [`Rnn`] — the single-layer recurrent saccade detector;
//! * [`prune`] — attention-score token pruning (Section 3.2 / the token
//!   selector in the SOLO accelerator);
//! * [`Layer::infer_quant`] — int8 inference for [`Linear`] and [`Conv2d`]
//!   on `solo-tensor`'s quantized GEMM, the 8-bit MACs the accelerator
//!   executes;
//! * [`loss`] — Dice loss and the l2 saliency regularizer of Eq. 4, plus
//!   cross-entropy for the classification head;
//! * [`Sgd`] / [`Adam`] optimizers.
//!
//! Layers follow a stateful forward/backward protocol: [`Layer::forward`]
//! caches whatever the gradient needs, [`Layer::backward`] consumes the cache
//! and accumulates parameter gradients, and an optimizer visits parameters
//! through [`Layer::visit_params`].
//!
//! ```
//! use solo_nn::{Layer, Linear, Optimizer, Sgd, loss};
//! use solo_tensor::{seeded_rng, Tensor};
//!
//! let mut rng = seeded_rng(0);
//! let mut layer = Linear::new(&mut rng, 4, 2);
//! let x = Tensor::ones(&[1, 4]);
//! let y = layer.forward(&x);
//! let target = Tensor::zeros(&[1, 2]);
//! let (l, grad) = loss::mse(&y, &target);
//! layer.backward(&grad);
//! Sgd::new(0.1).step(&mut layer);
//! let y2 = layer.forward(&x);
//! let (l2, _) = loss::mse(&y2, &target);
//! assert!(l2 < l);
//! ```

#![warn(missing_docs)]

mod activation;
mod attention;
mod conv;
mod layer;
mod linear;
pub mod loss;
mod norm;
mod optim;
mod param;
mod pool;
pub mod prune;
mod rnn;
pub mod serialize;
mod transformer;

pub use activation::{Gelu, LeakyRelu, Relu, Sigmoid, Tanh};
pub use attention::MultiHeadAttention;
pub use conv::Conv2d;
pub use layer::{Layer, Sequential};
pub use linear::Linear;
pub use norm::{ChannelNorm, LayerNorm};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool2, Upsample2};
pub use rnn::{Rnn, RnnCell, RnnCellPacked};
pub use serialize::Checkpoint;
pub use transformer::{Mlp, PositionalEmbedding, TransformerBlock, TransformerConfig};

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use crate::Layer;
    use solo_tensor::Tensor;

    /// Checks `layer.backward` against central finite differences of a
    /// scalar loss `0.5·‖forward(x)‖²` (whose gradient w.r.t. the output is
    /// the output itself).
    ///
    /// Returns the maximum absolute deviation over input gradients.
    pub fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, eps: f32) -> f32 {
        let y = layer.forward(x);
        let analytic = layer.backward(&y);
        let mut worst = 0.0f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let lp = 0.5 * layer.forward(&xp).norm_sq();
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lm = 0.5 * layer.forward(&xm).norm_sq();
            let fd = (lp - lm) / (2.0 * eps);
            worst = worst.max((fd - analytic.as_slice()[i]).abs());
        }
        worst
    }

    /// Checks parameter gradients the same way. Gradients must be zeroed by
    /// the caller beforehand.
    pub fn check_param_grad(layer: &mut dyn Layer, x: &Tensor, eps: f32) -> f32 {
        layer.visit_params(&mut |p| p.zero_grad());
        let y = layer.forward(x);
        layer.backward(&y);
        // Snapshot analytic parameter grads.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| grads.push(p.grad().as_slice().to_vec()));
        let mut worst = 0.0f32;
        for (pi, g) in grads.iter().enumerate() {
            for ei in 0..g.len() {
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.value_mut().as_mut_slice()[ei] += eps;
                    }
                    idx += 1;
                });
                let lp = 0.5 * layer.forward(x).norm_sq();
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.value_mut().as_mut_slice()[ei] -= 2.0 * eps;
                    }
                    idx += 1;
                });
                let lm = 0.5 * layer.forward(x).norm_sq();
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.value_mut().as_mut_slice()[ei] += eps;
                    }
                    idx += 1;
                });
                let fd = (lp - lm) / (2.0 * eps);
                worst = worst.max((fd - g[ei]).abs());
            }
        }
        worst
    }
}
