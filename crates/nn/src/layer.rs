//! The layer protocol and the [`Sequential`] container.

use solo_tensor::Tensor;

use crate::Param;

/// A differentiable network module.
///
/// The protocol is stateful: [`Layer::forward`] caches whatever the gradient
/// computation needs, and the next [`Layer::backward`] call consumes that
/// cache, accumulates parameter gradients and returns the gradient with
/// respect to the input. Calling `backward` without a preceding `forward`
/// panics.
///
/// Layers document the tensor rank they expect (`[C,H,W]` images,
/// `[tokens,dim]` sequences, or rank-2 batches of vectors).
pub trait Layer {
    /// Runs the layer, caching intermediates for a later `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the last `forward` output)
    /// back through the layer, accumulating parameter gradients, and returns
    /// the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, or if `grad_out` does not match
    /// the shape of the last output.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every learnable parameter (used by optimizers and serializers).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Runs the layer without caching, for inference-only paths.
    ///
    /// The default delegates to `forward`; layers with an expensive cache may
    /// override.
    fn infer(&mut self, input: &Tensor) -> Tensor {
        self.forward(input)
    }

    /// Runs the layer in int8 quantized inference mode.
    ///
    /// GEMM-backed layers ([`crate::Linear`], [`crate::Conv2d`]) override
    /// this to run their product on the i8×i8→i32 kernel with per-channel
    /// weight scales; containers chain it through their children. The
    /// default delegates to [`Layer::infer`], so layers without a meaningful
    /// quantization (activations, pooling, normalization) run exactly as in
    /// float inference.
    fn infer_quant(&mut self, input: &Tensor) -> Tensor {
        self.infer(input)
    }

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Consumes a layer's forward cache at the top of `backward`.
///
/// Every [`Layer`] implementation funnels its cache access through this
/// helper so the backward-before-forward protocol violation panics with one
/// uniform `<layer>::backward called before forward` message.
pub(crate) fn take_cache<T>(cache: &mut Option<T>, layer: &str) -> T {
    match cache.take() {
        Some(state) => state,
        // lint:allow(P1): the Layer protocol documents backward-before-forward as a programmer error
        None => panic!("{layer}::backward called before forward"),
    }
}

/// A chain of layers applied in order.
///
/// ```
/// use solo_nn::{Layer, Linear, Relu, Sequential};
/// use solo_tensor::{seeded_rng, Tensor};
///
/// let mut rng = seeded_rng(0);
/// let mut net = Sequential::new()
///     .push(Linear::new(&mut rng, 8, 16))
///     .push(Relu::new())
///     .push(Linear::new(&mut rng, 16, 2));
/// let y = net.forward(&Tensor::ones(&[1, 8]));
/// assert_eq!(y.shape().dims(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.infer(&x);
        }
        x
    }

    fn infer_quant(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.infer_quant(&x);
        }
        x
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use solo_tensor::seeded_rng;

    #[test]
    fn sequential_chains_forward_and_backward() {
        let mut rng = seeded_rng(1);
        let mut net = Sequential::new()
            .push(Linear::new(&mut rng, 3, 5))
            .push(Relu::new())
            .push(Linear::new(&mut rng, 5, 2));
        assert_eq!(net.len(), 3);
        let x = Tensor::ones(&[1, 3]);
        let y = net.forward(&x);
        assert_eq!(y.shape().dims(), &[1, 2]);
        let gx = net.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(gx.shape().dims(), &[1, 3]);
        assert!(net.param_count() > 0);
    }

    #[test]
    fn zero_grads_clears_all() {
        let mut rng = seeded_rng(2);
        let mut net = Sequential::new().push(Linear::new(&mut rng, 2, 2));
        let x = Tensor::ones(&[1, 2]);
        let y = net.forward(&x);
        net.backward(&y);
        let mut any_nonzero = false;
        net.visit_params(&mut |p| any_nonzero |= p.grad().norm_sq() > 0.0);
        assert!(any_nonzero);
        net.zero_grads();
        let mut all_zero = true;
        net.visit_params(&mut |p| all_zero &= p.grad().norm_sq() == 0.0);
        assert!(all_zero);
    }
}
