//! Learnable parameters.

use solo_tensor::Tensor;

/// A learnable tensor together with its accumulated gradient.
///
/// Layers own their `Param`s; optimizers reach them through
/// [`crate::Layer::visit_params`]. Gradients accumulate across
/// `backward` calls (enabling minibatch accumulation) until
/// [`Param::zero_grad`] resets them.
///
/// Every mutable access to the value bumps a monotonically increasing
/// **version** counter. Derived state keyed by the version — the packed
/// GEMM panels held in a `solo_tensor::PackedCache` — is therefore
/// invalidated on write: an optimizer step can never leave a layer
/// serving stale packed weights.
#[derive(Debug, Clone)]
pub struct Param {
    value: Tensor,
    grad: Tensor,
    version: u64,
}

impl PartialEq for Param {
    /// Versions are an identity for cache keying, not part of the
    /// parameter's mathematical state, so equality ignores them.
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value && self.grad == other.grad
    }
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self {
            value,
            grad,
            version: 0,
        }
    }

    /// The current parameter value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the parameter value (used by optimizers).
    ///
    /// Bumps [`Param::version`], invalidating any packed-weight cache keyed
    /// on it — even if the caller never actually writes.
    pub fn value_mut(&mut self) -> &mut Tensor {
        self.version += 1;
        &mut self.value
    }

    /// The value's write-version: incremented on every [`Param::value_mut`]
    /// borrow. Cache packed derivatives of the value against this.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different shape from the parameter.
    pub fn accumulate(&mut self, g: &Tensor) {
        self.grad.add_scaled_inplace(g, 1.0);
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_gradients() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate(&Tensor::ones(&[2]));
        p.accumulate(&Tensor::ones(&[2]));
        assert_eq!(p.grad().as_slice(), &[2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn accumulate_rejects_wrong_shape() {
        Param::new(Tensor::zeros(&[2])).accumulate(&Tensor::ones(&[3]));
    }

    #[test]
    fn value_mut_bumps_version_but_grad_access_does_not() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        assert_eq!(p.version(), 0);
        p.value_mut();
        assert_eq!(p.version(), 1);
        p.accumulate(&Tensor::ones(&[2]));
        p.zero_grad();
        assert_eq!(p.version(), 1, "gradient traffic must not invalidate");
        assert_eq!(p.value(), &Tensor::zeros(&[2]));
        assert_eq!(p.version(), 1, "shared reads must not invalidate");
    }

    #[test]
    fn equality_ignores_version() {
        let mut a = Param::new(Tensor::ones(&[2]));
        let b = Param::new(Tensor::ones(&[2]));
        a.value_mut();
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b);
    }
}
