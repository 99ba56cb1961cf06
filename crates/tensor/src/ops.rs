//! Elementwise operations, reductions and normalization kernels.

use crate::{exec, Tensor};

/// Fixed chunk length for parallel reductions. Chunk boundaries depend only
/// on the tensor length — never on the worker count — so the folded result
/// is bit-identical at any pool width, and tensors at or below one chunk
/// reduce exactly like the original serial kernel.
pub(crate) const REDUCE_CHUNK: usize = 32_768;

/// Nominal per-element cost hint for the pooled elementwise kernels; with
/// the pool's work floor this keeps small tensors on the serial path.
const MAP_COST: usize = 4;

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    ///
    /// Element `i` of the output depends only on element `i` of the input,
    /// so the pool partitions the buffer into contiguous spans and the
    /// result is bit-identical at any width.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Send + Sync) -> Tensor {
        let src = self.as_slice();
        let mut out = exec::take_buf_at("ops.map", src.len());
        exec::pool().par_row_spans(&mut out, 1, 1, MAP_COST, |start, span| {
            let end = start + span.len();
            for (o, &v) in span.iter_mut().zip(&src[start..end]) {
                *o = f(v);
            }
        });
        Tensor::from_vec(out, self.shape().dims())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Send + Sync) {
        exec::pool().par_row_spans(self.as_mut_slice(), 1, 1, MAP_COST, |_, span| {
            for v in span {
                *v = f(*v);
            }
        });
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// Partitioned like [`Tensor::map`]; bit-identical at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Send + Sync) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = exec::take_buf_at("ops.zip", a.len());
        exec::pool().par_row_spans(&mut out, 1, 1, MAP_COST, |start, span| {
            let end = start + span.len();
            for ((o, &x), &y) in span.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
                *o = f(x, y);
            }
        });
        Tensor::from_vec(out, self.shape().dims())
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place, optionally scaled: `self += k·other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, k: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += k * b;
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|v| v * k)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, k: f32) -> Tensor {
        self.map(|v| v + k)
    }

    /// Sum of all elements.
    ///
    /// Large tensors reduce in fixed `REDUCE_CHUNK`-element chunks whose
    /// partials are folded in order, so the result does not depend on the
    /// pool width.
    pub fn sum(&self) -> f32 {
        let data = self.as_slice();
        if data.len() <= REDUCE_CHUNK {
            return data.iter().sum();
        }
        exec::pool()
            .par_partials(data.len(), REDUCE_CHUNK, |a, b| {
                data[a..b].iter().sum::<f32>()
            })
            .iter()
            .sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for an empty tensor.
    ///
    /// Chunked like [`Tensor::sum`]; `max` is associative and
    /// `NEG_INFINITY` is its identity, so folding the per-chunk partials in
    /// chunk order reproduces the serial fold exactly at any pool width.
    pub fn max(&self) -> f32 {
        let data = self.as_slice();
        if data.len() <= REDUCE_CHUNK {
            return data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        }
        exec::pool()
            .par_partials(data.len(), REDUCE_CHUNK, |a, b| {
                data[a..b].iter().copied().fold(f32::NEG_INFINITY, f32::max)
            })
            .into_iter()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Returns `f32::INFINITY` for an empty tensor.
    ///
    /// Chunked like [`Tensor::max`].
    pub fn min(&self) -> f32 {
        let data = self.as_slice();
        if data.len() <= REDUCE_CHUNK {
            return data.iter().copied().fold(f32::INFINITY, f32::min);
        }
        exec::pool()
            .par_partials(data.len(), REDUCE_CHUNK, |a, b| {
                data[a..b].iter().copied().fold(f32::INFINITY, f32::min)
            })
            .into_iter()
            .fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in flattened order. Ties resolve to the
    /// **last** maximal element under `total_cmp`, matching the serial
    /// `max_by` kernel; per-chunk winners are folded in chunk order with the
    /// same later-wins rule, so the chunked result is identical.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let data = self.as_slice();
        if data.len() <= REDUCE_CHUNK {
            return argmax_span(data, 0);
        }
        exec::pool()
            .par_partials(data.len(), REDUCE_CHUNK, |a, b| {
                let i = argmax_span(&data[a..b], a);
                (i, data[i])
            })
            .into_iter()
            .reduce(|best, cand| {
                if cand.1.total_cmp(&best.1).is_ge() {
                    cand
                } else {
                    best
                }
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Squared Euclidean (Frobenius) norm.
    ///
    /// Chunked like [`Tensor::sum`] so the result is independent of the pool
    /// width.
    pub fn norm_sq(&self) -> f32 {
        let data = self.as_slice();
        if data.len() <= REDUCE_CHUNK {
            return data.iter().map(|v| v * v).sum();
        }
        exec::pool()
            .par_partials(data.len(), REDUCE_CHUNK, |a, b| {
                data[a..b].iter().map(|v| v * v).sum::<f32>()
            })
            .iter()
            .sum()
    }

    /// Mean squared difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse(&self, other: &Tensor) -> f32 {
        self.sub(other).norm_sq() / self.len().max(1) as f32
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Softmax along the last axis of a rank-2 tensor, numerically stabilised
    /// by subtracting the row max.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "softmax_rows requires rank-2");
        let (rows, cols) = (self.shape().dim(0), self.shape().dim(1));
        let src = self.as_slice();
        let mut out = exec::take_buf_at("ops.softmax", rows * cols);
        exec::pool().par_rows(&mut out, cols.max(1), 6 * cols, |r, orow| {
            let row = &src[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (o, &v) in orow.iter_mut().zip(row) {
                let e = (v - m).exp();
                *o = e;
                denom += e;
            }
            for o in orow {
                *o /= denom;
            }
        });
        Tensor::from_vec(out, self.shape().dims())
    }

    /// Layer normalization along the last axis of a rank-2 tensor.
    ///
    /// Normalizes each row to zero mean and unit variance:
    /// `(x − μ) / √(σ² + eps)`. Scale and shift are applied by the caller
    /// (the `nn` crate owns the learnable γ/β).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn layernorm_rows(&self, eps: f32) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "layernorm_rows requires rank-2");
        let (rows, cols) = (self.shape().dim(0), self.shape().dim(1));
        let src = self.as_slice();
        let mut out = exec::take_buf_at("ops.layernorm", rows * cols);
        exec::pool().par_rows(&mut out, cols.max(1), 6 * cols, |r, orow| {
            let row = &src[r * cols..(r + 1) * cols];
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = (v - mean) * inv;
            }
        });
        Tensor::from_vec(out, self.shape().dims())
    }
}

/// Index of the last maximal element of `span` (under `total_cmp`), offset
/// by `base` into the parent slice. Returns `base` for an empty span.
fn argmax_span(span: &[f32], base: usize) -> usize {
    span.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i + base)
        .unwrap_or(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn add_sub_mul_are_elementwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_mismatched_shapes() {
        Tensor::zeros(&[2]).add(&Tensor::zeros(&[3]));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert!(close(t.sum(), 2.0));
        assert!(close(t.mean(), 2.0 / 3.0));
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert!(close(t.norm_sq(), 14.0));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1e4, 1e4, 1e4], &[2, 3]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!(close(sum, 1.0), "row {r} sums to {sum}");
        }
        // Monotone in the logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 0]));
        // Large equal logits do not overflow.
        assert!(close(s.at(&[1, 0]), 1.0 / 3.0));
    }

    #[test]
    fn layernorm_rows_zero_mean_unit_var() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let n = t.layernorm_rows(1e-5);
        assert!(close(n.mean(), 0.0));
        let var = n.norm_sq() / 4.0;
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = Tensor::ones(&[2]);
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.add_scaled_inplace(&g, -0.5);
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn clamp_bounds_values() {
        let t = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]);
        assert_eq!(t.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let t = Tensor::arange(4);
        assert_eq!(t.mse(&t), 0.0);
    }
}
