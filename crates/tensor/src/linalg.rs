//! GEMM, transpose and the `im2col` lowering used for convolutions.
//!
//! All the kernels here dispatch through [`crate::exec`]: outputs are
//! partitioned by whole rows (or, for [`col2im`], whole channels) so that
//! each element is written by exactly one worker and the result is
//! bit-identical at any pool width.

use crate::{exec, packed, Tensor};
use packed::{panels_len, PanelKind};

/// Multiply–add volume (`m·k·n`) below which [`Tensor::matmul`] (and the
/// transposed-operand variants) runs the naive reference kernel instead of
/// packing panels. Packing costs two passes over the operands, which only
/// pays for itself once the product re-reads them a few times over; both
/// paths are bit-identical, so the threshold is purely a performance knob.
///
/// Public so layers built on top (e.g. `Conv2d`) can gate their own
/// pack-heavy fast paths on the same volume.
pub const BLOCKED_MIN_MULADDS: usize = 16 * 16 * 16;

impl Tensor {
    /// Matrix multiplication of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
    ///
    /// Above a fixed multiply–add volume this runs the cache-blocked,
    /// panel-packed GEMM (register-tiled micro-kernel over p-major column
    /// and row panels); small products fall back to
    /// [`Tensor::matmul_reference`]. Both paths accumulate each output
    /// element over ascending `k` with the same zero-skip, so the result is
    /// bit-identical between them and under any `SOLO_THREADS` width.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.shape().ndim(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        if m * k * n < BLOCKED_MIN_MULADDS {
            return self.matmul_reference(other);
        }
        let b_len = panels_len::<f32>(PanelKind::Rhs, k, n);
        let mut b_panels = exec::take_buf_at("gemm.pack_rhs", b_len);
        packed::pack_rhs_into(&mut b_panels, other.as_slice(), k, n);
        let out = packed::gemm_pack_lhs(self.as_slice(), &b_panels, m, k, n);
        exec::recycle_buf(b_panels);
        out
    }

    /// Matrix product with the *right* operand transposed — `self · otherᵀ`,
    /// `[m,k] × [n,k] → [m,n]` — without materializing the transpose.
    ///
    /// Above the [`BLOCKED_MIN_MULADDS`] volume this packs `otherᵀ` into
    /// column panels straight from `other`'s rows (the layout
    /// `PackedMatrix::pack_rhs_transposed` already uses for `Linear`
    /// weights); below it, a reference loop reads `other` row-wise. Both
    /// paths accumulate each output element over ascending `k` with the
    /// zero-skip on `self`, exactly the chains `self.matmul(&other.transpose())`
    /// produces, so the result is bit-identical to that expression at any
    /// pool width — with zero transpose traffic.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the `k` extents differ.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul_at lhs must be rank-2");
        assert_eq!(other.shape().ndim(), 2, "matmul_at rhs must be rank-2");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (n, k2) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(
            k,
            k2,
            "matmul_at inner dimension mismatch: {} vs {}ᵀ",
            self.shape(),
            other.shape()
        );
        if m * k * n < BLOCKED_MIN_MULADDS {
            let a = self.as_slice();
            let b = other.as_slice();
            let mut out = exec::take_buf_at("gemm.out", m * n);
            exec::pool().par_rows(&mut out, n.max(1), 2 * k * n, |i, orow| {
                let arow = &a[i * k..(i + 1) * k];
                for (p, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += av * b[j * k + p];
                    }
                }
            });
            return Tensor::from_vec(out, &[m, n]);
        }
        let b_len = panels_len::<f32>(PanelKind::Rhs, k, n);
        let mut b_panels = exec::take_buf_at("gemm.pack_rhs", b_len);
        packed::pack_rhs_transposed_into(&mut b_panels, other.as_slice(), n, k);
        let out = packed::gemm_pack_lhs(self.as_slice(), &b_panels, m, k, n);
        exec::recycle_buf(b_panels);
        out
    }

    /// Matrix product with the *left* operand transposed — `selfᵀ · other`,
    /// `[k,m] × [k,n] → [m,n]` — without materializing the transpose.
    ///
    /// Above the [`BLOCKED_MIN_MULADDS`] volume this packs `selfᵀ` into row
    /// panels straight from `self`'s rows (each panel row is a contiguous
    /// slice of a source row, so the pack is a strided memcpy); below it, a
    /// reference loop gathers `self` columns. Both paths accumulate over
    /// ascending `k` with the zero-skip on the (logical) left operand, so
    /// the result is bit-identical to `self.transpose().matmul(other)` at
    /// any pool width — with zero transpose traffic.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the `k` extents differ.
    pub fn matmul_ta(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul_ta lhs must be rank-2");
        assert_eq!(other.shape().ndim(), 2, "matmul_ta rhs must be rank-2");
        let (k, m) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(
            k,
            k2,
            "matmul_ta inner dimension mismatch: {}ᵀ vs {}",
            self.shape(),
            other.shape()
        );
        if m * k * n < BLOCKED_MIN_MULADDS {
            let a = self.as_slice();
            let b = other.as_slice();
            let mut out = exec::take_buf_at("gemm.out", m * n);
            exec::pool().par_rows(&mut out, n.max(1), 2 * k * n, |i, orow| {
                for p in 0..k {
                    let av = a[p * m + i];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            });
            return Tensor::from_vec(out, &[m, n]);
        }
        let a_len = panels_len::<f32>(PanelKind::Lhs, m, k);
        let mut a_panels = exec::take_buf_at("gemm.pack_lhs", a_len);
        packed::pack_lhs_transposed_into(&mut a_panels, self.as_slice(), k, m);
        let b_len = panels_len::<f32>(PanelKind::Rhs, k, n);
        let mut b_panels = exec::take_buf_at("gemm.pack_rhs", b_len);
        packed::pack_rhs_into(&mut b_panels, other.as_slice(), k, n);
        let out = packed::gemm_packed(&a_panels, &b_panels, m, k, n);
        exec::recycle_buf(b_panels);
        exec::recycle_buf(a_panels);
        out
    }

    /// The unblocked i-k-j reference GEMM the blocked kernel is verified
    /// against: row-partitioned across the execution pool, ascending-`k`
    /// accumulation per output element, `a == 0.0` terms skipped.
    ///
    /// [`Tensor::matmul`] uses this directly for small products; tests and
    /// benches call it to pin the blocked kernel's bit-identity and speedup.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions differ.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.shape().ndim(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = exec::take_buf_at("gemm.out", m * n);
        exec::pool().par_rows(&mut out, n.max(1), 2 * k * n, |i, orow| {
            let arow = &a[i * k..(i + 1) * k];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// Every call increments [`exec::ExecStats::transposes`]; the training
    /// hot path is expected to keep that counter flat (use the
    /// `matmul_at`/`matmul_ta`/`matvec_t` entry points instead of
    /// transpose-then-multiply).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "transpose requires rank-2");
        exec::note_transpose();
        let (r, c) = (self.shape().dim(0), self.shape().dim(1));
        let src = self.as_slice();
        let mut out = exec::take_buf_at("linalg.transpose", r * c);
        // Row j of the output gathers column j of the input with stride c:
        // once the stride exceeds a cache line (16 f32), every gather touches
        // a fresh line, so the per-row cost scales with the line-miss count,
        // not the element count — hence the `c.min(16)` factor.
        exec::pool().par_rows(&mut out, r.max(1), 2 * r * c.min(16), |j, orow| {
            for (i, o) in orow.iter_mut().enumerate() {
                *o = src[i * c + j];
            }
        });
        Tensor::from_vec(out, &[c, r])
    }

    /// Matrix–vector product: `[m,k] × [k] → [m]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2, `v` is not rank-1, or dimensions
    /// disagree.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matvec lhs must be rank-2");
        assert_eq!(v.shape().ndim(), 1, "matvec rhs must be rank-1");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(k, v.len(), "matvec dimension mismatch");
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = exec::take_buf(m);
        exec::pool().par_rows(&mut out, 1, 2 * k, |i, orow| {
            orow[0] = a[i * k..(i + 1) * k]
                .iter()
                .zip(x)
                .map(|(&av, &xv)| av * xv)
                .sum();
        });
        Tensor::from_vec(out, &[m])
    }

    /// Transposed matrix–vector product: `selfᵀ · v`, `[k,m] × [k] → [m]`,
    /// without materializing the transpose.
    ///
    /// Output element `i` is the ascending-`k` dot of `self`'s column `i`
    /// with `v` — the exact chain `self.transpose().matvec(v)` produces —
    /// so the result is bit-identical to that expression at any pool width.
    /// This is the shape the RNN backward pass wants per timestep.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2, `v` is not rank-1, or dimensions
    /// disagree.
    pub fn matvec_t(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matvec_t lhs must be rank-2");
        assert_eq!(v.shape().ndim(), 1, "matvec_t rhs must be rank-1");
        let (k, m) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(k, v.len(), "matvec_t dimension mismatch");
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = exec::take_buf(m);
        exec::pool().par_rows(&mut out, 1, 2 * k, |i, orow| {
            orow[0] = x.iter().enumerate().map(|(p, &xv)| a[p * m + i] * xv).sum();
        });
        Tensor::from_vec(out, &[m])
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// Long vectors reduce in the same fixed-length chunks as
    /// [`Tensor::sum`], with partials folded in order, so the result does
    /// not depend on the pool width; vectors at or below one chunk reduce
    /// exactly like the original serial kernel.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-1 or lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape().ndim(), 1, "dot lhs must be rank-1");
        assert_eq!(other.shape().ndim(), 1, "dot rhs must be rank-1");
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        let (a, b) = (self.as_slice(), other.as_slice());
        let chunk = crate::ops::REDUCE_CHUNK;
        if a.len() <= chunk {
            return a.iter().zip(b).map(|(&x, &y)| x * y).sum();
        }
        exec::pool()
            .par_partials(a.len(), chunk, |s, e| {
                a[s..e]
                    .iter()
                    .zip(&b[s..e])
                    .map(|(&x, &y)| x * y)
                    .sum::<f32>()
            })
            .iter()
            .sum()
    }
}

/// Geometry of an `im2col` lowering for a 2-D convolution over a `[C, H, W]`
/// input.
///
/// The same spec is reused by [`im2col`] (forward) and [`col2im`] (gradient
/// scatter in the backward pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2ColSpec {
    /// Input channel count.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding in both directions.
    pub padding: usize,
    /// Dilation in both directions (1 = dense kernel).
    pub dilation: usize,
}

impl Im2ColSpec {
    /// Output height of the convolution this spec describes.
    pub fn out_height(&self) -> usize {
        conv_out(
            self.height,
            self.kernel,
            self.stride,
            self.padding,
            self.dilation,
        )
    }

    /// Output width of the convolution this spec describes.
    pub fn out_width(&self) -> usize {
        conv_out(
            self.width,
            self.kernel,
            self.stride,
            self.padding,
            self.dilation,
        )
    }

    /// Rows of the patch matrix this spec lowers to: `C·k·k`, one row per
    /// kernel tap.
    pub fn patch_rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Columns of the patch matrix: `outH·outW`, one column per output
    /// position.
    pub fn patch_cols(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Decomposes a patch-matrix row index into its `(channel, ki, kj)`
    /// kernel tap — the inverse of `row = (c·k + ki)·k + kj`.
    #[inline]
    pub fn tap(&self, row: usize) -> (usize, usize, usize) {
        let k = self.kernel;
        (row / (k * k), (row / k) % k, row % k)
    }

    /// The (zero-padded) input pixel that kernel tap `(c, ki, kj)` reads at
    /// output position `(oi, oj)` — the single geometry rule shared by
    /// [`im2col`], [`col2im`] and the implicit-GEMM panel packers, which is
    /// why packing panels straight from the image yields exactly the values
    /// a materialized patch matrix would hold.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than the `[C, H, W]` volume the spec
    /// describes and the tap lands in bounds.
    #[inline]
    pub fn pixel(&self, src: &[f32], c: usize, ki: usize, kj: usize, oi: usize, oj: usize) -> f32 {
        let ii = (oi * self.stride + ki * self.dilation) as isize - self.padding as isize;
        let jj = (oj * self.stride + kj * self.dilation) as isize - self.padding as isize;
        if ii < 0 || ii >= self.height as isize || jj < 0 || jj >= self.width as isize {
            0.0
        } else {
            src[(c * self.height + ii as usize) * self.width + jj as usize]
        }
    }
}

fn conv_out(dim: usize, kernel: usize, stride: usize, padding: usize, dilation: usize) -> usize {
    let eff = dilation * (kernel - 1) + 1;
    (dim + 2 * padding).saturating_sub(eff) / stride + 1
}

/// Lowers a `[C, H, W]` image into the `[C·k·k, outH·outW]` patch matrix so a
/// convolution becomes a single GEMM with the `[outC, C·k·k]` weight matrix.
///
/// # Panics
///
/// Panics if `input` is not rank-3 or does not match `spec`.
pub fn im2col(input: &Tensor, spec: &Im2ColSpec) -> Tensor {
    assert_eq!(input.shape().ndim(), 3, "im2col input must be [C,H,W]");
    assert_eq!(
        input.shape().dims(),
        &[spec.channels, spec.height, spec.width],
        "im2col input does not match spec"
    );
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let rows = spec.patch_rows();
    let cols = oh * ow;
    let src = input.as_slice();
    let mut out = exec::take_buf_at("linalg.im2col", rows * cols);
    // One patch row per (channel, ki, kj) kernel tap; rows are independent.
    exec::pool().par_rows(&mut out, cols.max(1), 4 * cols, |row, orow| {
        let (c, ki, kj) = spec.tap(row);
        for oi in 0..oh {
            let ii = (oi * spec.stride + ki * spec.dilation) as isize - spec.padding as isize;
            if ii < 0 || ii >= spec.height as isize {
                continue;
            }
            for oj in 0..ow {
                let jj = (oj * spec.stride + kj * spec.dilation) as isize - spec.padding as isize;
                if jj < 0 || jj >= spec.width as isize {
                    continue;
                }
                orow[oi * ow + oj] =
                    src[(c * spec.height + ii as usize) * spec.width + jj as usize];
            }
        }
    });
    Tensor::from_vec(out, &[rows, cols])
}

/// Scatters a `[C·k·k, outH·outW]` patch-gradient matrix back onto the
/// `[C, H, W]` input layout — the adjoint of [`im2col`], used by the
/// convolution backward pass.
///
/// # Panics
///
/// Panics if `cols` is not rank-2 or its shape disagrees with `spec`.
pub fn col2im(cols: &Tensor, spec: &Im2ColSpec) -> Tensor {
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let k = spec.kernel;
    assert_eq!(cols.shape().ndim(), 2, "col2im input must be rank-2");
    assert_eq!(
        cols.shape().dims(),
        &[spec.channels * k * k, oh * ow],
        "col2im input does not match spec"
    );
    let src = cols.as_slice();
    let ncols = oh * ow;
    let plane = spec.height * spec.width;
    let mut out = exec::take_buf_at("linalg.col2im", spec.channels * plane);
    // Kernel taps of the same channel scatter-add into overlapping pixels,
    // so the finest safe partition is one whole channel plane per task; the
    // per-channel accumulation order is the same as the serial kernel's.
    exec::pool().par_rows(&mut out, plane.max(1), 4 * k * k * ncols, |c, chunk| {
        for ki in 0..k {
            for kj in 0..k {
                let row = (c * k + ki) * k + kj;
                for oi in 0..oh {
                    let ii =
                        (oi * spec.stride + ki * spec.dilation) as isize - spec.padding as isize;
                    if ii < 0 || ii >= spec.height as isize {
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * spec.stride + kj * spec.dilation) as isize
                            - spec.padding as isize;
                        if jj < 0 || jj >= spec.width as isize {
                            continue;
                        }
                        chunk[ii as usize * spec.width + jj as usize] +=
                            src[row * ncols + oi * ow + oj];
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[spec.channels, spec.height, spec.width])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul(&b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_dims() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.transpose(), a);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
    }

    #[test]
    fn matmul_at_ta_bit_identical_to_transpose_path() {
        use crate::{normal, seeded_rng};
        // Shapes below and above BLOCKED_MIN_MULADDS so both the reference
        // loops and the transposed-packing paths are exercised, with ragged
        // tile boundaries in each dimension.
        let shapes = [
            (2, 3, 4),
            (5, 7, 9),
            (13, 17, 19),
            (24, 40, 33),
            (33, 64, 48),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let mut rng = seeded_rng(300 + i as u64);
            let a =
                normal(&mut rng, &[m, k], 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
            let bt = normal(&mut rng, &[n, k], 0.0, 1.0);
            let want_at = a.matmul(&bt.transpose());
            assert_eq!(
                a.matmul_at(&bt).as_slice(),
                want_at.as_slice(),
                "matmul_at {m}x{k}x{n} diverged"
            );
            let at =
                normal(&mut rng, &[k, m], 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
            let b = normal(&mut rng, &[k, n], 0.0, 1.0);
            let want_ta = at.transpose().matmul(&b);
            assert_eq!(
                at.matmul_ta(&b).as_slice(),
                want_ta.as_slice(),
                "matmul_ta {m}x{k}x{n} diverged"
            );
        }
    }

    #[test]
    fn matvec_t_matches_transposed_matvec() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(42);
        let a = normal(&mut rng, &[7, 5], 0.0, 1.0);
        let v = normal(&mut rng, &[7], 0.0, 1.0);
        assert_eq!(
            a.matvec_t(&v).as_slice(),
            a.transpose().matvec(&v).as_slice()
        );
    }

    #[test]
    fn transpose_increments_the_stats_counter() {
        let before = exec::stats().transposes;
        let _ = Tensor::arange(6).reshape(&[2, 3]).transpose();
        assert!(exec::stats().transposes > before);
    }

    #[test]
    fn patch_geometry_matches_materialized_im2col() {
        let spec = Im2ColSpec {
            channels: 2,
            height: 5,
            width: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
        };
        let img = Tensor::arange((2 * 5 * 4) as usize).reshape(&[2, 5, 4]);
        let cols = im2col(&img, &spec);
        assert_eq!(cols.shape().dims(), &[spec.patch_rows(), spec.patch_cols()]);
        let ow = spec.out_width();
        for row in 0..spec.patch_rows() {
            let (c, ki, kj) = spec.tap(row);
            for col in 0..spec.patch_cols() {
                let want = cols.at(&[row, col]);
                let got = spec.pixel(img.as_slice(), c, ki, kj, col / ow, col % ow);
                assert_eq!(got, want, "pixel mismatch at ({row}, {col})");
            }
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let v = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]);
        let got = a.matvec(&v);
        let want = a.matmul(&v.reshape(&[3, 1]));
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn dot_of_orthogonal_is_zero() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![0.0, 3.0], &[2]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn conv_out_dims() {
        let spec = Im2ColSpec {
            channels: 1,
            height: 5,
            width: 5,
            kernel: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        assert_eq!(spec.out_height(), 5);
        assert_eq!(spec.out_width(), 5);
        let strided = Im2ColSpec { stride: 2, ..spec };
        assert_eq!(strided.out_height(), 3);
        let dilated = Im2ColSpec {
            dilation: 2,
            padding: 2,
            ..spec
        };
        assert_eq!(dilated.out_height(), 5);
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 should reproduce the image as one row
        // per channel.
        let img = Tensor::arange(8).reshape(&[2, 2, 2]);
        let spec = Im2ColSpec {
            channels: 2,
            height: 2,
            width: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
            dilation: 1,
        };
        let cols = im2col(&img, &spec);
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_padding_inserts_zeros() {
        let img = Tensor::ones(&[1, 2, 2]);
        let spec = Im2ColSpec {
            channels: 1,
            height: 2,
            width: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        let cols = im2col(&img, &spec);
        assert_eq!(cols.shape().dims(), &[9, 4]);
        // Top-left kernel tap over output (0,0) reads padded zero.
        assert_eq!(cols.at(&[0, 0]), 0.0);
        // Center tap always reads real pixels.
        assert_eq!(cols.at(&[4, 0]), 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y: the defining
        // property of the adjoint, which the conv backward pass relies on.
        let spec = Im2ColSpec {
            channels: 2,
            height: 4,
            width: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
        };
        let x = Tensor::arange(32).reshape(&[2, 4, 4]);
        let fwd = im2col(&x, &spec);
        let y = fwd.map(|v| (v * 0.37).sin()); // arbitrary cotangent
        let lhs: f32 = fwd
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, &spec);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3,
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }
}
