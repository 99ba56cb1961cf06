//! The index map `H(i,j) = [g1(i,j), g2(i,j)]` (Eq. 2/3) and its samplers.

use solo_tensor::{exec, Tensor};

/// Geometry and kernel width of a saliency-guided sampling operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerSpec {
    /// Source (full-resolution) height `H`.
    pub src_h: usize,
    /// Source width `W`.
    pub src_w: usize,
    /// Output (downsampled) height `h`.
    pub out_h: usize,
    /// Output width `w`.
    pub out_w: usize,
    /// Gaussian kernel standard deviation σ, in *source pixels* (the paper
    /// uses 35–50 for its datasets).
    pub sigma: f32,
}

impl SamplerSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, the output exceeds the source, or
    /// `sigma` is not positive.
    pub fn new(src_h: usize, src_w: usize, out_h: usize, out_w: usize, sigma: f32) -> Self {
        assert!(
            src_h > 0 && src_w > 0 && out_h > 0 && out_w > 0,
            "dimensions must be nonzero"
        );
        assert!(
            out_h <= src_h && out_w <= src_w,
            "output must not exceed source"
        );
        assert!(sigma > 0.0, "sigma must be positive");
        Self {
            src_h,
            src_w,
            out_h,
            out_w,
            sigma,
        }
    }

    /// This spec with the sampler widened by an area factor `widen`: σ
    /// grows to σ·√max(widen, 1), so `widen = 1` leaves it bit for bit
    /// unchanged. The degradation ladder's widened crop hedges a stale
    /// gaze this way on whatever saliency map its rung samples.
    pub fn widened(&self, widen: f32) -> Self {
        Self {
            sigma: self.sigma * widen.max(1.0).sqrt(),
            ..*self
        }
    }
}

/// The sampling map `H(i, j) = [g1(i, j), g2(i, j)]`: for every output pixel
/// the (fractional) source coordinate it reads.
///
/// Produced by the SOLO accelerator's sensor controller and consumed by
/// (a) the SBS-enabled image sensor, which reads out only the pixels the map
/// selects, and (b) the software samplers below.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexMap {
    ys: Vec<f32>, // g1, row coordinate per output pixel, row-major [out_h*out_w]
    xs: Vec<f32>, // g2, column coordinate
    spec: SamplerSpec,
}

impl IndexMap {
    /// Builds the map from a saliency score grid via Eq. 2/3.
    ///
    /// `saliency` is a rank-2 `[gh, gw]` tensor of non-negative scores (any
    /// resolution — it is interpreted on normalized coordinates). Scores of
    /// zero everywhere degenerate to uniform sampling.
    ///
    /// # Panics
    ///
    /// Panics if `saliency` is not rank-2 or contains negative values.
    pub fn from_saliency(spec: &SamplerSpec, saliency: &Tensor) -> Self {
        assert_eq!(saliency.shape().ndim(), 2, "saliency must be rank-2");
        assert!(
            saliency.as_slice().iter().all(|&v| v >= 0.0),
            "saliency scores must be non-negative"
        );
        let (gh, gw) = (saliency.shape().dim(0), saliency.shape().dim(1));
        let s = saliency.as_slice();
        // Normalized kernel width: σ in source pixels → normalized units.
        let sig_y = spec.sigma / spec.src_h as f32;
        let sig_x = spec.sigma / spec.src_w as f32;
        let total: f32 = saliency.sum();
        let (out_h, out_w) = (spec.out_h, spec.out_w);
        // Coordinate storage comes from the exec scratch pool: the
        // speculation layer builds K candidate maps per saccade and
        // recycles the aborted ones via `IndexMap::recycle`, so candidate
        // churn reuses the same allocations.
        // lint:allow(X1): custody transfers into the returned IndexMap; `IndexMap::recycle` returns it
        let mut ys = exec::take_buf_at("sampler::index_map", out_h * out_w);
        // lint:allow(X1): custody transfers into the returned IndexMap; `IndexMap::recycle` returns it
        let mut xs = exec::take_buf_at("sampler::index_map", out_h * out_w);
        // Precompute grid coordinates (normalized pixel centers).
        let gy: Vec<f32> = (0..gh).map(|i| (i as f32 + 0.5) / gh as f32).collect();
        let gx: Vec<f32> = (0..gw).map(|j| (j as f32 + 0.5) / gw as f32).collect();
        for oi in 0..out_h {
            let cy = (oi as f32 + 0.5) / out_h as f32;
            // Per-row kernel values over grid rows (separable Gaussian).
            let ky: Vec<f32> = gy
                .iter()
                .map(|&y| (-((cy - y) * (cy - y)) / (2.0 * sig_y * sig_y)).exp())
                .collect();
            for oj in 0..out_w {
                let cx = (oj as f32 + 0.5) / out_w as f32;
                let kx: Vec<f32> = gx
                    .iter()
                    .map(|&x| (-((cx - x) * (cx - x)) / (2.0 * sig_x * sig_x)).exp())
                    .collect();
                let mut num_y = 0.0f32;
                let mut num_x = 0.0f32;
                let mut den = 0.0f32;
                for i in 0..gh {
                    let kyi = ky[i];
                    if kyi < 1e-12 {
                        continue;
                    }
                    for j in 0..gw {
                        let w = s[i * gw + j] * kyi * kx[j];
                        den += w;
                        num_y += w * gy[i];
                        num_x += w * gx[j];
                    }
                }
                let (ny, nx) = if den > 1e-12 && total > 0.0 {
                    (num_y / den, num_x / den)
                } else {
                    (cy, cx) // degenerate saliency → uniform
                };
                ys[oi * out_w + oj] =
                    (ny * spec.src_h as f32 - 0.5).clamp(0.0, (spec.src_h - 1) as f32);
                xs[oi * out_w + oj] =
                    (nx * spec.src_w as f32 - 0.5).clamp(0.0, (spec.src_w - 1) as f32);
            }
        }
        Self {
            ys,
            xs,
            spec: *spec,
        }
    }

    /// The uniform (evenly-subsampled) map — what the camera uses to produce
    /// the preview frame `I_f^d`.
    pub fn uniform(spec: &SamplerSpec) -> Self {
        let (out_h, out_w) = (spec.out_h, spec.out_w);
        // lint:allow(X1): custody transfers into the returned IndexMap; `IndexMap::recycle` returns it
        let mut ys = exec::take_buf_at("sampler::index_map", out_h * out_w);
        // lint:allow(X1): custody transfers into the returned IndexMap; `IndexMap::recycle` returns it
        let mut xs = exec::take_buf_at("sampler::index_map", out_h * out_w);
        for oi in 0..out_h {
            let y = ((oi as f32 + 0.5) / out_h as f32 * spec.src_h as f32 - 0.5)
                .clamp(0.0, (spec.src_h - 1) as f32);
            for oj in 0..out_w {
                let x = ((oj as f32 + 0.5) / out_w as f32 * spec.src_w as f32 - 0.5)
                    .clamp(0.0, (spec.src_w - 1) as f32);
                ys[oi * out_w + oj] = y;
                xs[oi * out_w + oj] = x;
            }
        }
        Self {
            ys,
            xs,
            spec: *spec,
        }
    }

    /// The spec this map was built for.
    pub fn spec(&self) -> &SamplerSpec {
        &self.spec
    }

    /// Returns the map's coordinate buffers to the exec scratch pool — the
    /// abort path of a speculative candidate that was never committed.
    /// Dropping a map is also correct (nothing leaks); recycling lets the
    /// next candidate reuse the allocations instead of growing the heap.
    pub fn recycle(self) {
        exec::recycle_buf(self.ys);
        exec::recycle_buf(self.xs);
    }

    /// The fractional source coordinate `(row, col)` for output pixel
    /// `(i, j)` — the paper's `H(i,j) = [g1(i,j), g2(i,j)]`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of range.
    pub fn source_coord(&self, i: usize, j: usize) -> (f32, f32) {
        assert!(
            i < self.spec.out_h && j < self.spec.out_w,
            "index out of range"
        );
        let off = i * self.spec.out_w + j;
        (self.ys[off], self.xs[off])
    }

    /// Integer source pixels (rounded), the exact set the SBS sensor reads.
    pub fn pixel_indices(&self) -> Vec<(usize, usize)> {
        self.ys
            .iter()
            .zip(&self.xs)
            .map(|(&y, &x)| {
                (
                    (y.round() as usize).min(self.spec.src_h - 1),
                    (x.round() as usize).min(self.spec.src_w - 1),
                )
            })
            .collect()
    }

    /// Number of *distinct* source pixels selected (duplicates collapse:
    /// the sensor reads a pixel once however many output cells map to it).
    pub fn unique_pixel_count(&self) -> usize {
        let mut px = self.pixel_indices();
        px.sort_unstable();
        px.dedup();
        px.len()
    }

    /// Samples a `[C, H, W]` image with nearest-neighbour lookup — the
    /// digital equivalent of the SBS sensor readout (the sensor can only
    /// read whole pixels).
    ///
    /// # Panics
    ///
    /// Panics if `img` is not rank-3 or its spatial size differs from the
    /// spec.
    pub fn sample_nearest(&self, img: &Tensor) -> Tensor {
        self.check_img(img);
        let (c, h, w) = (img.shape().dim(0), img.shape().dim(1), img.shape().dim(2));
        let (oh, ow) = (self.spec.out_h, self.spec.out_w);
        let src = img.as_slice();
        let (ys, xs) = (&self.ys, &self.xs);
        // One task per (channel, output row): every output element is
        // written by exactly one worker, so the gather is bit-identical at
        // any pool width.
        let mut out = exec::take_buf(c * oh * ow);
        exec::pool().par_rows(&mut out, ow.max(1), 8 * ow, |r, orow| {
            let ch = r / oh;
            let oi = r % oh;
            let base = ch * h * w;
            for (oj, o) in orow.iter_mut().enumerate() {
                let off = oi * ow + oj;
                let yi = (ys[off].round() as usize).min(h - 1);
                let xi = (xs[off].round() as usize).min(w - 1);
                *o = src[base + yi * w + xi];
            }
        });
        Tensor::from_vec(out, &[c, oh, ow])
    }

    /// Samples with bilinear interpolation at the fractional coordinates —
    /// the differentiable sampler used during training.
    ///
    /// # Panics
    ///
    /// Panics if `img` is not rank-3 or its spatial size differs from the
    /// spec.
    pub fn sample_bilinear(&self, img: &Tensor) -> Tensor {
        self.check_img(img);
        let (c, h, w) = (img.shape().dim(0), img.shape().dim(1), img.shape().dim(2));
        let (oh, ow) = (self.spec.out_h, self.spec.out_w);
        let src = img.as_slice();
        let (ys, xs) = (&self.ys, &self.xs);
        // Partitioned like `sample_nearest`: one (channel, output-row) task
        // per row, each element's interpolation computed by a single worker.
        let mut out = exec::take_buf(c * oh * ow);
        exec::pool().par_rows(&mut out, ow.max(1), 16 * ow, |r, orow| {
            let ch = r / oh;
            let oi = r % oh;
            let base = ch * h * w;
            for (oj, o) in orow.iter_mut().enumerate() {
                let off = oi * ow + oj;
                let (y, x) = (ys[off], xs[off]);
                let y0 = y.floor() as usize;
                let x0 = x.floor() as usize;
                let y1 = (y0 + 1).min(h - 1);
                let x1 = (x0 + 1).min(w - 1);
                let wy = y - y0 as f32;
                let wx = x - x0 as f32;
                let v00 = src[base + y0 * w + x0];
                let v01 = src[base + y0 * w + x1];
                let v10 = src[base + y1 * w + x0];
                let v11 = src[base + y1 * w + x1];
                let top = v00 + (v01 - v00) * wx;
                let bot = v10 + (v11 - v10) * wx;
                *o = top + (bot - top) * wy;
            }
        });
        Tensor::from_vec(out, &[c, oh, ow])
    }

    /// Maps a *source* pixel `(row, col)` to the output cell that samples
    /// nearest to it — the (approximate, axis-separable) inverse of the
    /// mapping, used e.g. to locate the gaze in the warped image.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the source frame.
    pub fn warp_source_point(&self, row: usize, col: usize) -> (usize, usize) {
        assert!(
            row < self.spec.src_h && col < self.spec.src_w,
            "source point out of bounds"
        );
        let (oh, ow) = (self.spec.out_h, self.spec.out_w);
        let mut best_i = 0;
        let mut best_dy = f32::INFINITY;
        for i in 0..oh {
            let mean: f32 = self.ys[i * ow..(i + 1) * ow].iter().sum::<f32>() / ow as f32;
            let d = (mean - row as f32).abs();
            if d < best_dy {
                best_dy = d;
                best_i = i;
            }
        }
        let mut best_j = 0;
        let mut best_dx = f32::INFINITY;
        for j in 0..ow {
            let mut mean = 0.0;
            for i in 0..oh {
                mean += self.xs[i * ow + j];
            }
            mean /= oh as f32;
            let d = (mean - col as f32).abs();
            if d < best_dx {
                best_dx = d;
                best_j = j;
            }
        }
        (best_i, best_j)
    }

    /// The reverse sampler `g⁻¹`: expands a `[C, out_h, out_w]` map (e.g. a
    /// segmentation label map) back to `[C, H, W]`.
    ///
    /// Each source pixel is assigned the output cell whose sampled source
    /// coordinate is nearest — the Voronoi inverse of the warp, seeded by
    /// an axis-separable estimate and refined by a local 2-D search (the
    /// true warp is not separable; pure row/column assignment misplaces
    /// mask pixels badly enough to halve the round-trip IoU of small
    /// objects). Values are copied nearest-neighbour in warped space,
    /// which keeps label maps crisp.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not rank-3 or its spatial size differs from the
    /// spec.
    pub fn upsample(&self, map: &Tensor) -> Tensor {
        assert_eq!(map.shape().ndim(), 3, "upsample input must be [C,h,w]");
        assert_eq!(
            map.shape().dims()[1..],
            [self.spec.out_h, self.spec.out_w],
            "map spatial size does not match spec"
        );
        let (c, oh, ow) = (map.shape().dim(0), self.spec.out_h, self.spec.out_w);
        let (h, w) = (self.spec.src_h, self.spec.src_w);
        // Separable seed: mean source row per output row / column per
        // output column.
        let mut row_centers = vec![0.0f32; oh];
        for i in 0..oh {
            row_centers[i] = self.ys[i * ow..(i + 1) * ow].iter().sum::<f32>() / ow as f32;
        }
        let mut col_centers = vec![0.0f32; ow];
        for j in 0..ow {
            let mut acc = 0.0;
            for i in 0..oh {
                acc += self.xs[i * ow + j];
            }
            col_centers[j] = acc / oh as f32;
        }
        let row_of = nearest_assignment(&row_centers, h);
        let col_of = nearest_assignment(&col_centers, w);
        let (ys, xs) = (&self.ys, &self.xs);
        // Pass 1 — per source pixel, the winning output cell; the search
        // runs once per pixel and is shared by every channel. Cell ids are
        // stored as f32 so the pass rides the pooled f32 row dispatch
        // (exact as long as they fit the f32 mantissa, asserted here).
        assert!(
            oh * ow < (1 << 24),
            "upsample: output cell ids must be f32-exact"
        );
        const R: isize = 2; // refinement radius in output cells
        let mut cells = exec::take_buf(h * w);
        exec::pool().par_rows(&mut cells, w.max(1), 130 * w, |y, orow| {
            let i0 = row_of[y] as isize;
            for (x, o) in orow.iter_mut().enumerate() {
                let j0 = col_of[x] as isize;
                // Refine: nearest sample in the (2R+1)² neighbourhood.
                let mut best = (row_of[y], col_of[x]);
                let mut best_d = f32::INFINITY;
                for di in -R..=R {
                    let i = i0 + di;
                    if i < 0 || i >= oh as isize {
                        continue;
                    }
                    for dj in -R..=R {
                        let j = j0 + dj;
                        if j < 0 || j >= ow as isize {
                            continue;
                        }
                        let (iu, ju) = (i as usize, j as usize);
                        let off = iu * ow + ju;
                        let dy = ys[off] - y as f32;
                        let dx = xs[off] - x as f32;
                        let d = dy * dy + dx * dx;
                        if d < best_d {
                            best_d = d;
                            best = (iu, ju);
                        }
                    }
                }
                *o = (best.0 * ow + best.1) as f32;
            }
        });
        // Pass 2 — nearest-neighbour copy per (channel, source row).
        let src = map.as_slice();
        let mut out = exec::take_buf(c * h * w);
        exec::pool().par_rows(&mut out, w.max(1), 4 * w, |r, orow| {
            let ch = r / h;
            let y = r % h;
            let crow = &cells[y * w..(y + 1) * w];
            for (o, &cell) in orow.iter_mut().zip(crow) {
                let off = cell as usize;
                *o = src[ch * oh * ow + off];
            }
        });
        exec::recycle_buf(cells);
        Tensor::from_vec(out, &[c, h, w])
    }

    /// The full-resolution binary mask of a sampled one-channel mask
    /// (`out_h · out_w` values, any shape): [`Self::upsample`], reshaped to
    /// `[src_h, src_w]`, then thresholded at 0.5. The mask is moved into
    /// the reverse sampler, not copied.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not hold `out_h · out_w` values.
    pub fn upsample_mask(&self, mask: Tensor) -> Tensor {
        let s = &self.spec;
        self.upsample(&mask.into_reshaped(&[1, s.out_h, s.out_w]))
            .into_reshaped(&[s.src_h, s.src_w])
            .map(|v| if v > 0.5 { 1.0 } else { 0.0 })
    }

    fn check_img(&self, img: &Tensor) {
        assert_eq!(img.shape().ndim(), 3, "image must be [C,H,W]");
        assert_eq!(
            img.shape().dims()[1..],
            [self.spec.src_h, self.spec.src_w],
            "image spatial size {} does not match spec ({}×{})",
            img.shape(),
            self.spec.src_h,
            self.spec.src_w
        );
    }
}

/// For each source coordinate `0..n`, the index of the nearest center
/// (centers assumed sorted non-decreasing, as the monotone sampler grids
/// are). Two-pointer sweep, O(n + centers).
fn nearest_assignment(centers: &[f32], n: usize) -> Vec<usize> {
    let mut out = vec![0usize; n];
    let mut k = 0usize;
    for (y, slot) in out.iter_mut().enumerate() {
        let yf = y as f32;
        while k + 1 < centers.len() && (centers[k + 1] - yf).abs() <= (centers[k] - yf).abs() {
            k += 1;
        }
        *slot = k;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaze_saliency;

    fn spec() -> SamplerSpec {
        SamplerSpec::new(64, 64, 16, 16, 8.0)
    }

    #[test]
    fn uniform_map_is_evenly_spaced() {
        let m = IndexMap::uniform(&spec());
        let (y0, x0) = m.source_coord(0, 0);
        let (y1, x1) = m.source_coord(1, 1);
        assert!((y1 - y0 - 4.0).abs() < 1e-4);
        assert!((x1 - x0 - 4.0).abs() < 1e-4);
    }

    #[test]
    fn uniform_saliency_reduces_to_uniform_sampling() {
        let s = Tensor::ones(&[16, 16]);
        let m = IndexMap::from_saliency(&spec(), &s);
        let u = IndexMap::uniform(&spec());
        // The Gaussian-weighted average with flat saliency shrinks toward
        // the grid center slightly at the borders; interior samples match.
        for i in 4..12 {
            for j in 4..12 {
                let (ys, xs) = m.source_coord(i, j);
                let (yu, xu) = u.source_coord(i, j);
                assert!((ys - yu).abs() < 2.0, "row {i},{j}: {ys} vs {yu}");
                assert!((xs - xu).abs() < 2.0, "col {i},{j}: {xs} vs {xu}");
            }
        }
    }

    #[test]
    fn coordinates_stay_in_bounds() {
        let s = gaze_saliency(16, 16, (0.9, 0.1), 0.1, 0.01);
        let m = IndexMap::from_saliency(&spec(), &s);
        for i in 0..16 {
            for j in 0..16 {
                let (y, x) = m.source_coord(i, j);
                assert!((0.0..=63.0).contains(&y));
                assert!((0.0..=63.0).contains(&x));
            }
        }
    }

    #[test]
    fn saliency_attracts_samples() {
        // Gaze at upper-left quadrant: more distinct samples should land in
        // the upper-left quadrant than with uniform sampling.
        let s = gaze_saliency(16, 16, (0.25, 0.25), 0.1, 0.02);
        let m = IndexMap::from_saliency(&spec(), &s);
        let u = IndexMap::uniform(&spec());
        let count_ul = |m: &IndexMap| {
            m.pixel_indices()
                .iter()
                .filter(|&&(y, x)| y < 32 && x < 32)
                .count()
        };
        assert!(
            count_ul(&m) > count_ul(&u) + 16,
            "saliency {} vs uniform {}",
            count_ul(&m),
            count_ul(&u)
        );
    }

    #[test]
    fn mapping_is_monotone_along_axes() {
        let s = gaze_saliency(16, 16, (0.5, 0.5), 0.15, 0.05);
        let m = IndexMap::from_saliency(&spec(), &s);
        for i in 0..16 {
            for j in 1..16 {
                let (_, x_prev) = m.source_coord(i, j - 1);
                let (_, x) = m.source_coord(i, j);
                assert!(x >= x_prev - 1e-3, "row {i}: col coords not monotone");
            }
        }
        for j in 0..16 {
            for i in 1..16 {
                let (y_prev, _) = m.source_coord(i - 1, j);
                let (y, _) = m.source_coord(i, j);
                assert!(y >= y_prev - 1e-3, "col {j}: row coords not monotone");
            }
        }
    }

    #[test]
    fn sample_nearest_reads_exact_pixels() {
        let mut img = Tensor::zeros(&[1, 64, 64]);
        for (y, x) in IndexMap::uniform(&spec()).pixel_indices() {
            img.set(&[0, y, x], 1.0);
        }
        let out = IndexMap::uniform(&spec()).sample_nearest(&img);
        assert!(out.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn sample_bilinear_constant_image() {
        let img = Tensor::full(&[2, 64, 64], 0.3);
        let s = gaze_saliency(16, 16, (0.7, 0.3), 0.1, 0.02);
        let out = IndexMap::from_saliency(&spec(), &s).sample_bilinear(&img);
        assert!(out.as_slice().iter().all(|&v| (v - 0.3).abs() < 1e-5));
    }

    #[test]
    fn upsample_inverts_uniform_sampling_of_blocky_image() {
        // A blocky image that is constant within 4×4 blocks survives a
        // 16×16 round trip exactly under the uniform map.
        let mut img = Tensor::zeros(&[1, 64, 64]);
        for y in 0..64 {
            for x in 0..64 {
                img.set(&[0, y, x], ((y / 4 + x / 4) % 2) as f32);
            }
        }
        let m = IndexMap::uniform(&spec());
        let down = m.sample_nearest(&img);
        let up = m.upsample(&down);
        let diff: f32 = img.sub(&up).norm_sq();
        assert_eq!(diff, 0.0);
    }

    #[test]
    fn widening_scales_sigma_by_the_root_of_the_area_and_never_narrows() {
        let base = spec();
        assert_eq!(base.widened(1.0), base);
        assert_eq!(base.widened(0.25), base);
        assert_eq!(base.widened(4.0).sigma, 2.0 * base.sigma);
        assert_eq!(base.widened(4.0).out_h, base.out_h);
    }

    #[test]
    fn upsample_mask_thresholds_the_reverse_sampled_mask() {
        let s = gaze_saliency(16, 16, (0.4, 0.6), 0.1, 0.02);
        let m = IndexMap::from_saliency(&spec(), &s);
        let mask = Tensor::from_vec((0..256).map(|i| (i % 7) as f32 / 6.0).collect(), &[16, 16]);
        let up = m.upsample(&mask.reshape(&[1, 16, 16]));
        let expected = up.map(|v| if v > 0.5 { 1.0 } else { 0.0 });
        let got = m.upsample_mask(mask);
        assert_eq!(got.shape().dims(), &[64, 64]);
        assert_eq!(got.as_slice(), expected.as_slice());
    }

    #[test]
    fn unique_pixels_never_exceed_outputs() {
        let s = gaze_saliency(16, 16, (0.5, 0.5), 0.08, 0.01);
        let m = IndexMap::from_saliency(&spec(), &s);
        assert!(m.unique_pixel_count() <= 16 * 16);
        assert!(m.unique_pixel_count() > 0);
    }

    #[test]
    fn recycled_buffers_do_not_leak_into_later_maps() {
        // The speculation abort path: building a map after recycling one
        // must give bit-identical coordinates (pooled buffers are re-zeroed
        // on handout).
        let s = gaze_saliency(16, 16, (0.3, 0.7), 0.1, 0.02);
        let fresh = IndexMap::from_saliency(&spec(), &s);
        let copy = fresh.clone();
        fresh.recycle();
        let rebuilt = IndexMap::from_saliency(&spec(), &s);
        assert_eq!(copy, rebuilt);
        let u = IndexMap::uniform(&spec());
        u.recycle();
        assert_eq!(IndexMap::uniform(&spec()), IndexMap::uniform(&spec()));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_saliency() {
        let s = Tensor::full(&[4, 4], -1.0);
        IndexMap::from_saliency(&spec(), &s);
    }

    #[test]
    #[should_panic(expected = "must not exceed source")]
    fn spec_rejects_upsampling() {
        SamplerSpec::new(8, 8, 16, 16, 4.0);
    }
}
