//! Saliency score map construction.

use solo_tensor::Tensor;

/// A gaze-centered Gaussian saliency prior on a `[gh, gw]` grid.
///
/// `gaze` is the normalized `(x, y)` gaze location in `[0, 1]²` (x = column
/// fraction, matching the gaze-tracker convention); `sigma_frac` is the
/// Gaussian width as a fraction of the grid extent; `floor` is a uniform
/// pedestal ensuring peripheral regions keep nonzero sampling density (the
/// paper's sampler compresses but never discards the periphery).
///
/// # Panics
///
/// Panics if dimensions are zero, `sigma_frac <= 0`, or `floor < 0`.
pub fn gaze_saliency(
    gh: usize,
    gw: usize,
    gaze: (f32, f32),
    sigma_frac: f32,
    floor: f32,
) -> Tensor {
    assert!(gh > 0 && gw > 0, "grid dimensions must be nonzero");
    assert!(sigma_frac > 0.0, "sigma_frac must be positive");
    assert!(floor >= 0.0, "floor must be non-negative");
    let (gx, gy) = gaze;
    let mut out = vec![0.0f32; gh * gw];
    for i in 0..gh {
        let y = (i as f32 + 0.5) / gh as f32;
        for j in 0..gw {
            let x = (j as f32 + 0.5) / gw as f32;
            let d2 = (x - gx) * (x - gx) + (y - gy) * (y - gy);
            out[i * gw + j] = floor + (-d2 / (2.0 * sigma_frac * sigma_frac)).exp();
        }
    }
    Tensor::from_vec(out, &[gh, gw])
}

/// Blends two saliency maps of identical shape: `a·w + b·(1−w)`.
///
/// SOLO's ESNet combines the gaze prior with the learned saliency of the
/// preview frame `I_f^d`; this is the fusion primitive.
///
/// # Panics
///
/// Panics if shapes differ or `w` is outside `[0, 1]`.
pub fn mix_saliency(a: &Tensor, b: &Tensor, w: f32) -> Tensor {
    assert!((0.0..=1.0).contains(&w), "mix weight must be in [0,1]");
    a.zip(b, |av, bv| av * w + bv * (1.0 - w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaze_saliency_peaks_at_gaze() {
        let s = gaze_saliency(16, 16, (0.25, 0.75), 0.1, 0.0);
        let peak = s.argmax();
        let (i, j) = (peak / 16, peak % 16);
        // gaze (x=0.25, y=0.75) → row ~12, col ~4
        assert!((i as i32 - 12).abs() <= 1, "row {i}");
        assert!((j as i32 - 4).abs() <= 1, "col {j}");
    }

    #[test]
    fn floor_keeps_periphery_nonzero() {
        let s = gaze_saliency(8, 8, (0.0, 0.0), 0.05, 0.1);
        assert!(s.min() >= 0.1);
    }

    #[test]
    fn mix_is_convex_combination() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 0.0);
        let m = mix_saliency(&a, &b, 0.25);
        assert!(m.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "sigma_frac")]
    fn rejects_zero_sigma() {
        gaze_saliency(4, 4, (0.5, 0.5), 0.0, 0.0);
    }
}
