//! # solo-sampler
//!
//! The saliency-guided downsampling machinery at the heart of SOLO
//! (Section 3.1 of the paper, after Recasens et al. "learning to zoom" and
//! Jin et al. "learning to downsample").
//!
//! A downsampled image `I_f^s ∈ R^{h×w}` is produced from the full-resolution
//! `I_f ∈ R^{H×W}` through two mapping functions (Eq. 1–3):
//!
//! ```text
//! I_f^s[i, j] = I_f[g1(i, j), g2(i, j)]
//!
//!            Σ_{i',j'} S(i',j') · k_σ((i/h, j/w), (i'/H, j'/W)) · i'
//! g1(i, j) = ────────────────────────────────────────────────────────
//!            Σ_{i',j'} S(i',j') · k_σ((i/h, j/w), (i'/H, j'/W))
//! ```
//!
//! and symmetrically for `g2` with `j'`. High saliency attracts sample
//! coordinates, so the region around the instance of interest is sampled
//! densely while the periphery is compressed — the paper's foveation.
//!
//! The crate provides:
//!
//! * [`SamplerSpec`] / [`IndexMap`] — the mapping `H(i,j) = [g1, g2]` that
//!   the SOLO accelerator's sensor controller ships to the SBS-enabled
//!   camera, plus sampling and the reverse (upsampling) interpolation;
//! * [`gaze_saliency`] — the gaze-centered Gaussian saliency prior, and
//!   [`mix_saliency`], which blends it with ESNet's learned saliency;
//! * [`average_downsample`] — the AD baseline.
//!
//! ```
//! use solo_sampler::{gaze_saliency, IndexMap, SamplerSpec};
//! use solo_tensor::Tensor;
//!
//! let spec = SamplerSpec::new(64, 64, 16, 16, 8.0);
//! // Gaze at the image center, saliency grid 16×16.
//! let s = gaze_saliency(16, 16, (0.5, 0.5), 0.15, 0.05);
//! let map = IndexMap::from_saliency(&spec, &s);
//! let img = Tensor::ones(&[3, 64, 64]);
//! let small = map.sample_bilinear(&img);
//! assert_eq!(small.shape().dims(), &[3, 16, 16]);
//! ```

#![warn(missing_docs)]

mod baselines;
mod index_map;
mod saliency;

pub use baselines::{average_downsample, uniform_subsample};
pub use index_map::{IndexMap, SamplerSpec};
pub use saliency::{gaze_saliency, mix_saliency};
