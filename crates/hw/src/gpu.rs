//! Mobile-GPU latency/energy model anchored to the paper's Table 1.
//!
//! The paper measured HRNet and ViT-Base on a Jetson Orin NX at five input
//! sizes (Table 1). This model interpolates those measurements log-log in
//! FLOPs, so regenerating Table 1 reproduces the paper's numbers exactly
//! and every other workload (downsampled segmentation, ESNet-on-GPU) is
//! placed on the same measured curve. Small many-kernel networks
//! additionally pay a per-kernel launch overhead — the dispatch-bound
//! regime that motivates the SOLO accelerator in the first place.

use serde::{Deserialize, Serialize};

use crate::calib::gpu as cal;
use crate::{Energy, Latency};

/// Per-kernel launch overhead on a mobile GPU, ms. Only significant for
/// small networks; the Table 1 anchors already include it for big ones.
const KERNEL_LAUNCH_MS: f64 = 0.12;

/// Peak effective throughput in GFLOP/ms, fitted from the slope of the
/// paper's Table 1 between its largest anchors (≈3.15 TFLOPS).
const PEAK_GFLOP_PER_MS: f64 = 3.15;

/// Log-log slope used when extrapolating *below* the smallest measured
/// anchor. Small networks on a mobile GPU are dispatch-bound: latency
/// shrinks far slower than FLOPs. 0.3 reproduces the paper's Table 3/4
/// segmentation-at-64²–120² latencies from the 160² anchor.
const SMALL_WORKLOAD_SLOPE: f64 = 0.3;

/// A GPU latency model: measured `(gflops, ms)` anchors interpolated
/// log-log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    anchors: Vec<(f64, f64)>, // (gflops, latency ms), ascending
    power_w: f64,
}

impl GpuModel {
    /// The HRNet-anchored model (Table 1 row 1).
    pub fn hrnet_anchored() -> Self {
        let anchors = cal::HRNET_ANCHORS
            .iter()
            .map(|&(side, ms)| (hrnet_gflops(side), ms))
            .collect();
        Self {
            anchors,
            power_w: cal::POWER_W,
        }
    }

    /// The ViT-Base-anchored model (Table 1 row 2). FLOPs are mapped by
    /// area relative to the 640² point (scaled from the HRNet pin; only
    /// relative placement matters for interpolation).
    pub fn vit_anchored() -> Self {
        let base = cal::HRNET_GFLOPS_AT_640 * 0.9; // ViT-B ≈ same order at 640²
        let anchors = cal::VIT_ANCHORS
            .iter()
            .map(|&(side, ms)| (base * (side as f64 / 640.0).powi(2), ms))
            .collect();
        Self {
            anchors,
            power_w: cal::POWER_W,
        }
    }

    /// Latency of a dense workload of `gflops` on this GPU.
    ///
    /// # Panics
    ///
    /// Panics if `gflops` is not positive.
    pub fn latency(&self, gflops: f64) -> Latency {
        assert!(gflops > 0.0, "gflops must be positive");
        let (lx, ly): (Vec<f64>, Vec<f64>) = self
            .anchors
            .iter()
            .map(|&(f, ms)| (f.ln(), ms.ln()))
            .unzip();
        let x = gflops.ln();
        let ms = if x <= lx[0] {
            // Dispatch-bound regime: extrapolate with a shallow slope.
            ly[0] + SMALL_WORKLOAD_SLOPE * (x - lx[0])
        } else if x >= lx[lx.len() - 1] {
            segment(
                x,
                lx[lx.len() - 2],
                lx[lx.len() - 1],
                ly[ly.len() - 2],
                ly[ly.len() - 1],
            )
        } else {
            // The branch guards guarantee lx[0] < x < lx[last], so a
            // bracketing segment always exists; clamp to the last interior
            // segment rather than panicking if that ever changes.
            let i = lx
                .iter()
                .position(|&a| a > x)
                .map_or(lx.len() - 2, |p| p - 1);
            segment(x, lx[i], lx[i + 1], ly[i], ly[i + 1])
        };
        Latency::from_ms(ms.exp())
    }

    /// Latency of a *small, many-kernel* network: per-kernel dispatch
    /// overhead plus pure compute time at peak throughput. This is the
    /// path ESNet takes when it runs on the GPU (the Sub+GPU / SBS+GPU
    /// baselines) — dominated by dispatch, which is exactly why the SOLO
    /// accelerator wins.
    pub fn small_network_latency(&self, gflops: f64, kernels: usize) -> Latency {
        Latency::from_ms(kernels as f64 * KERNEL_LAUNCH_MS + gflops / PEAK_GFLOP_PER_MS)
    }

    /// Energy at the model's average power.
    pub fn energy(&self, latency: Latency) -> Energy {
        Energy::from_power(self.power_w, latency)
    }
}

fn segment(x: f64, x0: f64, x1: f64, y0: f64, y1: f64) -> f64 {
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

/// HRNet GFLOPs at a square input side, pinned to Table 2's 516 GFLOPs at
/// 640² (FLOPs of a fully-convolutional net scale with area).
pub fn hrnet_gflops(side: usize) -> f64 {
    cal::HRNET_GFLOPS_AT_640 * (side as f64 / 640.0).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table1_at_anchors() {
        let gpu = GpuModel::hrnet_anchored();
        for &(side, ms) in &cal::HRNET_ANCHORS {
            let got = gpu.latency(hrnet_gflops(side)).ms();
            assert!((got - ms).abs() / ms < 1e-6, "side {side}: {got} vs {ms}");
        }
        let vit = GpuModel::vit_anchored();
        // Spot-check one ViT anchor.
        let got = vit.latency(cal::HRNET_GFLOPS_AT_640 * 0.9).ms();
        assert!((got - 495.0).abs() < 1.0, "got {got}");
    }

    #[test]
    fn latency_is_monotone_in_flops() {
        let gpu = GpuModel::hrnet_anchored();
        let mut prev = 0.0;
        for gf in [1.0, 5.0, 12.0, 32.0, 100.0, 516.0, 2000.0, 10450.0, 30000.0] {
            let ms = gpu.latency(gf).ms();
            assert!(ms > prev, "not monotone at {gf}");
            prev = ms;
        }
    }

    #[test]
    fn downsampled_segmentation_is_dramatically_cheaper() {
        // Table 1's motivation: 160² is ~80× faster than 2880² on HRNet.
        let gpu = GpuModel::hrnet_anchored();
        let small = gpu.latency(hrnet_gflops(160));
        let big = gpu.latency(hrnet_gflops(2880));
        assert!(big / small > 50.0, "ratio {}", big / small);
    }

    #[test]
    fn kernel_overhead_dominates_tiny_networks() {
        let gpu = GpuModel::hrnet_anchored();
        let esnet_like = gpu.small_network_latency(2.0, 140);
        // Dispatch (140 × 0.12 ms) dwarfs the ~0.6 ms of pure compute.
        assert!(esnet_like.ms() > 15.0, "got {}", esnet_like.ms());
        assert!(esnet_like.ms() < 25.0, "got {}", esnet_like.ms());
    }

    #[test]
    fn energy_tracks_latency() {
        let gpu = GpuModel::hrnet_anchored();
        let t = gpu.latency(516.0);
        let e = gpu.energy(t);
        assert!((e.mj() - cal::POWER_W * t.ms()).abs() < 1e-6);
    }
}
