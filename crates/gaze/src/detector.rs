//! Saccade detection.
//!
//! The paper's ESNet contains "a single-layer recurrent neural network" that
//! flags saccades from the predicted gaze stream (Section 3.2); during a
//! saccade the SOLO Streaming Algorithm skips segmentation entirely
//! (Condition 2 of Figure 6 (c)) because saccadic suppression blinds the
//! user to stale output. [`RnnSaccadeDetector`] reproduces that module.

use rand::Rng;
use solo_nn::{loss, Layer, Linear, Optimizer, Rnn, Sgd, Sigmoid};
use solo_tensor::Tensor;

use crate::GazeSample;

/// The paper's RNN saccade detector: a single-layer Elman RNN over the gaze
/// displacement stream with a sigmoid readout per step.
#[derive(Debug)]
pub struct RnnSaccadeDetector {
    rnn: Rnn,
    head: Linear,
    sigmoid: Sigmoid,
}

impl RnnSaccadeDetector {
    /// Creates an untrained detector with the given hidden width.
    pub fn new(rng: &mut impl Rng, hidden: usize) -> Self {
        Self {
            rnn: Rnn::new(rng, 2, hidden),
            head: Linear::new(rng, hidden, 1),
            sigmoid: Sigmoid::new(),
        }
    }

    /// Encodes a trace as per-step displacement features `[T, 2]`
    /// (dx, dy per sample, scaled to make saccade steps O(1)).
    pub fn features(trace: &[GazeSample]) -> Tensor {
        let t = trace.len();
        let mut data = vec![0.0f32; t * 2];
        for i in 1..t {
            data[i * 2] = (trace[i].point.x - trace[i - 1].point.x) * 20.0;
            data[i * 2 + 1] = (trace[i].point.y - trace[i - 1].point.y) * 20.0;
        }
        Tensor::from_vec(data, &[t, 2])
    }

    /// Per-sample saccade probabilities for a trace.
    pub fn probabilities(&mut self, trace: &[GazeSample]) -> Vec<f32> {
        let x = Self::features(trace);
        let h = self.rnn.infer(&x);
        let logits = self.head.infer(&h);
        self.sigmoid.infer(&logits).into_vec()
    }

    /// Binary detection at probability 0.5.
    pub fn detect(&mut self, trace: &[GazeSample]) -> Vec<bool> {
        self.probabilities(trace)
            .into_iter()
            .map(|p| p > 0.5)
            .collect()
    }

    /// Trains on labeled traces with BPTT + SGD; returns the mean loss of
    /// the final epoch.
    ///
    /// Labels come from the generator's ground-truth phases
    /// ([`crate::EyePhase::is_suppressed`] marks saccade + recovery).
    pub fn train(&mut self, traces: &[Vec<GazeSample>], epochs: usize, lr: f32) -> f32 {
        // Separate optimizer state per module: Sgd tracks per-parameter
        // momentum by visitation order, so each module gets its own.
        let mut opt_rnn = Sgd::new(lr).with_momentum(0.9).with_grad_clip(5.0);
        let mut opt_head = Sgd::new(lr).with_momentum(0.9).with_grad_clip(5.0);
        let mut last_epoch_loss = f32::INFINITY;
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for trace in traces {
                let x = Self::features(trace);
                let target = Tensor::from_vec(
                    trace
                        .iter()
                        .map(|s| if s.phase.is_suppressed() { 1.0 } else { 0.0 })
                        .collect(),
                    &[trace.len(), 1],
                );
                let h = self.rnn.forward(&x);
                let logits = self.head.forward(&h);
                let probs = self.sigmoid.forward(&logits);
                let (l, g) = loss::bce(&probs, &target);
                epoch_loss += l;
                let g = self.sigmoid.backward(&g);
                let g = self.head.backward(&g);
                self.rnn.backward(&g);
                // One optimizer step per trace.
                opt_rnn.step(&mut self.rnn);
                opt_head.step(&mut self.head);
            }
            last_epoch_loss = epoch_loss / traces.len().max(1) as f32;
        }
        last_epoch_loss
    }

    /// Detection accuracy against ground-truth suppression labels.
    pub fn accuracy(&mut self, traces: &[Vec<GazeSample>]) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for trace in traces {
            let pred = self.detect(trace);
            for (p, s) in pred.iter().zip(trace) {
                if *p == s.phase.is_suppressed() {
                    correct += 1;
                }
            }
            total += trace.len();
        }
        correct as f32 / total.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EyeBehaviorConfig, EyeBehaviorModel, EyePhase, GazePoint};
    use solo_tensor::seeded_rng;

    fn traces(n: usize, len: usize, seed: u64) -> Vec<Vec<GazeSample>> {
        let model = EyeBehaviorModel::new(EyeBehaviorConfig::default());
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| model.generate(len, &mut rng)).collect()
    }

    #[test]
    fn rnn_detector_learns_to_beat_chance() {
        let train = traces(6, 400, 2);
        let test = traces(2, 400, 3);
        let mut rng = seeded_rng(4);
        let mut det = RnnSaccadeDetector::new(&mut rng, 8);
        let before = det.accuracy(&test);
        let final_loss = det.train(&train, 8, 0.05);
        let after = det.accuracy(&test);
        assert!(final_loss.is_finite());
        // Suppressed samples are a minority; the detector must beat both
        // its untrained self (unless init was lucky) and 80% majority-class.
        assert!(
            after >= before - 0.02,
            "accuracy regressed {before} -> {after}"
        );
        assert!(after > 0.8, "accuracy {after}");
    }

    #[test]
    fn features_are_zero_for_static_gaze() {
        let trace: Vec<GazeSample> = (0..5)
            .map(|i| GazeSample {
                t_ms: i as f64 * 33.0,
                point: GazePoint::center(),
                phase: EyePhase::Fixation,
            })
            .collect();
        let f = RnnSaccadeDetector::features(&trace);
        assert_eq!(f.norm_sq(), 0.0);
    }
}
