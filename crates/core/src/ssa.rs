//! The SOLO Streaming Algorithm (Section 3.5, Fig. 6 (c)) and the Eq. 5/6
//! analytic skip model (Section 4.3).
//!
//! Per frame, three conditions decide whether SOLONet must run:
//!
//! 1. **View change** — if the preview `I_f^{d,t}` differs from the last
//!    processed preview by more than α, the scene changed: re-run.
//! 2. **Saccade** — if a saccade is in progress, visual sensitivity is
//!    suppressed: reuse the previous result.
//! 3. **Gaze shift** — if the gaze moved more than β pixels, the user looks
//!    at a different IOI: re-run; otherwise reuse.

use serde::{Deserialize, Serialize};
use solo_gaze::{view_diff, GazeObservation, GazePoint};
use solo_tensor::Tensor;

use crate::resilience::{FrameOutcome, SoloError};

/// SSA thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsaConfig {
    /// View-change threshold α on the mean preview pixel difference
    /// (paper default 0.05).
    pub alpha: f32,
    /// Gaze-shift threshold β in full-frame pixels (paper default 20).
    pub beta_px: f32,
    /// Whether Condition 2 (saccadic suppression reuse) is enabled.
    pub use_saccade: bool,
    /// Full-frame side used to convert normalized gaze to pixels.
    pub frame_side: usize,
}

impl SsaConfig {
    /// The paper's default: α = 0.05, β = 20 px, saccade reuse on.
    pub fn paper_default(frame_side: usize) -> Self {
        Self {
            alpha: 0.05,
            beta_px: 20.0,
            use_saccade: true,
            frame_side,
        }
    }

    /// α = β = 0: never reuse (the hardware-evaluation setting of
    /// Section 6.2).
    pub fn no_reuse(frame_side: usize) -> Self {
        Self {
            alpha: 0.0,
            beta_px: 0.0,
            use_saccade: false,
            frame_side,
        }
    }
}

/// Why SSA decided what it decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SsaDecision {
    /// First frame: nothing to reuse.
    RunFirstFrame,
    /// Condition 1 fired: the front view changed.
    RunViewChanged,
    /// Condition 3 fired: the gaze moved to a different IOI.
    RunGazeShifted,
    /// Condition 2: saccadic suppression, previous result reused.
    ReuseSaccade,
    /// All conditions passed: same view, same IOI.
    ReuseStable,
}

impl SsaDecision {
    /// Whether SOLONet (sensing + segmentation) must run for this frame.
    pub fn must_run(&self) -> bool {
        matches!(
            self,
            SsaDecision::RunFirstFrame | SsaDecision::RunViewChanged | SsaDecision::RunGazeShifted
        )
    }
}

/// The streaming state machine.
#[derive(Debug, Clone)]
pub struct Ssa {
    config: SsaConfig,
    last_preview: Option<Tensor>,
    last_gaze: Option<GazePoint>,
}

impl Ssa {
    /// Creates the state machine.
    pub fn new(config: SsaConfig) -> Self {
        Self {
            config,
            last_preview: None,
            last_gaze: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SsaConfig {
        &self.config
    }

    /// Decides for one frame, given the current preview `I_f^d`, gaze, and
    /// the saccade flag from ESNet. Updates internal state: on a *run*
    /// decision the preview/gaze become the new reference; on reuse the
    /// reference is kept (the paper compares against the last *processed*
    /// frame, `I_f^{d,l}` and `g^l`).
    pub fn step(&mut self, preview: &Tensor, gaze: GazePoint, saccade: bool) -> SsaDecision {
        let cfg = self.config;
        let decision = match (&self.last_preview, &self.last_gaze) {
            (None, _) | (_, None) => SsaDecision::RunFirstFrame,
            (Some(last_preview), Some(last_gaze)) => {
                // Condition 1: view change.
                if view_diff(preview, last_preview) > cfg.alpha {
                    SsaDecision::RunViewChanged
                } else if cfg.use_saccade && saccade {
                    // Condition 2: saccadic suppression.
                    SsaDecision::ReuseSaccade
                } else if gaze.distance_px(last_gaze, cfg.frame_side, cfg.frame_side) > cfg.beta_px
                {
                    // Condition 3: gaze shifted to a new IOI.
                    SsaDecision::RunGazeShifted
                } else {
                    SsaDecision::ReuseStable
                }
            }
        };
        if decision.must_run() {
            self.last_preview = Some(preview.clone());
            self.last_gaze = Some(gaze);
        }
        decision
    }

    /// The fallible streaming entry point: decides for one frame given a
    /// tracker observation that may not carry a usable gaze. A dropout is
    /// not a decision the SSA can make — it surfaces as
    /// [`SoloError::GazeUnavailable`] for the resilience ladder to handle.
    pub fn observe(
        &mut self,
        preview: &Tensor,
        obs: &GazeObservation,
        saccade: bool,
    ) -> FrameOutcome<SsaDecision> {
        if !obs.is_usable() {
            return Err(SoloError::GazeUnavailable { status: obs.status });
        }
        Ok(self.step(preview, obs.sample.point, saccade))
    }

    /// Resets the streaming state.
    pub fn reset(&mut self) {
        self.last_preview = None;
        self.last_gaze = None;
    }
}

/// Eq. 5: the probability that segmentation is skipped, from the component
/// probabilities — `p_nv` (view changes), `p_sac` (saccade), `p_ng` (gaze
/// shifts):
///
/// `P_skip = (1 − P_nv)·P_sac + (1 − P_nv)(1 − P_sac)(1 − P_ng)`.
///
/// # Panics
///
/// Panics if any probability is outside `[0, 1]`.
pub fn skip_probability(p_nv: f64, p_sac: f64, p_ng: f64) -> f64 {
    for p in [p_nv, p_sac, p_ng] {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    }
    (1.0 - p_nv) * p_sac + (1.0 - p_nv) * (1.0 - p_sac) * (1.0 - p_ng)
}

/// Eq. 6: the average per-frame latency given the full-path latency
/// `t_standard`, the skip-path latency `t_skip`, and `p_skip`:
///
/// `T_solo = T_standard·(1 − P_skip) + T_skip·P_skip`.
pub fn average_latency_ms(t_standard_ms: f64, t_skip_ms: f64, p_skip: f64) -> f64 {
    t_standard_ms * (1.0 - p_skip) + t_skip_ms * p_skip
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preview(v: f32) -> Tensor {
        Tensor::full(&[3, 8, 8], v)
    }

    #[test]
    fn first_frame_always_runs() {
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        let d = ssa.step(&preview(0.5), GazePoint::center(), false);
        assert_eq!(d, SsaDecision::RunFirstFrame);
        assert!(d.must_run());
    }

    #[test]
    fn stable_view_and_gaze_reuses() {
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        let d = ssa.step(&preview(0.5), GazePoint::new(0.501, 0.5), false);
        assert_eq!(d, SsaDecision::ReuseStable);
    }

    #[test]
    fn view_change_triggers_rerun() {
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        let d = ssa.step(&preview(0.9), GazePoint::center(), false);
        assert_eq!(d, SsaDecision::RunViewChanged);
    }

    #[test]
    fn saccade_reuses_even_with_gaze_shift() {
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        // Gaze jumped far, but a saccade is in progress → reuse.
        let d = ssa.step(&preview(0.5), GazePoint::new(0.9, 0.9), true);
        assert_eq!(d, SsaDecision::ReuseSaccade);
    }

    #[test]
    fn gaze_shift_without_saccade_reruns() {
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        let d = ssa.step(&preview(0.5), GazePoint::new(0.6, 0.5), false);
        // 0.1 × 960 = 96 px > β = 20 px.
        assert_eq!(d, SsaDecision::RunGazeShifted);
    }

    #[test]
    fn view_change_outranks_saccade() {
        // Condition 1 is checked first (Fig. 6 (c)).
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        let d = ssa.step(&preview(0.9), GazePoint::center(), true);
        assert_eq!(d, SsaDecision::RunViewChanged);
    }

    #[test]
    fn reuse_keeps_the_reference_frame() {
        // Slow drift: each step is below β, but cumulative drift past β
        // (vs the last *processed* gaze) must eventually rerun.
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::new(0.5, 0.5), false);
        assert!(!ssa
            .step(&preview(0.5), GazePoint::new(0.51, 0.5), false)
            .must_run());
        assert!(!ssa
            .step(&preview(0.5), GazePoint::new(0.52, 0.5), false)
            .must_run());
        // Now 0.53 vs the reference 0.50: 28.8 px > 20 px.
        assert!(ssa
            .step(&preview(0.5), GazePoint::new(0.53, 0.5), false)
            .must_run());
    }

    #[test]
    fn no_reuse_config_always_runs() {
        let mut ssa = Ssa::new(SsaConfig::no_reuse(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        for _ in 0..5 {
            let d = ssa.step(&preview(0.5), GazePoint::center(), true);
            // α = 0 means any nonzero diff reruns; identical previews pass
            // Condition 1, but β = 0 makes Condition 3 fire for any
            // nonzero gaze motion. With *perfectly* identical inputs the
            // algorithm can still reuse — matching the formal definition.
            assert!(
                d == SsaDecision::ReuseStable || d.must_run(),
                "unexpected {d:?}"
            );
        }
    }

    #[test]
    fn observe_matches_step_on_usable_gaze() {
        use solo_gaze::{EyePhase, GazeSample};
        let sample = |x: f32| GazeSample {
            t_ms: 0.0,
            point: GazePoint::new(x, 0.5),
            phase: EyePhase::Fixation,
        };
        let mut a = Ssa::new(SsaConfig::paper_default(960));
        let mut b = Ssa::new(SsaConfig::paper_default(960));
        for (i, x) in [0.5, 0.5, 0.9, 0.9].iter().enumerate() {
            let obs = GazeObservation::valid(sample(*x));
            let via_observe = a.observe(&preview(0.5), &obs, false);
            let via_step = b.step(&preview(0.5), sample(*x).point, false);
            assert_eq!(via_observe, Ok(via_step), "frame {i}");
        }
    }

    #[test]
    fn observe_surfaces_dropouts_without_touching_state() {
        use crate::resilience::SoloError;
        use solo_gaze::{EyePhase, GazeSample, TrackerStatus};
        let mut ssa = Ssa::new(SsaConfig::paper_default(960));
        ssa.step(&preview(0.5), GazePoint::center(), false);
        let lost = GazeObservation {
            sample: GazeSample {
                t_ms: 33.0,
                point: GazePoint::new(0.9, 0.9),
                phase: EyePhase::Fixation,
            },
            status: TrackerStatus::Lost,
            source: solo_gaze::GazeSource::Held,
            confidence: 0.0,
        };
        assert_eq!(
            ssa.observe(&preview(0.5), &lost, false),
            Err(SoloError::GazeUnavailable {
                status: TrackerStatus::Lost
            })
        );
        // The reference frame is untouched: a stable follow-up reuses.
        let d = ssa.step(&preview(0.5), GazePoint::center(), false);
        assert_eq!(d, SsaDecision::ReuseStable);
    }

    #[test]
    fn eq5_matches_hand_computation() {
        // p_nv = 0.3, p_sac = 0.1, p_ng = 0.4:
        // skip = 0.7·0.1 + 0.7·0.9·0.6 = 0.07 + 0.378 = 0.448.
        let p = skip_probability(0.3, 0.1, 0.4);
        assert!((p - 0.448).abs() < 1e-12);
    }

    #[test]
    fn eq5_boundaries() {
        // Always-new view → never skip.
        assert_eq!(skip_probability(1.0, 0.5, 0.5), 0.0);
        // Static view, no saccade, static gaze → always skip.
        assert_eq!(skip_probability(0.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn eq6_interpolates_linearly() {
        assert_eq!(average_latency_ms(40.0, 10.0, 0.0), 40.0);
        assert_eq!(average_latency_ms(40.0, 10.0, 1.0), 10.0);
        assert!((average_latency_ms(40.0, 10.0, 0.5) - 25.0).abs() < 1e-12);
    }
}
