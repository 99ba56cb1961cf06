//! Streaming end-to-end evaluation: SSA decisions over a synthetic video,
//! scored for accuracy (reused masks vs moving ground truth) and priced by
//! the `solo-hw` pipeline models (Sections 5.3, 6.3, 6.6).

use solo_gaze::{EyePhase, GazePoint, GazePredictor, GazeSample};
use solo_hw::calib::sensor::ADC_GROUPS_PER_COL;
use solo_hw::soc::{Backbone as HwBackbone, Dataset as HwDataset, Pipeline, SocModel};
use solo_hw::timing::FrameBudget;
use solo_hw::Latency;
use solo_sampler::{uniform_subsample, IndexMap};
use solo_scene::{Frame, VideoSequence};
use solo_tensor::Tensor;

use crate::metrics::{binary_iou, classified_iou, IouAccumulator};
use crate::resilience::{
    oracle_round_trip, DegradeAction, FaultInjector, FaultPlan, FrameOutcome, ResilienceConfig,
    ResilientReport, RobustnessReport, RungScore, SoloError, Work,
};
use crate::solonet::{FoveatedPipeline, PipelineConfig};
use crate::ssa::{Ssa, SsaConfig};

/// Aggregate results of streaming a video through SOLO with the SSA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingReport {
    /// Frames processed.
    pub frames: usize,
    /// Frames whose segmentation was skipped (result reused).
    pub skipped: usize,
    /// Mean b-IoU over frames with a ground-truth IOI (0 if untracked).
    pub b_iou: f32,
    /// Mean c-IoU over frames with a ground-truth IOI (0 if untracked).
    pub c_iou: f32,
    /// Mean per-frame latency in ms (full path on run frames, `T_skip` on
    /// reused frames).
    pub mean_latency_ms: f64,
}

impl StreamingReport {
    /// Closes one clip's bookkeeping; `latency_ms` sums the per-frame
    /// latencies.
    fn from_tally(frames: usize, skipped: usize, latency_ms: f64, scores: &IouAccumulator) -> Self {
        Self {
            frames,
            skipped,
            b_iou: scores.b_iou(),
            c_iou: scores.c_iou(),
            mean_latency_ms: latency_ms / frames.max(1) as f64,
        }
    }

    /// Fraction of frames skipped.
    pub fn skip_fraction(&self) -> f32 {
        if self.frames == 0 {
            0.0
        } else {
            self.skipped as f32 / self.frames as f32
        }
    }
}

/// Which forecaster supplies candidate landing points while a saccade is
/// in flight.
#[derive(Debug)]
pub enum Speculator {
    /// Ground-truth landing points (a zero-error predictor — the upper
    /// bound of the protocol, and the identity anchor for the tests).
    Oracle,
    /// The trained recurrent predictor from `solo-gaze`.
    Learned(GazePredictor),
}

/// Configuration of the speculate→commit frame protocol.
#[derive(Debug)]
pub struct SpeculationConfig {
    /// Candidate landing points pre-warmed per in-flight saccade. Zero
    /// disables speculation entirely (bit-identical to [`StreamingEvaluator::run`]).
    pub k: usize,
    /// Normalized gaze distance within which the nearest candidate commits;
    /// a measured landing farther than this from every candidate is a total
    /// miss and falls through to the reactive path.
    pub commit_radius: f32,
    /// Per-frame latency deadline the speculative work is charged against.
    /// When pre-warming would prospectively overrun it, speculation is
    /// dropped for that frame (the reactive path still runs).
    pub deadline: Latency,
    /// Measured gaze samples retained as predictor history.
    pub history: usize,
    /// The landing-point forecaster.
    pub speculator: Speculator,
}

impl SpeculationConfig {
    /// No speculation: the protocol runs but never pre-warms.
    pub fn reactive() -> Self {
        Self::oracle(0)
    }

    /// Oracle speculation with `k` candidates and an unlimited deadline.
    pub fn oracle(k: usize) -> Self {
        Self {
            k,
            commit_radius: 0.042,
            deadline: Latency::from_ms(f64::INFINITY),
            history: 32,
            speculator: Speculator::Oracle,
        }
    }

    /// Learned speculation with `k` candidates from a trained predictor.
    pub fn learned(predictor: GazePredictor, k: usize) -> Self {
        Self {
            speculator: Speculator::Learned(predictor),
            ..Self::oracle(k)
        }
    }

    /// Checks the configured ranges.
    pub fn validate(&self) -> FrameOutcome<()> {
        if !(self.commit_radius > 0.0) || !self.commit_radius.is_finite() {
            return Err(SoloError::InvalidConfig(
                "commit_radius must be finite and > 0",
            ));
        }
        if self.history < 2 && matches!(self.speculator, Speculator::Learned(_)) {
            return Err(SoloError::InvalidConfig(
                "a learned speculator needs history >= 2",
            ));
        }
        Ok(())
    }
}

/// Counters describing what the speculation protocol did over one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpeculationStats {
    /// Frames whose start overlapped an in-flight saccade and pre-warmed.
    pub speculated_frames: usize,
    /// Candidate index maps pre-warmed in total.
    pub prewarmed_candidates: usize,
    /// Run frames that committed a pre-warmed candidate.
    pub committed: usize,
    /// Run frames where every candidate missed (reactive fallback).
    pub missed: usize,
    /// Pre-warmed sets recycled because the SSA reused the frame anyway.
    pub aborted_sets: usize,
    /// Frames where pre-warming was dropped to protect the deadline.
    pub dropped_for_budget: usize,
    /// Frames whose charged total (speculation included) overran the deadline.
    pub budget_overruns: usize,
    /// Mean pixel error between the committed candidate and the measured
    /// landing (0 if nothing committed).
    pub mean_commit_error_px: f32,
    /// Total pre-warm latency charged against frame budgets, in ms.
    pub prewarm_latency_ms: f64,
    /// Mean modeled sensor-to-display latency over committed-hit frames.
    pub mean_hit_latency_ms: f64,
    /// The reactive full-path frame latency the hits are measured against.
    pub reactive_run_latency_ms: f64,
}

impl SpeculationStats {
    /// Fraction of speculated run frames that committed.
    pub fn hit_rate(&self) -> f32 {
        let tried = self.committed + self.missed;
        if tried == 0 {
            0.0
        } else {
            self.committed as f32 / tried as f32
        }
    }
}

/// A [`StreamingReport`] extended with the speculation ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculativeReport {
    /// The streaming report; `mean_latency_ms` is the modeled
    /// sensor-to-display latency *with* speculation (pre-warm overlaps the
    /// tracker's measurement window, so hits display after the shortened
    /// commit path).
    pub base: StreamingReport,
    /// Mean per-frame latency the reactive [`StreamingEvaluator::run`] path
    /// would have charged on the same decisions — the "without prediction"
    /// column.
    pub reactive_latency_ms: f64,
    /// What speculation did.
    pub spec: SpeculationStats,
}

impl SpeculativeReport {
    /// Mean sensor-to-display latency saved per frame by speculation.
    pub fn latency_saved_ms(&self) -> f64 {
        self.reactive_latency_ms - self.base.mean_latency_ms
    }
}

/// Streams a [`VideoSequence`] through the SSA.
///
/// With a trained [`FoveatedPipeline`] attached, frames are actually
/// segmented and reused masks are scored against each frame's moving
/// ground truth (the Fig. 12 (b) accuracy/skip trade-off). Without one,
/// only the skip statistics and hardware costs are produced (the
/// Fig. 14 (b) speedup sweep), which needs no training.
pub struct StreamingEvaluator {
    ssa: Ssa,
    soc: SocModel,
    hw_backbone: HwBackbone,
    hw_dataset: HwDataset,
    pipeline: Option<FoveatedPipeline>,
}

impl StreamingEvaluator {
    /// Creates an evaluator. `pipeline` is the trained SOLO pipeline, or
    /// `None` for cost-only sweeps.
    pub fn new(
        config: SsaConfig,
        hw_backbone: HwBackbone,
        hw_dataset: HwDataset,
        pipeline: Option<FoveatedPipeline>,
    ) -> Self {
        Self {
            ssa: Ssa::new(config),
            soc: SocModel::default(),
            hw_backbone,
            hw_dataset,
            pipeline,
        }
    }

    /// Streams the whole video.
    pub fn run(&mut self, video: &VideoSequence) -> StreamingReport {
        self.ssa.reset();
        let down = video.config().dataset.resolution / 4;
        let run_cost = self
            .soc
            .evaluate(Pipeline::Solo, self.hw_backbone, self.hw_dataset)
            .latency()
            .ms();
        let skip_cost = self.soc.skip_path(self.hw_dataset).latency().ms();
        let mut skipped = 0usize;
        let mut latency_total = 0.0f64;
        let mut scores = IouAccumulator::new();
        let mut held: Option<(Tensor, usize)> = None; // (full-res mask, class)
        for i in 0..video.len() {
            let frame = video.frame(i);
            let preview = uniform_subsample(&frame.image, down, down);
            // The saccade flag comes from the generator's ground-truth
            // phase — the upper bound an ideal RNN detector reaches.
            let decision =
                self.ssa
                    .step(&preview, frame.gaze.point, frame.gaze.phase.is_suppressed());
            if decision.must_run() {
                latency_total += run_cost;
                if let Some(p) = self.pipeline.as_mut() {
                    held = Some(segment_frame(p, &frame.image, frame.gaze.point, 1.0));
                }
            } else {
                skipped += 1;
                latency_total += skip_cost;
            }
            // Score the currently-displayed mask against this frame's GT.
            if let Some((b, c)) = score_held(&held, &frame) {
                scores.push(b, c);
            }
        }
        StreamingReport::from_tally(video.len(), skipped, latency_total, &scores)
    }

    /// Streams the whole video under the speculate→commit frame protocol.
    ///
    /// While a saccade is in flight (the previous frame's phase was
    /// suppressed — [`EyePhase::Saccade`] or its recovery window), the
    /// start of the next frame — which overlaps the eye tracker's
    /// measurement latency window — pre-warms
    /// saliency crops and SBS index maps for up to `cfg.k` candidate
    /// landing points via [`FoveatedPipeline::speculate_maps`]. Once the
    /// measured landing arrives, the nearest candidate within
    /// `cfg.commit_radius` commits (its ESNet stage already ran, shortening
    /// the displayed frame by exactly that stage); a total miss falls
    /// through to the reactive path, and an SSA reuse aborts the set. All
    /// pre-warm work is charged against `cfg.deadline` — speculation is
    /// priced, never free — and is dropped for a frame whose budget it
    /// would prospectively overrun.
    ///
    /// With `cfg.k == 0` the produced base report is bit-identical to
    /// [`Self::run`], and with an [`Speculator::Oracle`] at `k = 1` the
    /// segmentation outputs are too (asserted by the integration tests);
    /// `reactive_latency_ms` always equals the [`Self::run`] mean exactly.
    pub fn run_speculative(
        &mut self,
        video: &VideoSequence,
        cfg: &mut SpeculationConfig,
    ) -> FrameOutcome<SpeculativeReport> {
        cfg.validate()?;
        self.ssa.reset();
        let down = video.config().dataset.resolution / 4;
        let n = video.config().dataset.resolution;
        let run_cost = self
            .soc
            .evaluate(Pipeline::Solo, self.hw_backbone, self.hw_dataset)
            .latency()
            .ms();
        let skip_cost = self.soc.skip_path(self.hw_dataset).latency().ms();
        let commit_cost = self
            .soc
            .speculative_commit_path(self.hw_backbone, self.hw_dataset)
            .latency()
            .ms();
        let prewarm_ms: Vec<f64> = (0..=cfg.k)
            .map(|k| {
                self.soc
                    .speculative_prewarm_path(self.hw_dataset, k)
                    .latency()
                    .ms()
            })
            .collect();
        let mut budget = FrameBudget::new(cfg.deadline);
        let mut stats = SpeculationStats {
            reactive_run_latency_ms: run_cost,
            ..SpeculationStats::default()
        };
        let mut commit_err_px = 0.0f64;
        let mut hit_ms = 0.0f64;
        let mut skipped = 0usize;
        let mut latency_total = 0.0f64;
        let mut reactive_total = 0.0f64;
        let mut scores = IouAccumulator::new();
        let mut held: Option<(Tensor, usize)> = None;
        let mut history: Vec<GazeSample> = Vec::new();
        let mut prev_phase: Option<EyePhase> = None;
        for i in 0..video.len() {
            let frame = video.frame(i);
            budget.start_frame();

            // Pre-warm phase: runs at the top of the frame, before the
            // measured landing is available.
            let in_flight = prev_phase.is_some_and(|p| p.is_suppressed());
            let mut cands: Vec<(GazePoint, f32)> = Vec::new();
            if cfg.k > 0 && in_flight {
                if budget.would_overrun(Latency::from_ms(prewarm_ms[cfg.k] + run_cost)) {
                    stats.dropped_for_budget += 1;
                } else {
                    cands = match &mut cfg.speculator {
                        Speculator::Oracle => vec![(frame.gaze.point, 1.0)],
                        Speculator::Learned(p) => {
                            if history.len() >= 2 {
                                p.predict(&history).candidates(cfg.k)
                            } else {
                                Vec::new()
                            }
                        }
                    };
                }
            }
            let prewarm = prewarm_ms[cands.len().min(cfg.k)];
            let mut set = match (self.pipeline.as_mut(), cands.is_empty()) {
                (Some(p), false) => Some(p.speculate_maps(&frame.image, &cands)),
                _ => None,
            };
            if !cands.is_empty() {
                stats.speculated_frames += 1;
                stats.prewarmed_candidates += cands.len();
                stats.prewarm_latency_ms += prewarm;
            }

            // Measurement arrives; the SSA decision is exactly `run`'s.
            let preview = uniform_subsample(&frame.image, down, down);
            let decision =
                self.ssa
                    .step(&preview, frame.gaze.point, frame.gaze.phase.is_suppressed());
            reactive_total += if decision.must_run() {
                run_cost
            } else {
                skip_cost
            };

            let display_ms;
            if decision.must_run() {
                let measured = frame.gaze.point;
                let mut nearest: Option<(usize, f32)> = None;
                for (idx, (g, _)) in cands.iter().enumerate() {
                    let d = g.distance(&measured);
                    if nearest.is_none_or(|(_, bd)| d < bd) {
                        nearest = Some((idx, d));
                    }
                }
                let hit = nearest.filter(|&(_, d)| d <= cfg.commit_radius);
                if let Some(p) = self.pipeline.as_mut() {
                    let committed = set
                        .take()
                        .and_then(|s| s.commit(measured, cfg.commit_radius));
                    held = Some(match committed {
                        Some(c) => {
                            let out = finish_segment(p, &c.map, &frame.image, measured);
                            c.map.recycle();
                            out
                        }
                        None => segment_frame(p, &frame.image, measured, 1.0),
                    });
                }
                match hit {
                    Some((idx, _)) => {
                        stats.committed += 1;
                        commit_err_px += cands[idx].0.distance_px(&measured, n, n) as f64;
                        hit_ms += commit_cost;
                        display_ms = commit_cost;
                    }
                    None => {
                        if !cands.is_empty() {
                            stats.missed += 1;
                        }
                        display_ms = run_cost;
                    }
                }
            } else {
                if !cands.is_empty() {
                    stats.aborted_sets += 1;
                }
                skipped += 1;
                display_ms = skip_cost;
            }
            if let Some(s) = set.take() {
                s.abort();
            }
            latency_total += display_ms;
            if !budget.charge(Latency::from_ms(prewarm + display_ms)) {
                stats.budget_overruns += 1;
            }

            if let Some((b, c)) = score_held(&held, &frame) {
                scores.push(b, c);
            }

            history.push(frame.gaze);
            if history.len() > cfg.history {
                history.remove(0);
            }
            prev_phase = Some(frame.gaze.phase);
        }
        stats.mean_commit_error_px = mean(commit_err_px, stats.committed);
        stats.mean_hit_latency_ms = if stats.committed == 0 {
            0.0
        } else {
            hit_ms / stats.committed as f64
        };
        Ok(SpeculativeReport {
            base: StreamingReport::from_tally(video.len(), skipped, latency_total, &scores),
            reactive_latency_ms: reactive_total / video.len().max(1) as f64,
            spec: stats,
        })
    }

    /// Streams the whole video under a fault plan, degrading gracefully.
    ///
    /// The fallible sibling of [`Self::run`]: each frame's gaze arrives
    /// through the seeded [`FaultInjector`], gaze dropouts walk the
    /// degradation ladder (hold fixation → widen crop → uniform fallback →
    /// reuse mask), and every stage's modeled latency is charged against
    /// `config.deadline` — a prospective overrun escalates the frame to a
    /// cheaper rung before it happens. With [`FaultPlan::none`] and
    /// [`ResilienceConfig::unlimited`] the produced base report is
    /// bit-identical to [`Self::run`] (asserted by the integration tests).
    ///
    /// A run segments the learned saliency crop when a trained pipeline is
    /// attached. Without one, setting `config.score_round_trip` scores
    /// each rung with [`oracle_round_trip`] on that rung's gaze-prior crop
    /// ([`Work::prior_map`]), the crop the server builds too.
    pub fn run_with_faults(
        &mut self,
        video: &VideoSequence,
        plan: &FaultPlan,
        config: &ResilienceConfig,
    ) -> FrameOutcome<ResilientReport> {
        plan.validate()?;
        config.validate()?;
        self.ssa.reset();
        let n = video.config().dataset.resolution;
        let down = n / 4;
        let oracle_spec = PipelineConfig::for_dataset(&video.config().dataset, n, down).spec();
        let (bb, ds) = (self.hw_backbone, self.hw_dataset);

        let mut injector = FaultInjector::new(*plan);
        let mut ladder = crate::resilience::DegradeLadder::new();
        let mut budget = FrameBudget::new(config.deadline);
        let mut held: Option<(Tensor, usize)> = None;
        let mut held_gaze: Option<GazePoint> = None;
        let mut actions = Vec::with_capacity(video.len());
        let mut skipped = 0usize;
        let mut latency_total = 0.0f64;
        let mut scores = IouAccumulator::new();
        let mut injected = 0usize;
        let mut degraded = 0usize;
        let mut overruns = 0usize;
        let mut episode = 0usize;
        let mut recoveries = 0usize;
        let mut recovery_total = 0usize;
        let mut rung_scores = [IouAccumulator::new(); DegradeAction::RUNGS];
        let mut rung_frames = [0usize; DegradeAction::RUNGS];

        for i in 0..video.len() {
            let frame = video.frame(i);
            budget.start_frame();
            let (obs, faults) = injector.observe(&frame.gaze);
            if faults.any() {
                injected += 1;
            }
            let mut preview = uniform_subsample(&frame.image, down, down);
            injector.corrupt_preview(&mut preview, &faults);

            // Decide the rung and the work it implies.
            let (mut action, mut work) =
                match self
                    .ssa
                    .observe(&preview, &obs, obs.sample.phase.is_suppressed())
                {
                    Ok(decision) => {
                        ladder.reset();
                        let gaze = obs.sample.point;
                        held_gaze = Some(gaze);
                        let work = if decision.must_run() {
                            Work::Run { gaze, widen: 1.0 }
                        } else {
                            Work::Reuse
                        };
                        (DegradeAction::Nominal, work)
                    }
                    Err(SoloError::GazeUnavailable { .. }) => {
                        let action = ladder.decide(config);
                        let gaze = held_gaze.unwrap_or_else(GazePoint::center);
                        let work = match action {
                            DegradeAction::HoldFixation { .. } => {
                                // The held fixation drives the SSA like a
                                // static gaze: a view change still reruns,
                                // a stable view still reuses.
                                if self.ssa.step(&preview, gaze, false).must_run() {
                                    Work::Run { gaze, widen: 1.0 }
                                } else {
                                    Work::Reuse
                                }
                            }
                            _ => Work::for_rung(action, gaze),
                        };
                        (action, work)
                    }
                    Err(e) => return Err(e),
                };

            // Charge the frame against the deadline, escalating to cheaper
            // rungs while the prospective total would overrun. Each rung is
            // priced where it is charged (a memo lookup); a dead sub-group
            // skips its readout rows on the SBS-running rungs. An unwidened
            // run with no dead group prices exactly as `evaluate(Solo)`.
            let spike = faults.latency_spike.unwrap_or(1.0);
            let dead = faults.dead_group.map(|g| g % ADC_GROUPS_PER_COL);
            let mut frame_overrun = false;
            let total = loop {
                let bd = match work {
                    Work::Run { widen, .. } => {
                        self.soc
                            .degraded_solo_path(bb, ds, f64::from(widen), dead.as_slice())
                    }
                    Work::RunUniform => self.soc.uniform_fallback_path(bb, ds),
                    Work::Reuse => self.soc.skip_path(ds),
                };
                // The spike hits the segmentation stage only; the addition
                // is exact for spike == 1, keeping fault-free runs
                // bit-identical to `run`.
                let total = bd.latency() + bd.segmentation.0 * (spike - 1.0);
                if !budget.would_overrun(total) {
                    break total;
                }
                match action {
                    DegradeAction::Nominal
                    | DegradeAction::HoldFixation { .. }
                    | DegradeAction::WidenCrop { .. }
                        if matches!(work, Work::Run { .. }) =>
                    {
                        action = DegradeAction::UniformFallback;
                        work = Work::RunUniform;
                    }
                    DegradeAction::UniformFallback => {
                        action = DegradeAction::ReuseMask;
                        work = Work::Reuse;
                    }
                    _ => {
                        // Already on the floor: charge it and record the
                        // overrun.
                        break total;
                    }
                }
                frame_overrun = true;
            };
            if !budget.charge(total) {
                frame_overrun = true;
            }
            if frame_overrun {
                overruns += 1;
            }
            latency_total += total.ms();

            // Execute the work.
            if work == Work::Reuse {
                skipped += 1;
            } else if let Some(p) = self.pipeline.as_mut() {
                held = Some(match work {
                    Work::Run { gaze, widen } => segment_frame(p, &frame.image, gaze, widen),
                    _ => {
                        let map = IndexMap::uniform(&p.config().spec());
                        finish_segment(p, &map, &frame.image, GazePoint::center())
                    }
                });
            } else if config.score_round_trip {
                if let Some(map) = work.prior_map(&oracle_spec) {
                    // The oracle's class is correct whenever the frame has
                    // an IOI; the sentinel never matches a real class id.
                    let class = frame.ioi_class.map_or(usize::MAX, |c| c.id());
                    held = Some((oracle_round_trip(&map, &frame.ioi_mask), class));
                    map.recycle();
                }
            }

            // Score the currently-displayed mask, overall and per rung.
            if let Some((b, c)) = score_held(&held, &frame) {
                scores.push(b, c);
                rung_scores[action.rung()].push(b, c);
            }
            rung_frames[action.rung()] += 1;
            if action.is_degraded() {
                degraded += 1;
                episode += 1;
            } else if episode > 0 {
                recoveries += 1;
                recovery_total += episode;
                episode = 0;
            }
            actions.push(action);
        }

        let by_rung = std::array::from_fn(|r| RungScore {
            frames: rung_frames[r],
            b_iou: rung_scores[r].b_iou(),
            c_iou: rung_scores[r].c_iou(),
        });
        Ok(ResilientReport {
            base: StreamingReport::from_tally(video.len(), skipped, latency_total, &scores),
            robustness: RobustnessReport {
                injected_frames: injected,
                degraded_frames: degraded,
                deadline_overruns: overruns,
                recoveries,
                mean_recovery_frames: if recoveries == 0 {
                    0.0
                } else {
                    recovery_total as f64 / recoveries as f64
                },
                by_rung,
            },
            actions,
        })
    }
}

/// The displayed mask's `(b-IoU, c-IoU)` against `frame`'s ground truth,
/// when a mask is held and the frame has an IOI.
fn score_held(held: &Option<(Tensor, usize)>, frame: &Frame) -> Option<(f32, f32)> {
    let ((mask, class), gt_class) = (held.as_ref()?, frame.ioi_class?);
    Some((
        binary_iou(mask, &frame.ioi_mask),
        classified_iou(mask, *class, &frame.ioi_mask, gt_class.id()),
    ))
}

fn mean(sum: f64, count: usize) -> f32 {
    if count == 0 {
        0.0
    } else {
        (sum / count as f64) as f32
    }
}

/// Runs the foveated pipeline on a raw frame with its learned saliency
/// crop at `gaze`, the sampler widened by the area factor `widen`,
/// returning the full-resolution binarized mask and the predicted class.
fn segment_frame(
    p: &mut FoveatedPipeline,
    image: &Tensor,
    gaze: GazePoint,
    widen: f32,
) -> (Tensor, usize) {
    let map = p.index_map_at(image, gaze, widen);
    finish_segment(p, &map, image, gaze)
}

/// Samples with a prepared index map, infers, and reverse-samples the mask
/// to full resolution — the tail every run rung shares.
fn finish_segment(
    p: &mut FoveatedPipeline,
    map: &IndexMap,
    image: &Tensor,
    gaze: GazePoint,
) -> (Tensor, usize) {
    let sampled = p.pack_sampled_at(map, image, gaze);
    let (mask, logits) = p.seg.infer(&sampled);
    (map.upsample_mask(mask), logits.argmax())
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_scene::VideoConfig;
    use solo_tensor::seeded_rng;

    fn video(frames: usize, seed: u64) -> VideoSequence {
        let mut cfg = VideoConfig::aria_like(frames);
        cfg.dataset.resolution = 48;
        VideoSequence::generate(cfg, &mut seeded_rng(seed))
    }

    #[test]
    fn paper_thresholds_skip_a_large_fraction() {
        let v = video(400, 1);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let report = ev.run(&v);
        // The Aria-like viewing structure (long dwells) gives substantial
        // reuse — the paper's Fig. 12 (b) sweeps up to ≈60 %.
        assert!(
            report.skip_fraction() > 0.3,
            "skip fraction {}",
            report.skip_fraction()
        );
        assert!(report.skip_fraction() < 0.99);
    }

    #[test]
    fn no_reuse_config_never_skips_on_dynamic_video() {
        let v = video(200, 2);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::no_reuse(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let report = ev.run(&v);
        // α = β = 0: any gaze motion reruns; only frames with *zero* gaze
        // movement (a handful at 30 Hz, e.g. during recovery holds) can be
        // reused.
        assert!(
            report.skip_fraction() <= 0.08,
            "skip fraction {}",
            report.skip_fraction()
        );
    }

    #[test]
    fn skipping_lowers_mean_latency() {
        let v = video(300, 3);
        let run = |cfg: SsaConfig| {
            StreamingEvaluator::new(cfg, HwBackbone::Hr, HwDataset::Aria, None)
                .run(&v)
                .mean_latency_ms
        };
        let without = run(SsaConfig::no_reuse(960));
        let with = run(SsaConfig::paper_default(960));
        assert!(
            with < without * 0.9,
            "reuse {with} ms vs no-reuse {without} ms"
        );
    }

    #[test]
    fn zero_speculation_matches_run_exactly() {
        let v = video(250, 5);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let reactive = ev.run(&v);
        let mut cfg = SpeculationConfig::reactive();
        let spec = match ev.run_speculative(&v, &mut cfg) {
            Ok(r) => r,
            Err(e) => panic!("reactive speculation config rejected: {e}"),
        };
        assert_eq!(spec.base, reactive);
        assert_eq!(spec.reactive_latency_ms, reactive.mean_latency_ms);
        assert_eq!(spec.spec.speculated_frames, 0);
        assert_eq!(spec.spec.prewarm_latency_ms, 0.0);
    }

    #[test]
    fn oracle_speculation_commits_and_lowers_display_latency() {
        let v = video(300, 6);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let reactive = ev.run(&v);
        let mut cfg = SpeculationConfig::oracle(2);
        let spec = match ev.run_speculative(&v, &mut cfg) {
            Ok(r) => r,
            Err(e) => panic!("oracle speculation config rejected: {e}"),
        };
        // Same decisions, same skips — speculation only changes latency.
        assert_eq!(spec.base.frames, reactive.frames);
        assert_eq!(spec.base.skipped, reactive.skipped);
        assert_eq!(spec.reactive_latency_ms, reactive.mean_latency_ms);
        assert!(spec.spec.committed > 0, "oracle never committed");
        assert_eq!(spec.spec.missed, 0, "oracle candidates cannot miss");
        assert_eq!(spec.spec.mean_commit_error_px, 0.0);
        assert!(
            spec.spec.mean_hit_latency_ms < spec.spec.reactive_run_latency_ms,
            "hit {} ms vs reactive run {} ms",
            spec.spec.mean_hit_latency_ms,
            spec.spec.reactive_run_latency_ms
        );
        assert!(
            spec.base.mean_latency_ms < spec.reactive_latency_ms,
            "speculation did not lower display latency: {} vs {}",
            spec.base.mean_latency_ms,
            spec.reactive_latency_ms
        );
        assert!(
            spec.spec.prewarm_latency_ms > 0.0,
            "pre-warm went uncharged"
        );
    }

    #[test]
    fn tight_deadline_drops_speculation_not_frames() {
        let v = video(200, 7);
        let mut ev = StreamingEvaluator::new(
            SsaConfig::paper_default(960),
            HwBackbone::Hr,
            HwDataset::Aria,
            None,
        );
        let reactive = ev.run(&v);
        let mut cfg = SpeculationConfig::oracle(4);
        cfg.deadline = Latency::from_ms(reactive.mean_latency_ms * 0.1);
        let spec = match ev.run_speculative(&v, &mut cfg) {
            Ok(r) => r,
            Err(e) => panic!("tight-deadline config rejected: {e}"),
        };
        assert!(
            spec.spec.dropped_for_budget > 0,
            "an unattainable deadline must drop pre-warms"
        );
        assert_eq!(spec.spec.speculated_frames, 0);
        // The reactive work itself still runs — and still overruns.
        assert_eq!(spec.base.frames, reactive.frames);
        assert_eq!(spec.base.skipped, reactive.skipped);
        assert!(spec.spec.budget_overruns > 0);
    }

    #[test]
    fn speculation_config_validation_rejects_bad_ranges() {
        let mut bad = SpeculationConfig::oracle(1);
        bad.commit_radius = 0.0;
        assert!(bad.validate().is_err());
        bad.commit_radius = f32::NAN;
        assert!(bad.validate().is_err());
        let mut learned = SpeculationConfig::learned(
            GazePredictor::new(&mut seeded_rng(8), solo_gaze::PredictorConfig::default()),
            2,
        );
        learned.history = 1;
        assert!(learned.validate().is_err());
        learned.history = 8;
        assert!(learned.validate().is_ok());
    }

    #[test]
    fn larger_thresholds_skip_more() {
        let v = video(300, 4);
        let skip_at = |alpha: f32, beta: f32| {
            let cfg = SsaConfig {
                alpha,
                beta_px: beta,
                use_saccade: false,
                frame_side: 960,
            };
            StreamingEvaluator::new(cfg, HwBackbone::Hr, HwDataset::Aria, None)
                .run(&v)
                .skip_fraction()
        };
        let small = skip_at(0.01, 10.0);
        let large = skip_at(0.05, 40.0);
        assert!(large >= small, "{large} < {small}");
    }
}
