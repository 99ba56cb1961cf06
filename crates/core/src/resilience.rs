//! Fault injection and graceful degradation for the streaming loop.
//!
//! Real AR headsets do not deliver the clean inputs the rest of this crate
//! assumes: eye trackers lose the pupil during blinks and fast saccades,
//! estimation pipelines stall and repeat stale samples, sensor sub-arrays
//! die, and stages occasionally blow their latency budget. This module
//! models those failures and the system's response:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seeded, deterministic fault
//!   source perturbing the stream: gaze dropouts (blink windows, tracker
//!   loss, frozen samples), gaze noise spikes, sensor faults (dead ADC
//!   sub-groups, corrupted preview tiles) and modeled per-stage latency
//!   spikes. A disabled plan ([`FaultPlan::none`]) draws *no* entropy, so
//!   fault-free runs stay bit-identical to the uninstrumented path.
//! * [`DegradeAction`] / [`DegradeLadder`] — the typed degradation ladder
//!   the streaming loop walks on gaze loss: hold the last fixation with a
//!   decaying confidence, widen the saliency crop, fall back to uniform
//!   full-frame segmentation, and finally reuse the last mask.
//! * [`Work`] — what a frame does once its rung is decided, shared by the
//!   streaming loop and the server, with the one rung geometry: the
//!   gaze-prior crop ([`gaze_prior_map`]), widened by
//!   [`SamplerSpec::widened`], and the oracle score of a crop
//!   ([`oracle_round_trip`]).
//! * [`SoloError`] / [`FrameOutcome`] — the typed error layer replacing
//!   infallible signatures on the streaming path, so faults propagate as
//!   values rather than panics.
//! * [`RobustnessReport`] — accuracy/latency/recovery metrics under
//!   faults, split by ladder rung.

use std::fmt;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use solo_gaze::{GazeObservation, GazePoint, GazeSample, GazeSource, TrackerStatus};
use solo_hw::Latency;
use solo_sampler::{gaze_saliency, IndexMap, SamplerSpec};
use solo_tensor::{seeded_rng, Tensor};

/// Gaussian width, as a fraction of the crop grid, of the gaze saliency
/// prior that steers a crop when no learned saliency map runs.
const PRIOR_SIGMA_FRAC: f32 = 0.15;
/// Peripheral pedestal of the gaze saliency prior.
const PRIOR_FLOOR: f32 = 0.02;

/// A typed failure on the streaming path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SoloError {
    /// The eye tracker failed to deliver a usable gaze estimate.
    GazeUnavailable {
        /// How the tracker failed.
        status: TrackerStatus,
    },
    /// A configuration value is out of its documented range.
    InvalidConfig(&'static str),
}

impl fmt::Display for SoloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoloError::GazeUnavailable { status } => {
                write!(f, "gaze unavailable (tracker {})", status.name())
            }
            SoloError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl std::error::Error for SoloError {}

/// The result type of fallible streaming-path APIs. Functions returning
/// this must not panic on the error path (lint rule E1).
pub type FrameOutcome<T> = Result<T, SoloError>;

/// A replayable fault schedule: every knob is a per-frame probability or a
/// frame-count window, and all randomness comes from `seed`, so the same
/// plan always produces the same fault sequence (determinism rule D1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed for the injector.
    pub seed: u64,
    /// Per-frame probability that a blink starts.
    pub blink_rate: f64,
    /// Blink duration range in frames (≈100–250 ms at 30 fps).
    pub blink_frames: (usize, usize),
    /// Per-frame probability that the tracker loses the pupil.
    pub loss_rate: f64,
    /// Tracker-loss duration range in frames (long: outages span dwells).
    pub loss_frames: (usize, usize),
    /// Per-frame probability that the tracker output freezes.
    pub freeze_rate: f64,
    /// Freeze duration range in frames.
    pub freeze_frames: (usize, usize),
    /// Per-frame probability of a gaze noise spike.
    pub noise_rate: f64,
    /// Noise spike σ in normalized gaze units.
    pub noise_sigma: f32,
    /// Per-frame probability that one ADC sub-group is dead this frame.
    pub dead_group_rate: f64,
    /// Per-frame probability that a preview tile arrives corrupted.
    pub corrupt_tile_rate: f64,
    /// Per-frame probability of a segmentation-stage latency spike.
    pub latency_spike_rate: f64,
    /// Multiplier applied to the segmentation stage on a spike frame.
    pub latency_spike_factor: f64,
}

impl FaultPlan {
    /// A plan that injects nothing. [`FaultInjector::observe`] draws no
    /// entropy under this plan, so runs are bit-identical to the
    /// uninstrumented streaming path.
    pub fn none() -> Self {
        Self {
            seed: 0,
            blink_rate: 0.0,
            blink_frames: (1, 1),
            loss_rate: 0.0,
            loss_frames: (1, 1),
            freeze_rate: 0.0,
            freeze_frames: (1, 1),
            noise_rate: 0.0,
            noise_sigma: 0.0,
            dead_group_rate: 0.0,
            corrupt_tile_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_factor: 1.0,
        }
    }

    /// The `fault_matrix` sweep preset: one `dropout` knob in `[0, 1]`
    /// scales every fault family. Loss windows are long enough (1–3 s at
    /// 30 fps) that deep outages cross head turns, exercising the lower
    /// ladder rungs.
    pub fn dropout(seed: u64, dropout: f64) -> Self {
        let r = dropout.clamp(0.0, 1.0);
        Self {
            seed,
            blink_rate: 0.05 * r,
            blink_frames: (3, 8),
            loss_rate: 0.02 * r,
            loss_frames: (30, 80),
            freeze_rate: 0.03 * r,
            freeze_frames: (4, 10),
            noise_rate: 0.10 * r,
            noise_sigma: 0.08,
            dead_group_rate: 0.05 * r,
            corrupt_tile_rate: 0.05 * r,
            latency_spike_rate: 0.05 * r,
            latency_spike_factor: 3.0,
        }
    }

    /// Whether every fault family is off.
    pub fn is_disabled(&self) -> bool {
        self.blink_rate == 0.0
            && self.loss_rate == 0.0
            && self.freeze_rate == 0.0
            && self.noise_rate == 0.0
            && self.dead_group_rate == 0.0
            && self.corrupt_tile_rate == 0.0
            && self.latency_spike_rate == 0.0
    }

    /// Validates every knob's documented range.
    pub fn validate(&self) -> FrameOutcome<()> {
        let rates = [
            self.blink_rate,
            self.loss_rate,
            self.freeze_rate,
            self.noise_rate,
            self.dead_group_rate,
            self.corrupt_tile_rate,
            self.latency_spike_rate,
        ];
        if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err(SoloError::InvalidConfig("fault rates must be in [0, 1]"));
        }
        for (lo, hi) in [self.blink_frames, self.loss_frames, self.freeze_frames] {
            if lo == 0 || hi < lo {
                return Err(SoloError::InvalidConfig(
                    "fault windows need 1 <= lo <= hi frames",
                ));
            }
        }
        if self.noise_sigma < 0.0 {
            return Err(SoloError::InvalidConfig("noise_sigma must be >= 0"));
        }
        if self.latency_spike_factor < 1.0 {
            return Err(SoloError::InvalidConfig(
                "latency_spike_factor must be >= 1",
            ));
        }
        Ok(())
    }
}

/// The faults injected into one frame, alongside the gaze observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFaults {
    /// How the tracker delivered this frame's gaze.
    pub status: TrackerStatus,
    /// The dead ADC sub-group for this frame, if any.
    pub dead_group: Option<usize>,
    /// Normalized `(y, x)` center of a corrupted preview tile, if any.
    pub corrupt_tile: Option<(f32, f32)>,
    /// Segmentation-stage latency multiplier for this frame, if spiking.
    pub latency_spike: Option<f64>,
}

impl FrameFaults {
    /// A frame with no injected faults.
    pub fn nominal() -> Self {
        Self {
            status: TrackerStatus::Valid,
            dead_group: None,
            corrupt_tile: None,
            latency_spike: None,
        }
    }

    /// Whether any fault fired this frame.
    pub fn any(&self) -> bool {
        self.status != TrackerStatus::Valid
            || self.dead_group.is_some()
            || self.corrupt_tile.is_some()
            || self.latency_spike.is_some()
    }
}

/// The seeded fault source. Feed it each frame's ground-truth gaze sample
/// and it returns what the (faulty) tracker and sensor actually deliver.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    outage_left: usize,
    outage_status: TrackerStatus,
    freeze_left: usize,
    frozen: Option<GazeSample>,
}

impl FaultInjector {
    /// Builds the injector; all entropy derives from `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            rng: seeded_rng(plan.seed),
            plan,
            outage_left: 0,
            outage_status: TrackerStatus::Valid,
            freeze_left: 0,
            frozen: None,
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Perturbs one frame. With a disabled plan this draws no entropy and
    /// returns the truth verbatim — a true no-op.
    pub fn observe(&mut self, truth: &GazeSample) -> (GazeObservation, FrameFaults) {
        if self.plan.is_disabled() {
            return (GazeObservation::valid(*truth), FrameFaults::nominal());
        }
        // Possibly open a new gaze-fault window. The draw order is fixed
        // (blink, loss, freeze) so a given seed always replays the same
        // schedule.
        if self.outage_left == 0 && self.freeze_left == 0 {
            if self.gate(self.plan.blink_rate) {
                self.outage_status = TrackerStatus::Blink;
                self.outage_left = self.window(self.plan.blink_frames);
            } else if self.gate(self.plan.loss_rate) {
                self.outage_status = TrackerStatus::Lost;
                self.outage_left = self.window(self.plan.loss_frames);
            } else if self.gate(self.plan.freeze_rate) {
                self.freeze_left = self.window(self.plan.freeze_frames);
                self.frozen = Some(*truth);
            }
        }
        let (sample, status, source, confidence) = if self.outage_left > 0 {
            self.outage_left -= 1;
            // The tracker's output is untrusted during an outage; the
            // sample field is whatever it last produced (a held repeat).
            (
                self.frozen.unwrap_or(*truth),
                self.outage_status,
                GazeSource::Held,
                0.0,
            )
        } else if self.freeze_left > 0 {
            self.freeze_left -= 1;
            (
                self.frozen.unwrap_or(*truth),
                TrackerStatus::Stale,
                GazeSource::Held,
                0.3,
            )
        } else if self.gate(self.plan.noise_rate) {
            let (dx, dy) = self.gauss2(self.plan.noise_sigma);
            let noisy = GazeSample {
                point: GazePoint::new(truth.point.x + dx, truth.point.y + dy),
                ..*truth
            };
            self.frozen = Some(*truth);
            (noisy, TrackerStatus::Noisy, GazeSource::Measured, 0.7)
        } else {
            self.frozen = Some(*truth);
            (*truth, TrackerStatus::Valid, GazeSource::Measured, 1.0)
        };
        // Sensor- and timing-side faults, also in fixed draw order.
        let dead = self.gate(self.plan.dead_group_rate);
        let dead_group = if dead {
            Some(
                self.rng
                    .gen_range(0..solo_hw::calib::sensor::ADC_GROUPS_PER_COL),
            )
        } else {
            None
        };
        let corrupt = self.gate(self.plan.corrupt_tile_rate);
        let corrupt_tile = if corrupt {
            let y = self.rng.gen_range(0.0f32..1.0);
            let x = self.rng.gen_range(0.0f32..1.0);
            Some((y, x))
        } else {
            None
        };
        let latency_spike = if self.gate(self.plan.latency_spike_rate) {
            Some(self.plan.latency_spike_factor)
        } else {
            None
        };
        (
            GazeObservation {
                sample,
                status,
                source,
                confidence,
            },
            FrameFaults {
                status,
                dead_group,
                corrupt_tile,
                latency_spike,
            },
        )
    }

    /// Applies this frame's sensor faults to the preview tensor `[C, h, w]`:
    /// rows read by a dead ADC sub-group and the corrupted tile go dark.
    pub fn corrupt_preview(&self, preview: &mut Tensor, faults: &FrameFaults) {
        if faults.dead_group.is_none() && faults.corrupt_tile.is_none() {
            return;
        }
        let dims = preview.shape().dims().to_vec();
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let mut data = preview.as_slice().to_vec();
        if let Some(g) = faults.dead_group {
            let groups = solo_hw::calib::sensor::ADC_GROUPS_PER_COL;
            for ch in 0..c {
                for row in 0..h {
                    if row % groups == g % groups {
                        let base = ch * h * w + row * w;
                        data[base..base + w].fill(0.0);
                    }
                }
            }
        }
        if let Some((ty, tx)) = faults.corrupt_tile {
            let th = (h / 4).max(1);
            let tw = (w / 4).max(1);
            let r0 = ((ty * h as f32) as usize).min(h - 1).saturating_sub(th / 2);
            let c0 = ((tx * w as f32) as usize).min(w - 1).saturating_sub(tw / 2);
            for ch in 0..c {
                for row in r0..(r0 + th).min(h) {
                    let base = ch * h * w + row * w;
                    for col in c0..(c0 + tw).min(w) {
                        data[base + col] = 0.0;
                    }
                }
            }
        }
        *preview = Tensor::from_vec(data, &dims);
    }

    fn gate(&mut self, rate: f64) -> bool {
        self.rng.gen_range(0.0..1.0) < rate
    }

    fn window(&mut self, (lo, hi): (usize, usize)) -> usize {
        if hi <= lo {
            lo.max(1)
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// A 2-D Gaussian draw via Box–Muller (the vendored rand has no normal
    /// distribution).
    fn gauss2(&mut self, sigma: f32) -> (f32, f32) {
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        ((r * c) as f32 * sigma, (r * s) as f32 * sigma)
    }
}

/// One rung of the degradation ladder — what the streaming loop does for a
/// frame, ordered from full quality (rung 0) to last resort (rung 4).
/// (Not serde-derived: the vendored serde stub has no support for enum
/// variants with payloads; reports serialize rung indices instead.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradeAction {
    /// Fresh gaze, full SOLO path (or a normal SSA reuse).
    Nominal,
    /// Gaze lost recently: hold the last fixation at decayed confidence.
    HoldFixation {
        /// Decayed confidence in the held fixation.
        confidence: f32,
    },
    /// Gaze stale: widen the saliency crop to hedge the uncertainty.
    WidenCrop {
        /// Area factor the crop is widened by (≥ 1).
        factor: f32,
    },
    /// No usable gaze prior: uniform-subsample full-frame segmentation.
    UniformFallback,
    /// Cheapest rung: present the last mask unchanged.
    ReuseMask,
}

impl DegradeAction {
    /// Number of ladder rungs.
    pub const RUNGS: usize = 5;

    /// Display names of the rungs for tables, indexed by [`Self::rung`].
    pub const NAMES: [&'static str; Self::RUNGS] = ["nominal", "hold", "widen", "uniform", "reuse"];

    /// The rung index, 0 (nominal) through 4 (reuse).
    pub fn rung(&self) -> usize {
        match self {
            DegradeAction::Nominal => 0,
            DegradeAction::HoldFixation { .. } => 1,
            DegradeAction::WidenCrop { .. } => 2,
            DegradeAction::UniformFallback => 3,
            DegradeAction::ReuseMask => 4,
        }
    }

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.rung()]
    }

    /// Whether this is a below-nominal rung.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, DegradeAction::Nominal)
    }
}

/// Configuration of the degradation ladder and the frame deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Per-frame latency deadline.
    pub deadline: Latency,
    /// Frames to hold the last fixation before widening.
    pub hold_frames: usize,
    /// Frames on the widened crop before the uniform fallback.
    pub widen_frames: usize,
    /// Frames on the uniform fallback before pure mask reuse.
    pub uniform_frames: usize,
    /// Area factor the saliency crop is widened by on the widen rung.
    pub widen_factor: f32,
    /// Per-frame multiplicative confidence decay while gaze is lost.
    pub confidence_decay: f32,
    /// Confidence below which holding the fixation gives way to widening.
    pub confidence_floor: f32,
    /// Score each rung by round-tripping the ground-truth mask through
    /// its crop ([`oracle_round_trip`]): an oracle segmenter, isolating
    /// the sampling loss per rung. A cost-only streaming evaluator and the
    /// server both score this way.
    pub score_round_trip: bool,
}

impl ResilienceConfig {
    /// Defaults matched to the paper's frame budget: a 60 ms deadline
    /// (the SOLO latency envelope of Table 3) and a ladder that walks
    /// hold → widen → uniform over roughly one dwell.
    pub fn paper_default() -> Self {
        Self {
            deadline: Latency::from_ms(60.0),
            hold_frames: 6,
            widen_frames: 6,
            uniform_frames: 12,
            widen_factor: 2.0,
            confidence_decay: 0.85,
            confidence_floor: 0.3,
            score_round_trip: false,
        }
    }

    /// No deadline and no oracle scoring — the configuration under which
    /// a fault-free run must be bit-identical to the uninstrumented path.
    pub fn unlimited() -> Self {
        Self {
            deadline: Latency::from_ms(f64::INFINITY),
            score_round_trip: false,
            ..Self::paper_default()
        }
    }

    /// Validates every knob's documented range.
    pub fn validate(&self) -> FrameOutcome<()> {
        if !(self.deadline > Latency::ZERO) {
            return Err(SoloError::InvalidConfig("deadline must be positive"));
        }
        if self.widen_factor < 1.0 {
            return Err(SoloError::InvalidConfig("widen_factor must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.confidence_decay) || self.confidence_decay == 0.0 {
            return Err(SoloError::InvalidConfig(
                "confidence_decay must be in (0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.confidence_floor) {
            return Err(SoloError::InvalidConfig(
                "confidence_floor must be in [0, 1]",
            ));
        }
        Ok(())
    }
}

/// The ladder state machine: tracks how long gaze has been lost and which
/// rung that warrants.
#[derive(Debug, Clone)]
pub struct DegradeLadder {
    lost_streak: usize,
    confidence: f32,
    floor_dwell: usize,
}

impl Default for DegradeLadder {
    fn default() -> Self {
        Self::new()
    }
}

impl DegradeLadder {
    /// A fresh ladder (full confidence, no streak).
    pub fn new() -> Self {
        Self {
            lost_streak: 0,
            confidence: 1.0,
            floor_dwell: 0,
        }
    }

    /// Called on a frame with usable gaze: the ladder resets to nominal.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Consecutive gaze-lost frames so far.
    pub fn lost_streak(&self) -> usize {
        self.lost_streak
    }

    /// Whether the ladder sits on its floor rung (mask reuse) — the
    /// supervision signal for quarantine: a session pinned to the floor
    /// is paying for ticks that serve a stale mask.
    pub fn at_floor(&self) -> bool {
        self.floor_dwell > 0
    }

    /// Consecutive decisions spent on the floor rung. The rung sequence
    /// is monotone in the lost streak, so this only grows until
    /// [`Self::reset`].
    pub fn floor_dwell(&self) -> usize {
        self.floor_dwell
    }

    /// Called on a gaze-lost frame: advances the streak and returns the
    /// rung to degrade to.
    pub fn decide(&mut self, cfg: &ResilienceConfig) -> DegradeAction {
        self.lost_streak += 1;
        self.confidence *= cfg.confidence_decay;
        if self.lost_streak <= cfg.hold_frames && self.confidence >= cfg.confidence_floor {
            DegradeAction::HoldFixation {
                confidence: self.confidence,
            }
        } else if self.lost_streak <= cfg.hold_frames + cfg.widen_frames {
            DegradeAction::WidenCrop {
                factor: cfg.widen_factor,
            }
        } else if self.lost_streak <= cfg.hold_frames + cfg.widen_frames + cfg.uniform_frames {
            DegradeAction::UniformFallback
        } else {
            self.floor_dwell += 1;
            DegradeAction::ReuseMask
        }
    }
}

/// What a frame does once its rung is decided, in streaming and in
/// serving alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Segment a crop steered by `gaze`, with the sampler widened by the
    /// area factor `widen` (1 on every rung but widen).
    Run {
        /// Where the crop is steered.
        gaze: GazePoint,
        /// Area factor of the widened sampler ([`SamplerSpec::widened`]).
        widen: f32,
    },
    /// Segment a uniform full-frame subsample (no gaze prior).
    RunUniform,
    /// Present the previous mask.
    Reuse,
}

impl Work {
    /// The work a degraded rung asks for at `gaze`: widen runs a widened
    /// crop, uniform the gaze-free fallback, and every other rung
    /// presents the held mask.
    pub fn for_rung(action: DegradeAction, gaze: GazePoint) -> Self {
        match action {
            DegradeAction::WidenCrop { factor } => Work::Run {
                gaze,
                widen: factor,
            },
            DegradeAction::UniformFallback => Work::RunUniform,
            _ => Work::Reuse,
        }
    }

    /// The crop of this work on `spec`, the nominal sampler geometry,
    /// when it is steered by the gaze prior rather than a learned
    /// saliency map: [`gaze_prior_map`] on the widened spec for a run, the
    /// uniform map for the fallback, and `None` for a reuse.
    pub fn prior_map(&self, spec: &SamplerSpec) -> Option<IndexMap> {
        match *self {
            Work::Run { gaze, widen } => Some(gaze_prior_map(&spec.widened(widen), gaze)),
            Work::RunUniform => Some(IndexMap::uniform(spec)),
            Work::Reuse => None,
        }
    }
}

/// The index map a gaze saliency prior builds on `spec`: a Gaussian of
/// 0.15 of the output grid around `gaze`, on a 0.02 pedestal, scored on
/// the output grid. A widened crop widens `spec` and keeps this prior, the
/// same way a learned saliency map is widened. The prior's scratch goes
/// back to the pool.
pub fn gaze_prior_map(spec: &SamplerSpec, gaze: GazePoint) -> IndexMap {
    let sal = gaze_saliency(
        spec.out_h,
        spec.out_w,
        (gaze.x, gaze.y),
        PRIOR_SIGMA_FRAC,
        PRIOR_FLOOR,
    );
    let map = IndexMap::from_saliency(spec, &sal);
    sal.recycle();
    map
}

/// The oracle's mask on a crop: the full-resolution ground-truth mask
/// `gt` sampled through `map` and reverse-sampled back. A perfect
/// segmenter would display exactly this, so what it loses is the sampling
/// loss of the crop alone.
pub fn oracle_round_trip(map: &IndexMap, gt: &Tensor) -> Tensor {
    let s = map.spec();
    map.upsample_mask(map.sample_nearest(&gt.reshape(&[1, s.src_h, s.src_w])))
}

/// Accuracy aggregated over the frames spent on one ladder rung.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RungScore {
    /// Frames decided at this rung.
    pub frames: usize,
    /// Mean b-IoU over this rung's scored frames (0 if unscored).
    pub b_iou: f32,
    /// Mean c-IoU over this rung's scored frames (0 if unscored).
    pub c_iou: f32,
}

/// Robustness metrics for one streamed video under faults.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Frames with at least one injected fault.
    pub injected_frames: usize,
    /// Frames decided at a below-nominal rung.
    pub degraded_frames: usize,
    /// Frames whose deadline forced an escalation or was overrun outright.
    pub deadline_overruns: usize,
    /// Completed degraded episodes (returned to nominal before video end).
    pub recoveries: usize,
    /// Mean degraded-episode length in frames (recovery latency).
    pub mean_recovery_frames: f64,
    /// Per-rung frame counts and accuracy.
    pub by_rung: [RungScore; DegradeAction::RUNGS],
}

impl RobustnessReport {
    /// Fraction of frames spent below nominal.
    pub fn degraded_fraction(&self, frames: usize) -> f64 {
        if frames == 0 {
            0.0
        } else {
            self.degraded_frames as f64 / frames as f64
        }
    }
}

/// Everything a faulted streaming run produces: the base report (same
/// shape as the fault-free path), the robustness metrics, and the full
/// per-frame [`DegradeAction`] sequence (the replay-determinism witness).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientReport {
    /// The ordinary streaming report under faults.
    pub base: crate::system::StreamingReport,
    /// Robustness metrics.
    pub robustness: RobustnessReport,
    /// The rung chosen for every frame, in order.
    pub actions: Vec<DegradeAction>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_gaze::EyePhase;

    fn truth(i: usize) -> GazeSample {
        GazeSample {
            t_ms: i as f64 * 33.3,
            point: GazePoint::new(0.4 + 0.001 * i as f32, 0.5),
            phase: EyePhase::Fixation,
        }
    }

    #[test]
    fn disabled_plan_is_a_true_noop() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for i in 0..200 {
            let t = truth(i);
            let (obs, faults) = inj.observe(&t);
            assert_eq!(obs, GazeObservation::valid(t));
            assert_eq!(faults, FrameFaults::nominal());
            assert!(!faults.any());
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let plan = FaultPlan::dropout(42, 0.8);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for i in 0..500 {
            assert_eq!(a.observe(&truth(i)), b.observe(&truth(i)));
        }
    }

    #[test]
    fn nonzero_dropout_injects_gaze_faults() {
        let mut inj = FaultInjector::new(FaultPlan::dropout(7, 1.0));
        let mut unusable = 0;
        let mut any = 0;
        for i in 0..400 {
            let (obs, faults) = inj.observe(&truth(i));
            if !obs.is_usable() {
                unusable += 1;
            }
            if faults.any() {
                any += 1;
            }
        }
        assert!(unusable > 10, "only {unusable} unusable frames");
        assert!(any > unusable, "sensor/timing faults should add frames");
    }

    #[test]
    fn frozen_samples_repeat_the_last_good_output() {
        let mut plan = FaultPlan::none();
        plan.freeze_rate = 1.0;
        plan.freeze_frames = (3, 3);
        let mut inj = FaultInjector::new(plan);
        let first = truth(0);
        let (obs0, _) = inj.observe(&first);
        assert_eq!(obs0.status, TrackerStatus::Stale);
        // The freeze window repeats the frame that opened it.
        let (obs1, _) = inj.observe(&truth(1));
        assert_eq!(obs1.status, TrackerStatus::Stale);
        assert_eq!(obs1.sample, first);
        assert!(!obs1.is_usable());
    }

    #[test]
    fn corrupt_preview_zeroes_dead_rows_and_tile() {
        let inj = FaultInjector::new(FaultPlan::none());
        let mut preview = Tensor::full(&[3, 8, 8], 1.0);
        let faults = FrameFaults {
            status: TrackerStatus::Valid,
            dead_group: Some(1),
            corrupt_tile: Some((0.5, 0.5)),
            latency_spike: None,
        };
        inj.corrupt_preview(&mut preview, &faults);
        let data = preview.as_slice();
        // Row 1 belongs to dead group 1 (8 rows, 4 groups).
        assert!(data[8..16].iter().all(|&v| v == 0.0));
        // Row 0 is untouched outside the tile.
        assert_eq!(data[0], 1.0);
        assert!(preview.as_slice().iter().any(|&v| v == 0.0));
        // No faults: untouched.
        let mut clean = Tensor::full(&[3, 8, 8], 1.0);
        inj.corrupt_preview(&mut clean, &FrameFaults::nominal());
        assert!(clean.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn ladder_walks_the_rungs_in_order_and_resets() {
        let cfg = ResilienceConfig::paper_default();
        let mut ladder = DegradeLadder::new();
        let mut rungs = Vec::new();
        for _ in 0..(cfg.hold_frames + cfg.widen_frames + cfg.uniform_frames + 3) {
            rungs.push(ladder.decide(&cfg).rung());
        }
        // Monotone non-decreasing, hitting every degraded rung.
        assert!(rungs.windows(2).all(|w| w[1] >= w[0]), "{rungs:?}");
        for r in 1..=4 {
            assert!(rungs.contains(&r), "rung {r} missing from {rungs:?}");
        }
        assert_eq!(*rungs.last().unwrap(), 4);
        ladder.reset();
        assert_eq!(ladder.lost_streak(), 0);
        assert_eq!(ladder.decide(&cfg).rung(), 1);
    }

    #[test]
    fn floor_dwell_counts_reuse_decisions_and_resets() {
        let cfg = ResilienceConfig::paper_default();
        let mut ladder = DegradeLadder::new();
        assert!(!ladder.at_floor());
        let above_floor = cfg.hold_frames + cfg.widen_frames + cfg.uniform_frames;
        for _ in 0..above_floor {
            ladder.decide(&cfg);
            assert!(!ladder.at_floor(), "floor before the uniform window ends");
        }
        for dwell in 1..=3usize {
            assert_eq!(ladder.decide(&cfg).rung(), 4);
            assert!(ladder.at_floor());
            assert_eq!(ladder.floor_dwell(), dwell);
        }
        ladder.reset();
        assert!(!ladder.at_floor());
        assert_eq!(ladder.floor_dwell(), 0);
    }

    #[test]
    fn confidence_floor_can_cut_the_hold_window_short() {
        let mut cfg = ResilienceConfig::paper_default();
        cfg.hold_frames = 100;
        cfg.confidence_decay = 0.5;
        cfg.confidence_floor = 0.2;
        let mut ladder = DegradeLadder::new();
        // 0.5, 0.25 hold; 0.125 < floor → widen.
        assert_eq!(ladder.decide(&cfg).rung(), 1);
        assert_eq!(ladder.decide(&cfg).rung(), 1);
        assert_eq!(ladder.decide(&cfg).rung(), 2);
    }

    #[test]
    fn plan_and_config_validation() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::dropout(1, 0.5).validate().is_ok());
        assert!(FaultPlan::dropout(1, 1.0).validate().is_ok());
        let mut bad = FaultPlan::none();
        bad.blink_rate = 1.5;
        assert!(matches!(bad.validate(), Err(SoloError::InvalidConfig(_))));
        let mut bad = FaultPlan::none();
        bad.loss_frames = (0, 4);
        assert!(bad.validate().is_err());
        assert!(ResilienceConfig::paper_default().validate().is_ok());
        assert!(ResilienceConfig::unlimited().validate().is_ok());
        let mut bad = ResilienceConfig::paper_default();
        bad.widen_factor = 0.5;
        assert!(bad.validate().is_err());
        let mut bad = ResilienceConfig::paper_default();
        bad.deadline = Latency::ZERO;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn errors_display_usefully() {
        let e = SoloError::GazeUnavailable {
            status: TrackerStatus::Blink,
        };
        assert!(e.to_string().contains("blink"));
    }

    #[test]
    fn rungs_are_ordered_and_named() {
        let actions = [
            DegradeAction::Nominal,
            DegradeAction::HoldFixation { confidence: 0.9 },
            DegradeAction::WidenCrop { factor: 2.0 },
            DegradeAction::UniformFallback,
            DegradeAction::ReuseMask,
        ];
        for (i, a) in actions.iter().enumerate() {
            assert_eq!(a.rung(), i);
            assert_eq!(a.is_degraded(), i > 0);
            assert!(!a.name().is_empty());
        }
    }
}
