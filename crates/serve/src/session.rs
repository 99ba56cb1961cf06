//! Per-user serving state: one session owns a gaze trace + scene, its SSA
//! state machine, its degradation ladder, and its slice of the batched
//! predictor's hidden state. Everything *model*-sized is shared (see
//! [`crate::ServeModel`]); everything *user*-sized lives here.

use solo_core::resilience::{DegradeAction, DegradeLadder, FaultInjector, FaultPlan};
use solo_core::solonet::PipelineConfig;
use solo_core::ssa::{Ssa, SsaConfig};
use solo_gaze::GazePoint;
use solo_hw::soc::Dataset as HwDataset;
use solo_sampler::SamplerSpec;
use solo_scene::{Frame, VideoConfig, VideoSequence};
use solo_tensor::{seeded_rng, Tensor};

/// Scene preset a session streams, mirroring the resilience experiments'
/// four calibrated (video, SoC-dataset, paper-resolution) triples plus the
/// ROADMAP's two adversarial presets the chaos sweeps exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScenePreset {
    /// Egocentric AR viewing (Aria-like), 960 px paper frames.
    Aria,
    /// Cluttered static scenes (LVIS-like), 640 px paper frames.
    Lvis,
    /// Scene parsing (ADE20K-like), 512 px paper frames.
    Ade,
    /// Single moving object (DAVIS-like), 480 px paper frames.
    Davis,
    /// Adversarial: crowded small-object scenes (2× LVIS density at half
    /// the size); priced as LVIS by the SoC models.
    Crowded,
    /// Adversarial: rapid IOI switching (DAVIS-sized static scenes, short
    /// dwells); priced as DAVIS by the SoC models.
    Switching,
}

impl ScenePreset {
    /// The video generator for this preset.
    pub fn video_config(&self, frames: usize) -> VideoConfig {
        match self {
            ScenePreset::Aria => VideoConfig::aria_like(frames),
            ScenePreset::Lvis => VideoConfig::lvis_like(frames),
            ScenePreset::Ade => VideoConfig::ade_like(frames),
            ScenePreset::Davis => VideoConfig::davis_like(frames),
            ScenePreset::Crowded => VideoConfig::crowded_like(frames),
            ScenePreset::Switching => VideoConfig::switching_like(frames),
        }
    }

    /// The SoC cost-model dataset this preset is priced as.
    pub fn hw_dataset(&self) -> HwDataset {
        match self {
            ScenePreset::Aria => HwDataset::Aria,
            ScenePreset::Lvis | ScenePreset::Crowded => HwDataset::Lvis,
            ScenePreset::Ade => HwDataset::Ade,
            ScenePreset::Davis | ScenePreset::Switching => HwDataset::Davis,
        }
    }

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScenePreset::Aria => "aria",
            ScenePreset::Lvis => "lvis",
            ScenePreset::Ade => "ade",
            ScenePreset::Davis => "davis",
            ScenePreset::Crowded => "crowded",
            ScenePreset::Switching => "switching",
        }
    }
}

/// Everything needed to (re)create a session deterministically.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionSpec {
    /// Seed for the session's scene + gaze trace.
    pub seed: u64,
    /// Scene preset the session streams.
    pub scene: ScenePreset,
    /// This session's seeded fault plan ([`FaultPlan::none`] for a healthy
    /// sensor/tracker). Entirely session-local: the injector it seeds
    /// draws no shared entropy, so one session's faults can never perturb
    /// a batch-mate.
    pub plan: FaultPlan,
}

impl SessionSpec {
    /// A spec for session `i` of a sweep: presets round-robin and seeds
    /// derive from the sweep seed so any subset regenerates identically.
    /// Healthy by construction — no fault plan.
    pub fn nth(sweep_seed: u64, i: usize) -> Self {
        const PRESETS: [ScenePreset; 4] = [
            ScenePreset::Aria,
            ScenePreset::Lvis,
            ScenePreset::Ade,
            ScenePreset::Davis,
        ];
        Self {
            seed: sweep_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
            scene: PRESETS[i % PRESETS.len()],
            plan: FaultPlan::none(),
        }
    }

    /// A spec for chaos-sweep session `i`: rotates all six presets
    /// (including the adversarial pair) and, when `dropout > 0`, arms a
    /// seeded gaze-dropout fault plan derived from the session seed so
    /// replays are deterministic.
    pub fn chaos_nth(sweep_seed: u64, i: usize, dropout: f64) -> Self {
        const PRESETS: [ScenePreset; 6] = [
            ScenePreset::Aria,
            ScenePreset::Lvis,
            ScenePreset::Ade,
            ScenePreset::Davis,
            ScenePreset::Crowded,
            ScenePreset::Switching,
        ];
        let seed = sweep_seed ^ (0x517c_c1b7_2722_0a95u64.wrapping_mul(i as u64 + 1));
        let plan = if dropout > 0.0 {
            FaultPlan::dropout(seed ^ 0xfa57, dropout)
        } else {
            FaultPlan::none()
        };
        Self {
            seed,
            scene: PRESETS[i % PRESETS.len()],
            plan,
        }
    }

    /// Replaces the fault plan (builder-style).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Counters one session accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SessionStats {
    /// Frames served (every tick the session was live).
    pub frames: usize,
    /// Frames where SOLONet ran (SSA decided run, budget admitted it).
    pub runs: usize,
    /// Frames served by SSA reuse or a degraded mask reuse.
    pub reuses: usize,
    /// Frames decided at a below-nominal ladder rung.
    pub degraded: usize,
    /// Frames at each ladder rung (nominal first).
    pub rung_frames: [usize; DegradeAction::RUNGS],
}

/// A restorable snapshot of one session's full serving state: SSA
/// calibration, ladder rung, predictor hidden row, held mask, fault
/// injector, frame cursor and, for a parked session, the frame its
/// injector stopped at. Everything *except* the video frames, which
/// regenerate deterministically from the spec's seed — a restored session
/// resumes bit-identically from its seed + frame index.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    spec: SessionSpec,
    frames_per_video: usize,
    cursor: usize,
    parked_at: Option<usize>,
    ssa: Ssa,
    ladder: DegradeLadder,
    injector: FaultInjector,
    hidden: Tensor,
    last_gaze: GazePoint,
    last_mask: Option<Tensor>,
    stats: SessionStats,
}

impl SessionCheckpoint {
    /// The spec the checkpointed session was created from.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Frame index the checkpointed session had reached.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

/// One live serving session (see the module docs).
#[derive(Debug)]
pub struct Session {
    spec: SessionSpec,
    /// The video script (per-frame scene, view and gaze; frames render
    /// from it on demand). `None` while parked (quarantined): the script is
    /// the one piece of state that regenerates from the seed, so parking
    /// drops it to free memory and the next frame or catch-up lazily
    /// regenerates the identical sequence.
    video: Option<VideoSequence>,
    video_cfg: VideoConfig,
    frames_per_video: usize,
    cursor: usize,
    /// The frame cursor at [`Self::park`]: the first frame whose gaze the
    /// fault injector has not seen. `None` unless parked since the last
    /// catch-up.
    parked_at: Option<usize>,
    ssa: Ssa,
    ladder: DegradeLadder,
    /// This session's seeded fault injector (a no-op for a healthy plan).
    injector: FaultInjector,
    /// This session's row of the batched predictor hidden state,
    /// `[predictor_hidden]`.
    hidden: Tensor,
    /// Last measured gaze (the predictor input and the hold-fixation
    /// anchor).
    last_gaze: GazePoint,
    /// The mask currently displayed to this user, `[crop, crop]` logits.
    last_mask: Option<Tensor>,
    /// Sampler geometry at nominal crop width.
    pipeline: PipelineConfig,
    stats: SessionStats,
}

impl Session {
    /// Materializes a session: generates its video from the spec's seed and
    /// calibrates SSA at the preset's paper resolution.
    pub fn new(spec: SessionSpec, frames_per_video: usize, predictor_hidden: usize) -> Self {
        let frames_per_video = frames_per_video.max(1);
        let cfg = spec.scene.video_config(frames_per_video);
        let paper_side = cfg.dataset.paper_resolution;
        let pipeline = PipelineConfig::for_dataset(
            &cfg.dataset,
            cfg.dataset.resolution,
            cfg.dataset.resolution / 4,
        );
        let video = VideoSequence::generate(cfg.clone(), &mut seeded_rng(spec.seed));
        Self {
            spec,
            video: Some(video),
            video_cfg: cfg,
            frames_per_video,
            cursor: 0,
            parked_at: None,
            ssa: Ssa::new(SsaConfig::paper_default(paper_side)),
            ladder: DegradeLadder::new(),
            injector: FaultInjector::new(spec.plan),
            hidden: Tensor::zeros(&[predictor_hidden]),
            last_gaze: GazePoint::center(),
            last_mask: None,
            pipeline,
            stats: SessionStats::default(),
        }
    }

    /// The spec this session was created from.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Rendered frame side of this session's video.
    pub fn resolution(&self) -> usize {
        self.video_cfg.dataset.resolution
    }

    /// Snapshots the session's full restorable state. The video frames are
    /// deliberately excluded — they regenerate from `spec.seed`.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            spec: self.spec,
            frames_per_video: self.frames_per_video,
            cursor: self.cursor,
            parked_at: self.parked_at,
            ssa: self.ssa.clone(),
            ladder: self.ladder.clone(),
            injector: self.injector.clone(),
            hidden: self.hidden.clone(),
            last_gaze: self.last_gaze,
            last_mask: self.last_mask.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds a session from a checkpoint. The video regenerates lazily
    /// (and deterministically) at the next rendered frame, so
    /// checkpoint → restore → tick is bit-identical to never having been
    /// interrupted.
    pub fn restore(cp: &SessionCheckpoint) -> Self {
        let cfg = cp.spec.scene.video_config(cp.frames_per_video);
        let pipeline = PipelineConfig::for_dataset(
            &cfg.dataset,
            cfg.dataset.resolution,
            cfg.dataset.resolution / 4,
        );
        Self {
            spec: cp.spec,
            video: None,
            video_cfg: cfg,
            frames_per_video: cp.frames_per_video,
            cursor: cp.cursor,
            parked_at: cp.parked_at,
            ssa: cp.ssa.clone(),
            ladder: cp.ladder.clone(),
            injector: cp.injector.clone(),
            hidden: cp.hidden.clone(),
            last_gaze: cp.last_gaze,
            last_mask: cp.last_mask.clone(),
            pipeline,
            stats: cp.stats,
        }
    }

    /// Parks the session (quarantine): drops the video script to free
    /// memory and records the frame its fault injector stopped at. The
    /// session keeps serving its held mask through [`Self::skip_frame`];
    /// the next frame regenerates the identical script from the seed.
    pub fn park(&mut self) {
        self.video = None;
        self.parked_at.get_or_insert(self.cursor);
    }

    /// Catches a parked session's fault injector up to its frame cursor:
    /// feeds it the gaze of every frame skipped since [`Self::park`], read
    /// from the video script without rendering. The injector reads only
    /// the gaze, so it ends exactly where observing every skipped frame
    /// would have left it. A no-op unless the session is parked.
    pub(crate) fn catch_up(&mut self) {
        let Some(from) = self.parked_at.take() else {
            return;
        };
        let video = script(&mut self.video, &self.video_cfg, self.spec.seed);
        for c in from..self.cursor {
            self.injector.observe(&video.gaze(c % video.len()));
        }
    }

    /// Whether the session is parked (video dropped).
    pub fn is_parked(&self) -> bool {
        self.video.is_none()
    }

    /// Advances the frame cursor without rendering — the quarantined
    /// stub's tick: the user keeps their held mask while the stream moves
    /// on underneath.
    pub fn skip_frame(&mut self) {
        self.cursor += 1;
    }

    /// Frame index of the *next* frame this session will serve.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Sampler σ in rendered-frame pixels (the paper's per-dataset σ scaled
    /// down to the functional resolution).
    pub fn sigma(&self) -> f32 {
        self.pipeline.sigma
    }

    /// Sampler spec warping this session's frame onto a `crop²` grid,
    /// widened by the area factor `widen` ([`SamplerSpec::widened`]; 1 for
    /// the nominal crop).
    ///
    /// # Panics
    ///
    /// Panics if `crop` is zero or exceeds the rendered resolution.
    pub fn sampler_spec(&self, crop: usize, widen: f32) -> SamplerSpec {
        let n = self.resolution();
        SamplerSpec::new(n, n, crop, crop, self.sigma()).widened(widen)
    }

    /// Renders the next frame of the trace, looping when the video ends.
    /// On a parked or freshly restored session this first regenerates the
    /// video from the spec's seed — the same bits [`Self::new`] produced.
    pub fn next_frame(&mut self) -> Frame {
        let video = script(&mut self.video, &self.video_cfg, self.spec.seed);
        let i = self.cursor % video.len();
        self.cursor += 1;
        video.frame(i)
    }

    /// This session's fault injector (the supervised tick filters every
    /// gaze observation through it).
    pub(crate) fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Mutable lifetime counters (the server records per-tick outcomes).
    pub(crate) fn stats_mut(&mut self) -> &mut SessionStats {
        &mut self.stats
    }

    /// The SSA state machine.
    pub(crate) fn ssa_mut(&mut self) -> &mut Ssa {
        &mut self.ssa
    }

    /// The degradation ladder.
    pub(crate) fn ladder_mut(&mut self) -> &mut DegradeLadder {
        &mut self.ladder
    }

    /// Read-only ladder view (the supervisor's floor-dwell health signal).
    pub(crate) fn ladder(&self) -> &DegradeLadder {
        &self.ladder
    }

    /// This session's predictor hidden row.
    pub fn hidden(&self) -> &Tensor {
        &self.hidden
    }

    /// Replaces the predictor hidden row after a batched step.
    pub(crate) fn set_hidden(&mut self, h: Tensor) {
        self.hidden = h;
    }

    /// Last measured gaze.
    pub fn last_gaze(&self) -> GazePoint {
        self.last_gaze
    }

    /// Records a fresh measured gaze.
    pub(crate) fn set_last_gaze(&mut self, g: GazePoint) {
        self.last_gaze = g;
    }

    /// The currently displayed mask, if any frame has run yet.
    pub fn last_mask(&self) -> Option<&Tensor> {
        self.last_mask.as_ref()
    }

    /// Presents a freshly segmented mask.
    pub(crate) fn set_last_mask(&mut self, m: Tensor) {
        self.last_mask = Some(m);
    }
}

/// A session's video script, regenerated from its seed if parking
/// dropped it: the same bits [`Session::new`] produced.
fn script<'a>(
    video: &'a mut Option<VideoSequence>,
    cfg: &VideoConfig,
    seed: u64,
) -> &'a VideoSequence {
    video.get_or_insert_with(|| VideoSequence::generate(cfg.clone(), &mut seeded_rng(seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_specs_are_deterministic_and_distinct() {
        let a = SessionSpec::nth(7, 0);
        let b = SessionSpec::nth(7, 1);
        assert_eq!(a, SessionSpec::nth(7, 0));
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.scene, ScenePreset::Aria);
        assert_eq!(b.scene, ScenePreset::Lvis);
        assert_eq!(SessionSpec::nth(7, 4).scene, ScenePreset::Aria);
    }

    #[test]
    fn session_loops_its_video() {
        let mut s = Session::new(SessionSpec::nth(3, 1), 4, 8);
        let first = s.next_frame();
        for _ in 0..3 {
            s.next_frame();
        }
        let looped = s.next_frame();
        assert_eq!(first.image.as_slice(), looped.image.as_slice());
        assert_eq!(s.resolution(), 96);
        assert!(s.sigma() > 0.0);
    }

    #[test]
    fn chaos_specs_rotate_all_six_presets_and_seed_their_plans() {
        let scenes: Vec<_> = (0..6)
            .map(|i| SessionSpec::chaos_nth(5, i, 0.3).scene)
            .collect();
        assert_eq!(
            scenes,
            vec![
                ScenePreset::Aria,
                ScenePreset::Lvis,
                ScenePreset::Ade,
                ScenePreset::Davis,
                ScenePreset::Crowded,
                ScenePreset::Switching,
            ]
        );
        let a = SessionSpec::chaos_nth(5, 2, 0.3);
        assert_eq!(a, SessionSpec::chaos_nth(5, 2, 0.3), "deterministic");
        assert!(!a.plan.is_disabled());
        assert_ne!(a.plan.seed, SessionSpec::chaos_nth(5, 3, 0.3).plan.seed);
        assert!(SessionSpec::chaos_nth(5, 2, 0.0).plan.is_disabled());
        assert!(SessionSpec::nth(5, 2).plan.is_disabled());
    }

    #[test]
    fn adversarial_presets_materialize_and_price_like_their_bases() {
        for (preset, hw) in [
            (ScenePreset::Crowded, HwDataset::Lvis),
            (ScenePreset::Switching, HwDataset::Davis),
        ] {
            assert_eq!(preset.hw_dataset(), hw);
            let spec = SessionSpec {
                seed: 9,
                scene: preset,
                plan: FaultPlan::none(),
            };
            let mut s = Session::new(spec, 4, 8);
            assert_eq!(s.next_frame().image.shape().dim(1), 96);
        }
    }

    #[test]
    fn restore_resumes_the_exact_frame_sequence() {
        let mut live = Session::new(SessionSpec::chaos_nth(13, 4, 0.5), 6, 8);
        for _ in 0..3 {
            live.next_frame();
        }
        let cp = live.checkpoint();
        assert_eq!(cp.cursor(), 3);
        let mut restored = Session::restore(&cp);
        assert!(restored.is_parked(), "restore regenerates lazily");
        for _ in 0..5 {
            let a = live.next_frame();
            let b = restored.next_frame();
            assert_eq!(a.image.as_slice(), b.image.as_slice());
            assert_eq!(a.gaze.point.x.to_bits(), b.gaze.point.x.to_bits());
        }
    }

    #[test]
    fn park_skip_and_regenerate_keep_the_cursor_honest() {
        let mut s = Session::new(SessionSpec::nth(17, 2), 5, 8);
        let mut twin = Session::new(SessionSpec::nth(17, 2), 5, 8);
        s.next_frame();
        twin.next_frame();
        s.park();
        assert!(s.is_parked());
        // Quarantined ticks advance the stream without rendering.
        s.skip_frame();
        s.skip_frame();
        twin.next_frame();
        twin.next_frame();
        assert_eq!(s.cursor(), twin.cursor());
        // Un-parking resumes on the same frame the healthy twin sees.
        let a = s.next_frame();
        let b = twin.next_frame();
        assert!(!s.is_parked());
        assert_eq!(a.image.as_slice(), b.image.as_slice());
    }

    #[test]
    fn catch_up_replays_the_skipped_gazes_exactly() {
        let spec = SessionSpec::chaos_nth(23, 1, 1.0);
        let serve = |s: &mut Session| {
            let f = s.next_frame();
            s.injector_mut().observe(&f.gaze)
        };
        // k = 40 wraps the 16-frame video loop during the catch-up.
        for k in [0usize, 1, 5, 40] {
            let mut a = Session::new(spec, 16, 8);
            let mut b = Session::new(spec, 16, 8);
            for _ in 0..3 {
                assert_eq!(serve(&mut a), serve(&mut b));
            }
            // A observes the k frames; B parks and skips them.
            b.park();
            for _ in 0..k {
                serve(&mut a);
                b.skip_frame();
            }
            b.catch_up();
            assert_eq!(a.cursor(), b.cursor(), "k = {k}");
            for t in 0..24 {
                assert_eq!(serve(&mut a), serve(&mut b), "k = {k}, frame {t}");
                assert_eq!(a.cursor(), b.cursor());
            }
        }
    }

    #[test]
    fn widened_spec_scales_sigma_by_sqrt_area() {
        let s = Session::new(SessionSpec::nth(3, 0), 2, 8);
        let base = s.sampler_spec(24, 1.0);
        let wide = s.sampler_spec(24, 4.0);
        assert!((wide.sigma - 2.0 * base.sigma).abs() < 1e-6);
    }
}
