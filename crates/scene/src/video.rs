//! Egocentric video sequences: head motion + object-anchored gaze.
//!
//! Reproduces the viewing structure the paper measures on Aria Everyday
//! (Section 2.2): the user dwells on a region (a *video segment*), fixating
//! one or two instances, then turns their head — a large view change — and
//! dwells again. Gaze is anchored to actual scene objects so the IOI ground
//! truth is always consistent with the rendered frame.

use rand::Rng;
use serde::{Deserialize, Serialize};
use solo_tensor::Tensor;

use crate::{DatasetConfig, Scene, ShapeClass, ViewWindow};
use solo_gaze::{EyeBehaviorConfig, EyePhase, GazePoint, GazeSample};

/// Parameters of a generated video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Scene statistics (resolution, objects, motion).
    pub dataset: DatasetConfig,
    /// Number of frames.
    pub frames: usize,
    /// Frames per second.
    pub fps: f32,
    /// Dwell (video-segment) duration range in seconds.
    pub dwell_s: (f32, f32),
    /// Head-turn duration range in seconds.
    pub turn_s: (f32, f32),
    /// Probability of an intra-segment gaze shift to another IOI per dwell
    /// second (the paper observes 1–2 IOIs per segment).
    pub refixation_rate: f32,
}

impl VideoConfig {
    /// An Aria-Everyday-like video.
    pub fn aria_like(frames: usize) -> Self {
        Self {
            dataset: DatasetConfig::aria_like(),
            frames,
            fps: 30.0,
            dwell_s: (1.5, 4.0),
            turn_s: (0.4, 0.9),
            refixation_rate: 0.35,
        }
    }

    /// An LVIS-like video: cluttered static scenes, frequent refixations
    /// between the many small instances.
    pub fn lvis_like(frames: usize) -> Self {
        Self {
            dataset: DatasetConfig::lvis_like(),
            frames,
            fps: 30.0,
            dwell_s: (1.0, 3.0),
            turn_s: (0.4, 0.8),
            refixation_rate: 0.6,
        }
    }

    /// An ADE20K-like video: scene parsing with moderate density and
    /// unhurried viewing.
    pub fn ade_like(frames: usize) -> Self {
        Self {
            dataset: DatasetConfig::ade_like(),
            frames,
            fps: 30.0,
            dwell_s: (1.2, 3.5),
            turn_s: (0.4, 0.9),
            refixation_rate: 0.4,
        }
    }

    /// A crowded small-object video (ROADMAP adversarial preset): LVIS
    /// pacing over [`DatasetConfig::crowded_like`] scenes, with the
    /// refixation rate pushed up because every dwell offers many nearby
    /// candidate instances.
    pub fn crowded_like(frames: usize) -> Self {
        Self {
            dataset: DatasetConfig::crowded_like(),
            frames,
            fps: 30.0,
            dwell_s: (0.8, 2.5),
            turn_s: (0.4, 0.8),
            refixation_rate: 1.0,
        }
    }

    /// A rapid-IOI-switching video (ROADMAP adversarial preset): very
    /// short dwells and a refixation rate high enough that the gaze hops
    /// to a new instance every second or two — the worst case for
    /// fixation-keyed mask reuse and for saccade-window fault outages.
    pub fn switching_like(frames: usize) -> Self {
        Self {
            dataset: DatasetConfig::switching_like(),
            frames,
            fps: 30.0,
            dwell_s: (0.4, 1.2),
            turn_s: (0.3, 0.6),
            refixation_rate: 2.5,
        }
    }

    /// A DAVIS-2016-like video (moving objects, shorter dwells).
    pub fn davis_like(frames: usize) -> Self {
        Self {
            dataset: DatasetConfig::davis_like(),
            frames,
            fps: 30.0,
            dwell_s: (0.8, 2.0),
            turn_s: (0.3, 0.7),
            refixation_rate: 0.5,
        }
    }
}

/// One rendered frame with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// RGB frame `[3, n, n]`.
    pub image: Tensor,
    /// The gaze sample for this frame.
    pub gaze: GazeSample,
    /// The viewport (head orientation).
    pub view: ViewWindow,
    /// Index of the gazed instance in the frame's scene, if the gaze rests
    /// on an object.
    pub ioi_index: Option<usize>,
    /// Binary IOI mask `[n, n]` (all zeros when `ioi_index` is `None`).
    pub ioi_mask: Tensor,
    /// IOI class, if any.
    pub ioi_class: Option<ShapeClass>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FrameSpec {
    view: ViewWindow,
    gaze: GazePoint,
    phase: EyePhase,
    scene: Scene, // object positions at this frame (cheap: objects only)
}

/// A precomputed script of views/gazes/scene states; frames render lazily.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSequence {
    config: VideoConfig,
    specs: Vec<FrameSpec>,
}

impl VideoSequence {
    /// Generates the script for a full video.
    pub fn generate(config: VideoConfig, rng: &mut impl Rng) -> Self {
        let cfg = &config;
        let span = cfg.dataset.view_span;
        let eye = EyeBehaviorConfig::default();
        let n_objects = rng.gen_range(cfg.dataset.objects.0..=cfg.dataset.objects.1);
        let mut scene = Scene::random(rng, n_objects, cfg.dataset.object_size, cfg.dataset.moving);
        let dt_s = 1.0 / cfg.fps;

        fn rand_center(rng: &mut impl Rng, span: f32) -> (f32, f32) {
            let lo = span / 2.0;
            let hi = 1.0 - span / 2.0 + 1e-4;
            (lo + (hi - lo) * rand01(rng), lo + (hi - lo) * rand01(rng))
        }

        let mut specs = Vec::with_capacity(cfg.frames);
        let (mut cx, mut cy) = rand_center(rng, span);
        let mut view = ViewWindow::new(cx, cy, span);
        let mut gaze = GazePoint::center();
        let mut target_obj = pick_ioi(&scene, &view, rng);
        if let Some(idx) = target_obj {
            gaze = object_gaze(&scene, &view, idx);
        }
        enum Mode {
            Dwell {
                remaining_s: f32,
            },
            Turn {
                from: (f32, f32),
                to: (f32, f32),
                elapsed_s: f32,
                duration_s: f32,
            },
            Saccade {
                from: GazePoint,
                to: GazePoint,
                elapsed_s: f32,
                duration_s: f32,
            },
            Recover {
                remaining_s: f32,
            },
        }
        let mut mode = Mode::Dwell {
            remaining_s: range(rng, cfg.dwell_s),
        };

        for _ in 0..cfg.frames {
            // Advance the world.
            if cfg.dataset.moving {
                scene.advance(dt_s);
                // Track the moving IOI during dwell (smooth pursuit).
                if let (Mode::Dwell { .. }, Some(idx)) = (&mode, target_obj) {
                    gaze = object_gaze(&scene, &view, idx);
                }
            }
            let phase = match &mut mode {
                Mode::Dwell { remaining_s } => {
                    *remaining_s -= dt_s;
                    // Fixational jitter.
                    gaze = GazePoint::new(
                        gaze.x + 0.002 * centered(rng),
                        gaze.y + 0.002 * centered(rng),
                    );
                    if cfg.dataset.moving && target_obj.is_some() {
                        EyePhase::SmoothPursuit
                    } else {
                        EyePhase::Fixation
                    }
                }
                Mode::Turn {
                    from,
                    to,
                    elapsed_s,
                    duration_s,
                } => {
                    *elapsed_s += dt_s;
                    let f = (*elapsed_s / *duration_s).min(1.0);
                    let s = f * f * (3.0 - 2.0 * f);
                    cx = from.0 + (to.0 - from.0) * s;
                    cy = from.1 + (to.1 - from.1) * s;
                    view = ViewWindow::new(cx, cy, span);
                    // Eyes lead/accompany the head: treat as saccadic.
                    EyePhase::Saccade
                }
                Mode::Saccade {
                    from,
                    to,
                    elapsed_s,
                    duration_s,
                } => {
                    *elapsed_s += dt_s;
                    let f = (*elapsed_s / *duration_s).min(1.0);
                    let s = f * f * (3.0 - 2.0 * f);
                    gaze =
                        GazePoint::new(from.x + (to.x - from.x) * s, from.y + (to.y - from.y) * s);
                    EyePhase::Saccade
                }
                Mode::Recover { remaining_s } => {
                    *remaining_s -= dt_s;
                    EyePhase::Recovery
                }
            };
            specs.push(FrameSpec {
                view,
                gaze,
                phase,
                scene: scene.clone(),
            });
            // Transitions.
            mode = match mode {
                Mode::Dwell { remaining_s } if remaining_s <= 0.0 => {
                    // End of segment: head turn to a new region.
                    let to = rand_center(rng, span);
                    Mode::Turn {
                        from: (cx, cy),
                        to,
                        elapsed_s: 0.0,
                        duration_s: range(rng, cfg.turn_s),
                    }
                }
                Mode::Dwell { remaining_s } => {
                    // Possibly refixate to another IOI within the segment.
                    if rand01(rng) < cfg.refixation_rate * dt_s {
                        let next = pick_ioi(&scene, &view, rng);
                        if let Some(idx) = next {
                            let to = object_gaze(&scene, &view, idx);
                            let amplitude = gaze.distance(&to);
                            target_obj = next;
                            Mode::Saccade {
                                from: gaze,
                                to,
                                elapsed_s: 0.0,
                                duration_s: eye.saccade_duration_ms(amplitude) / 1000.0,
                            }
                        } else {
                            Mode::Dwell { remaining_s }
                        }
                    } else {
                        Mode::Dwell { remaining_s }
                    }
                }
                Mode::Turn {
                    to,
                    elapsed_s,
                    duration_s,
                    ..
                } if elapsed_s >= duration_s => {
                    cx = to.0;
                    cy = to.1;
                    view = ViewWindow::new(cx, cy, span);
                    target_obj = pick_ioi(&scene, &view, rng);
                    if let Some(idx) = target_obj {
                        gaze = object_gaze(&scene, &view, idx);
                    } else {
                        gaze = GazePoint::center();
                    }
                    Mode::Recover {
                        remaining_s: eye.recovery_ms / 1000.0,
                    }
                }
                Mode::Saccade {
                    to,
                    elapsed_s,
                    duration_s,
                    ..
                } if elapsed_s >= duration_s => {
                    gaze = to;
                    Mode::Recover {
                        remaining_s: eye.recovery_ms / 1000.0,
                    }
                }
                Mode::Recover { remaining_s } if remaining_s <= 0.0 => Mode::Dwell {
                    remaining_s: range(rng, cfg.dwell_s),
                },
                other => other,
            };
        }
        Self { config, specs }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the video has no frames.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The configuration.
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// Renders frame `i` (image + ground truth).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn frame(&self, i: usize) -> Frame {
        let spec = &self.specs[i];
        let n = self.config.dataset.resolution;
        let image = spec.scene.render(&spec.view, n);
        let ioi_index = spec.scene.object_at(&spec.view, spec.gaze.x, spec.gaze.y);
        let (ioi_mask, ioi_class) = match ioi_index {
            Some(idx) => (
                spec.scene.instance_mask(idx, &spec.view, n),
                Some(spec.scene.objects[idx].class),
            ),
            None => (Tensor::zeros(&[n, n]), None),
        };
        Frame {
            image,
            gaze: self.gaze(i),
            view: spec.view,
            ioi_index,
            ioi_mask,
            ioi_class,
        }
    }

    /// Frame `i`'s gaze sample, without rendering the frame.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn gaze(&self, i: usize) -> GazeSample {
        let spec = &self.specs[i];
        GazeSample {
            t_ms: i as f64 * 1000.0 / self.config.fps as f64,
            point: spec.gaze,
            phase: spec.phase,
        }
    }

    /// The full gaze trace without rendering any frames.
    pub fn gaze_trace(&self) -> Vec<GazeSample> {
        (0..self.len()).map(|i| self.gaze(i)).collect()
    }

    /// The viewport per frame without rendering.
    pub fn views(&self) -> Vec<ViewWindow> {
        self.specs.iter().map(|s| s.view).collect()
    }
}

/// Picks a visible object in the view, biased toward the viewport center
/// (people look at what is in front of them).
fn pick_ioi(scene: &Scene, view: &ViewWindow, rng: &mut impl Rng) -> Option<usize> {
    let mut candidates: Vec<(usize, f32)> = scene
        .objects
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            let (vx, vy) = view.world_to_view(o.cx, o.cy);
            if (0.1..0.9).contains(&vx) && (0.1..0.9).contains(&vy) {
                let d2 = (vx - 0.5).powi(2) + (vy - 0.5).powi(2);
                Some((i, d2))
            } else {
                None
            }
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
    // Weighted pick among the nearest three.
    let k = candidates.len().min(3);
    Some(candidates[rng.gen_range(0..k)].0)
}

/// The gaze point for looking at object `idx`: its center in view coords.
fn object_gaze(scene: &Scene, view: &ViewWindow, idx: usize) -> GazePoint {
    let o = &scene.objects[idx];
    let (vx, vy) = view.world_to_view(o.cx, o.cy);
    GazePoint::new(vx, vy)
}

fn rand01(rng: &mut impl Rng) -> f32 {
    rng.gen_range(0.0..1.0)
}

fn centered(rng: &mut impl Rng) -> f32 {
    rng.gen_range(-1.0..1.0)
}

fn range(rng: &mut impl Rng, r: (f32, f32)) -> f32 {
    rng.gen_range(r.0..r.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_gaze::view_diff;
    use solo_tensor::seeded_rng;

    fn small_video(frames: usize, seed: u64) -> VideoSequence {
        let mut cfg = VideoConfig::aria_like(frames);
        cfg.dataset.resolution = 48;
        VideoSequence::generate(cfg, &mut seeded_rng(seed))
    }

    #[test]
    fn generates_requested_frames() {
        let v = small_video(120, 1);
        assert_eq!(v.len(), 120);
        let f = v.frame(0);
        assert_eq!(f.image.shape().dims(), &[3, 48, 48]);
    }

    #[test]
    fn dwell_frames_are_nearly_identical_turns_differ() {
        let v = small_video(400, 2);
        let trace = v.gaze_trace();
        let mut dwell_diffs = Vec::new();
        let mut turn_diffs = Vec::new();
        let mut prev = v.frame(0);
        for i in 1..v.len() {
            let cur = v.frame(i);
            let d = view_diff(&prev.image, &cur.image);
            match (trace[i - 1].phase, trace[i].phase) {
                (EyePhase::Fixation, EyePhase::Fixation) => dwell_diffs.push(d),
                (EyePhase::Saccade, EyePhase::Saccade) => turn_diffs.push(d),
                _ => {}
            }
            prev = cur;
        }
        assert!(!dwell_diffs.is_empty() && !turn_diffs.is_empty());
        let dwell_mean: f32 = dwell_diffs.iter().sum::<f32>() / dwell_diffs.len() as f32;
        let turn_max = turn_diffs.iter().copied().fold(0.0f32, f32::max);
        assert!(
            dwell_mean < 0.01,
            "dwell frames should be static, mean diff {dwell_mean}"
        );
        assert!(
            turn_max > dwell_mean * 5.0,
            "head turns should change the view: {turn_max} vs {dwell_mean}"
        );
    }

    #[test]
    fn gaze_rests_on_an_object_most_of_the_time() {
        // Seed chosen against the vendored rand stream: the on-object
        // fraction varies a lot per seed, and some draws sit under 0.5.
        let v = small_video(300, 8);
        let on_ioi = (0..v.len())
            .filter(|&i| v.frame(i).ioi_index.is_some())
            .count();
        assert!(
            on_ioi as f32 / v.len() as f32 > 0.5,
            "gaze on IOI only {}/{} frames",
            on_ioi,
            v.len()
        );
    }

    #[test]
    fn ioi_mask_nonempty_when_index_present() {
        let v = small_video(100, 4);
        for i in 0..v.len() {
            let f = v.frame(i);
            if f.ioi_index.is_some() {
                assert!(f.ioi_mask.sum() > 0.0, "frame {i} has IOI but empty mask");
                assert!(f.ioi_class.is_some());
            } else {
                assert_eq!(f.ioi_mask.sum(), 0.0);
            }
        }
    }

    #[test]
    fn davis_video_has_motion_within_dwell() {
        let mut cfg = VideoConfig::davis_like(60);
        cfg.dataset.resolution = 48;
        let v = VideoSequence::generate(cfg, &mut seeded_rng(5));
        // Consecutive frames differ even without head turns because objects
        // move.
        let d = view_diff(&v.frame(0).image, &v.frame(10).image);
        assert!(d > 1e-4, "DAVIS-like frames should change: {d}");
    }

    #[test]
    fn crowded_preset_is_denser_and_smaller_than_lvis() {
        let crowded = DatasetConfig::crowded_like();
        let lvis = DatasetConfig::lvis_like();
        assert!(crowded.objects.0 > lvis.objects.1);
        assert!(crowded.object_size.1 < lvis.object_size.1);
        let mut cfg = VideoConfig::crowded_like(60);
        cfg.dataset.resolution = 48;
        let v = VideoSequence::generate(cfg, &mut seeded_rng(11));
        assert_eq!(v.len(), 60);
    }

    #[test]
    fn switching_preset_refixates_more_than_aria() {
        // Count saccade onsets (fixation → saccade transitions) over the
        // same horizon: the switching preset must hop IOIs much more.
        let count = |mk: fn(usize) -> VideoConfig, seed: u64| {
            let mut cfg = mk(600);
            cfg.dataset.resolution = 48;
            let v = VideoSequence::generate(cfg, &mut seeded_rng(seed));
            let trace = v.gaze_trace();
            trace
                .windows(2)
                .filter(|w| w[0].phase != EyePhase::Saccade && w[1].phase == EyePhase::Saccade)
                .count()
        };
        let switching = count(VideoConfig::switching_like, 3);
        let aria = count(VideoConfig::aria_like, 3);
        assert!(
            switching > aria,
            "switching preset should saccade more: {switching} vs {aria}"
        );
    }

    #[test]
    fn all_four_presets_generate() {
        for cfg in [
            VideoConfig::lvis_like(30),
            VideoConfig::ade_like(30),
            VideoConfig::aria_like(30),
            VideoConfig::davis_like(30),
            VideoConfig::crowded_like(30),
            VideoConfig::switching_like(30),
        ] {
            let mut cfg = cfg;
            cfg.dataset.resolution = 48;
            let v = VideoSequence::generate(cfg, &mut seeded_rng(9));
            assert_eq!(v.len(), 30);
            assert_eq!(v.frame(0).image.shape().dims(), &[3, 48, 48]);
        }
    }

    #[test]
    fn trace_phases_include_fixation_and_saccade() {
        let v = small_video(600, 6);
        let trace = v.gaze_trace();
        assert!(trace.iter().any(|s| s.phase == EyePhase::Fixation));
        assert!(trace.iter().any(|s| s.phase == EyePhase::Saccade));
    }
}
