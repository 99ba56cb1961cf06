//! Dataset presets and single-frame sample generation.

use rand::Rng;
use serde::{Deserialize, Serialize};
use solo_tensor::Tensor;

use crate::{Scene, ShapeClass, ViewWindow};
use solo_gaze::GazePoint;

/// Statistics of a synthetic dataset, shaped after one of the paper's
/// corpora.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Human-readable name ("lvis-like", …).
    pub name: String,
    /// Rendered frame side (square frames).
    pub resolution: usize,
    /// The *paper's* frame side for this corpus (drives the hardware
    /// models, which care about true pixel counts: 640 for LVIS, 512 for
    /// ADE20K, 960 for Aria, 480 for DAVIS).
    pub paper_resolution: usize,
    /// Objects per scene (min, max).
    pub objects: (usize, usize),
    /// Object half-size range in world units.
    pub object_size: (f32, f32),
    /// Whether objects move (DAVIS-like).
    pub moving: bool,
    /// Viewport span (fraction of the world visible at once; smaller span
    /// = more head motion needed to cover the scene).
    pub view_span: f32,
}

impl DatasetConfig {
    /// LVIS-like: many small cluttered instances.
    pub fn lvis_like() -> Self {
        Self {
            name: "lvis-like".into(),
            resolution: 96,
            paper_resolution: 640,
            objects: (6, 10),
            object_size: (0.06, 0.16),
            moving: false,
            view_span: 1.0,
        }
    }

    /// ADE20K-like: moderate scene-parsing density.
    pub fn ade_like() -> Self {
        Self {
            name: "ade-like".into(),
            resolution: 96,
            paper_resolution: 512,
            objects: (4, 8),
            object_size: (0.09, 0.22),
            moving: false,
            view_span: 1.0,
        }
    }

    /// Aria-like: egocentric indoor scenes, fewer and larger objects, a
    /// narrower field of view panned by head motion.
    pub fn aria_like() -> Self {
        Self {
            name: "aria-like".into(),
            resolution: 96,
            paper_resolution: 960,
            objects: (4, 7),
            object_size: (0.10, 0.26),
            moving: false,
            view_span: 0.55,
        }
    }

    /// DAVIS-2016-like: moving targets on a changing view.
    pub fn davis_like() -> Self {
        Self {
            name: "davis-like".into(),
            resolution: 96,
            paper_resolution: 480,
            objects: (3, 6),
            object_size: (0.10, 0.24),
            moving: true,
            view_span: 0.7,
        }
    }

    /// Crowded small-object scenes: the adversarial preset the fault-grid
    /// sweeps need — twice LVIS density at half the object size, so the
    /// gaze prior has many near-ties and a widened crop catches several
    /// instances at once. Priced as LVIS by the hardware models (same
    /// paper resolution).
    pub fn crowded_like() -> Self {
        Self {
            name: "crowded-like".into(),
            resolution: 96,
            paper_resolution: 640,
            objects: (12, 18),
            object_size: (0.03, 0.08),
            moving: false,
            view_span: 1.0,
        }
    }

    /// Rapid-IOI-switching scenes: DAVIS-sized frames but static objects
    /// and short dwells — the viewing pressure comes from the gaze
    /// hopping between instances, not from object motion. Priced as
    /// DAVIS by the hardware models.
    pub fn switching_like() -> Self {
        Self {
            name: "switching-like".into(),
            resolution: 96,
            paper_resolution: 480,
            objects: (5, 9),
            object_size: (0.07, 0.16),
            moving: false,
            view_span: 0.8,
        }
    }

    /// Overrides the rendered resolution (builder-style).
    pub fn with_resolution(mut self, resolution: usize) -> Self {
        self.resolution = resolution;
        self
    }
}

/// One supervised sample: a frame, the gazed instance and its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// RGB frame `[3, n, n]`.
    pub image: Tensor,
    /// Normalized gaze location (on the IOI).
    pub gaze: GazePoint,
    /// Binary IOI mask `[n, n]`.
    pub ioi_mask: Tensor,
    /// IOI class.
    pub ioi_class: ShapeClass,
    /// The scene (kept so callers can re-render at other resolutions).
    pub scene: Scene,
    /// The viewport used.
    pub view: ViewWindow,
    /// Index of the IOI in `scene.objects`.
    pub ioi_index: usize,
}

/// A generator of i.i.d. [`Sample`]s under a [`DatasetConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct SceneDataset {
    config: DatasetConfig,
}

impl SceneDataset {
    /// Creates a dataset.
    pub fn new(config: DatasetConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Draws one sample: a random scene, a random visible IOI, and a gaze
    /// point inside it (training follows the paper: "we randomly select an
    /// IOI within the image and use the corresponding ground truth label
    /// map of IOI for training").
    pub fn sample(&self, rng: &mut impl Rng) -> Sample {
        let cfg = &self.config;
        loop {
            let n_objects = rng.gen_range(cfg.objects.0..=cfg.objects.1);
            let scene = Scene::random(rng, n_objects, cfg.object_size, cfg.moving);
            let view = ViewWindow::new(
                rng.gen_range(cfg.view_span / 2.0..1.0 - cfg.view_span / 2.0 + 1e-4),
                rng.gen_range(cfg.view_span / 2.0..1.0 - cfg.view_span / 2.0 + 1e-4),
                cfg.view_span,
            );
            // Pick an object with a visible, unoccluded mask.
            let mut candidates: Vec<usize> = (0..scene.objects.len()).collect();
            shuffle(&mut candidates, rng);
            for idx in candidates {
                let mask = scene.instance_mask(idx, &view, cfg.resolution);
                let area = mask.sum();
                // Require a minimally-visible instance (≥ 12 px at 96²).
                if area < 12.0 * (cfg.resolution as f32 / 96.0).powi(2) {
                    continue;
                }
                if let Some(gaze) = gaze_on_mask(&mask, rng) {
                    let image = scene.render(&view, cfg.resolution);
                    let ioi_class = scene.objects[idx].class;
                    return Sample {
                        image,
                        gaze,
                        ioi_mask: mask,
                        ioi_class,
                        scene,
                        view,
                        ioi_index: idx,
                    };
                }
            }
            // Degenerate scene (everything occluded/out of view): retry.
        }
    }

    /// Draws `n` samples.
    pub fn samples(&self, n: usize, rng: &mut impl Rng) -> Vec<Sample> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Picks a uniformly random foreground pixel of a binary mask and returns it
/// as a normalized gaze point, or `None` for an empty mask.
fn gaze_on_mask(mask: &Tensor, rng: &mut impl Rng) -> Option<GazePoint> {
    let n = mask.shape().dim(0);
    let fg: Vec<usize> = mask
        .as_slice()
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| (v > 0.5).then_some(i))
        .collect();
    if fg.is_empty() {
        return None;
    }
    let pick = fg[rng.gen_range(0..fg.len())];
    let (row, col) = (pick / n, pick % n);
    Some(GazePoint::new(
        (col as f32 + 0.5) / n as f32,
        (row as f32 + 0.5) / n as f32,
    ))
}

fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_tensor::seeded_rng;

    #[test]
    fn sample_has_consistent_ground_truth() {
        let ds = SceneDataset::new(DatasetConfig::lvis_like().with_resolution(64));
        let mut rng = seeded_rng(3);
        let s = ds.sample(&mut rng);
        assert_eq!(s.image.shape().dims(), &[3, 64, 64]);
        assert_eq!(s.ioi_mask.shape().dims(), &[64, 64]);
        assert!(s.ioi_mask.sum() >= 5.0);
        // Gaze lands on the IOI mask.
        let (row, col) = s.gaze.to_pixel(64, 64);
        assert_eq!(s.ioi_mask.at(&[row, col]), 1.0, "gaze must be on the IOI");
        // Gaze resolves to the IOI instance (or an object drawn above it at
        // that exact pixel — excluded by the unoccluded-mask construction).
        assert_eq!(
            s.scene.object_at(&s.view, s.gaze.x, s.gaze.y),
            Some(s.ioi_index)
        );
    }

    #[test]
    fn presets_mirror_paper_statistics() {
        let lvis = DatasetConfig::lvis_like();
        let aria = DatasetConfig::aria_like();
        assert_eq!(lvis.paper_resolution, 640);
        assert_eq!(aria.paper_resolution, 960);
        // LVIS is more cluttered with smaller objects than Aria.
        assert!(lvis.objects.1 > aria.objects.1);
        assert!(lvis.object_size.1 < aria.object_size.1);
        assert!(DatasetConfig::davis_like().moving);
        assert!(!lvis.moving);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ds = SceneDataset::new(DatasetConfig::ade_like().with_resolution(48));
        let a = ds.sample(&mut seeded_rng(9));
        let b = ds.sample(&mut seeded_rng(9));
        assert_eq!(a.image, b.image);
        assert_eq!(a.ioi_class, b.ioi_class);
    }

    #[test]
    fn samples_cover_multiple_classes() {
        let ds = SceneDataset::new(DatasetConfig::lvis_like().with_resolution(48));
        let mut rng = seeded_rng(10);
        let classes: std::collections::HashSet<_> = ds
            .samples(20, &mut rng)
            .iter()
            .map(|s| s.ioi_class)
            .collect();
        assert!(
            classes.len() >= 4,
            "only {} classes in 20 samples",
            classes.len()
        );
    }

    #[test]
    fn gaze_on_mask_respects_mask() {
        let mut mask = Tensor::zeros(&[8, 8]);
        mask.set(&[2, 5], 1.0);
        let g = gaze_on_mask(&mask, &mut seeded_rng(0)).expect("nonempty");
        assert_eq!(g.to_pixel(8, 8), (2, 5));
        assert!(gaze_on_mask(&Tensor::zeros(&[8, 8]), &mut seeded_rng(0)).is_none());
    }
}
