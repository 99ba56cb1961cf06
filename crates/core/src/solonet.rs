//! SOLONet assembly, its Eq.-4 training methodology, and the accuracy
//! baselines of Section 5 (AD, LTD, FR).
//!
//! The functional pipelines here run at a reduced geometry (default 96²
//! frames → 24² samples, the paper's 1/8–1/4 regime) so that training from
//! scratch is tractable; the *hardware* models in `solo-hw` use the paper's
//! true frame sizes. What transfers between the two scales is the relative
//! ordering the experiments measure: how much IOI information each
//! downsampling front-end preserves at a fixed pixel budget.

use rand::Rng;
use solo_nn::Adam;
use solo_sampler::{average_downsample, uniform_subsample, IndexMap, SamplerSpec};
use solo_scene::{DatasetConfig, Sample};
use solo_tensor::{avg_pool2d, bilinear_resize, exec, Tensor};

use crate::backbones::BackboneKind;
use crate::esnet::SaliencyNet;
use crate::metrics::{binary_iou, classified_iou};
use crate::segnet::{GazeAwareSegNet, SemanticSegNet, BACKGROUND};
use solo_gaze::GazePoint;
use solo_sampler::gaze_saliency;

/// Stacks a gaze-prior heat map as a fourth channel onto an RGB image —
/// the conditioning that tells the gaze-aware segmentation network *which*
/// instance to segment (Section 3.3).
pub fn with_gaze_channel(img: &Tensor, gaze: GazePoint) -> Tensor {
    assert_eq!(img.shape().ndim(), 3, "image must be [3,h,w]");
    assert_eq!(img.shape().dim(0), 3, "image must have 3 channels");
    let (h, w) = (img.shape().dim(1), img.shape().dim(2));
    let prior = gaze_saliency(h, w, (gaze.x, gaze.y), 0.08, 0.0);
    let mut data = img.as_slice().to_vec();
    data.extend_from_slice(prior.as_slice());
    Tensor::from_vec(data, &[4, h, w])
}

/// The downsampling front-ends compared in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Average Downsampling: plain resize of the whole frame.
    Ad,
    /// Learn-To-Downsample: saliency-guided sampling *without* gaze.
    Ltd,
    /// SOLO: gaze-driven saliency sampling.
    Solo,
    /// Full Resolution: conventional segmentation of the whole frame, IOI
    /// mask selected afterwards.
    Fr,
}

impl Method {
    /// All methods in Table 2 column order.
    pub const ALL: [Method; 4] = [Method::Ad, Method::Ltd, Method::Solo, Method::Fr];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Ad => "AD",
            Method::Ltd => "LTD",
            Method::Solo => "SOLO",
            Method::Fr => "FR",
        }
    }
}

/// Functional experiment geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Full-resolution frame side.
    pub full_res: usize,
    /// Downsampled side fed to the segmentation network.
    pub down_res: usize,
    /// Sampler Gaussian σ in full-res pixels (Eq. 2/3).
    pub sigma: f32,
    /// Eq. 4 λ: weight of the saliency MSE regularizer.
    pub lambda: f32,
}

impl PipelineConfig {
    /// Geometry for a dataset preset at a given functional frame size,
    /// scaling the paper's per-dataset σ (45 LVIS / 35 ADE / 50 Aria) from
    /// the paper's resolution.
    pub fn for_dataset(ds: &DatasetConfig, full_res: usize, down_res: usize) -> Self {
        let paper_sigma = match ds.name.as_str() {
            "lvis-like" => 45.0,
            "ade-like" => 35.0,
            "aria-like" => 50.0,
            _ => 45.0,
        };
        Self {
            full_res,
            down_res,
            // Scaled from the paper's per-dataset σ (pixel units) by the
            // functional/paper resolution ratio; sweeping σ confirms the
            // paper's values sit at the round-trip-IoU optimum (see the
            // σ ablation in solo-bench).
            sigma: paper_sigma * full_res as f32 / ds.paper_resolution as f32,
            lambda: 0.1,
        }
    }

    /// Sampler spec for this geometry.
    pub fn spec(&self) -> SamplerSpec {
        SamplerSpec::new(
            self.full_res,
            self.full_res,
            self.down_res,
            self.down_res,
            self.sigma,
        )
    }
}

/// One pre-warmed speculative candidate: a forecast landing point with the
/// saliency crop's SBS index map already prepared for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculativeCandidate {
    /// The candidate landing gaze.
    pub gaze: GazePoint,
    /// The predictor's confidence in this candidate.
    pub confidence: f32,
    /// The prepared index map (bit-identical to what
    /// [`FoveatedPipeline::index_map_at`] would build at `gaze`, unwidened).
    pub map: IndexMap,
}

/// The K candidates pre-warmed for one in-flight saccade, awaiting the
/// measured landing. Exactly one of [`SpeculationSet::commit`] or
/// [`SpeculationSet::abort`] should consume the set so every uncommitted
/// candidate's scratch returns to the buffer pool.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpeculationSet {
    candidates: Vec<SpeculativeCandidate>,
}

impl SpeculationSet {
    /// Number of pre-warmed candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no candidates were pre-warmed.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidates, in predictor order (candidate 0 is the point
    /// forecast itself).
    pub fn candidates(&self) -> &[SpeculativeCandidate] {
        &self.candidates
    }

    /// Index and normalized distance of the candidate nearest `measured`.
    pub fn nearest(&self, measured: GazePoint) -> Option<(usize, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, c) in self.candidates.iter().enumerate() {
            let d = c.gaze.distance(&measured);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best
    }

    /// Commits the candidate nearest the measured landing if it lies within
    /// `radius` (normalized units), recycling every other candidate's map
    /// back into the buffer pool. On a total miss — no candidate within
    /// `radius` — the whole set is recycled and `None` is returned, and the
    /// caller falls through to the reactive path.
    pub fn commit(self, measured: GazePoint, radius: f32) -> Option<SpeculativeCandidate> {
        let hit = match self.nearest(measured) {
            Some((i, d)) if d <= radius => Some(i),
            _ => None,
        };
        let mut winner = None;
        for (i, c) in self.candidates.into_iter().enumerate() {
            if Some(i) == hit {
                winner = Some(c);
            } else {
                c.map.recycle();
            }
        }
        winner
    }

    /// The abort path: recycles every candidate's map scratch. Used when
    /// the landing frame turns out not to run (SSA reuse) or the protocol
    /// is cancelled (e.g. the frame budget would overrun).
    pub fn abort(self) {
        for c in self.candidates {
            c.map.recycle();
        }
    }
}

/// Per-sample evaluation scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalScores {
    /// Binary IoU of the IOI mask.
    pub b_iou: f32,
    /// Classified IoU.
    pub c_iou: f32,
}

/// The SOLO / LTD pipeline: saliency head → index map → sampled frame →
/// gaze-aware segmentation → reverse-sampled full-resolution mask.
pub struct FoveatedPipeline {
    /// The saliency head (gaze-conditioned for SOLO, gaze-free for LTD).
    pub saliency: SaliencyNet,
    /// The gaze-aware segmentation network.
    pub seg: GazeAwareSegNet,
    cfg: PipelineConfig,
    opt_seg: Adam,
    opt_sal: Adam,
}

impl FoveatedPipeline {
    /// Builds the pipeline; `use_gaze = false` gives the LTD baseline.
    pub fn new(
        rng: &mut impl Rng,
        kind: BackboneKind,
        cfg: PipelineConfig,
        use_gaze: bool,
        lr: f32,
    ) -> Self {
        Self {
            saliency: SaliencyNet::new(rng, use_gaze),
            seg: GazeAwareSegNet::new(rng, kind),
            cfg,
            opt_seg: Adam::new(lr),
            // Eq. 4's λ scales the saliency regularizer; with a separate
            // optimizer it becomes a learning-rate scale.
            opt_sal: Adam::new(lr * cfg.lambda),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The index map for a frame: preview → saliency → Eq. 2/3.
    pub fn index_map(&mut self, sample: &Sample) -> IndexMap {
        self.index_map_at(&sample.image, sample.gaze, 1.0)
    }

    /// The index map for a raw frame given only the image and the gaze —
    /// the streaming entry point, where no dataset `Sample` exists. The
    /// sampler is widened by the area factor `widen`
    /// ([`SamplerSpec::widened`]; 1 for the nominal crop), the resilience
    /// ladder's hedge when the gaze has gone stale.
    pub fn index_map_at(&mut self, image: &Tensor, gaze: GazePoint, widen: f32) -> IndexMap {
        let d = self.cfg.down_res;
        let preview = uniform_subsample(image, d, d);
        let s = self.saliency.saliency(&preview, gaze);
        IndexMap::from_saliency(&self.cfg.spec().widened(widen), &s)
    }

    /// Speculation pre-warm: prepares saliency crops and SBS index maps for
    /// `candidates` — the K forecast landing points of an in-flight saccade —
    /// from one shared preview of the landing frame. Saliency runs once per
    /// candidate (it is gaze-conditioned), then the K `IndexMap` builds fan
    /// out over the exec pool; each map draws its scratch from the buffer
    /// pool and is recycled by [`SpeculationSet::commit`] /
    /// [`SpeculationSet::abort`]. Per candidate the map is bit-identical to
    /// [`Self::index_map_at`] at the same gaze, which is what makes an
    /// oracle commit indistinguishable from the reactive path.
    pub fn speculate_maps(
        &mut self,
        image: &Tensor,
        candidates: &[(GazePoint, f32)],
    ) -> SpeculationSet {
        if candidates.is_empty() {
            return SpeculationSet::default();
        }
        let d = self.cfg.down_res;
        let preview = uniform_subsample(image, d, d);
        let mut sals = Vec::with_capacity(candidates.len());
        for &(gaze, _) in candidates {
            sals.push(self.saliency.saliency(&preview, gaze));
        }
        let spec = self.cfg.spec();
        // `from_saliency` is internally serial, so fanning the K builds out
        // as one task each keeps the result independent of pool width.
        let maps = exec::pool().par_tasks(sals.len(), |i: usize| {
            IndexMap::from_saliency(&spec, &sals[i])
        });
        let candidates = candidates
            .iter()
            .zip(maps)
            .map(|(&(gaze, confidence), map)| SpeculativeCandidate {
                gaze,
                confidence,
                map,
            })
            .collect();
        SpeculationSet { candidates }
    }

    /// One Eq.-4 training step; returns `(dice, ce, saliency_mse)`.
    pub fn train_step(&mut self, sample: &Sample) -> (f32, f32, f32) {
        let d = self.cfg.down_res;
        let preview = uniform_subsample(&sample.image, d, d);
        // Saliency regularizer target: the (downsampled) ground-truth IOI
        // mask for SOLO; the union of all objects for gaze-free LTD.
        let full_target = if self.saliency.use_gaze {
            sample.ioi_mask.clone()
        } else {
            sample
                .scene
                .foreground_mask(&sample.view, self.cfg.full_res)
        };
        let target = pool_mask(&full_target, d);
        let sal_loss = self
            .saliency
            .train_step(&preview, sample.gaze, &target, &mut self.opt_sal);
        // Resample image + ground truth with the *same* index map
        // (Section 3.4).
        let map = self.index_map(sample);
        let sampled = self.pack_sampled(&map, sample);
        let gt_down = sample_mask(&sample.ioi_mask, &map);
        let (dice, ce) =
            self.seg
                .train_step(&sampled, &gt_down, sample.ioi_class.id(), &mut self.opt_seg);
        (dice, ce, sal_loss)
    }

    /// Samples the frame with the index map and stacks the gaze channel at
    /// its *warped* location (where the sampler put the gazed pixel).
    pub fn pack_sampled(&self, map: &solo_sampler::IndexMap, sample: &Sample) -> Tensor {
        self.pack_sampled_at(map, &sample.image, sample.gaze)
    }

    /// [`Self::pack_sampled`] for a raw frame: image and gaze only, no
    /// dataset `Sample` required.
    pub fn pack_sampled_at(
        &self,
        map: &solo_sampler::IndexMap,
        image: &Tensor,
        gaze: GazePoint,
    ) -> Tensor {
        let sampled = map.sample_bilinear(image);
        let (gr, gc) = gaze.to_pixel(self.cfg.full_res, self.cfg.full_res);
        let (wi, wj) = map.warp_source_point(gr, gc);
        let d = self.cfg.down_res as f32;
        with_gaze_channel(
            &sampled,
            GazePoint::new((wj as f32 + 0.5) / d, (wi as f32 + 0.5) / d),
        )
    }

    /// Evaluates one sample at full resolution (reverse-sampled mask vs the
    /// full-resolution ground truth).
    pub fn evaluate(&mut self, sample: &Sample) -> EvalScores {
        self.evaluate_with(sample, false)
    }

    /// Same as [`FoveatedPipeline::evaluate`], but the segmentation network
    /// runs in int8 quantized inference mode (the paper's 8-bit systolic
    /// datapath). Saliency, index-map construction and reverse sampling are
    /// unaffected — only the network's GEMMs change precision.
    pub fn evaluate_quant(&mut self, sample: &Sample) -> EvalScores {
        self.evaluate_with(sample, true)
    }

    fn evaluate_with(&mut self, sample: &Sample, quantized: bool) -> EvalScores {
        let map = self.index_map(sample);
        let sampled = self.pack_sampled(&map, sample);
        let (mask, logits) = if quantized {
            self.seg.infer_quant(&sampled)
        } else {
            self.seg.infer(&sampled)
        };
        let up = map.upsample_mask(mask);
        EvalScores {
            b_iou: binary_iou(&up, &sample.ioi_mask),
            c_iou: classified_iou(
                &up,
                logits.argmax(),
                &sample.ioi_mask,
                sample.ioi_class.id(),
            ),
        }
    }
}

impl std::fmt::Debug for FoveatedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FoveatedPipeline({}, gaze: {})",
            self.seg.kind().name(),
            self.saliency.use_gaze
        )
    }
}

/// The AD baseline: average-downsample, segment, bilinear-upsample.
pub struct AdPipeline {
    /// The gaze-aware segmentation network (same heads as SOLO's).
    pub seg: GazeAwareSegNet,
    cfg: PipelineConfig,
    opt: Adam,
}

impl AdPipeline {
    /// Builds the pipeline.
    pub fn new(rng: &mut impl Rng, kind: BackboneKind, cfg: PipelineConfig, lr: f32) -> Self {
        Self {
            seg: GazeAwareSegNet::new(rng, kind),
            cfg,
            opt: Adam::new(lr),
        }
    }

    /// One training step; returns `(dice, ce)`.
    pub fn train_step(&mut self, sample: &Sample) -> (f32, f32) {
        let d = self.cfg.down_res;
        let img = with_gaze_channel(&average_downsample(&sample.image, d, d), sample.gaze);
        let gt = pool_mask(&sample.ioi_mask, d).map(|v| if v >= 0.5 { 1.0 } else { 0.0 });
        self.seg
            .train_step(&img, &gt, sample.ioi_class.id(), &mut self.opt)
    }

    /// Full-resolution evaluation.
    pub fn evaluate(&mut self, sample: &Sample) -> EvalScores {
        let d = self.cfg.down_res;
        let img = with_gaze_channel(&average_downsample(&sample.image, d, d), sample.gaze);
        let (mask, logits) = self.seg.infer(&img);
        let up = bilinear_resize(
            &mask.reshape(&[1, d, d]),
            self.cfg.full_res,
            self.cfg.full_res,
        )
        .map(|v| if v > 0.5 { 1.0 } else { 0.0 })
        .into_reshaped(&[self.cfg.full_res, self.cfg.full_res]);
        EvalScores {
            b_iou: binary_iou(&up, &sample.ioi_mask),
            c_iou: classified_iou(
                &up,
                logits.argmax(),
                &sample.ioi_mask,
                sample.ioi_class.id(),
            ),
        }
    }
}

/// The FR baseline: full-resolution semantic segmentation, IOI extracted as
/// the connected component of the predicted class under the gaze.
pub struct FrPipeline {
    /// The semantic segmentation network.
    pub seg: SemanticSegNet,
    cfg: PipelineConfig,
    opt: Adam,
}

impl FrPipeline {
    /// Builds the pipeline.
    pub fn new(rng: &mut impl Rng, kind: BackboneKind, cfg: PipelineConfig, lr: f32) -> Self {
        Self {
            seg: SemanticSegNet::new(rng, kind),
            cfg,
            opt: Adam::new(lr),
        }
    }

    /// One per-pixel cross-entropy training step; returns the loss.
    pub fn train_step(&mut self, sample: &Sample) -> f32 {
        let target = sample.scene.semantic_map(&sample.view, self.cfg.full_res);
        self.seg.train_step(&sample.image, &target, &mut self.opt)
    }

    /// Full-resolution evaluation.
    pub fn evaluate(&mut self, sample: &Sample) -> EvalScores {
        let gaze_px = sample.gaze.to_pixel(self.cfg.full_res, self.cfg.full_res);
        let (mask, class) = self.seg.ioi_mask(&sample.image, gaze_px);
        let (mask, class) = if class == BACKGROUND {
            // Gaze pixel misclassified as background: empty prediction.
            (
                Tensor::zeros(&[self.cfg.full_res, self.cfg.full_res]),
                class,
            )
        } else {
            (mask, class)
        };
        EvalScores {
            b_iou: binary_iou(&mask, &sample.ioi_mask),
            c_iou: classified_iou(&mask, class, &sample.ioi_mask, sample.ioi_class.id()),
        }
    }
}

/// A method-dispatching pipeline, so experiments can sweep Table 2's rows
/// uniformly.
pub enum MethodPipeline {
    /// Average downsampling.
    Ad(AdPipeline),
    /// Learn-to-downsample (gaze-free saliency).
    Ltd(FoveatedPipeline),
    /// SOLO.
    Solo(FoveatedPipeline),
    /// Full resolution.
    Fr(FrPipeline),
}

impl MethodPipeline {
    /// Builds the pipeline for a method.
    pub fn new(
        rng: &mut impl Rng,
        method: Method,
        kind: BackboneKind,
        cfg: PipelineConfig,
        lr: f32,
    ) -> Self {
        match method {
            Method::Ad => MethodPipeline::Ad(AdPipeline::new(rng, kind, cfg, lr)),
            Method::Ltd => MethodPipeline::Ltd(FoveatedPipeline::new(rng, kind, cfg, false, lr)),
            Method::Solo => MethodPipeline::Solo(FoveatedPipeline::new(rng, kind, cfg, true, lr)),
            Method::Fr => MethodPipeline::Fr(FrPipeline::new(rng, kind, cfg, lr)),
        }
    }

    /// The method tag.
    pub fn method(&self) -> Method {
        match self {
            MethodPipeline::Ad(_) => Method::Ad,
            MethodPipeline::Ltd(_) => Method::Ltd,
            MethodPipeline::Solo(_) => Method::Solo,
            MethodPipeline::Fr(_) => Method::Fr,
        }
    }

    /// One training step on a sample.
    pub fn train_step(&mut self, sample: &Sample) {
        match self {
            MethodPipeline::Ad(p) => {
                p.train_step(sample);
            }
            MethodPipeline::Ltd(p) | MethodPipeline::Solo(p) => {
                p.train_step(sample);
            }
            MethodPipeline::Fr(p) => {
                p.train_step(sample);
            }
        }
    }

    /// Trains for `epochs` passes over `samples`.
    pub fn train(&mut self, samples: &[Sample], epochs: usize) {
        for _ in 0..epochs {
            for s in samples {
                self.train_step(s);
            }
        }
    }

    /// Evaluates one sample.
    pub fn evaluate(&mut self, sample: &Sample) -> EvalScores {
        match self {
            MethodPipeline::Ad(p) => p.evaluate(sample),
            MethodPipeline::Ltd(p) | MethodPipeline::Solo(p) => p.evaluate(sample),
            MethodPipeline::Fr(p) => p.evaluate(sample),
        }
    }

    /// Evaluates one sample with the segmentation network in int8
    /// quantized inference mode. Only the foveated (LTD/SOLO) pipelines
    /// carry the quantized path; AD/FR fall back to f32 evaluation.
    pub fn evaluate_quant(&mut self, sample: &Sample) -> EvalScores {
        match self {
            MethodPipeline::Ltd(p) | MethodPipeline::Solo(p) => p.evaluate_quant(sample),
            other => other.evaluate(sample),
        }
    }

    /// Mean scores over a test set.
    pub fn evaluate_all(&mut self, samples: &[Sample]) -> EvalScores {
        Self::mean_scores(samples, |s| self.evaluate(s))
    }

    /// Mean quantized-inference scores over a test set (see
    /// [`MethodPipeline::evaluate_quant`]).
    pub fn evaluate_all_quant(&mut self, samples: &[Sample]) -> EvalScores {
        Self::mean_scores(samples, |s| self.evaluate_quant(s))
    }

    fn mean_scores(samples: &[Sample], mut eval: impl FnMut(&Sample) -> EvalScores) -> EvalScores {
        let mut b = 0.0;
        let mut c = 0.0;
        for s in samples {
            let e = eval(s);
            b += e.b_iou;
            c += e.c_iou;
        }
        let n = samples.len().max(1) as f32;
        EvalScores {
            b_iou: b / n,
            c_iou: c / n,
        }
    }
}

impl std::fmt::Debug for MethodPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MethodPipeline({})", self.method().name())
    }
}

/// Average-pools a `[n, n]` mask to `[d, d]` (soft values preserved for
/// MSE targets).
fn pool_mask(mask: &Tensor, d: usize) -> Tensor {
    let n = mask.shape().dim(0);
    let img = mask.reshape(&[1, n, n]);
    let out = if n % d == 0 {
        avg_pool2d(&img, n / d)
    } else {
        bilinear_resize(&img, d, d)
    };
    out.into_reshaped(&[d, d])
}

/// Samples a full-resolution binary mask with an index map (nearest lookup,
/// then re-binarized).
fn sample_mask(mask: &Tensor, map: &IndexMap) -> Tensor {
    let n = mask.shape().dim(0);
    let d = map.spec().out_h;
    map.sample_nearest(&mask.reshape(&[1, n, n]))
        .map(|v| if v > 0.5 { 1.0 } else { 0.0 })
        .into_reshaped(&[d, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_scene::SceneDataset;
    use solo_tensor::seeded_rng;

    fn tiny_cfg() -> (DatasetConfig, PipelineConfig) {
        let ds = DatasetConfig::lvis_like().with_resolution(48);
        let cfg = PipelineConfig::for_dataset(&ds, 48, 16);
        (ds, cfg)
    }

    #[test]
    fn solo_training_improves_iou() {
        let (ds, cfg) = tiny_cfg();
        let mut rng = seeded_rng(110);
        let data = SceneDataset::new(ds);
        let train = data.samples(30, &mut rng);
        let test = data.samples(10, &mut rng);
        let mut p = MethodPipeline::new(&mut rng, Method::Solo, BackboneKind::Sf, cfg, 3e-3);
        let before = p.evaluate_all(&test);
        p.train(&train, 3);
        let after = p.evaluate_all(&test);
        assert!(
            after.b_iou > before.b_iou + 0.05,
            "b-IoU {} -> {}",
            before.b_iou,
            after.b_iou
        );
    }

    #[test]
    fn index_map_concentrates_on_gaze() {
        let (ds, cfg) = tiny_cfg();
        let mut rng = seeded_rng(111);
        let data = SceneDataset::new(ds);
        let sample = data.sample(&mut rng);
        let mut p = FoveatedPipeline::new(&mut rng, BackboneKind::Sf, cfg, true, 1e-3);
        let map = p.index_map(&sample);
        // Count samples landing within 8 px of the gaze; must beat the
        // uniform expectation.
        let (gr, gc) = sample.gaze.to_pixel(48, 48);
        let near = map
            .pixel_indices()
            .iter()
            .filter(|&&(r, c)| {
                ((r as f32 - gr as f32).powi(2) + (c as f32 - gc as f32).powi(2)).sqrt() < 8.0
            })
            .count();
        let area_frac = std::f32::consts::PI * 64.0 / (48.0 * 48.0);
        let uniform_expect = (16.0 * 16.0 * area_frac) as usize;
        // At the paper-scaled σ the pull is deliberately local (the σ
        // ablation shows stronger zoom hurts round-trip IoU), so require a
        // modest ≥1.2× density gain rather than a dramatic one.
        assert!(
            near * 5 > uniform_expect * 6,
            "only {near} samples near gaze (uniform would give ≈{uniform_expect})"
        );
    }

    #[test]
    fn all_methods_run_one_round_trip() {
        let (ds, cfg) = tiny_cfg();
        let mut rng = seeded_rng(112);
        let data = SceneDataset::new(ds);
        let samples = data.samples(3, &mut rng);
        for method in Method::ALL {
            let mut p = MethodPipeline::new(&mut rng, method, BackboneKind::Sf, cfg, 1e-3);
            p.train(&samples, 1);
            let scores = p.evaluate_all(&samples);
            assert!(
                (0.0..=1.0).contains(&scores.b_iou),
                "{}: b-IoU {}",
                method.name(),
                scores.b_iou
            );
            assert!(scores.c_iou <= scores.b_iou + 1e-6, "{}", method.name());
        }
    }

    #[test]
    fn pool_mask_handles_both_ratios() {
        let m = Tensor::ones(&[48, 48]);
        assert_eq!(pool_mask(&m, 16).shape().dims(), &[16, 16]);
        assert_eq!(pool_mask(&m, 20).shape().dims(), &[20, 20]);
        assert!((pool_mask(&m, 16).mean() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn speculated_map_matches_the_reactive_map_per_candidate() {
        let (ds, cfg) = tiny_cfg();
        let mut rng = seeded_rng(113);
        let data = SceneDataset::new(ds);
        let sample = data.sample(&mut rng);
        let mut p = FoveatedPipeline::new(&mut rng, BackboneKind::Sf, cfg, true, 1e-3);
        let candidates = [
            (GazePoint::new(0.3, 0.4), 1.0),
            (GazePoint::new(0.7, 0.6), 0.5),
            (GazePoint::new(0.5, 0.9), 0.5),
        ];
        let set = p.speculate_maps(&sample.image, &candidates);
        assert_eq!(set.len(), 3);
        for (c, &(gaze, conf)) in set.candidates().iter().zip(candidates.iter()) {
            let reactive = p.index_map_at(&sample.image, gaze, 1.0);
            assert_eq!(c.map, reactive, "speculated map diverged at {gaze:?}");
            assert_eq!(c.confidence, conf);
            reactive.recycle();
        }
        set.abort();
    }

    #[test]
    fn speculation_fanout_is_pool_width_invariant() {
        let (ds, cfg) = tiny_cfg();
        let mut rng = seeded_rng(114);
        let data = SceneDataset::new(ds);
        let sample = data.sample(&mut rng);
        let mut p = FoveatedPipeline::new(&mut rng, BackboneKind::Sf, cfg, true, 1e-3);
        let candidates: Vec<(GazePoint, f32)> = (0..4)
            .map(|i| (GazePoint::new(0.2 + 0.15 * i as f32, 0.5), 1.0))
            .collect();
        let narrow = exec::with_threads(1, || p.speculate_maps(&sample.image, &candidates));
        let wide = exec::with_threads(8, || p.speculate_maps(&sample.image, &candidates));
        assert_eq!(narrow.candidates(), wide.candidates());
        narrow.abort();
        wide.abort();
    }

    #[test]
    fn commit_picks_the_nearest_candidate_within_radius() {
        let (ds, cfg) = tiny_cfg();
        let mut rng = seeded_rng(115);
        let data = SceneDataset::new(ds);
        let sample = data.sample(&mut rng);
        let mut p = FoveatedPipeline::new(&mut rng, BackboneKind::Sf, cfg, true, 1e-3);
        let candidates = [
            (GazePoint::new(0.25, 0.25), 1.0),
            (GazePoint::new(0.75, 0.75), 0.5),
        ];
        let set = p.speculate_maps(&sample.image, &candidates);
        let hit = set.commit(GazePoint::new(0.72, 0.77), 0.1);
        let c = match hit {
            Some(c) => c,
            None => panic!("expected a commit within radius"),
        };
        assert_eq!(c.gaze, GazePoint::new(0.75, 0.75));
        c.map.recycle();

        let set = p.speculate_maps(&sample.image, &candidates);
        assert!(
            set.commit(GazePoint::new(0.5, 0.02), 0.1).is_none(),
            "a landing far from every candidate must miss"
        );
    }
}
