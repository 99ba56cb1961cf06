//! Video-segment analysis and the Figure 3 gaze-study statistics.
//!
//! Section 2.2 of the paper measures, on the Aria Everyday Activities
//! dataset, (a) the pixel difference between consecutive front-camera
//! frames — grouping low-difference runs into *video segments* (VS) — and
//! (b) the distance between consecutive gaze locations within a segment.
//! Its headline numbers: 32 % of consecutive frames change by less than 5 %,
//! and 87 % of within-segment gaze steps are under 20 px. These routines
//! compute the same statistics from any frame/gaze sequence.

use solo_tensor::Tensor;

use crate::GazeSample;

/// The intensity change below which two pixels are "virtually
/// indistinguishable by the human eye" (Section 2.2) on a 0–1 scale.
pub const PIXEL_CHANGE_JND: f32 = 0.1;

/// The *percentage of changed pixels* between two `[C, H, W]` frames — the
/// quantity Figure 3 (d) plots and the SSA thresholds with α: a pixel
/// counts as changed when its mean-over-channels absolute difference
/// exceeds `PIXEL_CHANGE_JND`.
///
/// (A mean-absolute-difference metric would under-react to head turns,
/// whose per-frame shift moves many pixels each by a modest amount; the
/// paper's "percentage of pixel changes below a threshold" is the robust
/// form.)
///
/// # Panics
///
/// Panics if the shapes differ or the frames are not rank-3.
pub fn view_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "view_diff frames must match");
    assert_eq!(a.shape().ndim(), 3, "view_diff frames must be [C,H,W]");
    let (c, h, w) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let hw = h * w;
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut changed = 0usize;
    for p in 0..hw {
        let mut d = 0.0f32;
        for ch in 0..c {
            d += (av[ch * hw + p] - bv[ch * hw + p]).abs();
        }
        if d / c as f32 > PIXEL_CHANGE_JND {
            changed += 1;
        }
    }
    changed as f32 / hw.max(1) as f32
}

/// A maximal run of consecutive frames whose pairwise difference stays
/// below the segmentation threshold α.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoSegment {
    /// Index of the first frame in the segment.
    pub start: usize,
    /// One past the last frame.
    pub end: usize,
}

impl VideoSegment {
    /// Number of frames in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Groups frames into video segments: a new segment starts whenever the
/// difference between consecutive frames is at least `alpha`.
///
/// `diffs[i]` is the difference between frame `i` and frame `i+1`, so
/// `diffs.len() == frame_count − 1`. Returns segments covering all
/// `diffs.len() + 1` frames.
pub fn segment_video(diffs: &[f32], alpha: f32) -> Vec<VideoSegment> {
    let n_frames = diffs.len() + 1;
    let mut segments = Vec::new();
    let mut start = 0usize;
    for (i, &d) in diffs.iter().enumerate() {
        if d >= alpha {
            segments.push(VideoSegment { start, end: i + 1 });
            start = i + 1;
        }
    }
    segments.push(VideoSegment {
        start,
        end: n_frames,
    });
    segments
}

/// Distances in pixels between consecutive gaze samples — Figure 3 (b).
pub fn gaze_distances_px(trace: &[GazeSample], width: usize, height: usize) -> Vec<f32> {
    trace
        .windows(2)
        .map(|w| w[0].point.distance_px(&w[1].point, width, height))
        .collect()
}

/// The aggregate statistics of Figure 3 (c)/(e).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GazeStudyStats {
    /// Fraction of consecutive frame pairs whose difference is below the
    /// view threshold (paper: 32 % below 5 %).
    pub frames_below_view_threshold: f32,
    /// Fraction of consecutive gaze steps below the gaze threshold
    /// (paper: 87 % below 20 px).
    pub gaze_below_threshold: f32,
    /// Number of video segments found.
    pub segment_count: usize,
    /// Mean segment length in frames.
    pub mean_segment_len: f32,
}

impl GazeStudyStats {
    /// Computes the study statistics from frame differences and a gaze
    /// trace.
    ///
    /// `view_threshold` is α (the paper's yellow line, 0.05);
    /// `gaze_threshold_px` is β (20 px).
    pub fn compute(
        diffs: &[f32],
        trace: &[GazeSample],
        width: usize,
        height: usize,
        view_threshold: f32,
        gaze_threshold_px: f32,
    ) -> Self {
        let below_view = diffs.iter().filter(|&&d| d < view_threshold).count();
        let gaze_d = gaze_distances_px(trace, width, height);
        let below_gaze = gaze_d.iter().filter(|&&d| d < gaze_threshold_px).count();
        let segments = segment_video(diffs, view_threshold);
        let mean_len = segments.iter().map(VideoSegment::len).sum::<usize>() as f32
            / segments.len().max(1) as f32;
        Self {
            frames_below_view_threshold: below_view as f32 / diffs.len().max(1) as f32,
            gaze_below_threshold: below_gaze as f32 / gaze_d.len().max(1) as f32,
            segment_count: segments.len(),
            mean_segment_len: mean_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EyeBehaviorConfig, EyeBehaviorModel};
    use solo_tensor::seeded_rng;

    #[test]
    fn view_diff_zero_for_identical_frames() {
        let f = Tensor::ones(&[3, 4, 4]);
        assert_eq!(view_diff(&f, &f), 0.0);
    }

    #[test]
    fn view_diff_counts_changed_pixel_fraction() {
        let a = Tensor::zeros(&[1, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 2, 2]);
        assert!((view_diff(&a, &b) - 0.25).abs() < 1e-6);
        // Sub-JND changes don't count.
        let c = Tensor::full(&[1, 2, 2], 0.05);
        assert_eq!(view_diff(&a, &c), 0.0);
    }

    #[test]
    fn segments_split_at_threshold_crossings() {
        let diffs = [0.01, 0.02, 0.9, 0.01, 0.8, 0.01];
        let segs = segment_video(&diffs, 0.05);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], VideoSegment { start: 0, end: 3 });
        assert_eq!(segs[1], VideoSegment { start: 3, end: 5 });
        assert_eq!(segs[2], VideoSegment { start: 5, end: 7 });
        let total: usize = segs.iter().map(VideoSegment::len).sum();
        assert_eq!(total, diffs.len() + 1);
    }

    #[test]
    fn single_segment_when_all_below_threshold() {
        let segs = segment_video(&[0.0, 0.0, 0.0], 0.05);
        assert_eq!(segs, vec![VideoSegment { start: 0, end: 4 }]);
    }

    #[test]
    fn study_stats_reproduce_papers_gaze_finding() {
        // With the default behaviour model, the dominant-fixation structure
        // should put the large majority of inter-frame gaze steps under
        // 20 px at 960² — the paper reports 87 %.
        let model = EyeBehaviorModel::new(EyeBehaviorConfig::default());
        let trace = model.generate(5000, &mut seeded_rng(11));
        let stats = GazeStudyStats::compute(&[0.0; 4999], &trace, 960, 960, 0.05, 20.0);
        assert!(
            stats.gaze_below_threshold > 0.75,
            "gaze-below-threshold fraction {}",
            stats.gaze_below_threshold
        );
        assert!(stats.gaze_below_threshold < 0.99);
    }

    #[test]
    fn stats_count_segments() {
        let diffs = [0.01, 0.9, 0.01];
        let trace = EyeBehaviorModel::default().generate(4, &mut seeded_rng(1));
        let s = GazeStudyStats::compute(&diffs, &trace, 100, 100, 0.05, 20.0);
        assert_eq!(s.segment_count, 2);
        assert!((s.mean_segment_len - 2.0).abs() < 1e-6);
        assert!((s.frames_below_view_threshold - 2.0 / 3.0).abs() < 1e-6);
    }
}
