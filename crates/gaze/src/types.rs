//! Gaze trace primitives.

use serde::{Deserialize, Serialize};

/// A normalized gaze location in the front-camera frame: `x` is the column
/// fraction and `y` the row fraction, both in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GazePoint {
    /// Column fraction in `[0, 1]`.
    pub x: f32,
    /// Row fraction in `[0, 1]`.
    pub y: f32,
}

impl GazePoint {
    /// Creates a gaze point, clamping into `[0, 1]²`.
    pub fn new(x: f32, y: f32) -> Self {
        Self {
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
        }
    }

    /// The frame center.
    pub fn center() -> Self {
        Self { x: 0.5, y: 0.5 }
    }

    /// Euclidean distance in normalized units.
    pub fn distance(&self, other: &GazePoint) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Euclidean distance in pixels for a `width × height` frame — the
    /// quantity the paper thresholds at β = 20 px (Section 3.5).
    pub fn distance_px(&self, other: &GazePoint, width: usize, height: usize) -> f32 {
        (((self.x - other.x) * width as f32).powi(2) + ((self.y - other.y) * height as f32).powi(2))
            .sqrt()
    }

    /// Converts to integer pixel coordinates `(row, col)` in an `h × w`
    /// frame.
    pub fn to_pixel(&self, h: usize, w: usize) -> (usize, usize) {
        (
            ((self.y * h as f32) as usize).min(h.saturating_sub(1)),
            ((self.x * w as f32) as usize).min(w.saturating_sub(1)),
        )
    }
}

/// The mode the oculomotor system is in (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EyePhase {
    /// Eye still, gaze held on one point; visual acuity concentrated there.
    Fixation,
    /// Rapid ballistic jump between targets; visual sensitivity suppressed.
    Saccade,
    /// Eye smoothly tracking a moving object (rare in everyday viewing).
    SmoothPursuit,
    /// The ≈50 ms window after a saccade while sensitivity recovers.
    Recovery,
}

impl EyePhase {
    /// Whether this sample belongs to a fixation.
    pub fn is_fixation(&self) -> bool {
        matches!(self, EyePhase::Fixation)
    }

    /// Whether visual sensitivity is suppressed (saccade or recovery) — the
    /// window in which SSA may reuse stale segmentation results unnoticed.
    pub fn is_suppressed(&self) -> bool {
        matches!(self, EyePhase::Saccade | EyePhase::Recovery)
    }
}

/// One timestamped gaze observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GazeSample {
    /// Time since trace start, in milliseconds.
    pub t_ms: f64,
    /// Gaze location.
    pub point: GazePoint,
    /// Ground-truth oculomotor phase (the label saccade detectors train on).
    pub phase: EyePhase,
}

/// How the eye tracker delivered (or failed to deliver) one sample — the
/// vocabulary the resilience layer degrades on. Real trackers lose the
/// pupil during blinks and fast saccades and can repeat stale samples when
/// the estimation pipeline falls behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrackerStatus {
    /// A fresh, trustworthy estimate.
    Valid,
    /// A fresh estimate with an injected noise spike (still usable).
    Noisy,
    /// The tracker repeated an old sample (pipeline stall / frozen output).
    Stale,
    /// Eyelid closed: no pupil to track for the blink window.
    Blink,
    /// Tracker lost the pupil (off-axis glint, headset slip, dropout).
    Lost,
}

impl TrackerStatus {
    /// Whether the sample carries a *current* gaze estimate the streaming
    /// pipeline may act on. `Stale` is not usable: the value is old even
    /// though the transport delivered something.
    pub fn is_usable(&self) -> bool {
        matches!(self, TrackerStatus::Valid | TrackerStatus::Noisy)
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TrackerStatus::Valid => "valid",
            TrackerStatus::Noisy => "noisy",
            TrackerStatus::Stale => "stale",
            TrackerStatus::Blink => "blink",
            TrackerStatus::Lost => "lost",
        }
    }
}

/// Where an observation's gaze *point* came from — the speculation layer's
/// provenance vocabulary, orthogonal to [`TrackerStatus`] (which describes
/// the delivery). A measured point was estimated by the tracker this frame;
/// a predicted point was forecast by the gaze predictor (e.g. a saccade
/// landing); a held point is an earlier measurement carried forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GazeSource {
    /// Estimated by the eye tracker from this frame's eye image.
    Measured,
    /// Forecast by the recurrent gaze predictor ahead of measurement.
    Predicted,
    /// Carried over from an earlier frame (held fixation, stale repeat).
    Held,
}

impl GazeSource {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GazeSource::Measured => "measured",
            GazeSource::Predicted => "predicted",
            GazeSource::Held => "held",
        }
    }
}

/// A gaze sample as delivered by a fallible tracker: the raw
/// [`GazeSample`] plus delivery status, point provenance, and a confidence
/// in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GazeObservation {
    /// The delivered sample (for `Stale`, the repeated old sample; for
    /// `Blink`/`Lost`, the tracker's last output, not to be trusted).
    pub sample: GazeSample,
    /// Delivery status.
    pub status: TrackerStatus,
    /// Provenance of the sample's gaze point.
    pub source: GazeSource,
    /// Confidence in `[0, 1]` (1 for a clean tracker estimate, the
    /// predictor's own confidence for a predicted point, 0 when the pupil
    /// is lost).
    pub confidence: f32,
}

impl GazeObservation {
    /// Wraps a trustworthy measured sample.
    pub fn valid(sample: GazeSample) -> Self {
        Self {
            sample,
            status: TrackerStatus::Valid,
            source: GazeSource::Measured,
            confidence: 1.0,
        }
    }

    /// Wraps a predictor forecast: the tracker did not deliver this point
    /// (`status` records what it *did* deliver), the predictor did.
    pub fn predicted(sample: GazeSample, status: TrackerStatus, confidence: f32) -> Self {
        Self {
            sample,
            status,
            source: GazeSource::Predicted,
            confidence: confidence.clamp(0.0, 1.0),
        }
    }

    /// Whether the observation carries a current, actionable estimate.
    pub fn is_usable(&self) -> bool {
        self.status.is_usable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_into_unit_square() {
        let p = GazePoint::new(-0.5, 1.5);
        assert_eq!(p, GazePoint { x: 0.0, y: 1.0 });
    }

    #[test]
    fn distance_px_scales_with_resolution() {
        let a = GazePoint::new(0.0, 0.0);
        let b = GazePoint::new(0.1, 0.0);
        let d = a.distance_px(&b, 1000, 1000);
        assert!((d - 100.0).abs() < 1e-3);
        assert!((a.distance(&b) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn to_pixel_stays_in_bounds() {
        let p = GazePoint::new(1.0, 1.0);
        assert_eq!(p.to_pixel(10, 20), (9, 19));
        assert_eq!(GazePoint::center().to_pixel(10, 10), (5, 5));
    }

    #[test]
    fn suppression_covers_saccade_and_recovery() {
        assert!(EyePhase::Saccade.is_suppressed());
        assert!(EyePhase::Recovery.is_suppressed());
        assert!(!EyePhase::Fixation.is_suppressed());
        assert!(!EyePhase::SmoothPursuit.is_suppressed());
    }

    #[test]
    fn only_fresh_statuses_are_usable() {
        assert!(TrackerStatus::Valid.is_usable());
        assert!(TrackerStatus::Noisy.is_usable());
        assert!(!TrackerStatus::Stale.is_usable());
        assert!(!TrackerStatus::Blink.is_usable());
        assert!(!TrackerStatus::Lost.is_usable());
    }

    #[test]
    fn valid_observation_has_full_confidence() {
        let s = GazeSample {
            t_ms: 0.0,
            point: GazePoint::center(),
            phase: EyePhase::Fixation,
        };
        let obs = GazeObservation::valid(s);
        assert!(obs.is_usable());
        assert_eq!(obs.confidence, 1.0);
        assert_eq!(obs.sample, s);
        assert_eq!(obs.source, GazeSource::Measured);
    }

    #[test]
    fn provenance_is_orthogonal_to_delivery_status() {
        let s = GazeSample {
            t_ms: 10.0,
            point: GazePoint::center(),
            phase: EyePhase::Saccade,
        };
        // A predicted landing during a blink: the tracker delivered
        // nothing usable, yet the point itself is actionable speculation.
        let p = GazeObservation::predicted(s, TrackerStatus::Blink, 0.8);
        assert_eq!(p.source, GazeSource::Predicted);
        assert!(!p.is_usable(), "usability still follows delivery status");
        assert_eq!(p.confidence, 0.8);
        let sure = GazeObservation::predicted(s, TrackerStatus::Lost, 1.7);
        assert_eq!(sure.confidence, 1.0, "confidence clamps into [0, 1]");
        assert_eq!(GazeSource::Predicted.name(), "predicted");
    }
}
