//! # solo-gaze
//!
//! Human eye-movement behaviour for SOLO: a generative model of gaze traces
//! (fixation / saccade / smooth pursuit, Section 2.1 of the paper), the
//! paper's single-layer RNN saccade detector, a synthetic eye-image
//! renderer standing in for the OpenEDS2020 dataset, the video-segment /
//! gaze statistics behind the paper's Figure 3 user study, and a
//! recurrent saccade landing-point predictor
//! ([`GazePredictor`]) that turns the pipeline speculative.
//!
//! Physiological constants follow the paper's citations: saccade durations
//! span 30–250 ms depending on amplitude (Baloh et al.), visual sensitivity
//! needs ≈50 ms to recover after a saccade ends (saccadic suppression), and
//! fixations dominate everyday viewing.
//!
//! ```
//! use solo_gaze::{EyeBehaviorConfig, EyeBehaviorModel};
//! use solo_tensor::seeded_rng;
//!
//! let mut rng = seeded_rng(7);
//! let model = EyeBehaviorModel::new(EyeBehaviorConfig::default());
//! let trace = model.generate(300, &mut rng);
//! assert_eq!(trace.len(), 300);
//! // Fixations dominate natural viewing.
//! let fixating = trace.iter().filter(|s| s.phase.is_fixation()).count();
//! assert!(fixating > trace.len() / 2);
//! ```

#![warn(missing_docs)]

mod behavior;
mod detector;
mod eye_image;
pub mod predictor;
mod study;
mod types;

pub use behavior::{EyeBehaviorConfig, EyeBehaviorModel};
pub use detector::RnnSaccadeDetector;
pub use eye_image::{render_eye, EyeImageConfig};
pub use predictor::{GazePrediction, GazePredictor, PredictorConfig};
pub use study::{gaze_distances_px, segment_video, view_diff, GazeStudyStats, VideoSegment};
pub use types::{EyePhase, GazeObservation, GazePoint, GazeSample, GazeSource, TrackerStatus};
