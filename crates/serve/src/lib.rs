//! # solo-serve
//!
//! Multi-session serving for the SOLO pipeline: N concurrent users, each
//! with their own gaze trace, scene, SSA state and degradation ladder,
//! multiplexed over **one** shared model and **one** per-tick compute
//! budget.
//!
//! The perf core is *cross-session batched inference*: every tick, all
//! running sessions' warped crops stack into fused GEMM dispatches against
//! panels that were packed **once per process** (a [`SharedPackedCache`]
//! keyed on the model version), and the gaze-predictor RNN's time-step
//! loop is batched across the session dimension. Both batched paths are
//! bit-identical to serving each session alone — the invariant the tier-1
//! proptests pin — so batching is purely a throughput lever:
//!
//! * [`ServeModel`] — shared weights, version-keyed shared panel caches
//!   (f32 and int8 twins), the batched segmentation head and predictor;
//! * [`Session`] — per-user trace, SSA, ladder and predictor hidden row;
//! * [`Server`] — admission control priced by the batched marginal cost,
//!   the frame-tick scheduler, and per-session overload degradation.
//!
//! The resilience layer rides on top: each session carries its own seeded
//! fault plan, a [`Supervisor`] scores per-session health during
//! [`Server::tick_supervised`], and chronically unhealthy sessions park
//! in place and serve a held-state stub until an exponential-backoff probe
//! re-admits them. A probe replays the skipped frames' gazes into the
//! parked session's fault injector and renders one frame — all without
//! perturbing a single bit of a healthy batch-mate's output. A
//! [`SessionCheckpoint`] snapshots a session for an exact restore.
//!
//! ```
//! use solo_serve::{AdmitOutcome, ServeModel, ServeModelConfig, Server, ServerConfig, SessionSpec};
//! use solo_tensor::seeded_rng;
//! use std::sync::Arc;
//!
//! let mut rng = seeded_rng(0);
//! let model = Arc::new(ServeModel::new(&mut rng, ServeModelConfig::paper_default()).unwrap());
//! let mut server = Server::new(model, ServerConfig::paper_default()).unwrap();
//! assert_eq!(server.admit(SessionSpec::nth(0, 0)), AdmitOutcome::Admitted(0));
//! let report = server.tick_supervised();
//! assert_eq!(report.base.sessions, 1);
//! assert_eq!(report.base.ran, 1); // first frame always segments
//! ```
//!
//! [`SharedPackedCache`]: solo_tensor::SharedPackedCache

mod model;
mod server;
mod session;
mod supervisor;

pub use model::{Precision, PushError, ServeModel, ServeModelConfig, WeightPush};
pub use server::{
    AdmitOutcome, RejectReason, Server, ServerConfig, SupervisedTickReport, TickReport,
};
pub use session::{ScenePreset, Session, SessionCheckpoint, SessionSpec, SessionStats};
pub use supervisor::{HealthSignal, Supervisor, SupervisorConfig};
