//! # solo-core
//!
//! The paper's primary contribution: **SOLONet** — gaze-driven foveated
//! instance segmentation — together with the SOLO Streaming Algorithm and
//! the end-to-end system model tying the algorithm to the hardware
//! simulators in `solo-hw`.
//!
//! * [`esnet`] — ESNet (Fig. 6 (b)): the GT-ViT gaze tracker with token
//!   pruning, the RNN saccade detector and the saliency head that drives
//!   saliency-based sensing;
//! * [`backbones`] — three from-scratch trainable segmentation backbones
//!   with the architectural signatures of HRNet / SegFormer / DeepLabV3;
//! * [`segnet`] — the gaze-aware segmentation network (Section 3.3): a
//!   backbone plus the `H_seg` / `H_cls` heads whose outer product forms
//!   the label map `Y_cm`;
//! * [`solonet`] — the assembled SOLONet (Fig. 6 (a)) and its Eq.-4
//!   training methodology, plus the AD / LTD / FR baselines of Section 5;
//! * [`metrics`] — b-IoU and c-IoU;
//! * [`ssa`] — the SOLO Streaming Algorithm (Fig. 6 (c)) and the Eq. 5/6
//!   analytic skip model;
//! * [`resilience`] — the fault injector, typed `SoloError`/`FrameOutcome`
//!   error layer, and the graceful-degradation ladder for the streaming
//!   loop;
//! * [`system`] — streaming evaluation over synthetic videos, combining
//!   SSA decisions with the `solo-hw` pipeline costs;
//! * [`user_study`] — the simulated 2IFC preference study of Section 6.6;
//! * [`experiments`] — one entry point per table/figure in the paper,
//!   invoked by the `solo-bench` binaries.

#![warn(missing_docs)]

pub mod backbones;
pub mod esnet;
pub mod experiments;
pub mod metrics;
pub mod resilience;
pub mod segnet;
pub mod solonet;
pub mod ssa;
pub mod system;
pub mod user_study;
