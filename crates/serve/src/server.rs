//! The multi-session server: a frame-tick scheduler multiplexing N
//! sessions over one shared model and one shared compute budget.
//!
//! Each tick the server advances every live session one frame, runs the
//! gaze predictor **once** for all sessions (the RNN time-step loop batched
//! across the session dimension), lets each session's SSA decide run vs
//! reuse, prices the tick's shared compute against a
//! [`FrameBudget`], and finally segments every running session's warped
//! crop through **one** cross-session batched inference pass.
//!
//! [`Server::tick`] and [`Server::tick_supervised`] run that sequence
//! through one private body. Supervision selects exactly three things:
//! whether each gaze is filtered through the session's fault injector,
//! whether a run is gated against the shared in-order budget or against
//! the session's own slice of the envelope, and the end-of-tick pass that
//! sets new quarantines. Everything else exists once, so a slot a
//! supervised tick quarantined keeps serving its stub, and runs its due
//! probes, on plain ticks too: the two ticks interleave freely.
//!
//! Two invariants the tests pin:
//!
//! * **Batch size never changes outputs.** `cfg.batch` only chunks the
//!   fused GEMM dispatches, which are bit-identical to per-session calls
//!   by construction; all *modeled pricing* is keyed to the session count
//!   (the total slot count on a tick, the live count at admission), never
//!   to `cfg.batch`.
//! * **Degradation is per-session.** Under overload, each session walks
//!   its own [`DegradeLadder`] — sessions early in the tick order keep
//!   running while later ones degrade, and a session's ladder resets as
//!   soon as the budget re-admits it.
//!
//! # Supervised serving
//!
//! [`Server::tick_supervised`] is the resilient variant: every gaze
//! observation filters through the session's own seeded
//! [`FaultInjector`](solo_core::resilience::FaultInjector), a
//! [`Supervisor`] scores per-session health, and chronically unhealthy
//! sessions park in place and serve a held-state stub (freeing envelope
//! budget for the queue) until an exponential-backoff probe re-admits
//! them. A probe replays the skipped frames' gazes into the parked
//! session's injector and renders only the probe frame. Plain ticks
//! honour those quarantines but never set one. Three more invariants the
//! chaos tests pin:
//!
//! * **Fault isolation.** A session's faults are drawn from its own
//!   injector and its tick is gated against its own slice of the
//!   envelope, priced at the *total* slot count — so a neighbor's faults,
//!   quarantine or re-admission never changes a healthy session's served
//!   masks (bit-identical, batched GEMM rows are row-local).
//! * **Supervision is pay-as-faulted.** With every plan disabled,
//!   supervised serving is bit-identical to [`Server::tick`] (reports
//!   included) whenever the fleet fits the admission envelope.
//! * **Deterministic catch-up.** park → stub → probe replays the exact
//!   frame and fault sequence an uninterrupted session would have seen
//!   (the probe feeds the injector the gaze of every skipped frame before
//!   it renders the probe frame), and checkpoint → restore resumes a
//!   session bit-identically.
//!
//! [`DegradeLadder`]: solo_core::resilience::DegradeLadder

use std::collections::VecDeque;
use std::sync::Arc;

use solo_core::metrics::{binary_iou, IouAccumulator};
use solo_core::resilience::{
    gaze_prior_map, oracle_round_trip, DegradeAction, FrameFaults, FrameOutcome, ResilienceConfig,
    SoloError, Work,
};
use solo_gaze::{GazeObservation, GazePoint};
use solo_hw::soc::{Backbone, CostBreakdown, SocModel};
use solo_hw::timing::FrameBudget;
use solo_hw::Latency;
use solo_sampler::uniform_subsample;
use solo_tensor::Tensor;

use crate::model::{Precision, ServeModel};
use crate::session::{Session, SessionSpec, SessionStats};
use crate::supervisor::{HealthSignal, Supervisor, SupervisorConfig};

/// Server knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Hard cap on concurrently live sessions.
    pub max_sessions: usize,
    /// Waiting-room capacity; arrivals beyond it are rejected.
    pub queue_cap: usize,
    /// GEMM fusion chunk: how many sessions' crops stack into one batched
    /// dispatch. Purely a scheduling knob — outputs are bit-identical at
    /// any value (see the module docs).
    pub batch: usize,
    /// Per-tick shared-compute deadline.
    pub deadline: Latency,
    /// Fraction of the deadline admission control may fill with modeled
    /// steady-state cost, in `(0, 1]`. The reserve absorbs SSA run-rate
    /// jitter before the per-tick ladder has to.
    pub admission_fill: f64,
    /// Numeric path of the segmentation head.
    pub precision: Precision,
    /// Frames per generated session video (sessions loop their trace).
    pub frames_per_video: usize,
    /// Ladder thresholds driving per-session overload degradation.
    pub resilience: ResilienceConfig,
    /// Supervision thresholds: [`Server::tick_supervised`] quarantines by
    /// them, and both ticks probe on their backoff.
    pub supervisor: SupervisorConfig,
    /// Cost-model backbone sessions are priced as.
    pub backbone: Backbone,
}

impl ServerConfig {
    /// Defaults: up to 64 sessions, a 16-deep queue, a 60 ms tick (the
    /// paper's SOLO latency envelope, matching
    /// [`ResilienceConfig::paper_default`]), f32 inference, 90 % admission
    /// fill.
    pub fn paper_default() -> Self {
        Self {
            max_sessions: 64,
            queue_cap: 16,
            batch: 8,
            deadline: Latency::from_ms(60.0),
            admission_fill: 0.9,
            precision: Precision::F32,
            frames_per_video: 64,
            resilience: ResilienceConfig::paper_default(),
            supervisor: SupervisorConfig::paper_default(),
            backbone: Backbone::Sf,
        }
    }

    /// Validates every knob's documented range.
    pub fn validate(&self) -> FrameOutcome<()> {
        if self.max_sessions == 0 || self.batch == 0 || self.frames_per_video == 0 {
            return Err(SoloError::InvalidConfig(
                "max_sessions, batch and frames_per_video must be nonzero",
            ));
        }
        if !(self.deadline > Latency::ZERO) {
            return Err(SoloError::InvalidConfig("deadline must be positive"));
        }
        if !(0.0 < self.admission_fill && self.admission_fill <= 1.0) {
            return Err(SoloError::InvalidConfig("admission_fill must be in (0, 1]"));
        }
        self.supervisor.validate()?;
        self.resilience.validate()
    }
}

/// Why admission control turned a session away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The spec's fault plan failed validation (malformed rates/windows).
    InvalidFaultPlan,
    /// Waiting room full (or the session cap reached).
    QueueFull,
}

/// Admission control's verdict on one arriving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Live immediately; carries the session's index.
    Admitted(usize),
    /// Parked in the waiting room; promoted when capacity frees up.
    Queued,
    /// Turned away, with the reason.
    Rejected {
        /// Why the session was turned away.
        reason: RejectReason,
    },
}

/// What one tick did, session counts first.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TickReport {
    /// Sessions served this tick, quarantined slots included.
    pub sessions: usize,
    /// Sessions whose crop was segmented this tick.
    pub ran: usize,
    /// Sessions served from their previous mask (SSA reuse or degraded).
    pub reused: usize,
    /// Sessions decided at a below-nominal ladder rung.
    pub degraded: usize,
    /// Whether the modeled shared compute overran the tick deadline even
    /// after every session degraded as far as its ladder allows.
    pub overrun: bool,
    /// Modeled shared compute charged this tick, in ms.
    pub spent_ms: f64,
    /// Sessions promoted from the queue at the top of the tick.
    pub promoted: usize,
    /// Sessions at each ladder rung this tick (nominal first).
    pub rung_sessions: [usize; DegradeAction::RUNGS],
}

/// What one supervised tick did: the plain tick counters plus the
/// supervision outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SupervisedTickReport {
    /// The plain serving counters (quarantined stubs count as reuses at
    /// the mask-reuse rung; successful probes count as nominal runs).
    pub base: TickReport,
    /// Sessions that spent this tick quarantined (stub or probed).
    pub quarantined: usize,
    /// Sessions newly quarantined at the end of this tick.
    pub newly_quarantined: usize,
    /// Re-admission probes run this tick.
    pub probes: usize,
    /// Sessions re-admitted by a successful probe this tick.
    pub readmitted: usize,
    /// Live sessions whose injector fired at least one fault this tick.
    pub injected: usize,
}

/// The shared-compute part of a priced frame: ESNet plus segmentation.
fn shared(bd: CostBreakdown) -> Latency {
    bd.esnet.0 + bd.segmentation.0
}

/// The one ledger of a served slot-frame: counts it once in the session's
/// lifetime stats and in the tick's report, at its ladder `rung` and as a
/// segmented run (`ran`) or a mask reuse.
fn count_slot_frame(st: &mut SessionStats, rep: &mut TickReport, rung: usize, ran: bool) {
    st.frames += 1;
    st.rung_frames[rung] += 1;
    rep.rung_sessions[rung] += 1;
    if rung > 0 {
        st.degraded += 1;
        rep.degraded += 1;
    }
    if ran {
        st.runs += 1;
        rep.ran += 1;
    } else {
        st.reuses += 1;
        rep.reused += 1;
    }
}

/// The multi-session server (see the module docs).
pub struct Server {
    model: Arc<ServeModel>,
    cfg: ServerConfig,
    soc: SocModel,
    sessions: Vec<Session>,
    queue: VecDeque<SessionSpec>,
    supervisor: Supervisor,
    ticks: usize,
    overruns: usize,
    frames_served: usize,
    frames_ran: usize,
    rejects: usize,
    /// Oracle round-trip b-IoU per ladder rung, accumulated by every tick
    /// when `cfg.resilience.score_round_trip` is set.
    rung_scores: [IouAccumulator; DegradeAction::RUNGS],
}

impl Server {
    /// Creates a server over a shared model.
    ///
    /// # Errors
    ///
    /// Returns [`SoloError::InvalidConfig`] when `cfg` fails validation.
    pub fn new(model: Arc<ServeModel>, cfg: ServerConfig) -> FrameOutcome<Self> {
        cfg.validate()?;
        let supervisor = Supervisor::new(cfg.supervisor)?;
        Ok(Self {
            model,
            cfg,
            soc: SocModel::default(),
            sessions: Vec::new(),
            queue: VecDeque::new(),
            supervisor,
            ticks: 0,
            overruns: 0,
            frames_served: 0,
            frames_ran: 0,
            rejects: 0,
            rung_scores: Default::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Live sessions.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Sessions parked in the waiting room.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Ticks served so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Ticks whose shared compute overran the deadline after maximal
    /// degradation.
    pub fn overruns(&self) -> usize {
        self.overruns
    }

    /// Total session-frames served (sessions × ticks they were live).
    pub fn frames_served(&self) -> usize {
        self.frames_served
    }

    /// Total session-frames that ran segmentation.
    pub fn frames_ran(&self) -> usize {
        self.frames_ran
    }

    /// Sessions turned away by admission control so far.
    pub fn rejects(&self) -> usize {
        self.rejects
    }

    /// The supervision state machine (quarantine + probe counters).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Per-rung oracle round-trip scores of served runs:
    /// `(frames scored, mean b-IoU)` per ladder rung, nominal first.
    /// Empty unless `cfg.resilience.score_round_trip` is set.
    pub fn rung_scores(&self) -> [(usize, f32); DegradeAction::RUNGS] {
        std::array::from_fn(|r| (self.rung_scores[r].len(), self.rung_scores[r].b_iou()))
    }

    /// Modeled per-session shared compute (ESNet + segmentation) at a live
    /// session count of `s` — the marginal price admission charges and the
    /// per-run cost the tick budget charges. Batching amortizes the
    /// accelerator dispatch across sessions, so this falls as `s` grows.
    ///
    /// Priced worst-case across `fleet` (the costliest dataset among its
    /// presets), so admission never under-prices a mixed fleet.
    fn shared_cost_per_run<'a>(
        &self,
        s: usize,
        fleet: impl Iterator<Item = &'a SessionSpec>,
    ) -> Latency {
        let mut worst = Latency::ZERO;
        for spec in fleet {
            let run = shared(self.soc.batched_solo_path(
                self.cfg.backbone,
                spec.scene.hw_dataset(),
                s.max(1),
            ));
            if run > worst {
                worst = run;
            }
        }
        worst
    }

    /// Whether a fleet of `live` non-quarantined sessions (optionally
    /// including the arriving `extra`) fits the steady-state admission
    /// envelope: every live session running every tick at the batched
    /// marginal price must fit inside `admission_fill · deadline`.
    /// Quarantined sessions are excluded on both axes — their stub serves
    /// zero shared compute, so quarantine frees envelope for the queue.
    fn fits(&self, live: usize, extra: Option<&SessionSpec>) -> bool {
        let fleet = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.supervisor.is_quarantined(*i))
            .map(|(_, ses)| ses.spec())
            .chain(extra);
        live == 0
            || self.shared_cost_per_run(live, fleet).ms() * live as f64
                <= self.cfg.deadline.ms() * self.cfg.admission_fill
    }

    /// Live (non-quarantined) session count.
    fn live_count(&self) -> usize {
        self.sessions.len() - self.supervisor.quarantined_count()
    }

    /// Admission control: rejects a malformed fault plan outright, admits
    /// the session if the post-admission fleet still fits the steady-state
    /// envelope, queues it if the waiting room has space, rejects it
    /// otherwise.
    pub fn admit(&mut self, spec: SessionSpec) -> AdmitOutcome {
        if spec.plan.validate().is_err() {
            self.rejects += 1;
            return AdmitOutcome::Rejected {
                reason: RejectReason::InvalidFaultPlan,
            };
        }
        let s = self.sessions.len();
        if s < self.cfg.max_sessions && self.fits(self.live_count() + 1, Some(&spec)) {
            self.sessions.push(Session::new(
                spec,
                self.cfg.frames_per_video,
                self.model.config().predictor_hidden,
            ));
            self.supervisor.on_admit();
            AdmitOutcome::Admitted(s)
        } else if self.queue.len() < self.cfg.queue_cap {
            self.queue.push_back(spec);
            AdmitOutcome::Queued
        } else {
            self.rejects += 1;
            AdmitOutcome::Rejected {
                reason: RejectReason::QueueFull,
            }
        }
    }

    /// Promotes queued sessions while the envelope admits them.
    fn promote(&mut self) -> usize {
        let mut promoted = 0;
        while let Some(spec) = self.queue.front().copied() {
            if self.sessions.len() >= self.cfg.max_sessions
                || !self.fits(self.live_count() + 1, Some(&spec))
            {
                break;
            }
            self.queue.pop_front();
            self.sessions.push(Session::new(
                spec,
                self.cfg.frames_per_video,
                self.model.config().predictor_hidden,
            ));
            self.supervisor.on_admit();
            promoted += 1;
        }
        promoted
    }

    /// Serves one frame tick (see the module docs for the phase order).
    /// Sessions' fault plans are ignored and every run is gated against
    /// what is left of the shared, in-order [`FrameBudget`]. A slot that a
    /// supervised tick quarantined keeps serving its stub and running its
    /// due probes, but a plain tick sets no new quarantine. See
    /// [`Self::tick_supervised`].
    pub fn tick(&mut self) -> TickReport {
        self.serve_tick(false).base
    }

    /// Serves one supervised frame tick (see the module docs): the same
    /// tick as [`Self::tick`], with each gaze filtered through the
    /// session's fault injector, each run gated against the session's own
    /// slice of the envelope, and an end-of-tick supervision pass that
    /// scores health and quarantines. With every session's plan disabled
    /// this is bit-identical to [`Self::tick`] whenever the fleet fits the
    /// admission envelope.
    pub fn tick_supervised(&mut self) -> SupervisedTickReport {
        self.serve_tick(true)
    }

    /// The one tick body behind [`Self::tick`] and
    /// [`Self::tick_supervised`]. `supervised` selects exactly three
    /// things: fault observation, the gate (shared budget or per-slot
    /// slice) and the closing supervision pass.
    fn serve_tick(&mut self, supervised: bool) -> SupervisedTickReport {
        let mut rep = SupervisedTickReport {
            base: TickReport {
                promoted: self.promote(),
                ..TickReport::default()
            },
            ..SupervisedTickReport::default()
        };
        let total = self.sessions.len();
        rep.base.sessions = total;
        self.ticks += 1;
        let now = self.ticks;
        if total == 0 {
            return rep;
        }
        let crop = self.model.config().crop_side;
        let mut budget = FrameBudget::new(self.cfg.deadline);
        budget.start_frame();
        let floor = DegradeAction::ReuseMask.rung();

        // Phase 0: quarantined slots serve a held-state stub (zero shared
        // compute — the stub path is display-only) or, when due, run a
        // re-admission probe outside the batch. A healthy probe served a
        // nominal run; a stub or a failed probe reused at the floor.
        let mut live: Vec<usize> = Vec::with_capacity(total);
        for i in 0..total {
            if !self.supervisor.is_quarantined(i) {
                live.push(i);
                continue;
            }
            rep.quarantined += 1;
            let ran = if self.supervisor.probe_due(i, now) {
                rep.probes += 1;
                let (healthy, charge) = self.run_probe(i, now, crop);
                if !budget.charge(charge) {
                    rep.base.overrun = true;
                }
                rep.readmitted += usize::from(healthy);
                healthy
            } else {
                self.sessions[i].skip_frame();
                false
            };
            let rung = if ran { 0 } else { floor };
            count_slot_frame(self.sessions[i].stats_mut(), &mut rep.base, rung, ran);
        }
        let l = live.len();
        self.frames_served += total;

        // Phase 1: advance live sessions one frame. A supervised tick
        // filters each gaze through the session's own seeded injector
        // (strictly session-local — a disabled plan draws no entropy); a
        // plain tick observes the true gaze.
        let mut observed = Vec::with_capacity(l);
        for &i in &live {
            let ses = &mut self.sessions[i];
            let frame = ses.next_frame();
            let (obs, faults) = if supervised {
                ses.injector_mut().observe(&frame.gaze)
            } else {
                (GazeObservation::valid(frame.gaze), FrameFaults::nominal())
            };
            if faults.any() {
                rep.injected += 1;
            }
            observed.push((frame, obs, faults));
        }

        // Phase 2: one batched predictor step across the live sessions.
        // Input is each session's last *measured* gaze; the output forecast
        // substitutes for the live sample while its phase is suppressed or
        // the tracker is dark.
        let dh = self.model.config().predictor_hidden;
        let mut deltas = Vec::new();
        if l > 0 {
            let mut gaze_rows = Vec::with_capacity(l * 2);
            let mut hidden_rows = Vec::with_capacity(l * dh);
            for &i in &live {
                let g = self.sessions[i].last_gaze();
                gaze_rows.extend_from_slice(&[g.x, g.y]);
                hidden_rows.extend_from_slice(self.sessions[i].hidden().as_slice());
            }
            let gazes = Tensor::from_vec(gaze_rows, &[l, 2]);
            let hidden = Tensor::from_vec(hidden_rows, &[l, dh]);
            let (next_hidden, d) = self.model.predict_batch(&gazes, &hidden);
            for (p, &i) in live.iter().enumerate() {
                self.sessions[i].set_hidden(Tensor::from_vec(
                    next_hidden.as_slice()[p * dh..(p + 1) * dh].to_vec(),
                    &[dh],
                ));
            }
            deltas = d.into_vec();
        }

        // Phase 3: per-session SSA decision, then gated degradation in
        // session order. All pricing is keyed to the *total* slot count
        // (stable under quarantine), never to `cfg.batch`, so a neighbor
        // faulting or quarantining can never flip a healthy session's
        // price — the isolation invariant.
        let run_cost = self.shared_cost_per_run(total, self.sessions.iter().map(Session::spec));
        let slice =
            Latency::from_ms(self.cfg.deadline.ms() * self.cfg.admission_fill / total as f64);
        let (soc, cfg) = (&self.soc, &self.cfg);
        let mut work = Vec::with_capacity(l);
        let mut signals: Vec<Option<HealthSignal>> = vec![None; total];
        for (p, (&i, (frame, obs, faults))) in live.iter().zip(&observed).enumerate() {
            let ses = &mut self.sessions[i];
            let ds = ses.spec().scene.hw_dataset();
            // Prices are memo lookups, taken where they gate and charge. A
            // reuse still runs ESNet (the SSA needs gaze + preview every
            // frame); segmentation does not.
            let price = |w: &Work| match w {
                Work::Run { widen, .. } if *widen > 1.0 => {
                    shared(soc.degraded_solo_path(cfg.backbone, ds, f64::from(*widen), &[]))
                }
                Work::Run { .. } => run_cost,
                Work::RunUniform => shared(soc.uniform_fallback_path(cfg.backbone, ds)),
                Work::Reuse => soc.skip_path(ds).esnet.0,
            };
            // The gate: what is left of the shared in-order budget on a
            // plain tick, the session's own slice on a supervised one. A run
            // it refuses falls through to mask reuse for this tick.
            let fits = |cost: Latency| {
                if supervised {
                    cost <= slice
                } else {
                    !budget.would_overrun(cost)
                }
            };
            let gate = |w: Work| {
                if matches!(w, Work::Reuse) || fits(price(&w)) {
                    w
                } else {
                    Work::Reuse
                }
            };
            let d = &deltas[p * 2..(p + 1) * 2];
            let forecast = |g: GazePoint| GazePoint::new(g.x + d[0], g.y + d[1]);
            let mut preview = uniform_subsample(&frame.image, crop, crop);
            ses.injector_mut().corrupt_preview(&mut preview, faults);

            let (action, w) = if obs.is_usable() {
                let suppressed = obs.sample.phase.is_suppressed();
                let gaze = if suppressed {
                    // Saccadic suppression: steer the crop by the forecast
                    // landing point instead of the mid-flight sample.
                    forecast(ses.last_gaze())
                } else {
                    ses.set_last_gaze(obs.sample.point);
                    obs.sample.point
                };
                let wants_run = ses.ssa_mut().step(&preview, gaze, suppressed).must_run()
                    || ses.last_mask().is_none();
                if !wants_run || fits(run_cost) {
                    ses.ladder_mut().reset();
                    let w = if wants_run {
                        Work::Run { gaze, widen: 1.0 }
                    } else {
                        Work::Reuse
                    };
                    (DegradeAction::Nominal, w)
                } else {
                    // Overload: this session walks its ladder. Hold
                    // presents the last mask; widen and uniform retry a
                    // cheaper run; reuse is the floor.
                    let action = ses.ladder_mut().decide(&cfg.resilience);
                    (action, gate(Work::for_rung(action, gaze)))
                }
            } else {
                // Tracker dark: walk the ladder anchored on the held
                // fixation, mirroring the streaming evaluator's rungs.
                let action = ses.ladder_mut().decide(&cfg.resilience);
                let w = if let DegradeAction::HoldFixation { .. } = action {
                    // Steer by the forecast from the held fixation.
                    let gaze = forecast(ses.last_gaze());
                    let wants_run = ses.ssa_mut().step(&preview, gaze, false).must_run()
                        || ses.last_mask().is_none();
                    if wants_run {
                        gate(Work::Run { gaze, widen: 1.0 })
                    } else {
                        Work::Reuse
                    }
                } else {
                    gate(Work::for_rung(action, ses.last_gaze()))
                };
                (action, w)
            };
            preview.recycle();

            // A latency spike charges extra segmentation against the
            // spiker's own slice (building its overrun streak) but never
            // changes the mask decision.
            let spike = match (&w, faults.latency_spike) {
                (Work::Reuse, _) | (_, None) => Latency::ZERO,
                (_, Some(k)) => {
                    let seg = soc
                        .batched_solo_path(cfg.backbone, ds, total)
                        .segmentation
                        .0;
                    Latency::from_ms(seg.ms() * (k - 1.0))
                }
            };
            let charge = price(&w) + spike;
            if !budget.charge(charge) {
                rep.base.overrun = true;
            }
            signals[i] = Some(HealthSignal {
                tracker_usable: obs.is_usable(),
                slice_overrun: charge > slice,
                floor_dwell: ses.ladder().floor_dwell(),
            });
            work.push((action.rung(), w));
        }
        rep.base.spent_ms = budget.spent().ms();
        if rep.base.overrun {
            self.overruns += 1;
        }

        // Phase 4: count each live slot-frame, build every running
        // session's warped crop (plus, when configured, the oracle
        // round-trip score of its rung's sampling geometry), then segment
        // them all through the batched head in `cfg.batch`-sized chunks.
        let score = self.cfg.resilience.score_round_trip;
        let mut run_idx = Vec::new();
        let mut crops = Vec::new();
        for ((&i, (frame, ..)), &(rung, w)) in live.iter().zip(&observed).zip(&work) {
            let ses = &mut self.sessions[i];
            let map = w.prior_map(&ses.sampler_spec(crop, 1.0));
            count_slot_frame(ses.stats_mut(), &mut rep.base, rung, map.is_some());
            let Some(map) = map else {
                continue;
            };
            if score {
                let up = oracle_round_trip(&map, &frame.ioi_mask);
                self.rung_scores[rung].push(binary_iou(&up, &frame.ioi_mask), 0.0);
            }
            crops.push(map.sample_bilinear(&frame.image));
            map.recycle();
            run_idx.push(i);
        }
        for chunk_start in (0..crops.len()).step_by(self.cfg.batch) {
            let chunk_end = (chunk_start + self.cfg.batch).min(crops.len());
            let masks = self
                .model
                .infer_batch(&crops[chunk_start..chunk_end], self.cfg.precision);
            for (off, mask) in masks.into_iter().enumerate() {
                self.sessions[run_idx[chunk_start + off]].set_last_mask(mask);
            }
        }
        for c in crops {
            c.recycle();
        }
        self.frames_ran += rep.base.ran;

        // Phase 5 (supervised ticks only): supervision. Streaks update from
        // this tick's signals; sessions crossing a threshold park in their
        // slot and drop out of the batched dispatch starting next tick.
        if supervised {
            for i in self.supervisor.tick(&signals) {
                if let Some(ses) = self.sessions.get_mut(i) {
                    ses.park();
                    self.supervisor.quarantine(i, now);
                    rep.newly_quarantined += 1;
                }
            }
        }
        rep
    }

    /// Runs one re-admission probe for quarantined slot `i` on the parked
    /// session itself: catches its fault injector up through the gaze of
    /// every frame the stub skipped (read from the video script, nothing
    /// rendered, so the injector ends exactly where an uninterrupted
    /// session's would), then renders and serves the one probe frame. A
    /// usable gaze re-admits the session with a freshly segmented solo
    /// frame; a dark one parks it again and doubles the backoff. Returns
    /// whether the probe succeeded and its shared-compute charge.
    fn run_probe(&mut self, i: usize, now: usize, crop: usize) -> (bool, Latency) {
        let Some(ses) = self.sessions.get_mut(i) else {
            return (false, Latency::ZERO);
        };
        ses.catch_up();
        let frame = ses.next_frame();
        let (obs, _faults) = ses.injector_mut().observe(&frame.gaze);
        let ds = ses.spec().scene.hw_dataset();
        let healthy = obs.is_usable();
        let charge = if healthy {
            // Healthy again: serve one unamortized solo frame (outside the
            // batch — probes never stack with healthy sessions' dispatch)
            // and re-admit.
            let gaze = obs.sample.point;
            ses.set_last_gaze(gaze);
            let map = gaze_prior_map(&ses.sampler_spec(crop, 1.0), gaze);
            let c = map.sample_bilinear(&frame.image);
            map.recycle();
            let masks = self
                .model
                .infer_batch(std::slice::from_ref(&c), self.cfg.precision);
            c.recycle();
            if let Some(m) = masks.into_iter().next() {
                ses.set_last_mask(m);
            }
            ses.ladder_mut().reset();
            shared(self.soc.probe_path(self.cfg.backbone, ds))
        } else {
            // Still dark: park again (the injector stays caught up to the
            // probe frame, so the outage keeps draining across probes) and
            // back off. The probe is charged a reuse frame's ESNet pass.
            ses.park();
            self.soc.skip_path(ds).esnet.0
        };
        self.supervisor.record_probe(i, now, healthy);
        (healthy, charge)
    }

    /// Aggregated per-session stats, cloned out for reporting.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.sessions.iter().map(|s| *s.stats()).collect()
    }

    /// A digest of every session's displayed mask — equal digests mean
    /// bit-identical serving outcomes (used by the determinism tests).
    pub fn mask_digest(&self) -> Vec<Option<Vec<f32>>> {
        self.sessions
            .iter()
            .map(|s| s.last_mask().map(|m| m.as_slice().to_vec()))
            .collect()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("sessions", &self.sessions.len())
            .field("queued", &self.queue.len())
            .field("ticks", &self.ticks)
            .field("rejects", &self.rejects)
            .field("quarantined", &self.supervisor.quarantined_count())
            .field("quarantines", &self.supervisor.quarantines())
            .field("probes", &self.supervisor.probes())
            .field("readmissions", &self.supervisor.readmissions())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServeModelConfig;
    use solo_core::resilience::FaultPlan;
    use solo_tensor::seeded_rng;

    fn server(deadline_ms: f64, batch: usize) -> Server {
        let mut rng = seeded_rng(40);
        let model = match ServeModel::new(&mut rng, ServeModelConfig::paper_default()) {
            Ok(m) => Arc::new(m),
            Err(e) => panic!("{e}"),
        };
        let cfg = ServerConfig {
            deadline: Latency::from_ms(deadline_ms),
            batch,
            frames_per_video: 8,
            ..ServerConfig::paper_default()
        };
        match Server::new(model, cfg) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn widen_crop_is_one_geometry_for_serving_and_the_streaming_oracle() {
        use crate::session::ScenePreset;
        use solo_core::solonet::PipelineConfig;
        use solo_sampler::{gaze_saliency, IndexMap, SamplerSpec};

        let crop = ServeModelConfig::paper_default().crop_side;
        let gaze = GazePoint::new(0.35, 0.6);
        let widen = Work::for_rung(DegradeAction::WidenCrop { factor: 2.0 }, gaze);
        let presets = [
            ScenePreset::Aria,
            ScenePreset::Lvis,
            ScenePreset::Ade,
            ScenePreset::Davis,
            ScenePreset::Crowded,
            ScenePreset::Switching,
        ];
        for preset in presets {
            let spec = SessionSpec {
                seed: 3,
                scene: preset,
                plan: FaultPlan::none(),
            };
            let ses = Session::new(spec, 2, 8);
            let n = ses.resolution();
            assert_eq!(n, 96, "{}", preset.name());
            // Serving's crop, and the cost-only streaming oracle's.
            let served = widen.prior_map(&ses.sampler_spec(crop, 1.0));
            let dataset = preset.video_config(2).dataset;
            let oracle = widen.prior_map(&PipelineConfig::for_dataset(&dataset, n, n / 4).spec());
            // Both widen the sampler only: the unwidened prior at σ·√2.
            let prior = gaze_saliency(crop, crop, (gaze.x, gaze.y), 0.15, 0.02);
            let sigma = ses.sigma() * 2.0f32.sqrt();
            let expected =
                IndexMap::from_saliency(&SamplerSpec::new(n, n, crop, crop, sigma), &prior);
            assert_eq!(served.as_ref(), Some(&expected), "{}", preset.name());
            assert_eq!(oracle.as_ref(), Some(&expected), "{}", preset.name());
        }
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let mut cfg = ServerConfig::paper_default();
        cfg.admission_fill = 0.0;
        assert!(cfg.validate().is_err());
        cfg = ServerConfig::paper_default();
        cfg.batch = 0;
        assert!(cfg.validate().is_err());
        cfg = ServerConfig::paper_default();
        cfg.supervisor.overrun_limit = 0;
        assert!(cfg.validate().is_err(), "supervisor knobs validate too");
        assert!(ServerConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn admission_admits_queues_then_rejects() {
        // A deadline so tight a single session's run cost cannot fit.
        let mut srv = server(0.001, 4);
        srv.cfg.queue_cap = 2;
        assert_eq!(srv.admit(SessionSpec::nth(1, 0)), AdmitOutcome::Queued);
        assert_eq!(srv.admit(SessionSpec::nth(1, 1)), AdmitOutcome::Queued);
        assert_eq!(
            srv.admit(SessionSpec::nth(1, 2)),
            AdmitOutcome::Rejected {
                reason: RejectReason::QueueFull
            }
        );
        assert_eq!(srv.sessions().len(), 0);
        assert_eq!(srv.queued(), 2);
        assert_eq!(srv.rejects(), 1);
    }

    #[test]
    fn malformed_fault_plan_is_rejected_with_reason() {
        let mut srv = server(1000.0, 4);
        let mut plan = FaultPlan::dropout(1, 0.5);
        plan.blink_rate = 2.0;
        assert_eq!(
            srv.admit(SessionSpec::nth(1, 0).with_plan(plan)),
            AdmitOutcome::Rejected {
                reason: RejectReason::InvalidFaultPlan
            }
        );
        assert_eq!(srv.rejects(), 1);
        assert_eq!(srv.queued(), 0, "bad plans never enter the queue");
    }

    #[test]
    fn generous_deadline_admits_and_serves() {
        let mut srv = server(1000.0, 4);
        for i in 0..3 {
            assert_eq!(srv.admit(SessionSpec::nth(2, i)), AdmitOutcome::Admitted(i));
        }
        let r = srv.tick();
        assert_eq!(r.sessions, 3);
        // First tick: every session must run (no mask to reuse yet).
        assert_eq!(r.ran, 3);
        assert!(!r.overrun);
        assert_eq!(r.rung_sessions[0], 3, "no degradation with headroom");
        for s in srv.sessions() {
            assert!(s.last_mask().is_some());
        }
    }

    #[test]
    fn overload_degrades_later_sessions_first_and_recovers() {
        let mut srv = server(1000.0, 4);
        for i in 0..4 {
            assert_eq!(srv.admit(SessionSpec::nth(3, i)), AdmitOutcome::Admitted(i));
        }
        // Squeeze the live fleet: a deadline that fits roughly one run.
        let one_run = srv
            .shared_cost_per_run(4, srv.sessions().iter().map(Session::spec))
            .ms();
        srv.cfg.deadline = Latency::from_ms(one_run * 1.5);
        let r = srv.tick();
        assert!(r.degraded > 0, "tight deadline must degrade someone");
        assert!(r.ran >= 1, "the first session in tick order keeps running");
        // Relax again: ladders reset, everyone recovers to nominal.
        srv.cfg.deadline = Latency::from_ms(1000.0);
        let mut saw_nominal_for_all = false;
        for _ in 0..4 {
            let r = srv.tick();
            if r.degraded == 0 {
                saw_nominal_for_all = true;
            }
        }
        assert!(saw_nominal_for_all, "recovery after overload clears");
    }

    #[test]
    fn batch_size_does_not_change_served_masks() {
        let mut a = server(1000.0, 1);
        let mut b = server(1000.0, 8);
        for i in 0..5 {
            a.admit(SessionSpec::nth(4, i));
            b.admit(SessionSpec::nth(4, i));
        }
        for _ in 0..6 {
            a.tick();
            b.tick();
        }
        assert_eq!(a.mask_digest(), b.mask_digest());
    }

    #[test]
    fn zero_fault_supervised_tick_matches_plain_tick() {
        let mut plain = server(1000.0, 4);
        let mut sup = server(1000.0, 4);
        for i in 0..4 {
            assert_eq!(
                plain.admit(SessionSpec::nth(5, i)),
                AdmitOutcome::Admitted(i)
            );
            assert_eq!(sup.admit(SessionSpec::nth(5, i)), AdmitOutcome::Admitted(i));
        }
        for t in 0..6 {
            let a = plain.tick();
            let b = sup.tick_supervised();
            assert_eq!(a, b.base, "tick {t}: reports must match exactly");
            assert_eq!(b.quarantined + b.probes + b.injected, 0);
        }
        assert_eq!(plain.mask_digest(), sup.mask_digest());
        assert_eq!(plain.session_stats(), sup.session_stats());
    }

    #[test]
    fn faulting_neighbor_cannot_perturb_healthy_masks() {
        let mut healthy = server(1000.0, 4);
        let mut chaotic = server(1000.0, 4);
        for i in 0..4 {
            let spec = SessionSpec::chaos_nth(6, i, 0.0);
            // Same fleet, but session 2 of the chaotic server faults hard.
            let spec_b = if i == 2 {
                spec.with_plan(FaultPlan::dropout(99, 1.0))
            } else {
                spec
            };
            assert_eq!(healthy.admit(spec), AdmitOutcome::Admitted(i));
            assert_eq!(chaotic.admit(spec_b), AdmitOutcome::Admitted(i));
        }
        let mut injected = 0;
        for _ in 0..30 {
            healthy.tick_supervised();
            injected += chaotic.tick_supervised().injected;
        }
        assert!(injected > 0, "the chaos plan must actually fire");
        let hd = healthy.mask_digest();
        let cd = chaotic.mask_digest();
        for i in [0usize, 1, 3] {
            assert_eq!(hd[i], cd[i], "healthy session {i} must be bit-identical");
        }
    }

    #[test]
    fn deep_outage_quarantines_probes_and_readmits() {
        let mut srv = server(1000.0, 4);
        let spec = SessionSpec::nth(7, 0).with_plan(FaultPlan::dropout(21, 1.0));
        assert_eq!(srv.admit(spec), AdmitOutcome::Admitted(0));
        let mut saw_stub = false;
        for _ in 0..600 {
            let r = srv.tick_supervised();
            saw_stub |= r.quarantined > 0 && r.probes == 0;
            if srv.supervisor().readmissions() >= 1 {
                break;
            }
        }
        assert!(
            srv.supervisor().quarantines() >= 1,
            "a 100%-dropout plan must quarantine: {srv:?}"
        );
        assert!(saw_stub, "quarantine must serve held-state stub ticks");
        assert!(
            srv.supervisor().probes() >= 1,
            "quarantine must be probed: {srv:?}"
        );
        assert!(
            srv.supervisor().readmissions() >= 1,
            "the outage must eventually clear and re-admit: {srv:?}"
        );
        assert!(!srv.supervisor().is_quarantined(0));
        assert!(!srv.sessions()[0].is_parked());
    }

    #[test]
    fn plain_ticks_honour_an_existing_quarantine() {
        let mut srv = server(1000.0, 4);
        let spec = SessionSpec::nth(7, 0).with_plan(FaultPlan::dropout(21, 1.0));
        assert_eq!(srv.admit(spec), AdmitOutcome::Admitted(0));
        assert_eq!(srv.admit(SessionSpec::nth(7, 1)), AdmitOutcome::Admitted(1));
        for _ in 0..600 {
            if srv.supervisor().is_quarantined(0) {
                break;
            }
            srv.tick_supervised();
        }
        assert!(
            srv.supervisor().is_quarantined(0),
            "must quarantine: {srv:?}"
        );

        let before = *srv.sessions()[0].stats();
        srv.tick();
        let after = *srv.sessions()[0].stats();
        assert!(srv.sessions()[0].is_parked(), "a plain tick un-parked it");
        assert!(srv.supervisor().is_quarantined(0));
        assert_eq!(after.runs, before.runs, "a quarantined slot was segmented");
        let floor = DegradeAction::ReuseMask.rung();
        assert_eq!(after.frames, before.frames + 1);
        assert_eq!(after.rung_frames[floor], before.rung_frames[floor] + 1);

        let probes = srv.supervisor().probes();
        for _ in 0..64 {
            if srv.supervisor().probes() > probes {
                break;
            }
            srv.tick();
        }
        assert!(
            srv.supervisor().probes() > probes,
            "plain ticks must run due probes: {srv:?}"
        );
    }
}
