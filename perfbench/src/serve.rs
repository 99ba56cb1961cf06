//! `serve` and `serve_chaos`: back-to-back `Server::tick` /
//! `Server::tick_supervised` over one shared `ServeModel` at pool width 1.
//! One timed step is one tick (plus, on `serve_chaos`, the weight push
//! staged every [`PUSH_EVERY`] ticks).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use solo_core::metrics::binary_iou;
use solo_core::ssa::{Ssa, SsaConfig};
use solo_hw::soc::{CostBreakdown, SocModel};
use solo_hw::Latency;
use solo_sampler::{gaze_saliency, uniform_subsample, IndexMap};
use solo_serve::{
    AdmitOutcome, ServeModel, ServeModelConfig, Server, ServerConfig, Session, SessionCheckpoint,
    SessionSpec, SessionStats, WeightPush,
};
use solo_tensor::{exec, normal, seeded_rng, xavier_uniform, Tensor};

use crate::harness::{
    self, derive, end_to_end, ratio, repeated_setup, timed_loop, totals_of, Modeled, Report,
    REPLAY_SPAN, RUNGS, STEP_SPAN,
};
use crate::stats::host;
use crate::trace::Tracer;

/// Sessions the `serve` fleet admits up front (four per preset).
const SERVE_SESSIONS: usize = 16;
/// Sessions `serve_chaos` offers; about a third queue at admission.
const CHAOS_OFFERED: usize = 12;
/// Sessions the `serve_chaos` deadline admits up front.
const CHAOS_ADMITTED: usize = 8;
/// Dropout severity of the odd-indexed `serve_chaos` sessions.
const CHAOS_DROPOUT: f64 = 1.0;
/// Ticks between staged weight pushes on `serve_chaos`.
const PUSH_EVERY: usize = 32;
/// Distinct push payloads generated from the seed (cycled).
const PUSH_PAYLOADS: usize = 4;
/// Ticks of the deterministic prefix the modeled metrics, output checks
/// and coverage floors cover (the timed loop always runs at least these).
const SERVE_PREFIX: usize = 64;
const CHAOS_PREFIX: usize = 320;
/// Ticks every run times at least; they fix the tail percentile (p90 on
/// `serve`, p95 on `serve_chaos`).
const SERVE_MIN_TICKS: usize = 192;
const CHAOS_MIN_TICKS: usize = CHAOS_PREFIX;
/// Ticks the batch-size and fault-isolation identities compare.
const CHECK_TICKS: usize = 16;
/// Frames every ladder rung must be served on in the `serve_chaos` prefix.
const MIN_RUNG_FRAMES: usize = 30;
/// Frames the nominal and hold rungs must be scored on. Scoring stops once
/// promotions push the fleet past its envelope, so it rests on the ticks
/// before that: 7 to 89 hold frames over seeds 1–16.
const MIN_SCORED_FRAMES: usize = 5;
/// Shared f32 panel matrices a weight push invalidates: the head's two
/// layers, the predictor cell and its readout.
const PANELS_PER_PUSH: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// The server's gaze-prior saliency (σ as a grid fraction, floor).
const SALIENCY_SIGMA_FRAC: f32 = 0.15;
const SALIENCY_FLOOR: f32 = 0.02;

/// Seed of the serving model's initial weights: the system under test,
/// fixed across `--seed` values (push payloads are inputs and do vary).
const MODEL_WEIGHTS_SEED: u64 = 0x5e7e;
const FLEET_SALT: u64 = 12;
const PUSH_SALT: u64 = 100;

fn model() -> Arc<ServeModel> {
    let m = ServeModel::new(
        &mut seeded_rng(MODEL_WEIGHTS_SEED),
        ServeModelConfig::paper_default(),
    )
    .expect("the paper serving model config validates");
    Arc::new(m)
}

/// The smallest tick deadline whose admission envelope fits every prefix
/// of `specs` (admission prices each arrival against the fleet so far).
fn admitting_deadline(cfg: &ServerConfig, specs: &[SessionSpec]) -> Latency {
    let soc = SocModel::default();
    let mut need: f64 = 0.0;
    for k in 1..=specs.len() {
        let worst = specs[..k]
            .iter()
            .map(|s| {
                let bd = soc.batched_solo_path(cfg.backbone, s.scene.hw_dataset(), k);
                (bd.esnet.0 + bd.segmentation.0).ms()
            })
            .fold(0.0, f64::max);
        need = need.max(worst * k as f64 / cfg.admission_fill);
    }
    Latency::from_ms(need * (1.0 + 1e-6))
}

struct Setup {
    server: Server,
    model: Arc<ServeModel>,
    admitted: usize,
    queued: usize,
    admit_us: Vec<f64>,
}

fn build(cfg: ServerConfig, model: Arc<ServeModel>, specs: &[SessionSpec]) -> Setup {
    let mut server = Server::new(Arc::clone(&model), cfg).expect("benchmark server config");
    let (mut admitted, mut queued) = (0, 0);
    let mut admit_us = Vec::with_capacity(specs.len());
    for &spec in specs {
        let t0 = Instant::now();
        let outcome = server.admit(spec);
        admit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match outcome {
            AdmitOutcome::Admitted(_) => admitted += 1,
            AdmitOutcome::Queued => queued += 1,
            AdmitOutcome::Rejected { .. } => {}
        }
    }
    Setup {
        server,
        model,
        admitted,
        queued,
        admit_us,
    }
}

fn serve_specs(seed: u64) -> Vec<SessionSpec> {
    let fleet = derive(seed, FLEET_SALT);
    (0..SERVE_SESSIONS)
        .map(|i| SessionSpec::nth(fleet, i))
        .collect()
}

fn serve_config(specs: &[SessionSpec]) -> ServerConfig {
    let mut cfg = ServerConfig::paper_default();
    cfg.deadline = admitting_deadline(&cfg, specs);
    cfg
}

fn chaos_specs(seed: u64, dropout: f64) -> Vec<SessionSpec> {
    let fleet = derive(seed, FLEET_SALT);
    (0..CHAOS_OFFERED)
        .map(|i| SessionSpec::chaos_nth(fleet, i, if i % 2 == 1 { dropout } else { 0.0 }))
        .collect()
}

fn chaos_config(specs: &[SessionSpec]) -> ServerConfig {
    let mut cfg = ServerConfig::paper_default();
    cfg.deadline = admitting_deadline(&cfg, &specs[..CHAOS_ADMITTED]);
    cfg.resilience.score_round_trip = true;
    cfg
}

/// One push payload: a full set of head weights.
type Payload = [Tensor; 5];

fn payloads(seed: u64) -> Vec<Payload> {
    let cfg = ServeModelConfig::paper_default();
    let feat = cfg.token_features();
    let p2 = cfg.patch * cfg.patch;
    (0..PUSH_PAYLOADS as u64)
        .map(|k| {
            let rng = &mut seeded_rng(derive(seed, PUSH_SALT + k));
            [
                xavier_uniform(rng, &[cfg.hidden, feat], feat, cfg.hidden),
                normal(rng, &[cfg.hidden], 0.0, 0.02),
                xavier_uniform(rng, &[p2, cfg.hidden], cfg.hidden, p2),
                normal(rng, &[p2], 0.0, 0.02),
                xavier_uniform(rng, &[2, cfg.predictor_hidden], cfg.predictor_hidden, 2),
            ]
        })
        .collect()
}

/// Stages `p` against the served version and pushes it.
fn push(model: &ServeModel, p: &Payload) -> Result<u64, String> {
    let [w1, b1, w2, b2, ro] = p.clone();
    let staged = WeightPush::stage(model.version(), w1, b1, w2, b2, ro);
    model.push(&staged).map_err(|e| e.to_string())
}

/// Per-tick record of the deterministic prefix.
struct Snap {
    stats: Vec<SessionStats>,
    quarantined: Vec<bool>,
    probed: Vec<bool>,
}

fn snap(server: &Server, probed: Vec<bool>) -> Snap {
    let n = server.sessions().len();
    Snap {
        stats: server.session_stats(),
        quarantined: (0..n)
            .map(|i| server.supervisor().is_quarantined(i))
            .collect(),
        probed,
    }
}

/// Quarantined slots whose re-admission probe runs in the next tick.
fn probes_due(server: &Server) -> Vec<bool> {
    let next = server.ticks() + 1;
    (0..server.sessions().len())
        .map(|i| server.supervisor().is_quarantined(i) && server.supervisor().probe_due(i, next))
        .collect()
}

/// What one session did in one tick, from its stats delta.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Did {
    /// Quarantined stub, or a probe that failed.
    Stub,
    /// A probe that re-admitted the session.
    ProbeRun,
    /// Ran segmentation at this rung.
    Ran(usize),
    /// Presented its previous mask at this rung.
    Reused(usize),
}

fn did(
    before: Option<&SessionStats>,
    after: &SessionStats,
    quarantined: bool,
    probed: bool,
) -> Did {
    let zero = SessionStats::default();
    let b = before.unwrap_or(&zero);
    let rung = (0..RUNGS.len())
        .find(|&r| after.rung_frames[r] > b.rung_frames[r])
        .unwrap_or(RUNGS.len() - 1);
    let ran = after.runs > b.runs;
    match (quarantined, probed && ran) {
        (true, true) => Did::ProbeRun,
        (true, false) => Did::Stub,
        _ if ran => Did::Ran(rung),
        _ => Did::Reused(rung),
    }
}

/// Modeled sensor-to-display latency of one session-frame, priced by the
/// path it took on the paper SoC at the tick's slot count.
fn frame_latency_ms(
    soc: &SocModel,
    cfg: &ServerConfig,
    spec: &SessionSpec,
    d: Did,
    slots: usize,
) -> f64 {
    let ds = spec.scene.hw_dataset();
    let bd: CostBreakdown = match d {
        Did::Stub => soc.quarantined_stub_path(ds),
        Did::ProbeRun => soc.probe_path(cfg.backbone, ds),
        Did::Ran(2) => soc.degraded_solo_path(
            cfg.backbone,
            ds,
            f64::from(cfg.resilience.widen_factor),
            &[],
        ),
        Did::Ran(3) => soc.uniform_fallback_path(cfg.backbone, ds),
        Did::Ran(_) => soc.batched_solo_path(cfg.backbone, ds, slots),
        Did::Reused(_) => soc.skip_path(ds),
    };
    bd.latency().ms()
}

/// Prices the prefix: per-session-frame modeled latency from the recorded
/// per-tick stats deltas.
fn prefix_latency_ms(snaps: &[Snap], server: &Server) -> f64 {
    let soc = SocModel::default();
    let cfg = server.config();
    let specs: Vec<SessionSpec> = server.sessions().iter().map(|s| *s.spec()).collect();
    let mut total = 0.0;
    for w in snaps.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        let slots = cur.stats.len();
        for (i, after) in cur.stats.iter().enumerate() {
            let q = prev.quarantined.get(i).copied().unwrap_or(false);
            let d = did(
                prev.stats.get(i),
                after,
                q,
                cur.probed.get(i).copied().unwrap_or(false),
            );
            total += frame_latency_ms(&soc, cfg, &specs[i], d, slots);
        }
    }
    total
}

/// `serve`: 16 healthy sessions, plain ticks.
pub fn run_serve(seed: u64, seconds: f64, trace: Option<&Path>) -> Report {
    let mut rep = Report::default();
    let specs = serve_specs(seed);
    let cfg = serve_config(&specs);
    let (setup_s, mut s) = repeated_setup(SETUP_REPS, || {
        let mut s = build(cfg, model(), &specs);
        s.server.tick();
        s
    });
    rep.check(
        "serve floor: every offered session admitted",
        s.admitted == SERVE_SESSIONS,
        format!(
            "{} of {SERVE_SESSIONS} admitted at a {:.2} ms modeled deadline",
            s.admitted,
            cfg.deadline.ms()
        ),
    );

    let measured = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let mut snaps = vec![snap(&s.server, vec![false; SERVE_SESSIONS])];
    let mut digests = Vec::with_capacity(CHECK_TICKS);
    let mut ticks = Vec::new();
    let stats0 = exec::stats();
    let timed = timed_loop(measured, SERVE_MIN_TICKS, |i| {
        let r = s.server.tick();
        if i < SERVE_PREFIX {
            ticks.push(r);
            snaps.push(snap(&s.server, vec![false; SERVE_SESSIONS]));
        }
        if i < CHECK_TICKS {
            digests.push(s.server.mask_digest());
        }
        r.sessions as u64
    });
    let stats1 = exec::stats();
    let frames = timed.frames;
    rep.attempted = frames;

    // Modeled outcome of the prefix.
    let mut m = Modeled::default();
    for t in &ticks {
        if !t.overrun {
            m.served += t.sessions as u64;
            m.nominal += t.rung_sessions[0] as u64;
        }
    }
    m.offered = (SERVE_SESSIONS * ticks.len()) as u64;
    m.latency_ms = prefix_latency_ms(&snaps, &s.server);
    let prefix_stats = &snaps[snaps.len() - 1].stats;
    let idle: Vec<usize> = (0..prefix_stats.len())
        .filter(|&i| prefix_stats[i].runs == 0)
        .collect();
    rep.check(
        "serve floor: segmentation ran for every session",
        s.admitted == SERVE_SESSIONS && idle.is_empty(),
        format!("sessions that never ran in {SERVE_PREFIX} ticks: {idle:?}"),
    );

    // Output identities against twins built from the same seed.
    let mut failed = 0u64;
    let mut b1 = cfg;
    b1.batch = 1;
    let mut twin = build(b1, Arc::clone(&s.model), &specs).server;
    let same_at_b1 = twin_matches(&mut twin, &digests, |srv| {
        srv.tick();
    });
    rep.check(
        "serve: masks at batch = 1 equal masks at the workload's batch size",
        same_at_b1,
        format!(
            "{CHECK_TICKS} ticks × {SERVE_SESSIONS} sessions, batch 1 vs {}",
            cfg.batch
        ),
    );
    if !same_at_b1 {
        failed += (CHECK_TICKS * SERVE_SESSIONS) as u64;
    }
    // b-IoU: the same fleet under zero-fault supervision (identical to the
    // plain tick while the fleet fits its envelope) with oracle scoring.
    let mut scored_cfg = cfg;
    scored_cfg.resilience.score_round_trip = true;
    let mut sup = build(scored_cfg, Arc::clone(&s.model), &specs).server;
    let same_supervised = twin_matches(&mut sup, &digests, |srv| {
        srv.tick_supervised();
    });
    rep.check(
        "serve: zero-fault supervised ticks equal plain ticks",
        same_supervised,
        format!("{CHECK_TICKS} ticks × {SERVE_SESSIONS} sessions"),
    );
    if !same_supervised {
        failed += (CHECK_TICKS * SERVE_SESSIONS) as u64;
    }
    for _ in CHECK_TICKS..SERVE_PREFIX {
        sup.tick_supervised();
    }
    m.b_iou = weighted_b_iou(&sup.rung_scores());
    rep.failed = failed;

    match trace {
        None => end_to_end(
            &mut rep,
            setup_s,
            &timed,
            &timed.step_ms,
            SERVE_MIN_TICKS,
            &m,
        ),
        Some(out) => {
            harness::noise_lines(&mut rep, &timed);
            harness::tensor_metrics(&mut rep, &stats0, &stats1, frames);
            rep.metric("host.offcpu_frac", timed.offcpu_frac(), "ratio");
            rep.metric("host.steal_frac", timed.steal_frac, "ratio");
            rep.metric("serve.admit_us", mean(&s.admit_us), "us");
            serve_layer_counts(&mut rep, &ticks, &s.server);
            traced(&mut rep, &mut s, seconds / 2.0, None, out);
        }
    }
    rep
}

/// Ticks `twin` through the recorded prefix, comparing every served mask.
fn twin_matches(
    twin: &mut Server,
    digests: &[Vec<Option<Vec<f32>>>],
    mut tick: impl FnMut(&mut Server),
) -> bool {
    tick(twin); // the set-up's warm-up tick
    digests.iter().all(|d| {
        tick(twin);
        twin.mask_digest() == *d
    })
}

/// Per-rung `(frames scored, mean b-IoU)`, nominal first.
type RungScores = [(usize, f32); RUNGS.len()];

/// Frame-weighted oracle round-trip b-IoU over every scored rung.
fn weighted_b_iou(scores: &RungScores) -> f64 {
    let n: usize = scores.iter().map(|&(n, _)| n).sum();
    let sum: f64 = scores.iter().map(|&(n, b)| n as f64 * f64::from(b)).sum();
    ratio(sum, n as f64)
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Serving counters over the prefix ticks.
fn serve_layer_counts(rep: &mut Report, ticks: &[solo_serve::TickReport], server: &Server) {
    let served: usize = ticks.iter().map(|t| t.sessions).sum();
    let ran: usize = ticks.iter().map(|t| t.ran).sum();
    let degraded: usize = ticks.iter().map(|t| t.degraded).sum();
    let overruns = ticks.iter().filter(|t| t.overrun).count();
    rep.metric("serve.run_frac", ratio(ran as f64, served as f64), "ratio");
    rep.metric(
        "core.ssa_run_frac",
        ratio(ran as f64, served as f64),
        "ratio",
    );
    rep.metric(
        "serve.degraded_frac",
        ratio(degraded as f64, served as f64),
        "ratio",
    );
    rep.metric("serve.overrun_ticks", overruns as f64, "count");
    rep.metric("serve.rejects", server.rejects() as f64, "count");
    for (r, name) in RUNGS.iter().enumerate() {
        let n: usize = ticks.iter().map(|t| t.rung_sessions[r]).sum();
        rep.metric(&format!("serve.rung_frames.{name}"), n as f64, "count");
    }
}

/// `serve_chaos`: 12 offered sessions (odd ones with dropout plans),
/// supervised ticks, oracle rung scoring, periodic weight pushes.
pub fn run_chaos(seed: u64, seconds: f64, trace: Option<&Path>) -> Report {
    let mut rep = Report::default();
    let specs = chaos_specs(seed, CHAOS_DROPOUT);
    let cfg = chaos_config(&specs);
    let pay = payloads(seed);
    let (setup_s, mut s) = repeated_setup(SETUP_REPS, || {
        let mut s = build(cfg, model(), &specs);
        s.server.tick_supervised();
        s
    });
    rep.check(
        "serve_chaos floor: about a third of the fleet queues at admission",
        s.admitted == CHAOS_ADMITTED && s.queued == CHAOS_OFFERED - CHAOS_ADMITTED,
        format!(
            "{} admitted, {} queued of {CHAOS_OFFERED} at a {:.2} ms modeled deadline",
            s.admitted,
            s.queued,
            cfg.deadline.ms()
        ),
    );

    let measured = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let mut snaps = vec![snap(&s.server, vec![false; s.server.sessions().len()])];
    let mut digests = Vec::new();
    let mut first_change = None;
    let mut reports = Vec::new();
    let mut prefix_scores = RungScores::default();
    let mut pushes = PushLog::default();
    let mut offered = 0u64;
    let stats0 = exec::stats();
    let timed = timed_loop(measured, CHAOS_MIN_TICKS, |i| {
        let probed = (i < CHAOS_PREFIX).then(|| probes_due(&s.server));
        let r = s.server.tick_supervised();
        // Queued sessions are offered frames too; they are served none.
        offered += (r.base.sessions + s.server.queued()) as u64;
        if r.base.promoted > 0 && first_change.is_none() {
            first_change = Some(i);
        }
        if first_change.is_none() && i < CHECK_TICKS {
            digests.push(s.server.mask_digest());
        }
        if let Some(p) = probed {
            reports.push((r, s.server.queued()));
            snaps.push(snap(&s.server, p));
        }
        if i + 1 == CHAOS_PREFIX {
            prefix_scores = s.server.rung_scores();
        }
        pushes.tick(&r);
        if let Some(p) = push_due(&pay, i) {
            pushes.push(&s.model, p, i < CHAOS_PREFIX);
            first_change.get_or_insert(i);
        }
        r.base.sessions as u64
    });
    let frames = timed.frames;
    let stats1 = exec::stats();
    rep.attempted = offered;
    let steps_done = timed.step_ms.len();
    pushes.close(&s.model);

    let mut m = Modeled::default();
    for (r, queued) in &reports {
        m.offered += (r.base.sessions + queued) as u64;
        if !r.base.overrun {
            m.served += r.base.sessions as u64;
            m.nominal += r.base.rung_sessions[0] as u64;
        }
    }
    m.latency_ms = prefix_latency_ms(&snaps, &s.server);
    m.b_iou = weighted_b_iou(&prefix_scores);
    let mut failed = pushes.bad_versions * s.admitted as u64;

    // Fault isolation: until the first promotion or push, every fault-free
    // (even-indexed) session serves exactly what it serves in a twin fleet
    // whose plans are all disabled.
    // The twin starts from the initial weights: the timed model has taken
    // pushes since the digests were recorded.
    let mut twin = build(cfg, model(), &chaos_specs(seed, 0.0)).server;
    twin.tick_supervised();
    let mut isolated = true;
    for d in &digests {
        twin.tick_supervised();
        let t = twin.mask_digest();
        isolated &= (0..CHAOS_ADMITTED).step_by(2).all(|i| d.get(i) == t.get(i));
    }
    rep.check(
        "serve_chaos: fault-free sessions equal a twin fleet with every plan disabled",
        isolated && !digests.is_empty(),
        format!(
            "{} ticks before the first promotion or push, {} healthy sessions",
            digests.len(),
            CHAOS_ADMITTED / 2
        ),
    );
    if !isolated {
        failed += (digests.len() * CHAOS_ADMITTED / 2) as u64;
    }
    rep.check(
        "serve_chaos: each push advances ServeModel::version by exactly one",
        pushes.bad_versions == 0 && pushes.count > 0,
        format!(
            "{} pushes, {} off-by-one failures",
            pushes.count, pushes.bad_versions
        ),
    );
    rep.failed = failed;
    chaos_floors(&mut rep, &s, &reports, &snaps, &prefix_scores, &pushes);

    match trace {
        None => end_to_end(
            &mut rep,
            setup_s,
            &timed,
            &timed.step_ms,
            CHAOS_MIN_TICKS,
            &m,
        ),
        Some(out) => {
            harness::noise_lines(&mut rep, &timed);
            harness::tensor_metrics(&mut rep, &stats0, &stats1, frames);
            rep.metric("host.offcpu_frac", timed.offcpu_frac(), "ratio");
            rep.metric("host.steal_frac", timed.steal_frac, "ratio");
            rep.metric("serve.admit_us", mean(&s.admit_us), "us");
            let plain: Vec<solo_serve::TickReport> = reports.iter().map(|(r, _)| r.base).collect();
            serve_layer_counts(&mut rep, &plain, &s.server);
            let sup = s.server.supervisor();
            rep.metric("serve.quarantines", sup.quarantines() as f64, "count");
            rep.metric("serve.probes", sup.probes() as f64, "count");
            rep.metric("serve.readmissions", sup.readmissions() as f64, "count");
            rep.metric(
                "serve.probe_fail_frac",
                ratio(
                    (sup.probes() - sup.readmissions()) as f64,
                    sup.probes() as f64,
                ),
                "ratio",
            );
            rep.metric("serve.queue_wait_ticks", queue_wait(&reports), "count");
            rep.metric("serve.push_us", mean(&pushes.us), "us");
            rep.metric("serve.push_attempts", pushes.count as f64, "count");
            rep.metric("serve.repacks_per_push", mean(&pushes.repacks()), "count");
            for (r, name) in RUNGS.iter().enumerate() {
                rep.metric(
                    &format!("serve.rung_b_iou.{name}"),
                    f64::from(prefix_scores[r].1),
                    "ratio",
                );
            }
            traced(
                &mut rep,
                &mut s,
                seconds / 2.0,
                Some((&pay, steps_done)),
                out,
            );
        }
    }
    rep
}

/// The payload to push after step `i`, every [`PUSH_EVERY`] steps.
fn push_due(pay: &[Payload], i: usize) -> Option<&Payload> {
    (i % PUSH_EVERY == PUSH_EVERY - 1).then(|| &pay[(i / PUSH_EVERY) % pay.len()])
}

/// Mean ticks a queued session waited before promotion, counting the
/// sessions still queued at the end of the prefix as waiting that long.
fn queue_wait(reports: &[(solo_serve::SupervisedTickReport, usize)]) -> f64 {
    let mut waits = Vec::new();
    for (t, (r, _)) in reports.iter().enumerate() {
        waits.extend(std::iter::repeat_n((t + 1) as f64, r.base.promoted));
    }
    if let Some((_, still)) = reports.last() {
        waits.extend(std::iter::repeat_n(reports.len() as f64, *still));
    }
    mean(&waits)
}

/// Weight pushes made during the timed loop.
#[derive(Default)]
struct PushLog {
    count: usize,
    bad_versions: u64,
    us: Vec<f64>,
    /// The interval since the latest prefix push.
    open: Option<PushInterval>,
    /// `(repacks, panels fetched)` per closed interval.
    intervals: Vec<(u64, u64)>,
}

/// Ticks after one push, up to the next push or the end of the prefix.
struct PushInterval {
    pack_events: u64,
    predicted: bool,
    segmented: bool,
}

impl PushLog {
    fn push(&mut self, model: &ServeModel, p: &Payload, in_prefix: bool) {
        self.close(model);
        let before = model.version();
        let t0 = Instant::now();
        let res = push(model, p);
        self.us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.count += 1;
        if res != Ok(before + 1) || model.version() != before + 1 {
            self.bad_versions += 1;
        }
        if in_prefix {
            self.open = Some(PushInterval {
                pack_events: model.pack_events(),
                predicted: false,
                segmented: false,
            });
        }
    }

    /// Notes which shared panels a tick fetched: the predictor's two when a
    /// live session stepped, the head's two when a crop was segmented.
    fn tick(&mut self, r: &solo_serve::SupervisedTickReport) {
        if let Some(o) = &mut self.open {
            o.predicted |= r.base.sessions > r.quarantined;
            o.segmented |= r.base.ran > 0;
        }
    }

    fn close(&mut self, model: &ServeModel) {
        if let Some(o) = self.open.take() {
            if o.predicted || o.segmented {
                let fetched = 2 * u64::from(o.predicted) + 2 * u64::from(o.segmented);
                self.intervals
                    .push((model.pack_events() - o.pack_events, fetched));
            }
        }
    }

    fn repacks(&self) -> Vec<f64> {
        self.intervals.iter().map(|&(r, _)| r as f64).collect()
    }
}

fn chaos_floors(
    rep: &mut Report,
    s: &Setup,
    reports: &[(solo_serve::SupervisedTickReport, usize)],
    snaps: &[Snap],
    scores: &RungScores,
    pushes: &PushLog,
) {
    let promoted: usize = reports.iter().map(|(r, _)| r.base.promoted).sum();
    rep.check(
        "serve_chaos floor: a session queued and was later promoted",
        s.queued >= 1 && promoted >= 1,
        format!(
            "{} queued at admission, {promoted} promoted in {CHAOS_PREFIX} ticks",
            s.queued
        ),
    );
    let quarantined: usize = reports.iter().map(|(r, _)| r.newly_quarantined).sum();
    let probes: usize = reports.iter().map(|(r, _)| r.probes).sum();
    let readmitted: usize = reports.iter().map(|(r, _)| r.readmitted).sum();
    rep.check(
        "serve_chaos floor: a quarantine → probe → re-admission cycle completed",
        quarantined >= 1 && probes >= 1 && readmitted >= 1,
        format!("{quarantined} quarantines, {probes} probes, {readmitted} re-admissions"),
    );
    // The oracle scores each rung that segments. Two rungs never segment in
    // this fleet: the reuse rung presents the held mask (the server skips
    // its oracle by construction), and once a third of the fleet queues the
    // per-slot slice (deadline × fill / slots, about the batched run cost)
    // is below the unbatched widen and uniform costs, so sessions at those
    // rungs fall through to the held mask. The floor asks every rung to be
    // served, and the nominal and hold rungs to be scored, on enough frames.
    let last = &snaps[snaps.len() - 1].stats;
    let served: Vec<usize> = (0..RUNGS.len())
        .map(|r| last.iter().map(|st| st.rung_frames[r]).sum())
        .collect();
    let scored: Vec<usize> = scores.iter().map(|&(n, _)| n).collect();
    let rungs_ok = served.iter().all(|&n| n >= MIN_RUNG_FRAMES)
        && scored[..2].iter().all(|&n| n >= MIN_SCORED_FRAMES);
    rep.check(
        "serve_chaos floor: every ladder rung served, nominal and hold scored, on enough frames",
        rungs_ok,
        format!(
            "frames served per rung {served:?} (min {MIN_RUNG_FRAMES}), scored {scored:?} \
             (nominal, hold, widen, uniform, reuse; nominal and hold min {MIN_SCORED_FRAMES})"
        ),
    );
    let iv = &pushes.intervals;
    rep.check(
        "serve_chaos floor: each push repacked every shared panel matrix exactly once",
        iv.iter().any(|&(_, f)| f == PANELS_PER_PUSH) && iv.iter().all(|&(r, f)| r == f),
        format!(
            "(repacks, panels fetched) per prefix push {iv:?}; {PANELS_PER_PUSH} panels in all"
        ),
    );
}

/// Replay-side state: the fleet re-rendered in lockstep with the server,
/// each session's own SSA, and the checkpoint a quarantined slot holds.
struct Fleet {
    sessions: Vec<Session>,
    ssas: Vec<Ssa>,
    held: Vec<Option<SessionCheckpoint>>,
}

impl Fleet {
    fn new(server: &Server) -> Self {
        let mut f = Fleet {
            sessions: Vec::new(),
            ssas: Vec::new(),
            held: Vec::new(),
        };
        let cfg = server.config();
        for ses in server.sessions() {
            let mut twin = Session::new(*ses.spec(), cfg.frames_per_video, ses.hidden().len());
            while twin.cursor() < ses.cursor() {
                twin.skip_frame();
            }
            f.add(twin);
        }
        for (i, ses) in server.sessions().iter().enumerate() {
            if server.supervisor().is_quarantined(i) {
                f.held[i] = Some(ses.checkpoint());
            }
        }
        f
    }

    fn add(&mut self, ses: Session) {
        let side = ses.spec().scene.video_config(1).dataset.paper_resolution;
        self.sessions.push(ses);
        self.ssas.push(Ssa::new(SsaConfig::paper_default(side)));
        self.held.push(None);
    }
}

/// The traced half: each tick runs untouched under a step span; then its
/// layer calls are replayed on the same sessions, frames and arguments,
/// with the per-session work (which sessions rendered, probed, ran and at
/// which rung) read from the server's own counters.
/// `chaos` carries the push payloads and the steps already taken, so the
/// push cadence continues; `None` traces plain ticks.
fn traced(
    rep: &mut Report,
    s: &mut Setup,
    seconds: f64,
    chaos: Option<(&[Payload], usize)>,
    out: &Path,
) {
    let supervised = chaos.is_some();
    let soc = SocModel::default();
    let mut fleet = Fleet::new(&s.server);
    let mut tr = Tracer::new();
    let mut ticks = 0u64;
    let mut session_frames = 0u64;
    let mut crops = 0u64;
    timed_loop(seconds, 1, |i| {
        let before = s.server.session_stats();
        let quarantined: Vec<bool> = (0..before.len())
            .map(|j| s.server.supervisor().is_quarantined(j))
            .collect();
        let probed = probes_due(&s.server);
        let live_before = quarantined.iter().filter(|&&q| !q).count();
        let queued_before = s.server.queued();
        tr.set_step(i as u64);
        tr.set_session(None);
        let id = tr.begin(STEP_SPAN);
        let (promoted, total) = if supervised {
            let r = s.server.tick_supervised();
            (r.base.promoted, r.base.sessions)
        } else {
            let r = s.server.tick();
            (r.promoted, r.sessions)
        };
        if let Some(p) = chaos.and_then(|(pay, done)| push_due(pay, done + i)) {
            let _ = tr.time("serve.push", || push(&s.model, p));
        }
        tr.end(id);
        let id = tr.begin(REPLAY_SPAN);
        crops += replay_tick(
            &mut tr,
            &mut fleet,
            s,
            &soc,
            &Pre {
                before,
                quarantined,
                probed,
                live_before,
                queued_before,
                promoted,
                supervised,
            },
        );
        tr.end(id);
        ticks += 1;
        session_frames += total as u64;
        total as u64
    });

    let totals = harness::trace_metrics(rep, &tr);
    let t = |n: &str| totals_of(&totals, n);
    let f = session_frames.max(1) as f64;
    let step = t(STEP_SPAN).total_ns as f64;
    let layers: u64 = totals
        .iter()
        .filter(|(n, _)| harness::LAYERS.contains(&crate::trace::layer_of(n)))
        .map(|(_, v)| v.self_ns)
        .sum();
    rep.metric(
        "serve.tick_self_ms",
        (step - layers as f64).max(0.0) / ticks.max(1) as f64 / 1e6,
        "ms",
    );
    rep.metric("scene.render_ms", t("scene.render").mean(1e6), "ms");
    rep.metric(
        "scene.renders_per_frame",
        t("scene.render").count as f64 / f,
        "count",
    );
    for (metric, span) in [
        ("hw.price_us.batched", "hw.price.batched"),
        ("hw.price_us.skip", "hw.price.skip"),
        ("hw.price_us.uniform", "hw.price.uniform"),
        ("hw.price_us.widen", "hw.price.widen"),
        ("hw.price_us.probe", "hw.price.probe"),
    ] {
        rep.metric(metric, t(span).mean(1e3), "us");
    }
    let price_calls: u64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("hw."))
        .map(|(_, v)| v.count)
        .sum();
    rep.metric(
        "hw.price_calls_per_tick",
        price_calls as f64 / ticks.max(1) as f64,
        "count",
    );
    rep.metric(
        "sampler.index_map_ms",
        t("sampler.index_map").mean(1e6),
        "ms",
    );
    rep.metric(
        "sampler.index_maps_per_frame",
        t("sampler.index_map").count as f64 / f,
        "count",
    );
    rep.metric("sampler.upsample_ms", t("sampler.upsample").mean(1e6), "ms");
    rep.metric("sampler.sample_us", t("sampler.sample").mean(1e3), "us");
    rep.metric("sampler.preview_us", t("sampler.preview").mean(1e3), "us");
    rep.metric("core.ssa_us", t("core.ssa").mean(1e3), "us");
    rep.metric(
        "serve.infer_batch_us",
        t("serve.infer_batch").mean(1e3),
        "us",
    );
    rep.metric(
        "serve.crops_per_infer",
        ratio(crops as f64, t("serve.infer_batch").count as f64),
        "count",
    );
    rep.metric(
        "serve.predict_batch_us",
        t("serve.predict_batch").mean(1e3),
        "us",
    );
    rep.metric(
        "host.pool_width",
        exec::pool().effective_width() as f64,
        "count",
    );
    rep.metric("host.threads", host::threads() as f64, "count");
    crate::write_trace(rep, &tr, out);
}

/// Server state read just before a traced tick.
struct Pre {
    before: Vec<SessionStats>,
    quarantined: Vec<bool>,
    probed: Vec<bool>,
    live_before: usize,
    queued_before: usize,
    promoted: usize,
    supervised: bool,
}

/// Replays one tick's layer calls; returns the crops segmented.
fn replay_tick(tr: &mut Tracer, fleet: &mut Fleet, s: &Setup, soc: &SocModel, pre: &Pre) -> u64 {
    let server = &s.server;
    let cfg = *server.config();
    let model = &s.model;
    let crop = model.config().crop_side;
    let widen_factor = cfg.resilience.widen_factor;

    // Admission control: each promotion attempt prices the fleet plus the
    // queue head; a successful one materializes the session.
    let attempts = pre.promoted + usize::from(pre.queued_before > pre.promoted);
    for a in 0..attempts {
        let live = pre.live_before + a + 1;
        let fleet_ds = (0..pre.before.len() + a)
            .filter(|&j| !pre.quarantined.get(j).copied().unwrap_or(false))
            .map(|j| server.sessions()[j].spec().scene.hw_dataset());
        // The arrival being priced: the promoted session, or the queue head
        // that did not fit (not observable; priced as the first preset).
        let extra = server
            .sessions()
            .get(pre.before.len() + a)
            .map_or(solo_hw::soc::Dataset::Aria, |ses| {
                ses.spec().scene.hw_dataset()
            });
        for ds in fleet_ds.chain(std::iter::once(extra)) {
            tr.time("hw.price.batched", || {
                soc.batched_solo_path(cfg.backbone, ds, live)
            });
        }
    }
    for k in 0..pre.promoted {
        let spec = *server.sessions()[pre.before.len() + k].spec();
        let ses = tr.time("scene.generate", || {
            Session::new(spec, cfg.frames_per_video, model.config().predictor_hidden)
        });
        fleet.add(ses);
    }

    let after = server.session_stats();
    let total = after.len();
    let mut live = Vec::new();
    let mut crops = Vec::new();
    let mut probe_crops = Vec::new();
    for (i, after_i) in after.iter().enumerate() {
        tr.set_session(Some(i));
        let q = pre.quarantined.get(i).copied().unwrap_or(false);
        let d = did(
            pre.before.get(i),
            after_i,
            q,
            pre.probed.get(i).copied().unwrap_or(false),
        );
        if !q {
            live.push((i, d));
            continue;
        }
        if !pre.probed.get(i).copied().unwrap_or(false) {
            fleet.sessions[i].skip_frame();
            continue;
        }
        // Re-admission probe: restore, fast-forward, serve one frame.
        let Some(cp) = fleet.held[i].take() else {
            continue;
        };
        let target = fleet.sessions[i].cursor();
        let mut cand = Session::restore(&cp);
        while cand.cursor() < target {
            tr.time("scene.render", || cand.next_frame());
        }
        let frame = tr.time("scene.render", || cand.next_frame());
        if d == Did::ProbeRun {
            let ds = cand.spec().scene.hw_dataset();
            tr.time("hw.price.probe", || soc.probe_path(cfg.backbone, ds));
            let g = frame.gaze.point;
            let map = index_map(tr, &cand, crop, g, 1.0);
            probe_crops.push(tr.time("sampler.sample", || map.sample_bilinear(&frame.image)));
            map.recycle();
            fleet.held[i] = None;
        } else {
            let ds = cand.spec().scene.hw_dataset();
            tr.time("hw.price.skip", || soc.skip_path(ds));
            fleet.held[i] = Some(server.sessions()[i].checkpoint());
        }
        fleet.sessions[i] = cand;
    }
    for c in probe_crops {
        tr.time("serve.infer_batch", || {
            model.infer_batch(std::slice::from_ref(&c), cfg.precision)
        });
        c.recycle();
    }

    // Live sessions: render, one batched predictor step, pricing, SSA.
    let frames: Vec<_> = live
        .iter()
        .map(|&(i, _)| {
            tr.set_session(Some(i));
            tr.time("scene.render", || fleet.sessions[i].next_frame())
        })
        .collect();
    tr.set_session(None);
    let l = live.len();
    let dh = model.config().predictor_hidden;
    let mut gaze_rows = Vec::with_capacity(l * 2);
    let mut hidden_rows = Vec::with_capacity(l * dh);
    for &(i, _) in &live {
        let g = server.sessions()[i].last_gaze();
        gaze_rows.extend_from_slice(&[g.x, g.y]);
        hidden_rows.extend_from_slice(server.sessions()[i].hidden().as_slice());
    }
    let gazes = Tensor::from_vec(gaze_rows, &[l, 2]);
    let hidden = Tensor::from_vec(hidden_rows, &[l, dh]);
    if l > 0 {
        tr.time("serve.predict_batch", || {
            model.predict_batch(&gazes, &hidden)
        });
    }
    let slots = if pre.supervised { total } else { l };
    let price_sessions: Vec<usize> = if pre.supervised {
        (0..total).collect()
    } else {
        live.iter().map(|&(i, _)| i).collect()
    };
    for &i in &price_sessions {
        let ds = server.sessions()[i].spec().scene.hw_dataset();
        tr.time("hw.price.batched", || {
            soc.batched_solo_path(cfg.backbone, ds, slots)
        });
    }
    for &(i, _) in &live {
        let ds = server.sessions()[i].spec().scene.hw_dataset();
        tr.time("hw.price.skip", || soc.skip_path(ds));
        tr.time("hw.price.uniform", || {
            soc.uniform_fallback_path(cfg.backbone, ds)
        });
        tr.time("hw.price.widen", || {
            soc.degraded_solo_path(cfg.backbone, ds, f64::from(widen_factor), &[])
        });
        if pre.supervised {
            tr.time("hw.price.batched", || {
                soc.batched_solo_path(cfg.backbone, ds, total)
            });
        }
    }
    for (p, &(i, _)) in live.iter().enumerate() {
        tr.set_session(Some(i));
        let frame = &frames[p];
        let preview = tr.time("sampler.preview", || {
            uniform_subsample(&frame.image, crop, crop)
        });
        let suppressed = frame.gaze.phase.is_suppressed();
        let ssa = &mut fleet.ssas[i];
        tr.time("core.ssa", || {
            ssa.step(&preview, frame.gaze.point, suppressed)
        });
        preview.recycle();
    }

    // Crops for every session that ran, oracle scoring, batched inference.
    for (p, &(i, d)) in live.iter().enumerate() {
        let Did::Ran(rung) = d else { continue };
        tr.set_session(Some(i));
        let frame = &frames[p];
        let ses = &fleet.sessions[i];
        let map = match rung {
            3 => tr.time("sampler.index_map", || {
                IndexMap::uniform(&ses.sampler_spec(crop, 1.0))
            }),
            2 => index_map(tr, ses, crop, frame.gaze.point, widen_factor),
            _ => index_map(tr, ses, crop, frame.gaze.point, 1.0),
        };
        if pre.supervised && cfg.resilience.score_round_trip {
            let n = ses.resolution();
            let gt = frame.ioi_mask.reshape(&[1, n, n]);
            let up = tr.time("sampler.upsample", || {
                map.upsample(&map.sample_nearest(&gt))
                    .into_reshaped(&[n, n])
                    .map(|v| if v > 0.5 { 1.0 } else { 0.0 })
            });
            tr.time("core.metrics", || binary_iou(&up, &frame.ioi_mask));
        }
        crops.push(tr.time("sampler.sample", || map.sample_bilinear(&frame.image)));
        map.recycle();
    }
    tr.set_session(None);
    let segmented = crops.len() as u64;
    for chunk in crops.chunks(cfg.batch) {
        tr.time("serve.infer_batch", || {
            model.infer_batch(chunk, cfg.precision)
        });
    }
    for c in crops {
        c.recycle();
    }

    // Slots quarantined by this tick now hold their checkpoint.
    for i in 0..total {
        let q = pre.quarantined.get(i).copied().unwrap_or(false);
        if !q && server.supervisor().is_quarantined(i) {
            fleet.held[i] = Some(server.sessions()[i].checkpoint());
        }
    }
    segmented
}

/// The server's crop index map: gaze prior → SBS map on the session's
/// sampler geometry.
fn index_map(
    tr: &mut Tracer,
    ses: &Session,
    crop: usize,
    g: solo_gaze::GazePoint,
    widen: f32,
) -> IndexMap {
    let sal = tr.time("sampler.saliency_prior", || {
        gaze_saliency(crop, crop, (g.x, g.y), SALIENCY_SIGMA_FRAC, SALIENCY_FLOOR)
    });
    let map = tr.time("sampler.index_map", || {
        IndexMap::from_saliency(&ses.sampler_spec(crop, widen), &sal)
    });
    sal.recycle();
    map
}
