//! Records the serving-resilience chaos sweep archived in
//! `BENCH_chaos.json`. Four segments, all modeled and fully deterministic
//! (no wall-clock timings, so `--check` and `--baseline`-free CI runs are
//! timing-flake-free):
//!
//! * **Chaos sweep** — a supervised [`Server`] driven over fault rate ×
//!   session count × deadline with a half-armed fleet (odd session indices
//!   carry a dropout-style [`FaultPlan`], even indices are fault-free).
//!   Each cell reports injected-fault frames, quarantine / probe /
//!   re-admission counters, per-rung oracle b-IoU, and
//!   `healthy_isolated`: the even-indexed sessions' masks are compared
//!   bit-for-bit against a twin fleet whose fault plans are all disabled —
//!   a faulting neighbor must never perturb a healthy batch-mate.
//! * **Replay** — one fully-armed 8-session fleet run twice from the same
//!   seeds through a deep outage: the run must quarantine, probe and
//!   re-admit, and both runs must agree on every mask bit and every
//!   supervisor counter (deterministic recovery from seed + frame index).
//! * **Weight-push rollback** — a push corrupted in transit must be
//!   refused with the model left on the old version, every session
//!   serving bits identical to a fleet that never saw the push; repairing
//!   and re-sending the same payload must then apply and bump the version.
//!
//! Regenerate with `cargo run --release -p solo-bench --bin chaos --
//! --json > BENCH_chaos.json`; `--check <path>` structurally validates an
//! archived record (isolation, recovery cycle, rollback) without
//! re-running the sweep; `--quick` shrinks the grid for CI smoke runs.
//!
//! [`FaultPlan`]: solo_core::resilience::FaultPlan

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use solo_bench::{header, maybe_json};
use solo_core::resilience::DegradeAction;
use solo_hw::Latency;
use solo_serve::{
    AdmitOutcome, PushError, ServeModel, ServeModelConfig, Server, ServerConfig, SessionSpec,
    WeightPush,
};
use solo_tensor::{normal, seeded_rng, xavier_uniform, Tensor};

/// Sweep seed: offsets every session's scene + fault streams.
const SWEEP_SEED: u64 = 83;
/// Ticks for the deep-outage cells (8 sessions, full dropout): long
/// enough to drain a worst-case 80-frame tracker outage through the
/// probe fast-forward and re-admit at least one session.
const DEEP_TICKS: usize = 240;
/// Ticks for the shallower sweep cells.
const CELL_TICKS: usize = 96;

/// Oracle b-IoU at one ladder rung, accumulated over a cell.
#[derive(Debug, Serialize, Deserialize)]
struct RungRow {
    rung: usize,
    name: String,
    frames_scored: usize,
    b_iou: f32,
}

/// One chaos-sweep cell: fault rate × session count × deadline.
#[derive(Debug, Serialize, Deserialize)]
struct ChaosRow {
    sessions_offered: usize,
    /// Odd-indexed sessions carrying a live fault plan.
    faulty_sessions: usize,
    /// Dropout severity scale handed to `FaultPlan::dropout`.
    dropout: f64,
    deadline_ms: f64,
    ticks: usize,
    admitted: usize,
    /// Live-session frames on which the injector fired at least one fault.
    injected_frames: usize,
    quarantines: usize,
    probes: usize,
    readmissions: usize,
    /// Session-ticks spent quarantined (stub or probed).
    quarantined_session_ticks: usize,
    degraded_frames: usize,
    overrun_ticks: usize,
    /// Even-indexed (fault-free) sessions' masks are bit-identical to a
    /// twin fleet with every fault plan disabled.
    healthy_isolated: bool,
    rungs: Vec<RungRow>,
}

/// The fully-armed fleet run twice from identical seeds.
#[derive(Debug, Serialize, Deserialize)]
struct ReplayRecord {
    sessions: usize,
    dropout: f64,
    ticks: usize,
    quarantines: usize,
    probes: usize,
    readmissions: usize,
    /// Both runs agreed on every mask bit and every supervisor counter.
    deterministic: bool,
}

/// The corrupted-push / rollback exercise.
#[derive(Debug, Serialize, Deserialize)]
struct PushRecord {
    version_before: u64,
    /// The corrupted push was refused with a checksum mismatch.
    corrupted_push_refused: bool,
    /// The model still serves `version_before` after the failed push.
    rolled_back: bool,
    /// Post-failure masks are bit-identical to a fleet that never saw
    /// the push.
    masks_unchanged_after_failed_push: bool,
    /// Version after repairing and re-sending the same payload.
    version_after_good: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Record {
    host_threads: usize,
    degraded_host: bool,
    sweep: Vec<ChaosRow>,
    replay: ReplayRecord,
    push: PushRecord,
}

/// Per-session served-mask bits (`None` while a session has no mask yet).
type MaskBits = Vec<Option<Vec<u32>>>;

fn paper_model(seed: u64) -> Arc<ServeModel> {
    let mut rng = seeded_rng(seed);
    Arc::new(ServeModel::new(&mut rng, ServeModelConfig::paper_default()).expect("paper model"))
}

/// A supervised chaos server: oracle rung scoring on, no waiting room
/// (so both fleets of an isolation pair stay index-aligned for the whole
/// run — no promotion can reshape one fleet but not the other).
fn chaos_server(model: &Arc<ServeModel>, deadline_ms: f64) -> Server {
    let mut cfg = ServerConfig {
        deadline: Latency::from_ms(deadline_ms),
        queue_cap: 0,
        frames_per_video: 32,
        ..ServerConfig::paper_default()
    };
    cfg.resilience.score_round_trip = true;
    Server::new(Arc::clone(model), cfg).expect("chaos server config")
}

/// Admits the leading prefix of `specs` that fits the envelope.
fn admit_all(server: &mut Server, specs: &[SessionSpec]) -> usize {
    specs
        .iter()
        .filter(|&&spec| matches!(server.admit(spec), AdmitOutcome::Admitted(_)))
        .count()
}

/// Drives `ticks` supervised ticks, returning
/// `(injected, quarantined_session_ticks, degraded, overruns)`.
fn drive(server: &mut Server, ticks: usize) -> (usize, usize, usize, usize) {
    let (mut injected, mut qticks, mut degraded, mut overruns) = (0, 0, 0, 0);
    for _ in 0..ticks {
        let r = server.tick_supervised();
        injected += r.injected;
        qticks += r.quarantined;
        degraded += r.base.degraded;
        overruns += usize::from(r.base.overrun);
    }
    (injected, qticks, degraded, overruns)
}

/// Half-armed fleet specs: odd indices fault at `dropout`, evens never.
fn half_armed(sessions: usize, dropout: f64) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| {
            let rate = if i % 2 == 1 { dropout } else { 0.0 };
            SessionSpec::chaos_nth(SWEEP_SEED, i, rate)
        })
        .collect()
}

fn run_cell(
    model: &Arc<ServeModel>,
    sessions: usize,
    dropout: f64,
    deadline_ms: f64,
    quick: bool,
) -> ChaosRow {
    let ticks = if quick {
        120
    } else if sessions >= 8 && dropout >= 1.0 {
        DEEP_TICKS
    } else {
        CELL_TICKS
    };
    let specs = half_armed(sessions, dropout);
    let mut server = chaos_server(model, deadline_ms);
    let admitted = admit_all(&mut server, &specs);
    let (injected, qticks, degraded, overruns) = drive(&mut server, ticks);

    // Isolation twin: the same fleet with every fault plan disabled. A
    // healthy (even-indexed) session must see the same bits whether its
    // batch-mates fault or not.
    let healthy_isolated = if dropout == 0.0 {
        true // the cell *is* its own twin
    } else {
        let twin_specs = half_armed(sessions, 0.0);
        let mut twin = chaos_server(model, deadline_ms);
        let twin_admitted = admit_all(&mut twin, &twin_specs);
        drive(&mut twin, ticks);
        let masks = server.mask_digest();
        let twin_masks = twin.mask_digest();
        twin_admitted == admitted
            && (0..admitted)
                .step_by(2)
                .all(|i| masks.get(i) == twin_masks.get(i))
    };

    let rungs = server
        .rung_scores()
        .iter()
        .enumerate()
        .map(|(r, &(frames_scored, b_iou))| RungRow {
            rung: r,
            name: DegradeAction::NAMES[r].to_string(),
            frames_scored,
            b_iou,
        })
        .collect();
    let sup = server.supervisor();
    ChaosRow {
        sessions_offered: sessions,
        faulty_sessions: (0..sessions)
            .filter(|i| i % 2 == 1 && dropout > 0.0)
            .count(),
        dropout,
        deadline_ms,
        ticks,
        admitted,
        injected_frames: injected,
        quarantines: sup.quarantines(),
        probes: sup.probes(),
        readmissions: sup.readmissions(),
        quarantined_session_ticks: qticks,
        degraded_frames: degraded,
        overrun_ticks: overruns,
        healthy_isolated,
        rungs,
    }
}

/// One fully-armed deep-outage run: every session carries a full-rate
/// fault plan, so quarantine/probe/re-admission cycles are guaranteed
/// within [`DEEP_TICKS`]. Returns the counters plus the final masks.
fn replay_once(
    model: &Arc<ServeModel>,
    sessions: usize,
    ticks: usize,
) -> ((usize, usize, usize), MaskBits) {
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| SessionSpec::chaos_nth(SWEEP_SEED ^ 0x5eed, i, 1.0))
        .collect();
    let mut server = chaos_server(model, 240.0);
    admit_all(&mut server, &specs);
    drive(&mut server, ticks);
    let sup = server.supervisor();
    let counters = (sup.quarantines(), sup.probes(), sup.readmissions());
    let masks = server
        .mask_digest()
        .into_iter()
        .map(|m| m.map(|v| v.iter().map(|x| x.to_bits()).collect()))
        .collect();
    (counters, masks)
}

fn run_replay(model: &Arc<ServeModel>, quick: bool) -> ReplayRecord {
    let sessions = 8;
    let ticks = if quick { 48 } else { DEEP_TICKS };
    let (c1, m1) = replay_once(model, sessions, ticks);
    let (c2, m2) = replay_once(model, sessions, ticks);
    ReplayRecord {
        sessions,
        dropout: 1.0,
        ticks,
        quarantines: c1.0,
        probes: c1.1,
        readmissions: c1.2,
        deterministic: c1 == c2 && m1 == m2,
    }
}

/// Stages a fresh full set of head weights against `base_version`.
fn stage_push(base_version: u64, seed: u64) -> WeightPush {
    let cfg = ServeModelConfig::paper_default();
    let mut rng = seeded_rng(seed);
    let feat = cfg.token_features();
    let p2 = cfg.patch * cfg.patch;
    WeightPush::stage(
        base_version,
        xavier_uniform(&mut rng, &[cfg.hidden, feat], feat, cfg.hidden),
        normal(&mut rng, &[cfg.hidden], 0.0, 0.02),
        xavier_uniform(&mut rng, &[p2, cfg.hidden], cfg.hidden, p2),
        normal(&mut rng, &[p2], 0.0, 0.02),
        xavier_uniform(
            &mut rng,
            &[2, cfg.predictor_hidden],
            cfg.predictor_hidden,
            2,
        ),
    )
}

fn run_push() -> PushRecord {
    // Two identically-seeded fleets on two identically-seeded models; only
    // fleet A's model sees the pushes.
    let ma = paper_model(91);
    let mb = paper_model(91);
    let mut sa = chaos_server(&ma, 240.0);
    let mut sb = chaos_server(&mb, 240.0);
    let specs: Vec<SessionSpec> = (0..8).map(|i| SessionSpec::nth(19, i)).collect();
    admit_all(&mut sa, &specs);
    admit_all(&mut sb, &specs);
    for _ in 0..4 {
        sa.tick_supervised();
        sb.tick_supervised();
    }

    let version_before = ma.version();
    let mut push = stage_push(version_before, 92);
    // Corrupt one weight bit "in transit", after the checksum was sealed.
    let cfg = ServeModelConfig::paper_default();
    let mut w = push.w1.as_slice().to_vec();
    w[0] = f32::from_bits(w[0].to_bits() ^ 1);
    let good_w1 = std::mem::replace(
        &mut push.w1,
        Tensor::from_vec(w, &[cfg.hidden, cfg.token_features()]),
    );
    let corrupted_push_refused = matches!(ma.push(&push), Err(PushError::ChecksumMismatch { .. }));
    let rolled_back = ma.version() == version_before;
    for _ in 0..2 {
        sa.tick_supervised();
        sb.tick_supervised();
    }
    let masks_unchanged_after_failed_push = sa.mask_digest() == sb.mask_digest();

    // Repair the transfer (same payload, intact bits) and re-send.
    push.w1 = good_w1;
    let version_after_good = ma.push(&push).expect("repaired push applies");
    PushRecord {
        version_before,
        corrupted_push_refused,
        rolled_back,
        masks_unchanged_after_failed_push,
        version_after_good,
    }
}

/// `(dropout rates, session counts, deadlines)` swept per cell.
#[allow(clippy::type_complexity)]
fn sweep_grid(quick: bool) -> (Vec<f64>, Vec<usize>, Vec<f64>) {
    if quick {
        (vec![0.0, 1.0], vec![8], vec![240.0])
    } else {
        (vec![0.0, 0.5, 1.0], vec![2, 8], vec![60.0, 240.0])
    }
}

fn measure(quick: bool) -> Record {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = paper_model(7);
    let (rates, sessions, deadlines) = sweep_grid(quick);
    let mut sweep = Vec::new();
    for &s in &sessions {
        for &rate in &rates {
            for &dl in &deadlines {
                sweep.push(run_cell(&model, s, rate, dl, quick));
            }
        }
    }
    Record {
        host_threads,
        degraded_host: host_threads == 1,
        sweep,
        replay: run_replay(&model, quick),
        push: run_push(),
    }
}

/// Structural validation of an archived record: isolation everywhere, a
/// real quarantine → probe → re-admission cycle, deterministic replay,
/// and push rollback — no re-running, so it is flake-free for CI.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rec: Record =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    if rec.sweep.is_empty() {
        return Err(format!("{path}: empty chaos sweep"));
    }
    for row in &rec.sweep {
        let tag = format!(
            "sessions={} dropout={} deadline={}",
            row.sessions_offered, row.dropout, row.deadline_ms
        );
        if !row.healthy_isolated {
            return Err(format!(
                "{path}: {tag}: healthy sessions were perturbed by faulting batch-mates"
            ));
        }
        if row.dropout == 0.0 && (row.injected_frames != 0 || row.quarantines != 0) {
            return Err(format!(
                "{path}: {tag}: faults fired on a zero-dropout fleet ({} injected, {} quarantines)",
                row.injected_frames, row.quarantines
            ));
        }
        if row.readmissions > row.probes || row.quarantines < row.readmissions {
            return Err(format!(
                "{path}: {tag}: inconsistent recovery counters (q={} p={} r={})",
                row.quarantines, row.probes, row.readmissions
            ));
        }
        if row.admitted > row.sessions_offered {
            return Err(format!(
                "{path}: {tag}: admitted more sessions than offered"
            ));
        }
        if row.rungs.len() != DegradeAction::RUNGS {
            return Err(format!(
                "{path}: {tag}: expected {} rung rows",
                DegradeAction::RUNGS
            ));
        }
        for (r, rung) in row.rungs.iter().enumerate() {
            if rung.rung != r || rung.name != DegradeAction::NAMES[r] {
                return Err(format!("{path}: {tag}: rung row {r} mislabeled"));
            }
            if !rung.b_iou.is_finite() || !(0.0..=1.0).contains(&rung.b_iou) {
                return Err(format!(
                    "{path}: {tag}: rung {} b-IoU {} outside [0, 1]",
                    rung.name, rung.b_iou
                ));
            }
        }
        if row.admitted > 0 && row.ticks > 0 && row.rungs.iter().all(|r| r.frames_scored == 0) {
            return Err(format!("{path}: {tag}: oracle scored no frames"));
        }
    }
    let cycle = rec
        .sweep
        .iter()
        .find(|r| r.admitted >= 8 && r.dropout > 0.0 && r.quarantines >= 1);
    if cycle.is_none() {
        return Err(format!(
            "{path}: no sweep cell with >= 8 live sessions under faults reached quarantine"
        ));
    }
    let rp = &rec.replay;
    if !rp.deterministic {
        return Err(format!(
            "{path}: replay runs diverged — recovery is not deterministic"
        ));
    }
    if rp.quarantines < 1 || rp.probes < 1 || rp.readmissions < 1 {
        return Err(format!(
            "{path}: replay shows no full quarantine -> probe -> re-admission cycle \
             (q={} p={} r={})",
            rp.quarantines, rp.probes, rp.readmissions
        ));
    }
    let pu = &rec.push;
    if !pu.corrupted_push_refused || !pu.rolled_back {
        return Err(format!(
            "{path}: corrupted weight push was not refused + rolled back"
        ));
    }
    if !pu.masks_unchanged_after_failed_push {
        return Err(format!("{path}: a failed push changed what sessions serve"));
    }
    if pu.version_after_good != pu.version_before + 1 {
        return Err(format!(
            "{path}: repaired push did not bump the version ({} -> {})",
            pu.version_before, pu.version_after_good
        ));
    }
    println!(
        "{path}: ok — {} chaos cells all healthy-isolated, replay cycle q={} p={} r={} \
         deterministic, corrupted push rolled back (v{} held, good push -> v{})",
        rec.sweep.len(),
        rp.quarantines,
        rp.probes,
        rp.readmissions,
        pu.version_before,
        pu.version_after_good
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check requires a path");
        if let Err(e) = check(path) {
            eprintln!("BENCH_chaos check failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let fresh = measure(quick);
    if maybe_json(&fresh) {
        return;
    }
    header("Chaos sweep — fault rate × sessions × deadline");
    println!(
        "{:>9}{:>9}{:>10}{:>7}{:>7}{:>10}{:>7}{:>8}{:>8}{:>9}{:>10}",
        "sessions",
        "dropout",
        "deadline",
        "ticks",
        "admit",
        "injected",
        "quar",
        "probes",
        "readmit",
        "degraded",
        "isolated"
    );
    for r in &fresh.sweep {
        println!(
            "{:>9}{:>9.2}{:>10.1}{:>7}{:>7}{:>10}{:>7}{:>8}{:>8}{:>9}{:>10}",
            r.sessions_offered,
            r.dropout,
            r.deadline_ms,
            r.ticks,
            r.admitted,
            r.injected_frames,
            r.quarantines,
            r.probes,
            r.readmissions,
            r.degraded_frames,
            r.healthy_isolated
        );
    }
    println!();
    header("Per-rung oracle b-IoU (deepest-fault cell)");
    if let Some(deep) = fresh
        .sweep
        .iter()
        .filter(|r| r.dropout > 0.0)
        .max_by(|a, b| {
            (a.dropout, a.sessions_offered)
                .partial_cmp(&(b.dropout, b.sessions_offered))
                .expect("finite dropout rates")
        })
    {
        println!("{:>9}{:>10}{:>9}{:>9}", "rung", "name", "frames", "b-IoU");
        for r in &deep.rungs {
            println!(
                "{:>9}{:>10}{:>9}{:>9.3}",
                r.rung, r.name, r.frames_scored, r.b_iou
            );
        }
    }
    println!();
    header("Deterministic replay through a deep outage");
    let rp = &fresh.replay;
    println!(
        "sessions: {}  dropout: {:.1}  ticks: {}  quarantines: {}  probes: {}  \
         readmissions: {}  deterministic: {}",
        rp.sessions,
        rp.dropout,
        rp.ticks,
        rp.quarantines,
        rp.probes,
        rp.readmissions,
        rp.deterministic
    );
    println!();
    header("Weight-push rollback");
    let pu = &fresh.push;
    println!(
        "corrupted push refused: {}  rolled back to v{}: {}  masks unchanged: {}  \
         repaired push -> v{}",
        pu.corrupted_push_refused,
        pu.version_before,
        pu.rolled_back,
        pu.masks_unchanged_after_failed_push,
        pu.version_after_good
    );
}
