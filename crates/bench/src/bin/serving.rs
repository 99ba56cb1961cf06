//! Records the multi-session serving sweep archived in
//! `BENCH_serving.json`: a real [`Server`] driven over sessions × deadline
//! × batch, reporting admission outcomes, degradation and sustained
//! sessions×fps. The sweep is modeled, so it is deterministic; `batch`
//! never changes outcomes — only GEMM fusion — which `--check` asserts on
//! the archived record. Host timings of the real serving tick come from
//! perfbench's `serve` and `serve_chaos` workloads.
//!
//! Regenerate with `cargo run --release -p solo-bench --bin serving --
//! --json`; `--check <path>` structurally validates an archived record
//! without re-running it.
//!
//! [`Server`]: solo_serve::Server

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use solo_bench::{header, maybe_json};
use solo_hw::Latency;
use solo_serve::{AdmitOutcome, ServeModel, ServeModelConfig, Server, ServerConfig, SessionSpec};
use solo_tensor::seeded_rng;

/// One cell of the serving sweep: a (sessions, deadline, batch) triple.
#[derive(Serialize, Deserialize)]
struct SweepRow {
    sessions_offered: usize,
    deadline_ms: f64,
    batch: usize,
    ticks: usize,
    admitted: usize,
    queued: usize,
    rejected: usize,
    /// Session-frames segmented across the run.
    ran_frames: usize,
    /// Session-frames served from a previous mask.
    reused_frames: usize,
    /// Session-frames decided at a below-nominal ladder rung.
    degraded_frames: usize,
    /// Ticks that overran the deadline after maximal degradation.
    overrun_ticks: usize,
    /// Sustained throughput: live sessions × tick rate, derated by the
    /// overrun fraction.
    sessions_x_fps: f64,
}

/// The archived record.
#[derive(Serialize, Deserialize)]
struct Record {
    sweep: Vec<SweepRow>,
}

/// Drives a real server over sessions × deadline × batch.
fn measure_sweep() -> Vec<SweepRow> {
    let ticks = 24;
    let mut rng = seeded_rng(31);
    let model = Arc::new(
        ServeModel::new(&mut rng, ServeModelConfig::paper_default())
            .expect("paper-default serve model"),
    );
    let mut rows = Vec::new();
    for offered in [1, 2, 4, 8, 16] {
        for deadline_ms in [16.7, 33.3, 60.0] {
            for batch in [1, 4, 8] {
                let cfg = ServerConfig {
                    deadline: Latency::from_ms(deadline_ms),
                    batch,
                    frames_per_video: 16,
                    ..ServerConfig::paper_default()
                };
                let mut server =
                    Server::new(Arc::clone(&model), cfg).expect("validated server config");
                let (mut admitted, mut queued, mut rejected) = (0usize, 0usize, 0usize);
                for i in 0..offered {
                    match server.admit(SessionSpec::nth(77, i)) {
                        AdmitOutcome::Admitted(_) => admitted += 1,
                        AdmitOutcome::Queued => queued += 1,
                        AdmitOutcome::Rejected { .. } => rejected += 1,
                    }
                }
                let mut degraded_frames = 0usize;
                for _ in 0..ticks {
                    degraded_frames += server.tick().degraded;
                }
                let live = server.sessions().len();
                let served_fraction = (ticks - server.overruns()) as f64 / ticks.max(1) as f64;
                rows.push(SweepRow {
                    sessions_offered: offered,
                    deadline_ms,
                    batch,
                    ticks,
                    admitted,
                    queued,
                    rejected,
                    ran_frames: server.frames_ran(),
                    reused_frames: server.frames_served() - server.frames_ran(),
                    degraded_frames,
                    overrun_ticks: server.overruns(),
                    sessions_x_fps: live as f64 * (1000.0 / deadline_ms) * served_fraction,
                });
            }
        }
    }
    rows
}

/// Structural validation of an archived `BENCH_serving.json` — no
/// re-running, so it is cheap enough for CI.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rec: Record =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    // Sweep rows: sane counters, and batch size must not change outcomes —
    // rows differing only in `batch` carry identical serving counters.
    if rec.sweep.is_empty() {
        return Err(format!("{path}: empty serving sweep"));
    }
    for r in &rec.sweep {
        if r.admitted + r.queued + r.rejected != r.sessions_offered {
            return Err(format!(
                "{path}: sessions={} deadline={} batch={}: admission outcomes do not sum",
                r.sessions_offered, r.deadline_ms, r.batch
            ));
        }
        if !r.sessions_x_fps.is_finite() || r.sessions_x_fps < 0.0 {
            return Err(format!(
                "{path}: sessions={} deadline={} batch={}: bad sessions_x_fps",
                r.sessions_offered, r.deadline_ms, r.batch
            ));
        }
    }
    for a in &rec.sweep {
        for b in &rec.sweep {
            if a.sessions_offered == b.sessions_offered
                && a.deadline_ms == b.deadline_ms
                && a.batch != b.batch
                && (
                    a.admitted,
                    a.ran_frames,
                    a.reused_frames,
                    a.degraded_frames,
                    a.overrun_ticks,
                ) != (
                    b.admitted,
                    b.ran_frames,
                    b.reused_frames,
                    b.degraded_frames,
                    b.overrun_ticks,
                )
            {
                return Err(format!(
                    "{path}: sessions={} deadline={}: batch {} vs {} changed serving outcomes",
                    a.sessions_offered, a.deadline_ms, a.batch, b.batch
                ));
            }
        }
    }
    println!(
        "{path}: ok — {} sweep rows, admission outcomes sum, batch-invariant outcomes",
        rec.sweep.len()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check requires a path");
        if let Err(e) = check(path) {
            eprintln!("BENCH_serving check failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let rec = Record {
        sweep: measure_sweep(),
    };
    if maybe_json(&rec) {
        return;
    }
    header("Serving sweep — sessions × deadline × batch");
    println!(
        "{:>9}{:>10}{:>7}{:>9}{:>8}{:>9}{:>7}{:>9}{:>10}{:>9}{:>14}",
        "offered",
        "deadline",
        "batch",
        "admit",
        "queue",
        "reject",
        "ran",
        "reused",
        "degraded",
        "overrun",
        "sessions×fps"
    );
    for r in &rec.sweep {
        println!(
            "{:>9}{:>8.1}ms{:>7}{:>9}{:>8}{:>9}{:>7}{:>9}{:>10}{:>9}{:>14.1}",
            r.sessions_offered,
            r.deadline_ms,
            r.batch,
            r.admitted,
            r.queued,
            r.rejected,
            r.ran_frames,
            r.reused_frames,
            r.degraded_frames,
            r.overrun_ticks,
            r.sessions_x_fps
        );
    }
}
