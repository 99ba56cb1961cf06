//! The SOLO benchmark: four closed-loop workloads, each run in its own
//! process, that put each layer of the stack on the critical path.
//!
//! ```text
//! perfbench --workload <stream|stream_wide|serve|serve_chaos> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --all [--workloads W,..] [--seeds A,B,..] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run prints human-readable lines (checks, coverage floors, noise
//! diagnostics) and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run replays each step's layer
//! calls under spans, prints the per-layer metrics and writes
//! chrome://tracing JSON under `perfbench/out/`. `--all` runs every
//! workload at each seed, one child process per run, untraced and then
//! traced unless `--trace` picks one. See README.md.

mod harness;
mod serve;
mod stats;
mod stream;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::Report;
use solo_tensor::exec;
use trace::Tracer;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The held-out second seed `--all` runs by default.
const SECOND_SEED: u64 = 2;
/// Timed seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;
/// Where traced runs write their chrome://tracing JSON.
const TRACE_DIR: &str = "perfbench/out";

/// The workloads, in the order `--all` runs them.
const WORKLOADS: [&str; 4] = ["stream", "stream_wide", "serve", "serve_chaos"];

struct Args {
    workload: Option<String>,
    all: bool,
    workloads: Vec<String>,
    seeds: Vec<u64>,
    seconds: f64,
    /// `None`: `--all` runs both passes; a single run is untraced.
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seeds: vec![DEFAULT_SEED],
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut seeds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--workloads" => a.workloads = value()?.split(',').map(str::to_string).collect(),
            "--seed" | "--seeds" => {
                a.seeds = value()?
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad seed {v}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                seeds_given = true;
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all && !seeds_given {
        a.seeds = vec![DEFAULT_SEED, SECOND_SEED];
    }
    if a.seeds.is_empty() {
        return Err("no seed given".into());
    }
    if let Some(w) = a
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {w}"));
    }
    match (&a.workload, a.all) {
        (Some(w), false) if WORKLOADS.contains(&w.as_str()) => {}
        (Some(w), false) => return Err(format!("unknown workload {w}")),
        (None, true) => {}
        _ => return Err("give exactly one of --workload <name> or --all".into()),
    }
    Ok(a)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
                 perfbench --all [--workloads W,..] [--seeds A,B,..] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let workload = args.workload.as_deref().unwrap_or_default();
    let seed = args.seeds[0];
    let traced = args.trace.unwrap_or(false);
    let trace_path =
        traced.then(|| PathBuf::from(TRACE_DIR).join(format!("trace-{workload}-seed{seed}.json")));
    // Every workload pins its pool width instead of inheriting it.
    let width = match workload {
        "stream_wide" => stats::host::threads(),
        _ => 1,
    };
    let mut rep = exec::with_threads(width, || match workload {
        "stream" | "stream_wide" => stream::run(seed, args.seconds, trace_path.as_deref()),
        "serve" => serve::run_serve(seed, args.seconds, trace_path.as_deref()),
        _ => serve::run_chaos(seed, args.seconds, trace_path.as_deref()),
    });
    if traced {
        harness::fill_per_layer(&mut rep);
    } else {
        let missing: Vec<&str> = harness::END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !rep.metrics.contains_key(*n))
            .collect();
        rep.check(
            "the report carries every end-to-end metric",
            missing.is_empty(),
            format!("missing {missing:?}"),
        );
    }
    print_report(workload, seed, width, &rep, start);
    ExitCode::SUCCESS
}

fn print_report(workload: &str, seed: u64, width: usize, rep: &Report, start: Instant) {
    println!("== {workload} seed {seed} pool width {width}");
    for l in &rep.lines {
        println!("   {l}");
    }
    for c in &rep.checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        println!("   [{verdict}] {} — {}", c.name, c.detail);
    }
    for (name, (value, unit)) in &rep.metrics {
        println!("   {name:<34} {value:>14.6} {unit}");
    }
    println!(
        "   session-frames attempted {} failed {}; process wall {:.2} s",
        rep.attempted,
        rep.failed,
        start.elapsed().as_secs_f64()
    );
    println!("{}", result_json(rep));
}

/// The machine-readable result: the last line of stdout.
fn result_json(rep: &Report) -> String {
    let mut m = String::new();
    for (i, (name, (value, unit))) in rep.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed
    )
}

/// Writes the traced run's spans as chrome://tracing JSON.
pub fn write_trace(rep: &mut Report, tr: &Tracer, path: &Path) {
    let workload = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace")
        .to_string();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, tr.chrome_json(&workload)));
    match written {
        Ok(()) => rep.line(format!("spans written to {}", path.display())),
        Err(e) => rep.check(
            "trace: chrome://tracing JSON written",
            false,
            format!("{}: {e}", path.display()),
        ),
    }
}

/// Metric values from a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    const KEY: &str = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        let name = rest[..at]
            .rsplit('"')
            .next()
            .unwrap_or_default()
            .to_string();
        let tail = &rest[at + KEY.len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = tail;
    }
    out
}

/// Runs the chosen workloads at every seed, each in its own child process,
/// and prints a summary; with three or more seeds also each metric's
/// median and relative interquartile spread across seeds. Exits non-zero
/// if any run failed or was incorrect.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    let mut values: Vec<(String, String, f64)> = Vec::new();
    let passes: &[bool] = match args.trace {
        Some(t) => std::slice::from_ref(if t { &true } else { &false }),
        None => &[false, true],
    };
    for &seed in &args.seeds {
        for (w, &traced) in args
            .workloads
            .iter()
            .flat_map(|w| passes.iter().map(move |t| (w.as_str(), t)))
        {
            let run = format!("{w:<12} seed {seed} trace {}", u8::from(traced));
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    ok = false;
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    summary.push(format!("{run}: exited with {}", o.status));
                    continue;
                }
                Err(e) => {
                    ok = false;
                    summary.push(format!("{run}: could not start: {e}"));
                    continue;
                }
            };
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            let correct = last.starts_with("{\"correct\": true");
            ok &= correct;
            for (name, v) in parse_metrics(last) {
                values.push((w.to_string(), name, v));
            }
            summary.push(format!(
                "{run}: {}",
                if correct { "correct" } else { "INCORRECT" }
            ));
        }
    }
    println!("== summary");
    for s in &summary {
        println!("   {s}");
    }
    if args.seeds.len() >= 3 {
        println!(
            "== spread across {} seeds (median, (q3 - q1) / median)",
            args.seeds.len()
        );
        let mut keys: Vec<(&str, &str)> = values
            .iter()
            .map(|(w, n, _)| (w.as_str(), n.as_str()))
            .collect();
        keys.sort();
        keys.dedup();
        for (w, n) in keys {
            let v: Vec<f64> = values
                .iter()
                .filter(|(vw, vn, _)| vw == w && vn == n)
                .map(|(_, _, x)| *x)
                .collect();
            let med = stats::median(&v).unwrap_or(0.0);
            let spread = stats::relative_iqr(&v).map_or("n/a".to_string(), |r| format!("{r:.4}"));
            println!("   {w:<12} {n:<34} {med:>14.6} {spread:>8}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
