//! What every workload shares: the result record, the timed closed loop,
//! the metric catalogue and the per-layer metric assembly from a trace.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{self, host};
use crate::trace::{layer_of, NameTotals, Tracer};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("cpu_ms_per_frame", "ms"),
    ("tick_p50_ms", "ms"),
    ("tick_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("modeled_frame_ms", "ms"),
    ("served_frac", "ratio"),
    ("nominal_frac", "ratio"),
    ("b_iou", "ratio"),
];

/// Ladder rung names, nominal first (`DegradeAction::rung` order).
pub const RUNGS: [&str; 5] = ["nominal", "hold", "widen", "uniform", "reuse"];

/// Layers a span can be charged to (span-name prefixes).
pub const LAYERS: [&str; 6] = ["scene", "hw", "sampler", "core", "gaze", "serve"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 50] = [
        ("scene.render_ms", "ms"),
        ("scene.renders_per_frame", "count"),
        ("hw.price_us.solo", "us"),
        ("hw.price_us.batched", "us"),
        ("hw.price_us.skip", "us"),
        ("hw.price_us.uniform", "us"),
        ("hw.price_us.widen", "us"),
        ("hw.price_us.probe", "us"),
        ("hw.price_us.speculative", "us"),
        ("hw.price_calls_per_tick", "count"),
        ("sampler.index_map_ms", "ms"),
        ("sampler.index_maps_per_frame", "count"),
        ("sampler.upsample_ms", "ms"),
        ("sampler.sample_us", "us"),
        ("sampler.preview_us", "us"),
        ("core.saliency_ms", "ms"),
        ("core.seg_infer_ms", "ms"),
        ("core.ssa_us", "us"),
        ("core.ssa_run_frac", "ratio"),
        ("core.spec_hit_rate", "ratio"),
        ("core.prewarm_waste_frac", "ratio"),
        ("gaze.predict_us", "us"),
        ("gaze.predicts_per_frame", "count"),
        ("tensor.scratch_takes_per_frame", "count"),
        ("tensor.scratch_reuse_frac", "ratio"),
        ("tensor.scratch_mb_per_frame", "MB"),
        ("tensor.peak_live_mb", "MB"),
        ("serve.admit_us", "us"),
        ("serve.tick_self_ms", "ms"),
        ("serve.infer_batch_us", "us"),
        ("serve.crops_per_infer", "count"),
        ("serve.predict_batch_us", "us"),
        ("serve.run_frac", "ratio"),
        ("serve.degraded_frac", "ratio"),
        ("serve.overrun_ticks", "count"),
        ("serve.queue_wait_ticks", "count"),
        ("serve.rejects", "count"),
        ("serve.quarantines", "count"),
        ("serve.probes", "count"),
        ("serve.readmissions", "count"),
        ("serve.probe_fail_frac", "ratio"),
        ("serve.push_us", "us"),
        ("serve.push_attempts", "count"),
        ("serve.repacks_per_push", "count"),
        ("trace.accounted_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("host.offcpu_frac", "ratio"),
        ("host.steal_frac", "ratio"),
        ("host.pool_width", "count"),
        ("host.threads", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for r in RUNGS {
        out.push((format!("serve.rung_frames.{r}"), "count"));
        out.push((format!("serve.rung_b_iou.{r}"), "ratio"));
    }
    for l in LAYERS {
        out.push((format!("share.{l}"), "ratio"));
    }
    out
}

/// One named check (output identity or coverage floor).
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Numbers behind the verdict.
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks and coverage floors.
    pub checks: Vec<Check>,
    /// Session-frames the timed region offered.
    pub attempted: u64,
    /// Session-frames whose step errored or whose output failed a check.
    pub failed: u64,
    /// Metrics by name: `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a check.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail,
        });
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }
}

/// Wall and CPU readings over one timed region.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Wall time of each step, ms.
    pub step_ms: Vec<f64>,
    /// Session-frames served in the region.
    pub frames: u64,
    /// Consecutive windows of at least [`WINDOW_S`] each (a final shorter
    /// remainder is left out).
    pub windows: Vec<Window>,
    /// Wall time of the region, s.
    pub wall_s: f64,
    /// Process CPU time (all threads) spent in the region, s.
    pub cpu_s: f64,
    /// CPU time of the driving thread in the region, s.
    pub main_cpu_s: f64,
    /// Share of all CPUs' time the hypervisor gave other guests.
    pub steal_frac: f64,
}

/// One window of whole steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    /// Session-frames served.
    pub frames: u64,
    /// Wall time, s.
    pub wall_s: f64,
    /// CPU time, s (the driving thread's at pool width 1, else the
    /// process's).
    pub cpu_s: f64,
}

/// Minimum wall time of one throughput window.
pub const WINDOW_S: f64 = 1.0;

impl Timed {
    /// Share of the region's wall time the driving thread was off-CPU.
    pub fn offcpu_frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            (1.0 - self.main_cpu_s / self.wall_s).max(0.0)
        } else {
            0.0
        }
    }

    /// Median over windows of session-frames per wall second. Host
    /// interference comes in bursts; the median keeps a burst that spans
    /// a minority of windows out of the figure.
    pub fn frames_per_s(&self) -> f64 {
        self.window_median(|w| ratio(w.frames as f64, w.wall_s))
    }

    /// Median over windows of CPU milliseconds per session-frame.
    pub fn cpu_ms_per_frame(&self) -> f64 {
        self.window_median(|w| ratio(w.cpu_s * 1e3, w.frames as f64))
    }

    fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let v: Vec<f64> = self.windows.iter().map(f).collect();
        stats::median(&v).unwrap_or(0.0)
    }
}

/// CPU seconds consumed so far: the calling thread's own (nanosecond
/// resolution) when it is the only worker, else the whole process's.
fn cpu_now_s() -> f64 {
    if solo_tensor::exec::pool().effective_width() == 1 {
        host::thread_run_ns() as f64 / 1e9
    } else {
        host::cpu_s()
    }
}

/// Runs `step(i)` back to back — a closed loop driven by this thread — for
/// at least `min_steps` steps and at least `seconds` of wall time. Each
/// step returns the session-frames it served.
pub fn timed_loop(seconds: f64, min_steps: usize, mut step: impl FnMut(usize) -> u64) -> Timed {
    let cpu0 = host::cpu_s();
    let run0 = host::thread_run_ns();
    let steal0 = host::steal_ticks();
    let t0 = Instant::now();
    let mut t = Timed::default();
    let (mut win_t0, mut win_cpu0, mut win_frames) = (Instant::now(), cpu_now_s(), 0u64);
    let mut i = 0;
    while i < min_steps || t0.elapsed().as_secs_f64() < seconds {
        let ts = Instant::now();
        let served = step(i);
        t.step_ms.push(ts.elapsed().as_secs_f64() * 1e3);
        t.frames += served;
        win_frames += served;
        let win_s = win_t0.elapsed().as_secs_f64();
        if win_s >= WINDOW_S {
            let cpu = cpu_now_s();
            t.windows.push(Window {
                frames: win_frames,
                wall_s: win_s,
                cpu_s: cpu - win_cpu0,
            });
            (win_t0, win_cpu0, win_frames) = (Instant::now(), cpu, 0);
        }
        i += 1;
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    t.cpu_s = host::cpu_s() - cpu0;
    t.main_cpu_s = host::thread_run_ns().saturating_sub(run0) as f64 / 1e9;
    let steal1 = host::steal_ticks();
    t.steal_frac = ratio(
        steal1.0.saturating_sub(steal0.0) as f64,
        steal1.1.saturating_sub(steal0.1) as f64,
    );
    t
}

/// Runs `setup` `reps` times and returns the median wall time in seconds
/// with the last set-up's result.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    let med = stats::median(&times).unwrap_or(0.0);
    (med, last.expect("at least one set-up ran"))
}

/// Deterministic outcome of a workload's fixed prefix (bit-identical for a
/// seed on any host).
#[derive(Debug, Default, Clone, Copy)]
pub struct Modeled {
    /// Session-frames offered in the prefix.
    pub offered: u64,
    /// Session-frames delivered within the modeled deadline.
    pub served: u64,
    /// Of those, session-frames at the nominal rung.
    pub nominal: u64,
    /// Summed modeled sensor-to-display latency, ms.
    pub latency_ms: f64,
    /// Frame-weighted b-IoU.
    pub b_iou: f64,
}

/// Fills the end-to-end metrics from a timed region and a prefix outcome.
/// `tick_ms` holds the per-tick wall times the percentiles are taken over.
///
/// The tail percentile is the highest the workload's guaranteed minimum of
/// `min_ticks` supports with ten ticks beyond it, so it stays fixed across
/// hosts and commits however many ticks a run fits in.
pub fn end_to_end(
    rep: &mut Report,
    setup_s: f64,
    timed: &Timed,
    tick_ms: &[f64],
    min_ticks: usize,
    modeled: &Modeled,
) {
    let tail_p = stats::tail_percentile(min_ticks).unwrap_or(50.0);
    let tail_ms = stats::percentile(tick_ms, tail_p).unwrap_or(0.0);
    let offered = modeled.offered.max(1) as f64;
    rep.metric("setup_s", setup_s, "s");
    rep.metric("frames_per_s", timed.frames_per_s(), "1/s");
    rep.metric("cpu_ms_per_frame", timed.cpu_ms_per_frame(), "ms");
    rep.metric("tick_p50_ms", stats::median(tick_ms).unwrap_or(0.0), "ms");
    rep.metric("tick_tail_ms", tail_ms, "ms");
    rep.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    rep.metric("modeled_frame_ms", modeled.latency_ms / offered, "ms");
    rep.metric("served_frac", modeled.served as f64 / offered, "ratio");
    rep.metric("nominal_frac", modeled.nominal as f64 / offered, "ratio");
    rep.metric("b_iou", modeled.b_iou, "ratio");
    let q = |p: f64| stats::percentile(tick_ms, p).unwrap_or(0.0);
    rep.line(format!(
        "tick ms p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
        q(10.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(90.0),
        q(100.0)
    ));
    let beyond = tick_ms.iter().filter(|&&t| t > tail_ms).count();
    rep.line(format!(
        "ticks {} (tail_ms = p{tail_p}, fixed by the {min_ticks}-tick minimum; {beyond} ticks beyond it); \
         session-frames timed {} over {} windows; whole-region {:.3} frames/s, {:.4} cpu ms/frame",
        tick_ms.len(),
        timed.frames,
        timed.windows.len(),
        ratio(timed.frames as f64, timed.wall_s),
        ratio(timed.cpu_s * 1e3, timed.frames as f64),
    ));
    rep.line(format!(
        "prefix session-frames offered {} served {} unserved {} nominal {}",
        modeled.offered,
        modeled.served,
        modeled.offered - modeled.served,
        modeled.nominal
    ));
    noise_lines(rep, timed);
}

/// Prints the run's noise diagnostics.
pub fn noise_lines(rep: &mut Report, timed: &Timed) {
    rep.line(format!(
        "host.pool_width {} host.threads {} host.offcpu_frac {:.4} host.steal_frac {:.4} \
         (wall {:.3} s, cpu {:.3} s)",
        solo_tensor::exec::pool().effective_width(),
        host::threads(),
        timed.offcpu_frac(),
        timed.steal_frac,
        timed.wall_s,
        timed.cpu_s
    ));
}

/// Execution-layer scratch counters over a region, per frame.
pub fn tensor_metrics(
    rep: &mut Report,
    before: &solo_tensor::exec::ExecStats,
    after: &solo_tensor::exec::ExecStats,
    frames: u64,
) {
    let f = frames.max(1) as f64;
    let takes = after.takes - before.takes;
    rep.metric("tensor.scratch_takes_per_frame", takes as f64 / f, "count");
    rep.metric(
        "tensor.scratch_reuse_frac",
        ratio((after.reuse_hits - before.reuse_hits) as f64, takes as f64),
        "ratio",
    );
    rep.metric(
        "tensor.scratch_mb_per_frame",
        (after.taken_bytes - before.taken_bytes) as f64 / f / 1e6,
        "MB",
    );
    rep.metric(
        "tensor.peak_live_mb",
        after.peak_live_bytes as f64 / 1e6,
        "MB",
    );
}

/// Derives an independent stream seed from the run's `--seed` and a salt
/// (SplitMix64 finalizer), so neighbouring seeds share no inputs.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `num / den`, zero for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Totals for one span name (zero when never recorded).
pub fn totals_of(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> NameTotals {
    totals.get(name).copied().unwrap_or_default()
}

/// Span names of the benchmark's own step/replay roots.
pub const STEP_SPAN: &str = "bench.step";
/// Root of one step's replayed layer calls.
pub const REPLAY_SPAN: &str = "bench.replay";

/// Trace-derived metrics every workload shares: accounted share, tracing
/// overhead, per-layer shares and span counts. Layer shares are layer self
/// time over the measured (untraced-code) step time.
pub fn trace_metrics(rep: &mut Report, tr: &Tracer) -> BTreeMap<&'static str, NameTotals> {
    let totals = tr.totals();
    let step_ns = totals_of(&totals, STEP_SPAN).total_ns;
    let replay_ns = totals_of(&totals, REPLAY_SPAN).total_ns;
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in &totals {
        let layer = layer_of(name);
        if LAYERS.contains(&layer) {
            *layer_ns.entry(layer).or_default() += t.self_ns;
        }
    }
    let accounted: u64 = layer_ns.values().sum();
    rep.metric(
        "trace.accounted_frac",
        stats::accounted_frac(accounted, step_ns),
        "ratio",
    );
    rep.metric(
        "trace.overhead_frac",
        ratio(replay_ns as f64, step_ns as f64) - 1.0,
        "ratio",
    );
    for l in LAYERS {
        let ns = layer_ns.get(l).copied().unwrap_or(0);
        rep.metric(
            &format!("share.{l}"),
            ratio(ns as f64, step_ns as f64),
            "ratio",
        );
    }
    let shares: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            let ns = layer_ns.get(l).copied().unwrap_or(0);
            format!("{l} {:.1}%", 100.0 * ratio(ns as f64, step_ns as f64))
        })
        .collect();
    rep.line(format!(
        "trace: {} spans; layer self-time share of the measured step: {}",
        tr.spans().len(),
        shares.join(", ")
    ));
    totals
}

/// Fills every per-layer metric the workload did not set with zero, so
/// each traced run prints the whole catalogue.
pub fn fill_per_layer(rep: &mut Report) {
    for (name, unit) in per_layer_catalogue() {
        rep.metrics.entry(name).or_insert((0.0, unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\": [")).expect("key present");
        let end = start + json[start..].find(']').expect("array closes");
        json[start..end]
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_prints() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
    }

    #[test]
    fn windowed_rates_take_the_median_window() {
        let w = |frames, wall_s, cpu_s| Window {
            frames,
            wall_s,
            cpu_s,
        };
        let t = Timed {
            windows: vec![w(100, 1.0, 1.0), w(100, 2.0, 1.5), w(100, 1.25, 1.2)],
            ..Timed::default()
        };
        assert_eq!(t.frames_per_s(), 80.0);
        assert_eq!(t.cpu_ms_per_frame(), 12.0);
        assert_eq!(Timed::default().frames_per_s(), 0.0);
    }

    #[test]
    fn derived_seeds_differ_per_seed_and_salt() {
        let mut seen: Vec<u64> = Vec::new();
        for seed in 0..8 {
            for salt in 0..8 {
                seen.push(derive(seed, salt));
            }
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
        assert_eq!(derive(3, 7), derive(3, 7));
    }
}
