//! # solo-bench
//!
//! The benchmark harness: one binary per table/figure of the paper
//! (`cargo run --release -p solo-bench --bin <name>`), plus the kernel,
//! serving, chaos and streaming sweeps and ablation sweeps for the design
//! choices called out in DESIGN.md.
//!
//! | binary   | regenerates |
//! |----------|-------------|
//! | `table1` | Table 1 — GPU latency vs input size |
//! | `fig3`   | Fig. 3 — gaze-study statistics |
//! | `table2` | Table 2 — accuracy of AD/LTD/SOLO/FR (trains from scratch) |
//! | `fig12a` | Fig. 12 (a) — c-IoU vs GFLOPs against M2F/OF stand-ins |
//! | `fig12b` | Fig. 12 (b) — SSA accuracy/skip trade-off |
//! | `fig13a` | Fig. 13 (a) — IoU vs downsample size |
//! | `fig13b` | Fig. 13 (b) — speedup & energy savings |
//! | `table3` | Table 3 — FR+GPU vs SOLO latency |
//! | `table4` | Table 4 — NPU comparison |
//! | `fig14a` | Fig. 14 (a) — latency breakdowns |
//! | `fig14b` | Fig. 14 (b) — SSA speedup sweep |
//! | `fig15`  | Fig. 15 — sensor latency/energy split |
//! | `fig17`  | Fig. 17 — simulated user study |
//! | `davis`  | Section 6.6 — DAVIS robustness |
//! | `streaming` | Speculation sweep (K × saccade rate × deadline), archived in `BENCH_streaming.json` |
//! | `serving` | Multi-session serving: sessions × deadline × batch sweep over a real `Server`, archived in `BENCH_serving.json` |
//! | `area`   | Section 6.1 — accelerator area breakdown |
//! | `ablations` | DESIGN.md ablations (pruning, quant, ADC groups, σ, λ) |
//!
//! Every binary prints a human-readable table and, with `--json`, a JSON
//! blob suitable for archiving in `EXPERIMENTS.md` regeneration runs.

use serde::Serialize;

/// Prints `value` as pretty JSON when `--json` was passed, returning
/// whether it did.
pub fn maybe_json<T: Serialize>(value: &T) -> bool {
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("serializable result")
        );
        true
    } else {
        false
    }
}

/// Standard run header.
pub fn header(title: &str) {
    println!("=== {title} ===");
}
