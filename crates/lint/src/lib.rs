//! # solo-lint
//!
//! In-repo static analysis for invariants the compiler can't check.
//!
//! The analyzer is a three-layer pipeline of plain data structures, and
//! every rule reads it, never raw lines: a token [`lexer`] (code tokens
//! with byte spans, comments apart), an item model ([`items`]) recovering
//! functions, their `impl` self-types, test regions and the statements
//! each waiver covers, and an over-approximate workspace call graph
//! ([`callgraph`]) the cross-procedural rules walk. A verdict therefore
//! does not depend on where a line breaks.
//!
//! Per-file rules ([`rules`]):
//!
//! * **D1 — determinism**: library code takes no ambient entropy, wall
//!   clocks, or environment reads; all RNG flows through explicit seeds.
//!   The figures this repo regenerates (Fig. 12–17, Tables 1–4) are only
//!   trustworthy if every run is bit-reproducible from its seed.
//! * **D2 — thread discipline**: all parallelism funnels through
//!   `exec::pool()`; no raw `thread::spawn`.
//! * **U1 — unit safety** (`crates/hw`): public APIs move time/energy in
//!   the `Latency`/`Energy` newtypes, never raw unit-suffixed `f64`s, and
//!   never unwrap-then-rewrap a quantity.
//! * **P1 — panic policy**: `panic!`/`unwrap()`/`expect(`/`todo!`/
//!   `unimplemented!` in library code needs an inline waiver with a reason.
//! * **C1 — cast safety**: no truncating casts on arithmetic expressions
//!   in the hardware models or the sampler's index-map hot path.
//! * **E1 — error-path hygiene**: functions returning `FrameOutcome`/
//!   `SoloError` propagate faults as values, never unwrap.
//! * **W1 — workspace hygiene**: manifests declare only dependencies the
//!   crate actually references.
//!
//! Cross-procedural rules ([`flows`], on the call graph):
//!
//! * **P2 — panic reachability**: no unwaived panic source (P1 needles
//!   plus message-less asserts) in any function reachable from the
//!   hot-path roots (streaming evaluator, SSA observe, packed GEMM, exec
//!   dispatch).
//! * **X1 — scratch lifecycle**: every `take_buf`/`take_buf_at` handout
//!   is recycled or transferred before its enclosing function returns.
//! * **S1 — unsafe audit**: `unsafe` only in allow-listed modules, with a
//!   SAFETY comment.
//! * **A1 — stale waivers**: a `lint:allow` that no longer suppresses
//!   anything is itself flagged, so waivers can't outlive their code.
//!
//! Violations are diffed against a committed [`Baseline`] ratchet
//! (`lint-baseline.json`): grandfathered debt passes, new debt fails, and
//! the baseline can only shrink. Waive a true positive inline with
//! `// lint:allow(RULE): reason` (`# lint:allow(W1): reason` in TOML);
//! the reason is the justification and A1 deletes it when it goes stale.
//! A waiver on a line of its own covers the statement after it; one after
//! code covers the statement that code ends (see [`items::Waiver`]).
//!
//! Run as `cargo run -p solo-lint -- check` (`--graph` for call-graph
//! statistics, `explain RULE` for the rule registry); the same scan runs
//! in tier-1 via `tests/lint.rs`.

pub mod baseline;
pub mod callgraph;
pub mod flows;
pub mod items;
pub mod lexer;
pub mod manifests;
pub mod rules;

pub use baseline::Baseline;
pub use rules::{classify, Violation};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use items::FileItems;
use rules::FileKind;

/// Source roots scanned for the Rust rules, relative to the repo root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests"];

/// Rule ids whose waivers the rust-side stale audit (A1) tracks. W1 is
/// deliberately absent: its waivers live in `Cargo.toml` comments and are
/// audited by [`manifests::stale_waivers`]; rust comments mentioning W1
/// are documentation. Unknown ids (doc placeholders like `RULE`) are
/// skipped too.
const AUDITED_RULES: &[&str] = &["D1", "D2", "U1", "P1", "P2", "C1", "E1", "S1", "X1"];

/// The outcome of diffing a scan against the baseline.
#[derive(Debug, Default)]
pub struct Report {
    /// Every violation found, sorted.
    pub violations: Vec<Violation>,
    /// Violations in `(file, rule)` groups whose count exceeds the
    /// baseline — these fail the check.
    pub new: Vec<Violation>,
    /// `(file, rule, baseline, current)` where current < baseline: fixed
    /// debt the ratchet can absorb via `--update-baseline`.
    pub improved: Vec<(String, String, usize, usize)>,
}

impl Report {
    /// Whether the check passes (no counts above baseline).
    pub fn is_clean(&self) -> bool {
        self.new.is_empty()
    }

    /// Human-readable summary of failures and ratchet opportunities.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.new.is_empty() {
            out.push_str("new lint violations (not in baseline):\n");
            for v in &self.new {
                out.push_str(&format!(
                    "  {}:{} [{}] {}\n",
                    v.file, v.line, v.rule, v.message
                ));
            }
        }
        if !self.improved.is_empty() {
            out.push_str("baseline shrinkage available (run with --update-baseline):\n");
            for (file, rule, old, new) in &self.improved {
                out.push_str(&format!("  {file}: {rule} {old} -> {new}\n"));
            }
        }
        out.push_str(&format!(
            "{} violation(s) total, {} new, {} grandfathered key(s) improvable\n",
            self.violations.len(),
            self.new.len(),
            self.improved.len(),
        ));
        out
    }
}

/// Call-graph statistics for the `--graph` report and the resolved-edge
/// coverage gate.
#[derive(Debug)]
pub struct GraphSummary {
    /// Non-test library functions in the graph.
    pub functions: usize,
    /// Deduplicated call edges.
    pub edges: usize,
    /// Edge-classification counters (resolution coverage lives here).
    pub stats: callgraph::EdgeStats,
    /// `Type::name` paths of the hot-path roots found.
    pub roots: Vec<String>,
    /// Functions reachable from the roots (roots included).
    pub reachable: usize,
    /// Every unresolved workspace-qualified call site.
    pub unresolved: Vec<callgraph::UnresolvedCall>,
}

impl GraphSummary {
    /// Human-readable dump for `solo-lint check --graph`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "call graph: {} functions, {} edges\n\
             edge resolution: {} resolved, {} fallback, {} external, {} unresolved \
             ({:.1}% workspace coverage)\n",
            self.functions,
            self.edges,
            self.stats.resolved,
            self.stats.fallback,
            self.stats.external,
            self.stats.unresolved,
            self.stats.coverage() * 100.0,
        ));
        out.push_str(&format!(
            "hot-path roots ({}): {}\n{} of {} functions reachable from the roots\n",
            self.roots.len(),
            self.roots.join(", "),
            self.reachable,
            self.functions,
        ));
        if !self.unresolved.is_empty() {
            out.push_str("unresolved call sites:\n");
            for u in &self.unresolved {
                out.push_str(&format!("  {}:{} {}\n", u.file, u.line, u.path));
            }
        }
        out
    }
}

/// A whole-repo scan: the (waiver-filtered) violations plus the call-graph
/// summary backing them.
#[derive(Debug)]
pub struct Scan {
    /// Every violation found (waivers applied, stale-waiver audit
    /// appended), sorted by file, line, and rule.
    pub violations: Vec<Violation>,
    /// Every waiver that suppressed a violation, as `(file, 1-indexed line
    /// of the waiver comment, rule)`.
    pub used_waivers: BTreeSet<(String, usize, &'static str)>,
    /// Call-graph statistics for `--graph`.
    pub graph: GraphSummary,
}

/// Scans the repository at `root` and returns every violation, sorted by
/// file, line, and rule. Waivers are already applied; the baseline is not.
///
/// # Errors
///
/// Fails only on I/O errors walking the tree; unreadable UTF-8 is skipped.
pub fn scan_repo(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(scan_repo_full(root)?.violations)
}

/// The full scan: per-file rules, the flow rules over the workspace call
/// graph, manifest hygiene, central waiver filtering, and the stale-waiver
/// audit.
///
/// # Errors
///
/// Fails only on I/O errors walking the tree; unreadable UTF-8 is skipped.
pub fn scan_repo_full(root: &Path) -> io::Result<Scan> {
    let mut raw = Vec::new();
    let mut files: BTreeMap<String, FileItems> = BTreeMap::new();
    let mut kinds: BTreeMap<String, FileKind> = BTreeMap::new();

    // Per-file and flow rules over the Rust sources (raw: waivers are
    // applied centrally below so their usage can be tracked).
    for rel in rust_sources(root)? {
        let Some(kind) = rules::classify(&rel) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let file = items::parse_file(&rel, &text);
        raw.extend(rules::check_file_raw(&file, kind));
        if matches!(kind, FileKind::Library | FileKind::Bench) {
            raw.extend(flows::scratch_lifecycle(&file));
            raw.extend(flows::unsafe_audit(&file));
        }
        kinds.insert(rel.clone(), kind);
        files.insert(rel, file);
    }

    // P2 over the workspace call graph (library functions only).
    let graph = CallGraph::build(
        files
            .iter()
            .filter(|(rel, _)| kinds.get(*rel) == Some(&FileKind::Library))
            .map(|(_, file)| file),
    );
    let roots = graph.roots(flows::is_hot_root);
    let reach = graph.reachable_from(&roots);
    raw.extend(flows::panic_reachability(&graph, &reach, &files));
    let summary = GraphSummary {
        functions: graph.fns.iter().filter(|f| !f.is_test).count(),
        edges: graph.edge_count(),
        stats: graph.stats,
        roots: roots.iter().map(|&r| graph.fns[r].path()).collect(),
        reachable: reach.iter().filter(|r| r.is_some()).count(),
        unresolved: graph.unresolved.clone(),
    };

    // Central waiver filtering, tracking which declared waivers fired. P2
    // also honours P1/E1 waivers (the flow rule skips the tokens they
    // cover), so those do double duty without extra tracking.
    let mut used: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    let mut violations: Vec<Violation> = Vec::new();
    for v in raw {
        match files.get(&v.file).and_then(|f| f.waiver(v.rule, v.token)) {
            Some(w) => {
                used.insert((v.file.clone(), w.line, v.rule));
            }
            None => violations.push(v),
        }
    }

    // Stale-waiver audit: every declared waiver for an audited rule must
    // still suppress something.
    for (rel, file) in &files {
        if !matches!(kinds.get(rel), Some(FileKind::Library | FileKind::Bench)) {
            continue;
        }
        for w in &file.waivers {
            let Some(&rule) = AUDITED_RULES.iter().find(|r| **r == w.rule) else {
                continue;
            };
            let comment = &file.comments[w.comment];
            if file.comment_in_test(comment) || used.contains(&(rel.clone(), w.line, rule)) {
                continue;
            }
            violations.push(Violation {
                file: rel.clone(),
                line: w.line,
                token: comment.next,
                rule: "A1",
                message: format!(
                    "stale waiver: `lint:allow({rule})` here no longer suppresses any \
                     {rule} violation — delete it so the ratchet stays honest"
                ),
            });
        }
    }

    // W1 over the manifests (waivers are TOML comments, applied inside),
    // plus the manifest side of the stale audit.
    for manifest_rel in manifests::manifest_paths(root) {
        let Ok(text) = std::fs::read_to_string(root.join(&manifest_rel)) else {
            continue;
        };
        let crate_dir = Path::new(&manifest_rel)
            .parent()
            .unwrap_or(Path::new(""))
            .to_path_buf();
        let crate_files = crate_sources(root, &crate_dir)?;
        violations.extend(manifests::check_manifest(
            &manifest_rel,
            &text,
            &crate_files,
        ));
        violations.extend(manifests::stale_waivers(&manifest_rel, &text, &crate_files));
    }

    violations.sort();
    Ok(Scan {
        violations,
        used_waivers: used,
        graph: summary,
    })
}

/// Diffs `violations` against `baseline` into a [`Report`].
pub fn check_against(violations: Vec<Violation>, baseline: &Baseline) -> Report {
    let current = Baseline::from_violations(&violations);
    let mut new = Vec::new();
    for v in &violations {
        if current.count(&v.file, v.rule) > baseline.count(&v.file, v.rule) {
            new.push(v.clone());
        }
    }
    let mut improved: Vec<(String, String, usize, usize)> = baseline
        .iter()
        .filter(|(file, rule, count)| current.count(file, rule) < *count)
        .map(|(file, rule, count)| {
            (
                file.to_string(),
                rule.to_string(),
                count,
                current.count(file, rule),
            )
        })
        .collect();
    improved.sort();
    Report {
        violations,
        new,
        improved,
    }
}

/// Convenience: scan + baseline load + diff, as `tests/lint.rs` and the
/// CLI both run it. A missing baseline file means an empty baseline.
///
/// # Errors
///
/// Fails on I/O errors or a malformed baseline file.
pub fn check_repo(root: &Path, baseline_path: &Path) -> Result<Report, String> {
    let violations = scan_repo(root).map_err(|e| format!("scan failed: {e}"))?;
    let baseline = load_baseline(baseline_path)?;
    Ok(check_against(violations, &baseline))
}

/// Loads a baseline file; missing file -> empty baseline.
///
/// # Errors
///
/// Fails on unreadable files or malformed JSON.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Baseline::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// All `.rs` files under the scan roots, repo-relative with `/` separators.
/// Public so integration tests can sweep the same file set the scan sees.
pub fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, &mut |p| {
                if p.extension().is_some_and(|e| e == "rs") {
                    files.push(relative(root, p));
                }
            })?;
        }
    }
    files.sort();
    Ok(files)
}

/// All `.rs` files in one crate's directory tree (for W1 reference
/// search). For the workspace root (`crate_dir` empty), scans `src`,
/// `tests`, `examples`, and `benches` only — not the member crates.
fn crate_sources(root: &Path, crate_dir: &Path) -> io::Result<Vec<FileItems>> {
    let mut sources = Vec::new();
    let subdirs: &[&str] = &["src", "tests", "examples", "benches"];
    for sub in subdirs {
        let dir = root.join(crate_dir).join(sub);
        if dir.is_dir() {
            walk(&dir, &mut |p| {
                if p.extension().is_some_and(|e| e == "rs") {
                    if let Ok(text) = std::fs::read_to_string(p) {
                        sources.push(items::parse_file(&relative(root, p), &text));
                    }
                }
            })?;
        }
    }
    Ok(sources)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk(dir: &Path, visit: &mut impl FnMut(&PathBuf)) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        if path.is_dir() {
            walk(&path, visit)?;
        } else {
            visit(&path);
        }
    }
    Ok(())
}
