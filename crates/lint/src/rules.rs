//! The rule catalog.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `D1` | library code (non-bench)        | no ambient entropy, clocks, or env reads |
//! | `D2` | library + bench code            | no raw thread spawns/scopes outside `solo-tensor::exec` |
//! | `U1` | `crates/hw`                     | no raw-`f64` unit-suffixed params; no unwrap-rewrap |
//! | `P1` | library code (non-bench)        | panics need an inline waiver |
//! | `P2` | whole workspace (call graph)    | no panic source reachable from the hot-path roots |
//! | `C1` | `crates/hw`, sampler `index_map`| no truncating casts on arithmetic |
//! | `E1` | library + bench code            | fallible resilience fns must not unwrap |
//! | `S1` | whole workspace                 | `unsafe` needs a SAFETY comment in an allow-listed module |
//! | `X1` | library + bench code            | every `take_buf` scratch handout comes home |
//! | `W1` | every `Cargo.toml`              | declared deps must be referenced |
//! | `A1` | library + bench code            | declared waivers must still suppress something |
//!
//! `D1`/`U1`/`P1`/`C1` are line/token rules over [`SourceFile`]s, defined
//! here; `P2`/`X1`/`S1` are the flow rules in [`crate::flows`], built on
//! the lexer → items → call-graph pipeline; `W1` is a manifest cross-check
//! handled in [`crate::manifests`]; `A1` is the stale-waiver audit run by
//! the whole-repo scan in the crate root. Every rule honors
//! `// lint:allow(RULE): reason` waivers (checked by the caller via
//! [`SourceFile::waived`]).

use crate::flows::{binding_name, mentions};
use crate::source::SourceFile;

/// One rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Rule id (`D1`, `D2`, `U1`, `P1`, `C1`, `W1`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// File classification for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Shipping library code: `crates/*/src` (except `crates/bench`) and
    /// the root `src/`.
    Library,
    /// Benchmark/binary harness code: `crates/bench/src`.
    Bench,
    /// Integration tests: `tests/` and `crates/*/tests`.
    Test,
}

/// Classifies a repo-relative path, or `None` if no rule scans it.
pub fn classify(rel: &str) -> Option<FileKind> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("crates/bench/src/") {
        return Some(FileKind::Bench);
    }
    if rel.starts_with("crates/lint/tests/fixtures/") {
        // Fixture snippets deliberately violate rules.
        return None;
    }
    if rel.starts_with("src/") {
        return Some(FileKind::Library);
    }
    if rel.starts_with("tests/") {
        return Some(FileKind::Test);
    }
    if let Some(tail) = rel.strip_prefix("crates/") {
        let mut parts = tail.splitn(2, '/');
        let _crate_dir = parts.next()?;
        let rest = parts.next()?;
        if rest.starts_with("src/") {
            return Some(FileKind::Library);
        }
        if rest.starts_with("tests/") {
            return Some(FileKind::Test);
        }
    }
    None
}

/// Runs every token rule applicable to `file`, waivers already applied.
pub fn check_file(file: &SourceFile, kind: FileKind) -> Vec<Violation> {
    let mut violations = check_file_raw(file, kind);
    violations.retain(|v| !file.waived(v.rule, v.line));
    violations
}

/// Like [`check_file`], but *without* applying waivers — the whole-repo
/// scan filters centrally so it can track which waivers still fire (the
/// stale-waiver audit needs the pre-filter view).
pub fn check_file_raw(file: &SourceFile, kind: FileKind) -> Vec<Violation> {
    let mut violations = Vec::new();
    if kind == FileKind::Library {
        determinism(file, &mut violations);
        panic_policy(file, &mut violations);
    }
    if matches!(kind, FileKind::Library | FileKind::Bench) {
        thread_discipline(file, &mut violations);
        error_path_hygiene(file, &mut violations);
    }
    if file.rel.starts_with("crates/hw/src/") {
        unit_safety(file, &mut violations);
    }
    if file.rel.starts_with("crates/hw/src/") || file.rel == "crates/sampler/src/index_map.rs" {
        cast_safety(file, &mut violations);
    }
    violations
}

/// One entry in the rule registry, consumed by `solo-lint explain` and the
/// DESIGN.md rule table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id (`D1`, `P2`, …).
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// The invariant the rule enforces.
    pub invariant: &'static str,
    /// The waiver form that suppresses it, with the reason contract.
    pub waiver: &'static str,
}

/// The full rule registry, in catalog order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        scope: "library code (non-bench)",
        invariant: "no ambient entropy, wall clocks, or environment reads; all randomness \
                    flows through explicit seeds so every figure is bit-reproducible",
        waiver: "// lint:allow(D1): <justification — why this ambient read cannot affect results>",
    },
    RuleInfo {
        id: "D2",
        scope: "library + bench code",
        invariant: "no raw thread spawns or scopes outside solo-tensor::exec — all \
                    parallelism funnels through the shared pool so width is one knob",
        waiver: "// lint:allow(D2): <justification — why this thread bypasses the pool>",
    },
    RuleInfo {
        id: "U1",
        scope: "crates/hw",
        invariant: "public APIs move time/energy in the Latency/Energy newtypes, never raw \
                    unit-suffixed f64s, and never unwrap a quantity just to rewrap it \
                    (also across a `let` that holds the unwrapped value)",
        waiver: "// lint:allow(U1): <justification — why the raw f64 is safe here>",
    },
    RuleInfo {
        id: "P1",
        scope: "library code (non-bench)",
        invariant: "panic!/unwrap()/expect(/todo!/unimplemented! in library code needs an \
                    inline waiver stating why the panic is unreachable or intended",
        waiver: "// lint:allow(P1): <justification — the invariant making this unreachable>",
    },
    RuleInfo {
        id: "P2",
        scope: "whole workspace (call graph)",
        invariant: "no unwaived panic source (P1's set plus message-less asserts) is \
                    reachable from the streaming hot-path roots: StreamingEvaluator::run*, \
                    Ssa::observe, PackedMatrix::matmul*, and the exec dispatch surface",
        waiver: "// lint:allow(P2): <justification> (a P1/E1 waiver on the line also satisfies P2)",
    },
    RuleInfo {
        id: "C1",
        scope: "crates/hw + sampler index_map",
        invariant: "no truncating as-casts directly on arithmetic expressions — round, \
                    floor, or clamp explicitly first",
        waiver: "// lint:allow(C1): <justification — why truncation is the intended rounding>",
    },
    RuleInfo {
        id: "E1",
        scope: "library + bench code",
        invariant: "functions returning FrameOutcome/SoloError must not unwrap or expect — \
                    faults travel as values on the typed error path, not as panics",
        waiver: "// lint:allow(E1): <justification — why this cannot fault at runtime>",
    },
    RuleInfo {
        id: "S1",
        scope: "whole workspace",
        invariant: "every `unsafe` carries a SAFETY comment justifying its proof obligations \
                    and lives in an allow-listed file (tensor's packed.rs and packed/simd.rs)",
        waiver: "// lint:allow(S1): <justification — the proof the comment cannot express>",
    },
    RuleInfo {
        id: "X1",
        scope: "library + bench code",
        invariant: "every scratch buffer from take_buf/take_buf_at returns to the pool: the \
                    binding must reach recycle_buf or transfer custody via Tensor::from_vec",
        waiver: "// lint:allow(X1): escapes — <where custody goes and who recycles it>",
    },
    RuleInfo {
        id: "W1",
        scope: "every Cargo.toml",
        invariant: "manifests declare only dependencies the crate's sources actually \
                    reference",
        waiver: "# lint:allow(W1): <justification — why the unused declaration stays>",
    },
    RuleInfo {
        id: "A1",
        scope: "library + bench code",
        invariant: "every declared waiver still suppresses a live violation — a waiver whose \
                    line no longer trips its rule is deleted, keeping the ratchet honest",
        waiver: "not waivable: delete the stale waiver instead",
    },
];

/// Looks up a rule in the registry by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// D1 — determinism: library code must not read ambient entropy, wall
/// clocks, or the process environment. All randomness flows through
/// explicitly seeded generators (`solo_tensor::seeded_rng`).
fn determinism(file: &SourceFile, out: &mut Vec<Violation>) {
    const FORBIDDEN: &[(&str, &str)] = &[
        ("thread_rng", "ambient RNG breaks seed reproducibility"),
        (
            "from_entropy",
            "entropy-seeded RNG breaks seed reproducibility",
        ),
        (
            "Instant::now",
            "wall-clock reads make runs non-reproducible",
        ),
        ("SystemTime", "wall-clock reads make runs non-reproducible"),
        (
            "std::env::",
            "environment reads make runs machine-dependent",
        ),
        ("env::var", "environment reads make runs machine-dependent"),
        (
            "env::args",
            "CLI parsing belongs in bench binaries, not libraries",
        ),
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (needle, why) in FORBIDDEN {
            if let Some(col) = line.code.find(needle) {
                // `env::var`/`env::args` would double-report lines already
                // caught by the broader `std::env::` pattern.
                if needle.starts_with("env::") && line.code[..col].ends_with("std::") {
                    continue;
                }
                out.push(Violation {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: "D1",
                    message: format!("`{needle}` in library code: {why}"),
                });
            }
        }
    }
}

/// D2 — thread discipline: all parallelism is funneled through the shared
/// execution pool. Raw `std::thread::spawn` or `crossbeam::thread::scope`
/// anywhere outside `crates/tensor/src/exec.rs` (the pool's own dispatch
/// plumbing) requires a waiver.
fn thread_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel == "crates/tensor/src/exec.rs" {
        return;
    }
    const NEEDLES: &[&str] = &["thread::spawn", "thread::scope", "crossbeam::thread"];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // At most one D2 per line: `crossbeam::thread::scope(...)` matches
        // several needles but is a single violation.
        if let Some(needle) = NEEDLES.iter().find(|n| line.code.contains(**n)) {
            out.push(Violation {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "D2",
                message: format!(
                    "`{needle}` outside solo-tensor::exec: route parallelism through the \
                     shared pool (`exec::pool()`), or waive with `// lint:allow(D2): <reason>`"
                ),
            });
        }
    }
}

/// P1 — panic policy: `panic!`/`unwrap()`/`expect(`/`todo!`/
/// `unimplemented!` in library code requires a waiver with a reason.
fn panic_policy(file: &SourceFile, out: &mut Vec<Violation>) {
    const NEEDLES: &[&str] = &["panic!", ".unwrap()", ".expect(", "todo!", "unimplemented!"];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in NEEDLES {
            for (col, _) in line.code.match_indices(needle) {
                // `debug_assert!`-style macros contain no `panic!` token;
                // but guard `.expect(` against `.expect_err(` just in case
                // of future edits, and `panic!` against `should_panic`.
                if *needle == "panic!" {
                    let before = &line.code[..col];
                    if before.ends_with("should_") {
                        continue;
                    }
                }
                out.push(Violation {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: "P1",
                    message: format!(
                        "`{}` in library code needs `// lint:allow(P1): <reason>` or a Result",
                        needle.trim_start_matches('.')
                    ),
                });
                break; // one violation per needle per line
            }
        }
    }
}

/// U1 — unit safety (`crates/hw` only): public functions must not take
/// raw `f64` parameters with unit-suffixed names (use the `Latency`/
/// `Energy` newtypes), and quantities must not be unwrapped to `f64` just
/// to be rewrapped — on one line, or split over a `let` that holds the
/// unwrapped value and a later rewrap of that name in the same file.
fn unit_safety(file: &SourceFile, out: &mut Vec<Violation>) {
    // units.rs defines the newtypes; its constructors must take raw f64
    // and its operator impls legitimately unwrap and rewrap.
    if file.rel == "crates/hw/src/units.rs" {
        return;
    }
    const SUFFIXES: &[&str] = &["_us", "_ms", "_ns", "_uj", "_mj", "_cycles"];
    const REWRAP: &[(&str, &str)] = &[
        (".us()", "Latency::from_us("),
        (".ms()", "Latency::from_ms("),
        (".uj()", "Energy::from_uj("),
        (".mj()", "Energy::from_mj("),
    ];
    // `let` names holding an unwrapped quantity, with their unwrap needle.
    let mut unwrapped: Vec<(String, &str)> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (unwrap, rewrap) in REWRAP {
            let unwraps = line.code.contains(unwrap);
            if let Some(pos) = line.code.find(rewrap) {
                let arg = &line.code[pos + rewrap.len()..];
                let split = unwrapped
                    .iter()
                    .find(|(name, u)| u == unwrap && mentions(arg, name));
                if unwraps || split.is_some() {
                    let via = split.map_or(String::new(), |(name, _)| format!(" via `let {name}`"));
                    out.push(Violation {
                        file: file.rel.clone(),
                        line: idx + 1,
                        rule: "U1",
                        message: format!(
                            "unwrap-rewrap `{unwrap}` → `{rewrap}…)`{via}: keep the quantity in its newtype"
                        ),
                    });
                }
            }
            if unwraps {
                if let Some(name) = binding_name(&line.code) {
                    unwrapped.push((name, unwrap));
                }
            }
        }
        // Public fn signature with a raw unit-suffixed f64 parameter.
        // Signatures are assumed to fit on one line (rustfmt keeps them
        // under 100 columns here); multi-line signatures are caught by the
        // per-parameter scan below matching the continuation lines too.
        let code = line.code.trim_start();
        let is_pub_fn_context = code.starts_with("pub fn")
            || code.starts_with("pub(crate) fn")
            || in_signature_continuation(file, idx);
        if !is_pub_fn_context {
            continue;
        }
        for suffix in SUFFIXES {
            for (pos, _) in line.code.match_indices(&format!("{suffix}: f64")) {
                // Make sure the suffix terminates an identifier.
                let before = &line.code[..pos];
                if before
                    .chars()
                    .last()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    out.push(Violation {
                        file: file.rel.clone(),
                        line: idx + 1,
                        rule: "U1",
                        message: format!(
                            "public fn takes raw `f64` parameter `…{suffix}`: use the unit newtypes from units.rs"
                        ),
                    });
                }
            }
        }
    }
}

/// Whether line `idx` continues a `pub fn` signature opened above (no `{`
/// or `;` seen yet since the `pub fn` line).
fn in_signature_continuation(file: &SourceFile, idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let code = file.lines[i].code.trim();
        if code.contains('{') || code.contains(';') {
            return false;
        }
        if code.starts_with("pub fn") || code.starts_with("pub(crate) fn") {
            return true;
        }
        if code.is_empty() {
            return false;
        }
    }
    false
}

/// C1 — cast safety: in the hardware models and the sampler's index-map
/// hot path, truncating casts (`as usize`/`as u32`/`as u64`) directly on
/// arithmetic expressions are flagged — round or clamp explicitly first.
fn cast_safety(file: &SourceFile, out: &mut Vec<Violation>) {
    const CASTS: &[&str] = &[" as usize", " as u32", " as u64"];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for cast in CASTS {
            for (pos, _) in line.code.match_indices(cast) {
                if !operand_is_sanctioned(&line.code[..pos])
                    && operand_has_arithmetic(&line.code[..pos])
                {
                    out.push(Violation {
                        file: file.rel.clone(),
                        line: idx + 1,
                        rule: "C1",
                        message: format!(
                            "truncating `{}` on an arithmetic expression: round/clamp explicitly",
                            cast.trim_start()
                        ),
                    });
                    break; // one per cast kind per line
                }
            }
        }
    }
}

/// E1 — error-path hygiene: a function whose signature mentions
/// `FrameOutcome` or `SoloError` is on the typed fault-propagation path,
/// so its body (closures and nested items included) must not call
/// `.unwrap()` or `.expect(` — faults travel as values, not panics.
fn error_path_hygiene(file: &SourceFile, out: &mut Vec<Violation>) {
    /// How many lines a signature may span before we give up on finding
    /// its opening brace (guards against pathological formatting).
    const SIG_SPAN: usize = 16;
    const NEEDLES: &[&str] = &[".unwrap()", ".expect("];
    let lines = &file.lines;
    let mut i = 0usize;
    while i < lines.len() {
        let Some(fn_col) = fn_token(&lines[i].code) else {
            i += 1;
            continue;
        };
        // Accumulate the signature from the `fn` token to its opening brace.
        let mut sig = String::new();
        let mut open = None; // (line index, byte offset just past '{')
        let mut col = fn_col;
        'sig: for j in i..lines.len().min(i + SIG_SPAN) {
            let code = &lines[j].code;
            let tail = &code[col.min(code.len())..];
            for (k, ch) in tail.char_indices() {
                if ch == '{' {
                    sig.push_str(&tail[..k]);
                    open = Some((j, col + k + 1));
                    break 'sig;
                }
                if ch == ';' {
                    sig.push_str(&tail[..k]);
                    break 'sig; // trait method or extern declaration
                }
            }
            sig.push_str(tail);
            sig.push(' ');
            col = 0;
        }
        let fallible = sig
            .split("->")
            .nth(1)
            .is_some_and(|ret| ret.contains("FrameOutcome") || ret.contains("SoloError"));
        let Some((open_line, open_col)) = open else {
            i += 1;
            continue;
        };
        if !fallible {
            i += 1;
            continue;
        }
        // Walk the body to its closing brace, flagging panicking calls.
        let mut depth = 1i32;
        let mut bl = open_line;
        let mut bc = open_col;
        while bl < lines.len() && depth > 0 {
            let code = &lines[bl].code;
            let tail = &code[bc.min(code.len())..];
            if !lines[bl].in_test {
                for needle in NEEDLES {
                    if tail.contains(needle) {
                        out.push(Violation {
                            file: file.rel.clone(),
                            line: bl + 1,
                            rule: "E1",
                            message: format!(
                                "`{}` inside a `FrameOutcome`/`SoloError` function: propagate \
                                 with `?` or map to a `SoloError`",
                                needle.trim_start_matches('.')
                            ),
                        });
                    }
                }
            }
            for ch in tail.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
            }
            bl += 1;
            bc = 0;
        }
        i = bl.max(i + 1);
    }
}

/// Finds a `fn` keyword token in a code line, returning the byte offset of
/// the signature start (the `fn` itself), or `None`.
fn fn_token(code: &str) -> Option<usize> {
    for (pos, _) in code.match_indices("fn ") {
        let preceded_ok = pos == 0
            || code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        if preceded_ok {
            return Some(pos);
        }
    }
    None
}

/// Whether the cast operand already ends in an explicit rounding/clamping
/// call — `(a * b).round() as u64` is the sanctioned form C1 asks for.
fn operand_is_sanctioned(before: &str) -> bool {
    const SANCTIONED: &[&str] = &["round", "floor", "ceil", "trunc", "clamp", "min", "max"];
    let t = before.trim_end();
    if !t.ends_with(')') {
        return false;
    }
    // Find the matching open paren of the trailing call.
    let chars: Vec<char> = t.chars().collect();
    let mut depth = 0i32;
    let mut open = None;
    for i in (0..chars.len()).rev() {
        match chars[i] {
            ')' | ']' => depth += 1,
            '(' | '[' => {
                depth -= 1;
                if depth == 0 {
                    open = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(open) = open else {
        return false;
    };
    // Read the identifier immediately before the open paren.
    let ident: String = chars[..open]
        .iter()
        .rev()
        .take_while(|c| c.is_alphanumeric() || **c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    SANCTIONED.contains(&ident.as_str())
}

/// Scans the cast operand (the expression just before ` as `) backwards
/// for arithmetic operators at paren depth ≥ 0 relative to the operand.
fn operand_has_arithmetic(before: &str) -> bool {
    let chars: Vec<char> = before.chars().collect();
    let mut depth = 0i32;
    let mut seen_arith = false;
    for i in (0..chars.len()).rev() {
        let c = chars[i];
        match c {
            ')' | ']' => depth += 1,
            '(' | '[' => {
                depth -= 1;
                if depth < 0 {
                    break; // left the operand's enclosing group
                }
            }
            // Operand boundary tokens at depth 0.
            ',' | ';' | '=' | '{' | '}' | '&' | '|' if depth == 0 => break,
            '+' | '*' | '/' | '%' => seen_arith = true,
            '-' => {
                // `->` is not arithmetic; `-` followed by `>` .
                if chars.get(i + 1) != Some(&'>') {
                    seen_arith = true;
                }
            }
            _ => {}
        }
    }
    seen_arith
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/core/src/x.rs", src)
    }

    #[test]
    fn classify_scopes_paths() {
        assert_eq!(classify("crates/hw/src/soc.rs"), Some(FileKind::Library));
        assert_eq!(classify("src/lib.rs"), Some(FileKind::Library));
        assert_eq!(classify("crates/bench/src/lib.rs"), Some(FileKind::Bench));
        assert_eq!(classify("tests/determinism.rs"), Some(FileKind::Test));
        assert_eq!(
            classify("crates/hw/tests/properties.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(classify("examples/quickstart.rs"), None);
        assert_eq!(classify("crates/hw/src/soc.txt"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/bad.rs"), None);
    }

    #[test]
    fn d1_flags_entropy_and_clocks() {
        let f = lib_file("let r = thread_rng();\nlet t = Instant::now();");
        let v = check_file(&f, FileKind::Library);
        assert_eq!(v.iter().filter(|v| v.rule == "D1").count(), 2);
    }

    #[test]
    fn d1_ignores_tests_and_comments() {
        let f = lib_file("// thread_rng in a comment\n#[cfg(test)]\nmod tests {\n fn t() { let r = thread_rng(); }\n}");
        assert!(check_file(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn d1_reports_std_env_once() {
        let f = lib_file("let v = std::env::var(\"X\");");
        let v = check_file(&f, FileKind::Library);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn d2_flags_raw_threads_outside_exec() {
        let f = lib_file("crossbeam::thread::scope(|s| { s.spawn(|_| work()); });");
        let v = check_file(&f, FileKind::Library);
        // One violation even though the line matches several needles.
        assert_eq!(v.iter().filter(|v| v.rule == "D2").count(), 1, "{v:?}");
        let f = lib_file("let h = std::thread::spawn(work);");
        assert_eq!(check_file(&f, FileKind::Library)[0].rule, "D2");
    }

    #[test]
    fn d2_exempts_exec_and_tests_and_accepts_waivers() {
        let exec = SourceFile::parse(
            "crates/tensor/src/exec.rs",
            "crossbeam::thread::scope(|s| {});",
        );
        assert!(check_file(&exec, FileKind::Library)
            .iter()
            .all(|v| v.rule != "D2"));
        let f = lib_file("#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(w); }\n}");
        assert!(check_file(&f, FileKind::Library).is_empty());
        let f = lib_file(
            "// lint:allow(D2): bounded one-off helper thread, joined below\nlet h = std::thread::spawn(work);",
        );
        assert!(check_file(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn e1_flags_unwrap_in_fallible_fns_only() {
        let f = lib_file(
            "pub fn fragile(x: Option<u32>) -> FrameOutcome<u32> {\n\
             \x20   let v = x.unwrap();\n\
             \x20   helper().expect(\"boom\");\n\
             \x20   Ok(v)\n\
             }\n\
             pub fn infallible(x: Option<u32>) -> u32 {\n\
             \x20   x.unwrap()\n\
             }\n",
        );
        let v = check_file(&f, FileKind::Library);
        let e1: Vec<_> = v.iter().filter(|v| v.rule == "E1").collect();
        assert_eq!(e1.len(), 2, "{v:?}");
        assert_eq!(e1[0].line, 2);
        assert_eq!(e1[1].line, 3);
    }

    #[test]
    fn e1_reads_multiline_signatures_and_error_returns() {
        let f = lib_file(
            "pub fn long(\n\
             \x20   a: usize,\n\
             ) -> Result<(), SoloError> {\n\
             \x20   a.checked_add(1).unwrap();\n\
             \x20   Ok(())\n\
             }\n",
        );
        let v = check_file(&f, FileKind::Library);
        assert_eq!(v.iter().filter(|v| v.rule == "E1").count(), 1, "{v:?}");
    }

    #[test]
    fn e1_stops_at_the_body_end_and_honors_waivers() {
        // The unwrap after the fallible fn's body is not E1 (it is P1).
        let f = lib_file(
            "fn ok() -> FrameOutcome<()> {\n\
             \x20   Ok(())\n\
             }\n\
             fn plain() { x.unwrap(); }\n",
        );
        assert!(check_file(&f, FileKind::Library)
            .iter()
            .all(|v| v.rule != "E1"));
        let f = lib_file(
            "fn w() -> FrameOutcome<()> {\n\
             \x20   // lint:allow(E1): startup-only invariant\n\
             \x20   x.unwrap();\n\
             \x20   Ok(())\n\
             }\n",
        );
        assert!(check_file(&f, FileKind::Library)
            .iter()
            .all(|v| v.rule != "E1"));
    }

    #[test]
    fn e1_ignores_trait_declarations_and_test_code() {
        let f = lib_file(
            "trait T {\n\
             \x20   fn try_it(&self) -> FrameOutcome<()>;\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() -> FrameOutcome<()> { x.unwrap(); Ok(()) }\n\
             }\n",
        );
        assert!(check_file(&f, FileKind::Library)
            .iter()
            .all(|v| v.rule != "E1"));
    }

    #[test]
    fn d2_applies_to_bench_code() {
        let f = SourceFile::parse(
            "crates/bench/src/lib.rs",
            "let h = std::thread::spawn(work);",
        );
        let v = check_file(&f, FileKind::Bench);
        assert_eq!(v.iter().filter(|v| v.rule == "D2").count(), 1, "{v:?}");
    }

    #[test]
    fn d2_ignores_unrelated_thread_apis() {
        let f = lib_file("let n = std::thread::available_parallelism();");
        assert!(check_file(&f, FileKind::Library)
            .iter()
            .all(|v| v.rule != "D2"));
    }

    #[test]
    fn p1_requires_waiver() {
        let f = lib_file("let x = map.get(k).unwrap();");
        assert_eq!(check_file(&f, FileKind::Library)[0].rule, "P1");
        let f = lib_file("let x = map.get(k).unwrap(); // lint:allow(P1): key inserted above");
        assert!(check_file(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn p1_skips_unwrap_or_variants() {
        let f = lib_file("let x = v.unwrap_or_else(|| 3).max(v.unwrap_or(2));");
        assert!(check_file(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn u1_flags_raw_unit_params_in_hw_only() {
        let src = "pub fn set_budget(&mut self, budget_us: f64) {}";
        let hw = SourceFile::parse("crates/hw/src/gpu.rs", src);
        let v = check_file(&hw, FileKind::Library);
        assert!(v.iter().any(|v| v.rule == "U1"), "{v:?}");
        let core = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(check_file(&core, FileKind::Library)
            .iter()
            .all(|v| v.rule != "U1"));
    }

    #[test]
    fn u1_allows_units_rs_constructors_and_private_fns() {
        let units = SourceFile::parse(
            "crates/hw/src/units.rs",
            "pub fn from_us(raw_us: f64) -> Self {}",
        );
        assert!(check_file(&units, FileKind::Library).is_empty());
        let private = SourceFile::parse("crates/hw/src/gpu.rs", "fn helper(t_us: f64) {}");
        assert!(check_file(&private, FileKind::Library).is_empty());
    }

    #[test]
    fn u1_flags_unwrap_rewrap() {
        let f = SourceFile::parse(
            "crates/hw/src/soc.rs",
            "let t = Latency::from_us(a.us() + b.us());",
        );
        let v = check_file(&f, FileKind::Library);
        assert!(v.iter().any(|v| v.rule == "U1"), "{v:?}");
    }

    #[test]
    fn u1_follows_a_let_from_the_unwrap_to_its_rewrap() {
        let split = "let share_ms = (gpu.latency(g).ms() / b).min(t.ms());\n\
                     let other = 2.0;\n\
                     t = Latency::from_ms(share_ms);";
        let f = SourceFile::parse("crates/hw/src/soc.rs", split);
        let v = check_file(&f, FileKind::Library);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("U1", 3));
        assert!(v[0].message.contains("let share_ms"), "{v:?}");
        // A rewrap of an unrelated name, or of the name in another unit,
        // is not the round trip.
        let unrelated = "let share_ms = t.ms();\n\
                         let a = Latency::from_ms(budget_ms);\n\
                         let b = Latency::from_us(share_ms);";
        let f = SourceFile::parse("crates/hw/src/soc.rs", unrelated);
        assert!(check_file(&f, FileKind::Library).is_empty());
        let waived = "let share_ms = t.ms();\n\
                      // lint:allow(U1): kept for bit-identical archives\n\
                      t = Latency::from_ms(share_ms);";
        let f = SourceFile::parse("crates/hw/src/soc.rs", waived);
        assert!(check_file(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn c1_flags_arithmetic_casts() {
        let f = SourceFile::parse("crates/hw/src/sensor.rs", "let n = (w * h / 4) as usize;");
        let v = check_file(&f, FileKind::Library);
        assert!(v.iter().any(|v| v.rule == "C1"), "{v:?}");
    }

    #[test]
    fn c1_ignores_plain_casts_and_other_crates() {
        let f = SourceFile::parse("crates/hw/src/sensor.rs", "let n = width as usize;");
        assert!(check_file(&f, FileKind::Library)
            .iter()
            .all(|v| v.rule != "C1"));
        let f = SourceFile::parse("crates/core/src/x.rs", "let n = (w * h) as usize;");
        assert!(check_file(&f, FileKind::Library)
            .iter()
            .all(|v| v.rule != "C1"));
    }

    #[test]
    fn bench_code_is_exempt_from_d1_and_p1() {
        let f = SourceFile::parse(
            "crates/bench/src/lib.rs",
            "let q = std::env::args().next().unwrap();",
        );
        assert!(check_file(&f, FileKind::Bench).is_empty());
    }
}
