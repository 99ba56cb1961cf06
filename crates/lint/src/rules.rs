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
//! `D1`/`D2`/`U1`/`P1`/`C1`/`E1` are the per-file rules defined here;
//! `P2`/`X1`/`S1` are the flow rules in [`crate::flows`], built on the
//! call graph; `W1` is a manifest cross-check handled in
//! [`crate::manifests`]; `A1` is the stale-waiver audit run by the
//! whole-repo scan in the crate root. Every rule reads the token stream and
//! item model of [`crate::items`], so a needle like `Instant::now` matches
//! its tokens whatever whitespace or line breaks sit between them. Rules
//! report raw violations; the whole-repo scan applies the
//! `// lint:allow(RULE): reason` waivers centrally.

use crate::items::{group_end, let_end, let_name, nesting, FileItems};
use crate::lexer::{lex, Token};

/// One rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Index of the token the violation points at in its file's token
    /// stream (0 for the manifest rules).
    pub token: usize,
    /// Rule id: one of `D1`, `D2`, `U1`, `P1`, `P2`, `C1`, `E1`, `S1`,
    /// `X1`, `W1`, `A1`.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    /// A violation of `rule` at token `i` of `file`.
    pub(crate) fn at(file: &FileItems, i: usize, rule: &'static str, message: String) -> Violation {
        Violation {
            file: file.file.clone(),
            line: file.tokens.get(i).map_or(0, |t| t.line),
            token: i,
            rule,
            message,
        }
    }
}

/// A needle spelled as tokens (`"Instant::now"` is `Instant`, `:`, `:`,
/// `now`), so a match ignores the whitespace between them. As in a
/// substring search, an identifier that starts the needle may carry a
/// prefix and one that ends it a suffix (`thread_rng` also matches
/// `my_thread_rng`, `env::var` also matches `env::vars`).
pub(crate) struct Pattern(Vec<String>);

impl Pattern {
    /// Lexes `needle` into its token texts.
    pub fn new(needle: &str) -> Pattern {
        Pattern(lex(needle).tokens.into_iter().map(|t| t.text).collect())
    }

    /// Whether the needle is spelled starting at token `i`.
    pub fn at(&self, tokens: &[Token], i: usize) -> bool {
        let last = self.0.len() - 1;
        tokens.get(i..=i + last).is_some_and(|ts| {
            ts.iter().zip(&self.0).enumerate().all(|(k, (t, p))| {
                let p = p.as_str();
                match (k == 0, k == last) {
                    _ if !p.starts_with(|c: char| c.is_alphabetic() || c == '_') => t.text == p,
                    (true, true) => t.text.contains(p),
                    (true, false) => t.text.ends_with(p),
                    (false, true) => t.text.starts_with(p),
                    (false, false) => t.text == p,
                }
            })
        })
    }

    /// Whether the needle is spelled just before token `i`.
    pub fn before(&self, tokens: &[Token], i: usize) -> bool {
        i >= self.0.len() && self.at(tokens, i - self.0.len())
    }

    /// Where the needle's first identifier lands for a match at `i` (a
    /// method needle like `.unwrap()` points at `unwrap`).
    pub fn anchor(&self, i: usize) -> usize {
        i + self
            .0
            .iter()
            .position(|t| t.starts_with(char::is_alphabetic))
            .unwrap_or(0)
    }
}

/// Anchors of every match of `needle` in `file` outside test regions.
pub(crate) fn hits(file: &FileItems, needle: &str) -> Vec<usize> {
    let pat = Pattern::new(needle);
    (0..file.tokens.len())
        .filter(|&i| pat.at(&file.tokens, i))
        .map(|i| pat.anchor(i))
        .filter(|&i| !file.in_test(i))
        .collect()
}

/// The panic sources P1 flags and P2 chases, as written in messages.
pub(crate) const PANICS: &[&str] = &[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"];

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

/// Runs every per-file rule applicable to `file`. Waivers are not applied:
/// the whole-repo scan filters centrally so it can track which waivers
/// still fire (the stale-waiver audit needs the pre-filter view).
pub fn check_file_raw(file: &FileItems, kind: FileKind) -> Vec<Violation> {
    let mut violations = Vec::new();
    if kind == FileKind::Library {
        determinism(file, &mut violations);
        panic_policy(file, &mut violations);
    }
    if matches!(kind, FileKind::Library | FileKind::Bench) {
        thread_discipline(file, &mut violations);
        error_path_hygiene(file, &mut violations);
    }
    if file.file.starts_with("crates/hw/src/") {
        unit_safety(file, &mut violations);
    }
    if file.file.starts_with("crates/hw/src/") || file.file == "crates/sampler/src/index_map.rs" {
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
        waiver:
            "// lint:allow(P2): <justification> (a P1/E1 waiver on the statement also satisfies P2)",
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
                    statement no longer trips its rule is deleted, keeping the ratchet honest",
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
fn determinism(file: &FileItems, out: &mut Vec<Violation>) {
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
    let std = Pattern::new("std::");
    for (needle, why) in FORBIDDEN {
        for i in hits(file, needle) {
            // `env::var`/`env::args` would double-report paths already
            // caught by the broader `std::env::` pattern.
            if needle.starts_with("env::") && std.before(&file.tokens, i) {
                continue;
            }
            out.push(Violation::at(
                file,
                i,
                "D1",
                format!("`{needle}` in library code: {why}"),
            ));
        }
    }
}

/// D2 — thread discipline: all parallelism is funneled through the shared
/// execution pool. Raw `std::thread::spawn` or `crossbeam::thread::scope`
/// anywhere outside `crates/tensor/src/exec.rs` (the pool's own dispatch
/// plumbing) requires a waiver.
fn thread_discipline(file: &FileItems, out: &mut Vec<Violation>) {
    if file.file == "crates/tensor/src/exec.rs" {
        return;
    }
    // `crossbeam::thread::scope(…)` matches two needles but is one path:
    // its `thread::scope` half is skipped.
    let crossbeam = Pattern::new("crossbeam::");
    for needle in ["thread::spawn", "thread::scope", "crossbeam::thread"] {
        for i in hits(file, needle) {
            if needle.starts_with("thread") && crossbeam.before(&file.tokens, i) {
                continue;
            }
            out.push(Violation::at(
                file,
                i,
                "D2",
                format!(
                    "`{needle}` outside solo-tensor::exec: route parallelism through the \
                     shared pool (`exec::pool()`), or waive with `// lint:allow(D2): <reason>`"
                ),
            ));
        }
    }
}

/// P1 — panic policy: `panic!`/`unwrap()`/`expect(`/`todo!`/
/// `unimplemented!` in library code requires a waiver with a reason.
fn panic_policy(file: &FileItems, out: &mut Vec<Violation>) {
    for needle in PANICS {
        for i in hits(file, needle) {
            out.push(Violation::at(
                file,
                i,
                "P1",
                format!(
                    "`{}` in library code needs `// lint:allow(P1): <reason>` or a Result",
                    needle.trim_start_matches('.')
                ),
            ));
        }
    }
}

/// U1 — unit safety (`crates/hw` only): public functions must not take
/// raw `f64` parameters with unit-suffixed names (use the `Latency`/
/// `Energy` newtypes), and quantities must not be unwrapped to `f64` just
/// to be rewrapped — inside the rewrap's arguments, or through any earlier
/// `let` in the file that holds the unwrapped value.
fn unit_safety(file: &FileItems, out: &mut Vec<Violation>) {
    // units.rs defines the newtypes; its constructors must take raw f64
    // and its operator impls legitimately unwrap and rewrap.
    if file.file == "crates/hw/src/units.rs" {
        return;
    }
    const SUFFIXES: &[&str] = &["_us", "_ms", "_ns", "_uj", "_mj", "_cycles"];
    const REWRAP: &[(&str, &str)] = &[
        (".us()", "Latency::from_us("),
        (".ms()", "Latency::from_ms("),
        (".uj()", "Energy::from_uj("),
        (".mj()", "Energy::from_mj("),
    ];
    let tokens = &file.tokens;
    let (public, public_crate) = (Pattern::new("pub"), Pattern::new("pub(crate)"));
    let raw_f64 = Pattern::new(": f64");
    for f in file.fns.iter().filter(|f| !f.is_test) {
        if !public.before(tokens, f.sig.0) && !public_crate.before(tokens, f.sig.0) {
            continue;
        }
        for i in f.sig.0..f.sig.1 {
            let Some(suffix) = SUFFIXES
                .iter()
                .find(|s| tokens[i].text.len() > s.len() && tokens[i].text.ends_with(*s))
            else {
                continue;
            };
            if raw_f64.at(tokens, i + 1) {
                out.push(Violation::at(
                    file,
                    i,
                    "U1",
                    format!(
                        "public fn takes raw `f64` parameter `…{suffix}`: use the unit newtypes from units.rs"
                    ),
                ));
            }
        }
    }
    let rewraps: Vec<(&str, Pattern, &str, Pattern)> = REWRAP
        .iter()
        .map(|&(u, r)| (u, Pattern::new(u), r, Pattern::new(r)))
        .collect();
    let contains = |lo: usize, hi: usize, p: &Pattern| (lo..hi).any(|j| p.at(tokens, j));
    // `let` names holding an unwrapped quantity, with their unwrap needle.
    let mut unwrapped: Vec<(&str, &str)> = Vec::new();
    for i in (0..tokens.len()).filter(|&i| !file.in_test(i)) {
        if let Some(name) = tokens[i]
            .is_ident("let")
            .then(|| let_name(tokens, i))
            .flatten()
        {
            let end = let_end(tokens, i);
            for (unwrap, unwrap_pat, _, _) in &rewraps {
                if contains(i, end, unwrap_pat) {
                    unwrapped.push((name, unwrap));
                }
            }
        }
        for (unwrap, unwrap_pat, rewrap, rewrap_pat) in &rewraps {
            if !rewrap_pat.at(tokens, i) {
                continue;
            }
            let open = i + rewrap_pat.0.len() - 1;
            let args = (open + 1, group_end(tokens, open));
            let direct = contains(args.0, args.1, unwrap_pat);
            let split = unwrapped.iter().find(|(name, u)| {
                u == unwrap && (args.0..args.1).any(|j| tokens[j].is_ident(name))
            });
            if direct || split.is_some() {
                let via = split
                    .filter(|_| !direct)
                    .map_or(String::new(), |(name, _)| format!(" via `let {name}`"));
                out.push(Violation::at(
                    file,
                    i,
                    "U1",
                    format!(
                        "unwrap-rewrap `{unwrap}` → `{rewrap}…)`{via}: keep the quantity in its newtype"
                    ),
                ));
            }
        }
    }
}

/// C1 — cast safety: in the hardware models and the sampler's index-map
/// hot path, truncating casts (`as usize`/`as u32`/`as u64`) directly on
/// arithmetic expressions are flagged — round or clamp explicitly first.
fn cast_safety(file: &FileItems, out: &mut Vec<Violation>) {
    for cast in ["as usize", "as u32", "as u64"] {
        for i in hits(file, cast) {
            if !operand_is_sanctioned(&file.tokens, i) && operand_has_arithmetic(&file.tokens, i) {
                out.push(Violation::at(
                    file,
                    i,
                    "C1",
                    format!(
                        "truncating `{cast}` on an arithmetic expression: round/clamp explicitly"
                    ),
                ));
            }
        }
    }
}

/// E1 — error-path hygiene: a function whose return type mentions
/// `FrameOutcome` or `SoloError` is on the typed fault-propagation path,
/// so its body (closures and nested items included) must not call
/// `.unwrap()` or `.expect(` — faults travel as values, not panics.
fn error_path_hygiene(file: &FileItems, out: &mut Vec<Violation>) {
    let tokens = &file.tokens;
    let arrow = Pattern::new("->");
    let mut flagged = std::collections::BTreeMap::new();
    for f in file.fns.iter().filter(|f| f.body.0 < f.body.1) {
        let fallible = (f.sig.0..f.sig.1)
            .find(|&i| arrow.at(tokens, i) && tokens[i].span.1 == tokens[i + 1].span.0)
            .is_some_and(|i| {
                (i..f.sig.1)
                    .any(|j| tokens[j].is_ident("FrameOutcome") || tokens[j].is_ident("SoloError"))
            });
        if !fallible {
            continue;
        }
        for needle in &PANICS[..2] {
            for i in hits(file, needle)
                .into_iter()
                .filter(|&i| f.body.0 <= i && i < f.body.1)
            {
                flagged.insert(i, needle);
            }
        }
    }
    for (i, needle) in flagged {
        out.push(Violation::at(
            file,
            i,
            "E1",
            format!(
                "`{}` inside a `FrameOutcome`/`SoloError` function: propagate \
                 with `?` or map to a `SoloError`",
                needle.trim_start_matches('.')
            ),
        ));
    }
}

/// Whether the cast operand before the `as` at `cast` already ends in an
/// explicit rounding/clamping call — `(a * b).round() as u64` is the
/// sanctioned form C1 asks for.
fn operand_is_sanctioned(tokens: &[Token], cast: usize) -> bool {
    const SANCTIONED: &[&str] = &["round", "floor", "ceil", "trunc", "clamp", "min", "max"];
    if cast == 0 || !tokens[cast - 1].is_punct(')') {
        return false;
    }
    // Find the matching open paren of the trailing call.
    let mut depth = 0i32;
    for j in (0..cast).rev() {
        depth -= nesting(&tokens[j]);
        if depth == 0 {
            return j > 0 && SANCTIONED.iter().any(|s| tokens[j - 1].is_ident(s));
        }
    }
    false
}

/// Scans the cast operand (the expression before the `as` at `cast`)
/// backwards for arithmetic operators, up to the operand's boundary: a
/// `,`, `;`, `=`, `{`, `}`, `&` or `|` outside brackets, or the enclosing
/// group's open bracket.
fn operand_has_arithmetic(tokens: &[Token], cast: usize) -> bool {
    let mut depth = 0i32;
    let mut seen_arith = false;
    for j in (0..cast).rev() {
        let t = &tokens[j];
        if !t.is_punct('{') && !t.is_punct('}') {
            depth -= nesting(t);
            if depth < 0 {
                break; // left the operand's enclosing group
            }
        }
        match t.text.as_str() {
            "," | ";" | "=" | "{" | "}" | "&" | "|" if depth == 0 => break,
            "+" | "*" | "/" | "%" => seen_arith = true,
            // `->` is not arithmetic.
            "-" => seen_arith |= !tokens[j + 1].is_punct('>') || tokens[j + 1].span.0 != t.span.1,
            _ => {}
        }
    }
    seen_arith
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn lib_file(src: &str) -> FileItems {
        parse_file("crates/core/src/x.rs", src)
    }

    /// The per-file rules with waivers applied, as the whole-repo scan
    /// filters them.
    fn check(file: &FileItems, kind: FileKind) -> Vec<Violation> {
        let mut violations = check_file_raw(file, kind);
        violations.retain(|v| file.waiver(v.rule, v.token).is_none());
        violations
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
        let v = check(&f, FileKind::Library);
        assert_eq!(v.iter().filter(|v| v.rule == "D1").count(), 2);
    }

    #[test]
    fn d1_ignores_tests_and_comments() {
        let f = lib_file("// thread_rng in a comment\n#[cfg(test)]\nmod tests {\n fn t() { let r = thread_rng(); }\n}");
        assert!(check(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn d1_reports_std_env_once() {
        let f = lib_file("let v = std::env::var(\"X\");");
        let v = check(&f, FileKind::Library);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn d2_flags_raw_threads_outside_exec() {
        let f = lib_file("crossbeam::thread::scope(|s| { s.spawn(|_| work()); });");
        let v = check(&f, FileKind::Library);
        // One violation even though the line matches several needles.
        assert_eq!(v.iter().filter(|v| v.rule == "D2").count(), 1, "{v:?}");
        let f = lib_file("let h = std::thread::spawn(work);");
        assert_eq!(check(&f, FileKind::Library)[0].rule, "D2");
    }

    #[test]
    fn d2_exempts_exec_and_tests_and_accepts_waivers() {
        let exec = parse_file(
            "crates/tensor/src/exec.rs",
            "crossbeam::thread::scope(|s| {});",
        );
        assert!(check(&exec, FileKind::Library)
            .iter()
            .all(|v| v.rule != "D2"));
        let f = lib_file("#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(w); }\n}");
        assert!(check(&f, FileKind::Library).is_empty());
        let f = lib_file(
            "// lint:allow(D2): bounded one-off helper thread, joined below\nlet h = std::thread::spawn(work);",
        );
        assert!(check(&f, FileKind::Library).is_empty());
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
        let v = check(&f, FileKind::Library);
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
        let v = check(&f, FileKind::Library);
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
        assert!(check(&f, FileKind::Library).iter().all(|v| v.rule != "E1"));
        let f = lib_file(
            "fn w() -> FrameOutcome<()> {\n\
             \x20   // lint:allow(E1): startup-only invariant\n\
             \x20   x.unwrap();\n\
             \x20   Ok(())\n\
             }\n",
        );
        assert!(check(&f, FileKind::Library).iter().all(|v| v.rule != "E1"));
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
        assert!(check(&f, FileKind::Library).iter().all(|v| v.rule != "E1"));
    }

    #[test]
    fn d2_applies_to_bench_code() {
        let f = parse_file(
            "crates/bench/src/lib.rs",
            "let h = std::thread::spawn(work);",
        );
        let v = check(&f, FileKind::Bench);
        assert_eq!(v.iter().filter(|v| v.rule == "D2").count(), 1, "{v:?}");
    }

    #[test]
    fn d2_ignores_unrelated_thread_apis() {
        let f = lib_file("let n = std::thread::available_parallelism();");
        assert!(check(&f, FileKind::Library).iter().all(|v| v.rule != "D2"));
    }

    #[test]
    fn p1_requires_waiver() {
        let f = lib_file("let x = map.get(k).unwrap();");
        assert_eq!(check(&f, FileKind::Library)[0].rule, "P1");
        let f = lib_file("let x = map.get(k).unwrap(); // lint:allow(P1): key inserted above");
        assert!(check(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn p1_skips_unwrap_or_variants() {
        let f = lib_file("let x = v.unwrap_or_else(|| 3).max(v.unwrap_or(2));");
        assert!(check(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn u1_flags_raw_unit_params_in_hw_only() {
        let src = "pub fn set_budget(&mut self, budget_us: f64) {}";
        let hw = parse_file("crates/hw/src/gpu.rs", src);
        let v = check(&hw, FileKind::Library);
        assert!(v.iter().any(|v| v.rule == "U1"), "{v:?}");
        let core = parse_file("crates/core/src/x.rs", src);
        assert!(check(&core, FileKind::Library)
            .iter()
            .all(|v| v.rule != "U1"));
    }

    #[test]
    fn u1_allows_units_rs_constructors_and_private_fns() {
        let units = parse_file(
            "crates/hw/src/units.rs",
            "pub fn from_us(raw_us: f64) -> Self {}",
        );
        assert!(check(&units, FileKind::Library).is_empty());
        let private = parse_file("crates/hw/src/gpu.rs", "fn helper(t_us: f64) {}");
        assert!(check(&private, FileKind::Library).is_empty());
    }

    #[test]
    fn u1_flags_unwrap_rewrap() {
        let f = parse_file(
            "crates/hw/src/soc.rs",
            "let t = Latency::from_us(a.us() + b.us());",
        );
        let v = check(&f, FileKind::Library);
        assert!(v.iter().any(|v| v.rule == "U1"), "{v:?}");
    }

    #[test]
    fn u1_follows_a_let_from_the_unwrap_to_its_rewrap() {
        let split = "let share_ms = (gpu.latency(g).ms() / b).min(t.ms());\n\
                     let other = 2.0;\n\
                     t = Latency::from_ms(share_ms);";
        let f = parse_file("crates/hw/src/soc.rs", split);
        let v = check(&f, FileKind::Library);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("U1", 3));
        assert!(v[0].message.contains("let share_ms"), "{v:?}");
        // A rewrap of an unrelated name, or of the name in another unit,
        // is not the round trip.
        let unrelated = "let share_ms = t.ms();\n\
                         let a = Latency::from_ms(budget_ms);\n\
                         let b = Latency::from_us(share_ms);";
        let f = parse_file("crates/hw/src/soc.rs", unrelated);
        assert!(check(&f, FileKind::Library).is_empty());
        let waived = "let share_ms = t.ms();\n\
                      // lint:allow(U1): kept for bit-identical archives\n\
                      t = Latency::from_ms(share_ms);";
        let f = parse_file("crates/hw/src/soc.rs", waived);
        assert!(check(&f, FileKind::Library).is_empty());
    }

    #[test]
    fn c1_flags_arithmetic_casts() {
        let f = parse_file("crates/hw/src/sensor.rs", "let n = (w * h / 4) as usize;");
        let v = check(&f, FileKind::Library);
        assert!(v.iter().any(|v| v.rule == "C1"), "{v:?}");
    }

    #[test]
    fn c1_ignores_plain_casts_and_other_crates() {
        let f = parse_file("crates/hw/src/sensor.rs", "let n = width as usize;");
        assert!(check(&f, FileKind::Library).iter().all(|v| v.rule != "C1"));
        let f = parse_file("crates/core/src/x.rs", "let n = (w * h) as usize;");
        assert!(check(&f, FileKind::Library).iter().all(|v| v.rule != "C1"));
    }

    #[test]
    fn bench_code_is_exempt_from_d1_and_p1() {
        let f = parse_file(
            "crates/bench/src/lib.rs",
            "let q = std::env::args().next().unwrap();",
        );
        assert!(check(&f, FileKind::Bench).is_empty());
    }
}
