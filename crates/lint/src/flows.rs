//! The flow-sensitive rules: P2 (panic reachability), X1 (scratch-buffer
//! lifecycle), and S1 (unsafe audit).
//!
//! These sit on top of the lexer → items → call-graph pipeline. P2 is
//! whole-workspace: it walks the [`CallGraph`] from the streaming hot-path
//! roots and inspects every reachable function. X1 and S1 are per-file but
//! item-aware: X1 pairs each `take_buf` handout with a `recycle_buf` (or a
//! custody transfer) *within the enclosing function's span*, and S1 audits
//! every `unsafe` token against its SAFETY comment and the module
//! allow-list.
//!
//! All three return **raw** violations — the whole-repo scan applies
//! waivers centrally so the stale-waiver audit can see which waivers fired.

use crate::callgraph::CallGraph;
use crate::items::{FileItems, FnItem};
use crate::rules::Violation;
use crate::source::SourceFile;

/// Files allowed to contain `unsafe` (S1). Everything else needs the code
/// rewritten in safe Rust or the allow-list grown deliberately in review.
pub const UNSAFE_ALLOWED: &[&str] = &[
    "crates/tensor/src/packed.rs",
    "crates/tensor/src/packed/simd.rs",
];

/// Whether `f` is a P2 hot-path root: the streaming frame loop, the gaze
/// observation path, the speculation pre-warm/predict surface, the GEMM
/// kernels, and the exec dispatch surface — the call chains a per-frame
/// deadline rides on.
pub fn is_hot_root(f: &FnItem) -> bool {
    match f.self_ty.as_deref() {
        Some("StreamingEvaluator") if f.name.starts_with("run") => return true,
        Some("Ssa") if f.name == "observe" => return true,
        Some("FoveatedPipeline") if f.name.starts_with("speculate") => return true,
        Some("GazePredictor") if f.name == "predict" => return true,
        Some("PackedMatrix") if f.name.starts_with("matmul") => return true,
        Some("QPackedMatrix") if f.name.starts_with("qmatmul") => return true,
        Some("Tensor") if f.name == "qmatmul_packed" => return true,
        // The serving frame loop: every admitted user's deadline rides on
        // one tick (plain or supervised), and admission prices the
        // marginal session against it.
        Some("Server") if matches!(f.name.as_str(), "tick" | "tick_supervised" | "admit") => {
            return true
        }
        // The recovery surface rides inside the same tick deadline: the
        // supervisor's health verdicts and checkpoint restore must never
        // panic mid-frame.
        Some("Supervisor") if f.name == "tick" => return true,
        Some("Session") if f.name == "restore" => return true,
        _ => {}
    }
    if f.name == "infer_quant" {
        return true;
    }
    f.file == "crates/tensor/src/exec.rs"
        && (f.name.starts_with("par_")
            || f.name.starts_with("take_buf")
            || f.name == "recycle_buf"
            || f.name == "pool")
}

/// P2 — panic reachability. Walks `graph` from the hot-path roots
/// (`reach[i]` is the root that first reached function `i`, from
/// [`CallGraph::reachable_from`]) and flags every panic source in a
/// reachable function: P1's needle set plus *message-less* asserts
/// (`assert!(cond)` with no explanation is an undocumented precondition;
/// `assert!(cond, "why")` is a sanctioned documented one). Lines already
/// waived for P1 or E1 are skipped — those waivers state the
/// unreachability argument P2 wants.
pub fn panic_reachability(
    graph: &CallGraph,
    reach: &[Option<usize>],
    sources: &std::collections::BTreeMap<String, SourceFile>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(root) = reach[i] else {
            continue;
        };
        let Some(file) = sources.get(&f.file) else {
            continue;
        };
        let root_path = graph.fns[root].path();
        for lineno in f.line..=f.end_line.min(file.lines.len()) {
            let line = &file.lines[lineno - 1];
            if line.in_test {
                continue;
            }
            if file.waived("P1", lineno) || file.waived("E1", lineno) {
                continue;
            }
            for needle in ["panic!", ".unwrap()", ".expect(", "todo!", "unimplemented!"] {
                if let Some(col) = line.code.find(needle) {
                    if needle == "panic!" && line.code[..col].ends_with("should_") {
                        continue;
                    }
                    out.push(p2(f, lineno, needle.trim_start_matches('.'), &root_path));
                }
            }
            for mac in ["assert!", "assert_eq!", "assert_ne!"] {
                let min_args = if mac == "assert!" { 2 } else { 3 };
                for (col, _) in line.code.match_indices(mac) {
                    // `debug_assert!` never aborts a release frame.
                    if line.code[..col]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    {
                        continue;
                    }
                    let open = col + mac.len();
                    if !line.code[open..].trim_start().starts_with('(') {
                        continue;
                    }
                    if !assert_is_messaged(file, lineno - 1, open, min_args) {
                        out.push(p2(f, lineno, &format!("message-less {mac}(…)"), &root_path));
                    }
                }
            }
        }
    }
    out
}

fn p2(f: &FnItem, lineno: usize, what: &str, root: &str) -> Violation {
    Violation {
        file: f.file.clone(),
        line: lineno,
        rule: "P2",
        message: format!(
            "`{what}` in `{}` is reachable from hot-path root `{root}`: return an error, \
             add a message documenting the precondition, or waive",
            f.path()
        ),
    }
}

/// Whether the assert whose argument list opens at `(line_idx, col)` has at
/// least `min_args` top-level arguments (condition + message). Spans lines;
/// literal contents are already blanked, so commas inside strings don't
/// count.
fn assert_is_messaged(file: &SourceFile, line_idx: usize, col: usize, min_args: usize) -> bool {
    let mut depth = 0i32;
    let mut args = 1usize;
    let mut saw_open = false;
    for (li, line) in file.lines.iter().enumerate().skip(line_idx).take(40) {
        let code: &str = if li == line_idx {
            &line.code[col..]
        } else {
            &line.code
        };
        for c in code.chars() {
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    saw_open = true;
                }
                ')' | ']' | '}' => {
                    depth -= 1;
                    if saw_open && depth == 0 {
                        return args >= min_args;
                    }
                }
                ',' if depth == 1 => args += 1,
                _ => {}
            }
        }
    }
    // Unterminated scan: treat as messaged rather than guess.
    true
}

/// X1 — scratch lifecycle. Every `take_buf`/`take_buf_at` handout must be
/// a `let` binding whose buffer, within the enclosing function's span,
/// either returns to the pool via `recycle_buf(…)` or transfers custody
/// into a tensor via `from_vec(…)` (the pool reclaims it when the tensor's
/// storage is recycled). Anything else — including handouts that escape by
/// `return` — needs a waiver naming who recycles.
pub fn scratch_lifecycle(file: &SourceFile, items: &FileItems) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(col) = find_take(&line.code) else {
            continue;
        };
        // The definition site in exec.rs, not a handout.
        if line.code[..col].trim_end().ends_with("fn") {
            continue;
        }
        let lineno = idx + 1;
        let Some(name) = binding_name(&line.code) else {
            out.push(Violation {
                file: file.rel.clone(),
                line: lineno,
                rule: "X1",
                message: "`take_buf` handout is not a `let` binding: bind the buffer so its \
                          return to the pool is trackable, or waive"
                    .to_string(),
            });
            continue;
        };
        let (lo, hi) = enclosing_span(items, lineno, file.lines.len());
        let satisfied = (lo..=hi).any(|l| {
            let code = &file.lines[l - 1].code;
            (code.contains("recycle_buf") || code.contains("from_vec(")) && mentions(code, &name)
        });
        if !satisfied {
            out.push(Violation {
                file: file.rel.clone(),
                line: lineno,
                rule: "X1",
                message: format!(
                    "scratch buffer `{name}` from `take_buf` never reaches `recycle_buf` or \
                     `from_vec` in this function: leaked handouts show up as \
                     `ExecStats::live_bytes` growth"
                ),
            });
        }
    }
    out
}

/// Byte offset of a `take_buf(`/`take_buf_at(` call on the line, if any.
fn find_take(code: &str) -> Option<usize> {
    for (pos, _) in code.match_indices("take_buf") {
        let before_ok = !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &code[pos + "take_buf".len()..];
        if before_ok && (after.starts_with('(') || after.starts_with("_at(")) {
            return Some(pos);
        }
    }
    None
}

/// The name bound by a `let [mut] NAME = …` line.
pub(crate) fn binding_name(code: &str) -> Option<String> {
    let rest = code.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Whether `code` mentions `name` as a standalone identifier.
pub(crate) fn mentions(code: &str, name: &str) -> bool {
    for (pos, _) in code.match_indices(name) {
        let before_ok = !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !code[pos + name.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// The line span of the innermost function containing `lineno` (falls back
/// to the whole file when the line sits outside every parsed item, e.g. a
/// macro body the item parser skipped).
fn enclosing_span(items: &FileItems, lineno: usize, file_len: usize) -> (usize, usize) {
    items
        .fns
        .iter()
        .filter(|f| f.line <= lineno && lineno <= f.end_line)
        .map(|f| (f.line, f.end_line))
        .max_by_key(|(lo, _)| *lo)
        .unwrap_or((1, file_len))
}

/// S1 — unsafe audit. Every `unsafe` token must sit in an allow-listed
/// file *and* carry a SAFETY justification: a comment containing "SAFETY"
/// or "# Safety" on the same line or in the contiguous doc/attribute block
/// above it.
pub fn unsafe_audit(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !mentions(&line.code, "unsafe") {
            continue;
        }
        let lineno = idx + 1;
        if !UNSAFE_ALLOWED.contains(&file.rel.as_str()) {
            out.push(Violation {
                file: file.rel.clone(),
                line: lineno,
                rule: "S1",
                message: format!(
                    "`unsafe` outside the allow-listed modules ({}): rewrite in safe Rust \
                     or grow the allow-list in crates/lint/src/flows.rs deliberately",
                    UNSAFE_ALLOWED.join(", ")
                ),
            });
            continue;
        }
        if !has_safety_comment(file, idx) {
            out.push(Violation {
                file: file.rel.clone(),
                line: lineno,
                rule: "S1",
                message: "`unsafe` without a SAFETY comment: state the proof obligations \
                          being discharged directly above the block"
                    .to_string(),
            });
        }
    }
    out
}

/// Whether a comment containing "safety" (any case) sits on line `idx` or
/// in the contiguous comment/attribute block above it.
fn has_safety_comment(file: &SourceFile, idx: usize) -> bool {
    let safety = |l: &crate::source::Line| l.comment.to_ascii_lowercase().contains("safety");
    if safety(&file.lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        let code = line.code.trim();
        let is_comment = code.is_empty() && !line.comment.trim().is_empty();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !is_comment && !is_attr {
            return false;
        }
        if safety(line) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn file(rel: &str, src: &str) -> (SourceFile, FileItems) {
        let sf = SourceFile::parse(rel, src);
        let items = parse_file(rel, src, &sf);
        (sf, items)
    }

    #[test]
    fn x1_flags_leaks_and_accepts_recycle_or_custody() {
        let (sf, items) = file(
            "crates/nn/src/x.rs",
            "fn leaky(n: usize) {\n\
             \x20   let mut buf = exec::take_buf(n);\n\
             \x20   buf[0] = 1.0;\n\
             }\n\
             fn recycled(n: usize) {\n\
             \x20   let mut buf = exec::take_buf(n);\n\
             \x20   exec::recycle_buf(buf);\n\
             }\n\
             fn transferred(n: usize) -> Tensor {\n\
             \x20   let mut out = exec::take_buf_at(\"x.site\", n);\n\
             \x20   Tensor::from_vec(vec![n], out)\n\
             }\n",
        );
        let v = scratch_lifecycle(&sf, &items);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("buf"));
    }

    #[test]
    fn x1_scope_is_the_enclosing_fn_not_the_file() {
        // `buf` recycled in a *different* function does not satisfy the
        // handout in `leaky`.
        let (sf, items) = file(
            "crates/nn/src/x.rs",
            "fn leaky(n: usize) {\n\
             \x20   let buf = exec::take_buf(n);\n\
             }\n\
             fn other(buf: Vec<f32>) {\n\
             \x20   exec::recycle_buf(buf);\n\
             }\n",
        );
        let v = scratch_lifecycle(&sf, &items);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn x1_skips_the_definition_and_unbound_handouts_are_flagged() {
        let (sf, items) = file(
            "crates/tensor/src/exec.rs",
            "pub fn take_buf(len: usize) -> Vec<f32> {\n\
             \x20   Vec::new()\n\
             }\n\
             fn sneaky(n: usize) {\n\
             \x20   consume(take_buf(n));\n\
             }\n",
        );
        let v = scratch_lifecycle(&sf, &items);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("not a `let` binding"));
    }

    #[test]
    fn s1_requires_allow_list_and_safety_comment() {
        let (outside, _) = file(
            "crates/core/src/x.rs",
            "fn f() {\n    unsafe { danger() }\n}\n",
        );
        let v = unsafe_audit(&outside);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("allow-listed"));

        let (bare, _) = file(
            "crates/tensor/src/packed.rs",
            "fn f() {\n    unsafe { danger() }\n}\n",
        );
        let v = unsafe_audit(&bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SAFETY"));

        let (documented, _) = file(
            "crates/tensor/src/packed.rs",
            "fn f() {\n\
             \x20   // SAFETY: pointers derived from live slices above.\n\
             \x20   #[allow(unsafe_code)]\n\
             \x20   unsafe { danger() }\n\
             }\n",
        );
        assert!(unsafe_audit(&documented).is_empty());

        // The SIMD micro-kernel module is on the allow-list too — same
        // SAFETY-comment discipline applies.
        let (simd, _) = file(
            "crates/tensor/src/packed/simd.rs",
            "fn f() {\n\
             \x20   // SAFETY: caller checked avx2 via level().\n\
             \x20   #[allow(unsafe_code)]\n\
             \x20   unsafe { danger() }\n\
             }\n",
        );
        assert!(unsafe_audit(&simd).is_empty());
        let (simd_bare, _) = file(
            "crates/tensor/src/packed/simd.rs",
            "fn f() {\n    unsafe { danger() }\n}\n",
        );
        let v = unsafe_audit(&simd_bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SAFETY"));
    }

    #[test]
    fn s1_accepts_doc_safety_sections_and_skips_attr_mentions() {
        let (doc, _) = file(
            "crates/tensor/src/packed.rs",
            "/// Kernel.\n\
             ///\n\
             /// # Safety\n\
             ///\n\
             /// Caller upholds alignment.\n\
             #[inline]\n\
             pub unsafe fn kernel() {}\n",
        );
        assert!(unsafe_audit(&doc).is_empty());
        // `unsafe_code` inside attributes is not the `unsafe` keyword.
        let (attr, _) = file("crates/core/src/x.rs", "#![deny(unsafe_code)]\nfn f() {}\n");
        assert!(unsafe_audit(&attr).is_empty());
    }

    #[test]
    fn p2_roots_match_the_streaming_surface() {
        let root = |file: &str, ty: Option<&str>, name: &str| FnItem {
            file: file.to_string(),
            name: name.to_string(),
            self_ty: ty.map(String::from),
            line: 1,
            end_line: 1,
            body: (0, 0),
            is_test: false,
        };
        assert!(is_hot_root(&root(
            "crates/core/src/system.rs",
            Some("StreamingEvaluator"),
            "run_with_faults"
        )));
        assert!(is_hot_root(&root(
            "crates/core/src/ssa.rs",
            Some("Ssa"),
            "observe"
        )));
        assert!(is_hot_root(&root(
            "crates/tensor/src/packed.rs",
            Some("PackedMatrix"),
            "matmul_im2col"
        )));
        assert!(is_hot_root(&root(
            "crates/tensor/src/packed.rs",
            Some("QPackedMatrix"),
            "qmatmul_im2col"
        )));
        assert!(is_hot_root(&root(
            "crates/tensor/src/packed.rs",
            Some("Tensor"),
            "qmatmul_packed"
        )));
        assert!(is_hot_root(&root(
            "crates/nn/src/linear.rs",
            Some("Linear"),
            "infer_quant"
        )));
        assert!(is_hot_root(&root(
            "crates/serve/src/server.rs",
            Some("Server"),
            "tick"
        )));
        assert!(is_hot_root(&root(
            "crates/serve/src/server.rs",
            Some("Server"),
            "admit"
        )));
        assert!(is_hot_root(&root(
            "crates/serve/src/server.rs",
            Some("Server"),
            "tick_supervised"
        )));
        assert!(is_hot_root(&root(
            "crates/serve/src/supervisor.rs",
            Some("Supervisor"),
            "tick"
        )));
        assert!(is_hot_root(&root(
            "crates/serve/src/session.rs",
            Some("Session"),
            "restore"
        )));
        assert!(!is_hot_root(&root(
            "crates/serve/src/server.rs",
            Some("Server"),
            "mask_digest"
        )));
        assert!(!is_hot_root(&root(
            "crates/serve/src/supervisor.rs",
            Some("Supervisor"),
            "config"
        )));
        assert!(!is_hot_root(&root(
            "crates/serve/src/session.rs",
            Some("Session"),
            "checkpoint"
        )));
        assert!(is_hot_root(&root(
            "crates/tensor/src/exec.rs",
            None,
            "par_rows"
        )));
        assert!(!is_hot_root(&root(
            "crates/core/src/ssa.rs",
            Some("Ssa"),
            "reset"
        )));
        assert!(!is_hot_root(&root(
            "crates/nn/src/linear.rs",
            None,
            "par_rows"
        )));
    }
}
