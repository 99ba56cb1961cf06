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
//! All three read the token stream and item model and return **raw**
//! violations — the whole-repo scan applies waivers centrally so the
//! stale-waiver audit can see which waivers fired.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::items::{group_end, let_end, let_name, nesting, statement_start, FileItems, FnItem};
use crate::rules::{Pattern, Violation, PANICS};

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
/// `assert!(cond, "why")` is a sanctioned documented one). Tokens already
/// waived for P1 or E1 are skipped — those waivers state the
/// unreachability argument P2 wants.
pub fn panic_reachability(
    graph: &CallGraph,
    reach: &[Option<usize>],
    files: &BTreeMap<String, FileItems>,
) -> Vec<Violation> {
    let panics: Vec<(&str, Pattern)> = PANICS.iter().map(|n| (*n, Pattern::new(n))).collect();
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let (Some(root), Some(file)) = (reach[i], files.get(&f.file)) else {
            continue;
        };
        let root_path = graph.fns[root].path();
        let tokens = &file.tokens;
        let (lo, hi) = f.span();
        let skip = |j: usize| {
            file.in_test(j) || file.waiver("P1", j).is_some() || file.waiver("E1", j).is_some()
        };
        for (needle, pat) in &panics {
            for j in (lo..hi)
                .filter(|&j| pat.at(tokens, j))
                .map(|j| pat.anchor(j))
            {
                if !skip(j) {
                    out.push(p2(file, j, f, needle.trim_start_matches('.'), &root_path));
                }
            }
        }
        for j in (lo..hi).filter(|&j| !skip(j)) {
            let min_args = match tokens[j].text.as_str() {
                "assert" => 2,
                "assert_eq" | "assert_ne" => 3,
                _ => continue,
            };
            if !Pattern::new("!(").at(tokens, j + 1) {
                continue;
            }
            // The arguments are the group's top-level commas, plus one.
            let mut depth = 0;
            let args = 1
                + (j + 2..group_end(tokens, j + 2))
                    .filter(|&k| {
                        depth += nesting(&tokens[k]);
                        depth == 1 && tokens[k].is_punct(',')
                    })
                    .count();
            if args < min_args {
                let what = format!("message-less {}!(…)", tokens[j].text);
                out.push(p2(file, j, f, &what, &root_path));
            }
        }
    }
    out
}

fn p2(file: &FileItems, i: usize, f: &FnItem, what: &str, root: &str) -> Violation {
    Violation::at(
        file,
        i,
        "P2",
        format!(
            "`{what}` in `{}` is reachable from hot-path root `{root}`: return an error, \
             add a message documenting the precondition, or waive",
            f.path()
        ),
    )
}

/// X1 — scratch lifecycle. Every `take_buf`/`take_buf_at` handout must sit
/// in a `let` statement binding a name, and within the enclosing
/// function's span some statement must both mention that name and either
/// return it to the pool via `recycle_buf` or transfer custody into a
/// tensor via `from_vec(…)` (the pool reclaims it when the tensor's
/// storage is recycled). Anything else — including handouts that escape
/// by `return` — needs a waiver naming who recycles.
pub fn scratch_lifecycle(file: &FileItems) -> Vec<Violation> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let handout = (tokens[i].is_ident("take_buf") || tokens[i].is_ident("take_buf_at"))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        // The definition site in exec.rs is not a handout.
        if !handout || file.in_test(i) || (i > 0 && tokens[i - 1].is_ident("fn")) {
            continue;
        }
        // The innermost `let` statement holding the handout.
        let name = (0..i)
            .rev()
            .find(|&k| tokens[k].is_ident("let") && let_end(tokens, k) > i)
            .and_then(|k| let_name(tokens, k));
        let Some(name) = name else {
            out.push(Violation::at(
                file,
                i,
                "X1",
                "`take_buf` handout is not a `let` binding: bind the buffer so its \
                 return to the pool is trackable, or waive"
                    .to_string(),
            ));
            continue;
        };
        let (lo, hi) = file.enclosing_fn(i).map_or((0, tokens.len()), FnItem::span);
        // Statements split at `;`, `{` and `}`.
        let satisfied = tokens[lo..hi]
            .split(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
            .any(|stmt| {
                let returns = stmt.iter().enumerate().any(|(k, t)| {
                    t.is_ident("recycle_buf")
                        || (t.is_ident("from_vec")
                            && stmt.get(k + 1).is_some_and(|n| n.is_punct('(')))
                });
                returns && stmt.iter().any(|t| t.is_ident(name))
            });
        if !satisfied {
            out.push(Violation::at(
                file,
                i,
                "X1",
                format!(
                    "scratch buffer `{name}` from `take_buf` never reaches `recycle_buf` or \
                     `from_vec` in this function: leaked handouts show up as \
                     `ExecStats::live_bytes` growth"
                ),
            ));
        }
    }
    out
}

/// S1 — unsafe audit. Every `unsafe` token must sit in an allow-listed
/// file *and* carry a SAFETY justification: a comment containing "SAFETY"
/// or "# Safety" before the `unsafe` token within its statement or item,
/// attributes and doc comments included.
pub fn unsafe_audit(file: &FileItems) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in (0..file.tokens.len()).filter(|&i| file.tokens[i].is_ident("unsafe")) {
        if file.in_test(i) {
            continue;
        }
        if !UNSAFE_ALLOWED.contains(&file.file.as_str()) {
            out.push(Violation::at(
                file,
                i,
                "S1",
                format!(
                    "`unsafe` outside the allow-listed modules ({}): rewrite in safe Rust \
                     or grow the allow-list in crates/lint/src/flows.rs deliberately",
                    UNSAFE_ALLOWED.join(", ")
                ),
            ));
        } else if !has_safety_comment(file, i) {
            out.push(Violation::at(
                file,
                i,
                "S1",
                "`unsafe` without a SAFETY comment: state the proof obligations \
                 being discharged directly above the block"
                    .to_string(),
            ));
        }
    }
    out
}

/// Whether a comment containing "safety" (any case) precedes the `unsafe`
/// at token `u` within its statement: the comments from the statement's
/// first token (attributes included) up to `u`, less the trailing comment
/// of the statement before.
fn has_safety_comment(file: &FileItems, u: usize) -> bool {
    let start = statement_start(&file.tokens, u);
    file.comments.iter().any(|c| {
        start <= c.next
            && c.next <= u
            && !(c.trailing && c.next == start)
            && c.text.to_ascii_lowercase().contains("safety")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn file(rel: &str, src: &str) -> FileItems {
        parse_file(rel, src)
    }

    #[test]
    fn x1_flags_leaks_and_accepts_recycle_or_custody() {
        let sf = file(
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
        let v = scratch_lifecycle(&sf);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("buf"));
    }

    #[test]
    fn x1_scope_is_the_enclosing_fn_not_the_file() {
        // `buf` recycled in a *different* function does not satisfy the
        // handout in `leaky`.
        let sf = file(
            "crates/nn/src/x.rs",
            "fn leaky(n: usize) {\n\
             \x20   let buf = exec::take_buf(n);\n\
             }\n\
             fn other(buf: Vec<f32>) {\n\
             \x20   exec::recycle_buf(buf);\n\
             }\n",
        );
        let v = scratch_lifecycle(&sf);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn x1_skips_the_definition_and_unbound_handouts_are_flagged() {
        let sf = file(
            "crates/tensor/src/exec.rs",
            "pub fn take_buf(len: usize) -> Vec<f32> {\n\
             \x20   Vec::new()\n\
             }\n\
             fn sneaky(n: usize) {\n\
             \x20   consume(take_buf(n));\n\
             }\n",
        );
        let v = scratch_lifecycle(&sf);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("not a `let` binding"));
    }

    #[test]
    fn s1_requires_allow_list_and_safety_comment() {
        let outside = file(
            "crates/core/src/x.rs",
            "fn f() {\n    unsafe { danger() }\n}\n",
        );
        let v = unsafe_audit(&outside);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("allow-listed"));

        let bare = file(
            "crates/tensor/src/packed.rs",
            "fn f() {\n    unsafe { danger() }\n}\n",
        );
        let v = unsafe_audit(&bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SAFETY"));

        let documented = file(
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
        let simd = file(
            "crates/tensor/src/packed/simd.rs",
            "fn f() {\n\
             \x20   // SAFETY: caller checked avx2 via level().\n\
             \x20   #[allow(unsafe_code)]\n\
             \x20   unsafe { danger() }\n\
             }\n",
        );
        assert!(unsafe_audit(&simd).is_empty());
        let simd_bare = file(
            "crates/tensor/src/packed/simd.rs",
            "fn f() {\n    unsafe { danger() }\n}\n",
        );
        let v = unsafe_audit(&simd_bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SAFETY"));
    }

    #[test]
    fn s1_accepts_doc_safety_sections_and_skips_attr_mentions() {
        let doc = file(
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
        let attr = file("crates/core/src/x.rs", "#![deny(unsafe_code)]\nfn f() {}\n");
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
            sig: (0, 0),
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
