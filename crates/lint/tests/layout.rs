//! Layout test: solo-lint's verdicts must not depend on where a line
//! breaks. Every file the scan reads is re-laid out two ways, each
//! changing only whitespace between two code tokens (the whitespace
//! around every comment stays as it was):
//!
//! * (a) a line break after every `,`, `(` and lone `=`;
//! * (b) every line break between two code tokens replaced by a space.
//!
//! Both re-layouts must give the same set of (rule, file, enclosing
//! function) violations and the same used waivers as the original — once
//! with the committed waivers and once with every waiver disabled.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use solo_lint::items::{parse_file, FileItems};
use solo_lint::lexer::lex;
use solo_lint::manifests::manifest_paths;
use solo_lint::{rust_sources, scan_repo_full};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

/// Rebuilds `text` with `gap(prev, next, old)` choosing the whitespace
/// between every two adjacent code tokens (byte spans `prev` and `next`);
/// whitespace next to a comment is copied unchanged.
fn relayout(text: &str, gap: impl Fn((usize, usize), (usize, usize), &str) -> String) -> String {
    let lexed = lex(text);
    let mut pieces: Vec<((usize, usize), bool)> =
        lexed.tokens.iter().map(|t| (t.span, true)).collect();
    pieces.extend(lexed.comments.iter().map(|c| (c.span, false)));
    pieces.sort_unstable();
    let mut out = String::with_capacity(text.len());
    let mut at = 0;
    let mut prev: Option<((usize, usize), bool)> = None;
    for (span, code) in pieces {
        let old = &text[at..span.0];
        assert!(
            old.trim().is_empty(),
            "non-whitespace between tokens: {old:?}"
        );
        match prev {
            Some((p, true)) if code => out.push_str(&gap(p, span, old)),
            _ => out.push_str(old),
        }
        out.push_str(&text[span.0..span.1]);
        at = span.1;
        prev = Some((span, code));
    }
    out.push_str(&text[at..]);
    out
}

/// (a): a line break after every `,`, `(` and lone `=`.
fn break_after(text: &str) -> String {
    let b = text.as_bytes();
    relayout(text, |(lo, hi), _, old| {
        let lone_eq = &text[lo..hi] == "="
            && !(lo > 0 && b"=<>!+-*/%&|^.".contains(&b[lo - 1]))
            && !matches!(b.get(hi), Some(b'=' | b'>'));
        if matches!(&text[lo..hi], "," | "(") || lone_eq {
            format!("\n{old}")
        } else {
            old.to_string()
        }
    })
}

/// (b): every line break between two code tokens becomes a space.
fn join_lines(text: &str) -> String {
    relayout(text, |_, _, old| {
        if old.contains('\n') {
            " ".to_string()
        } else {
            old.to_string()
        }
    })
}

/// Disables every waiver by renaming `lint:allow(` inside comments.
fn disable_waivers(text: &str) -> String {
    let mut out = text.to_string();
    for c in lex(text).comments.iter().rev() {
        let body = text[c.span.0..c.span.1].replace("lint:allow(", "lint:allow-disabled(");
        out.replace_range(c.span.0..c.span.1, &body);
    }
    out
}

/// Violations as (rule, file, enclosing function), and used waivers as
/// (file, index of the waiver comment, rule).
type Verdicts = (
    BTreeSet<(String, String, String)>,
    BTreeSet<(String, usize, String)>,
);

/// A scratch tree holding one layout of the workspace, deleted on drop.
struct Tree(PathBuf);

impl Tree {
    fn write(tag: &str, files: &BTreeMap<String, String>, manifests: &[(String, String)]) -> Tree {
        let root =
            std::env::temp_dir().join(format!("solo-lint-layout-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, text) in files.iter().chain(manifests.iter().map(|(r, t)| (r, t))) {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("files sit in directories"))
                .expect("create tree dirs");
            fs::write(path, text).expect("write tree file");
        }
        Tree(root)
    }

    /// Scans the tree; also returns the per-rule violation counts.
    fn verdicts(
        &self,
        files: &BTreeMap<String, String>,
    ) -> (Verdicts, BTreeMap<&'static str, usize>) {
        let scan = scan_repo_full(&self.0).expect("scan layout tree");
        let parsed: BTreeMap<&str, FileItems> = files
            .iter()
            .map(|(rel, text)| (rel.as_str(), parse_file(rel, text)))
            .collect();
        let mut counts = BTreeMap::new();
        let violations = scan
            .violations
            .iter()
            .map(|v| {
                *counts.entry(v.rule).or_insert(0) += 1;
                let within = parsed
                    .get(v.file.as_str())
                    .and_then(|f| f.enclosing_fn(v.token))
                    .map_or_else(|| "-".to_string(), |f| f.path());
                (v.rule.to_string(), v.file.clone(), within)
            })
            .collect();
        let waivers = scan
            .used_waivers
            .iter()
            .map(|(file, line, rule)| {
                let comment = parsed[file.as_str()]
                    .waivers
                    .iter()
                    .find(|w| w.line == *line && w.rule == *rule)
                    .map_or(usize::MAX, |w| w.comment);
                (file.clone(), comment, rule.to_string())
            })
            .collect();
        ((violations, waivers), counts)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn verdicts_do_not_depend_on_layout() {
    let root = workspace_root();
    let sources: BTreeMap<String, String> = rust_sources(&root)
        .expect("walk workspace sources")
        .into_iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(&rel)).expect("read source");
            (rel, text)
        })
        .collect();
    assert!(sources.len() > 40, "expected a real workspace sweep");
    let manifests: Vec<(String, String)> = manifest_paths(&root)
        .into_iter()
        .filter_map(|rel| Some((rel.clone(), fs::read_to_string(root.join(&rel)).ok()?)))
        .collect();
    let mut failures = Vec::new();
    for (mode, waivers_on) in [("waived", true), ("unwaived", false)] {
        let original: BTreeMap<String, String> = sources
            .iter()
            .map(|(rel, text)| {
                let text = if waivers_on {
                    text.clone()
                } else {
                    disable_waivers(text)
                };
                (rel.clone(), text)
            })
            .collect();
        let tree = Tree::write(&format!("{mode}-original"), &original, &manifests);
        let (expected, counts) = tree.verdicts(&original);
        drop(tree);
        println!("{mode} original: {counts:?}");
        for (name, layout) in [
            ("break-after", break_after as fn(&str) -> String),
            ("join-lines", join_lines),
        ] {
            let files: BTreeMap<String, String> = original
                .iter()
                .map(|(rel, text)| {
                    let moved = layout(text);
                    let tokens = |t: &str| -> Vec<(String, String)> {
                        lex(t)
                            .tokens
                            .into_iter()
                            .map(|t| (format!("{:?}", t.kind), t.text))
                            .collect()
                    };
                    assert_eq!(tokens(text), tokens(&moved), "{rel}: {name} moved a token");
                    (rel.clone(), moved)
                })
                .collect();
            let tree = Tree::write(&format!("{mode}-{name}"), &files, &manifests);
            let (got, counts) = tree.verdicts(&files);
            if got != expected {
                let only = |a: &Verdicts, b: &Verdicts| -> Vec<String> {
                    let v = a.0.difference(&b.0).map(|x| format!("{x:?}"));
                    let w = a.1.difference(&b.1).map(|x| format!("waiver {x:?}"));
                    v.chain(w).collect()
                };
                failures.push(format!(
                    "{mode}, {name}: {counts:?}\n  only in the original: {:?}\n  only re-laid out: {:?}",
                    only(&expected, &got),
                    only(&got, &expected)
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
