//! An over-approximate whole-workspace call graph.
//!
//! Nodes are the [`FnItem`]s parsed by [`crate::items`]; edges come from
//! scanning each body's token stream for call sites. Resolution is
//! name-based and deliberately *over*-approximate — when in doubt, an edge
//! is added — because the consumer (P2 panic-reachability) must never
//! claim a function is unreachable when it is:
//!
//! * `Type::f(…)` / `module::f(…)` — resolved by item path: the qualifier
//!   is matched against impl targets and file stems;
//! * `recv.f(…)` — method-name fallback: edges to *every* workspace method
//!   named `f` (the receiver's type is unknown without type inference);
//! * `Q::f(…)` whose qualifier is no workspace type or module — a generic
//!   parameter (`E::tile(…)`) or a foreign type — gets the same method-name
//!   fallback when a workspace method is named `f`;
//! * `f(…)` — bound by name: edges to *every* non-test workspace function
//!   named `f`, so an imported function and a same-file `#[cfg]` twin of
//!   it are both callees (no `use` resolution needed);
//! * calls whose name matches nothing in the workspace are *external*
//!   (std, vendored stubs) and cannot reach workspace code;
//! * a qualified call whose qualifier IS a workspace type/module but whose
//!   method is missing under it is recorded as **unresolved** rather than
//!   dropped — the `--graph` report prints them, and the resolved-edge
//!   coverage the CI gate asserts is computed over them.

use std::collections::{BTreeMap, VecDeque};

use crate::items::{FileItems, FnItem};
use crate::lexer::{Token, TokenKind};

/// Edge-classification counters for the whole graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Path-qualified calls bound to a concrete workspace item.
    pub resolved: usize,
    /// Method-name / bare-name fallback bindings (over-approximate).
    pub fallback: usize,
    /// Calls into names the workspace does not define (std, vendored).
    pub external: usize,
    /// Workspace-qualified calls that failed to bind (recorded below).
    pub unresolved: usize,
}

impl EdgeStats {
    /// Fraction of workspace-directed call sites bound to at least one
    /// callee: `(resolved + fallback) / (resolved + fallback + unresolved)`.
    /// External calls are out of the denominator — they cannot reach
    /// workspace code, so failing to bind them is correct, not a gap.
    pub fn coverage(&self) -> f64 {
        let bound = self.resolved + self.fallback;
        let total = bound + self.unresolved;
        if total == 0 {
            1.0
        } else {
            bound as f64 / total as f64
        }
    }
}

/// A call site the resolver could not bind despite a workspace qualifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedCall {
    /// Caller's file.
    pub file: String,
    /// 1-indexed line of the call.
    pub line: usize,
    /// The call path as written (`Qualifier::name`).
    pub path: String,
}

/// The assembled graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All functions, flattened across files; indices are node ids.
    pub fns: Vec<FnItem>,
    /// Adjacency: `edges[caller]` lists callee node ids (deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Edge-classification counters.
    pub stats: EdgeStats,
    /// Every unresolved workspace-qualified call site.
    pub unresolved: Vec<UnresolvedCall>,
}

/// Methods the compiler derives (or std blanket-impls) when a type does
/// not define them: a qualified call to one with no parsed item behind it
/// is generated code, not an unresolved workspace edge.
const DERIVED: &[&str] = &[
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
];

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "break",
    "continue", "unsafe", "let", "mut", "ref", "await", "fn", "impl", "where", "dyn", "pub",
];

impl CallGraph {
    /// Builds the graph from parsed files.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a FileItems>) -> CallGraph {
        let files: Vec<&FileItems> = files.into_iter().collect();
        let mut fns = Vec::new();
        let mut file_of_fn = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for f in &file.fns {
                fns.push(f.clone());
                file_of_fn.push(fi);
            }
        }
        // Candidate maps. Test functions are excluded: library code cannot
        // call into `#[cfg(test)]` items, and name collisions with test
        // helpers would otherwise pull test-only panic sources into the
        // reachable set.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_ty: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_stem: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut stems: BTreeMap<&str, ()> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            by_name.entry(&f.name).or_default().push(i);
            if let Some(ty) = &f.self_ty {
                methods.entry(&f.name).or_default().push(i);
                by_ty.entry((ty, &f.name)).or_default().push(i);
            }
            let stem = file_stem(&f.file);
            by_stem.entry((stem, &f.name)).or_default().push(i);
            stems.insert(stem, ());
        }
        let known_ty = |q: &str| by_ty.keys().any(|(ty, _)| *ty == q);

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut stats = EdgeStats::default();
        let mut unresolved = Vec::new();
        for (ci, caller) in fns.iter().enumerate() {
            if caller.is_test || caller.body.0 >= caller.body.1 {
                continue;
            }
            let tokens = &files[file_of_fn[ci]].tokens[caller.body.0..caller.body.1];
            for site in call_sites(tokens) {
                let targets: &[usize] = match &site.qualifier {
                    Some(q) => {
                        let q = if q == "Self" {
                            caller.self_ty.as_deref().unwrap_or("Self")
                        } else {
                            q.as_str()
                        };
                        if let Some(t) = by_ty.get(&(q, site.name.as_str())) {
                            stats.resolved += 1;
                            t
                        } else if let Some(t) = by_stem.get(&(q, site.name.as_str())) {
                            stats.resolved += 1;
                            t
                        } else if DERIVED.contains(&site.name.as_str()) {
                            // `Type::default()` and friends with no parsed
                            // item are derive/std-trait impls — panic-free
                            // generated code, not a resolution gap.
                            stats.external += 1;
                            &[]
                        } else if known_ty(q) || stems.contains_key(q) {
                            // A workspace qualifier with no such item under
                            // it: record, don't drop.
                            stats.unresolved += 1;
                            unresolved.push(UnresolvedCall {
                                file: caller.file.clone(),
                                line: site.line,
                                path: format!("{q}::{}", site.name),
                            });
                            &[]
                        } else if let Some(t) = methods.get(site.name.as_str()) {
                            // No workspace type or module, but a workspace
                            // method name: a generic parameter's call
                            // (`E::tile(…)`) reaches the trait impls, so
                            // bind by name like `recv.f(…)`.
                            stats.fallback += 1;
                            t
                        } else {
                            stats.external += 1;
                            &[]
                        }
                    }
                    None if site.is_method => match methods.get(site.name.as_str()) {
                        Some(t) => {
                            stats.fallback += 1;
                            t
                        }
                        None => {
                            stats.external += 1;
                            &[]
                        }
                    },
                    None => match by_name.get(site.name.as_str()) {
                        Some(t) => {
                            stats.fallback += 1;
                            t
                        }
                        None => {
                            stats.external += 1;
                            &[]
                        }
                    },
                };
                edges[ci].extend_from_slice(targets);
            }
            edges[ci].sort_unstable();
            edges[ci].dedup();
        }
        CallGraph {
            fns,
            edges,
            stats,
            unresolved,
        }
    }

    /// Node ids whose [`FnItem`] matches `pred` (and is not test code).
    pub fn roots(&self, pred: impl Fn(&FnItem) -> bool) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && pred(f))
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS over the edge relation: for each node, the root id that first
    /// reached it (`None` if unreachable). Roots reach themselves.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut from = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if from[r].is_none() {
                from[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            let root = from[n];
            for &m in &self.edges[n] {
                if from[m].is_none() {
                    from[m] = root;
                    queue.push_back(m);
                }
            }
        }
        from
    }

    /// Total edge count (after per-caller dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// `crates/tensor/src/exec.rs` → `exec` (module name used in paths like
/// `exec::take_buf`); `lib.rs`/`mod.rs` fall back to the parent directory
/// (the crate's short name for `crates/<name>/src/lib.rs`).
fn file_stem(rel: &str) -> &str {
    let stem = rel
        .rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs");
    if stem != "lib" && stem != "mod" {
        return stem;
    }
    let mut parts: Vec<&str> = rel.split('/').collect();
    parts.pop();
    while let Some(last) = parts.pop() {
        if last != "src" {
            return last;
        }
    }
    stem
}

/// One call site found in a body token stream.
struct CallSite {
    name: String,
    /// Last path segment before the name (`exec::take_buf` → `exec`).
    qualifier: Option<String>,
    is_method: bool,
    line: usize,
}

/// Extracts call sites: `name(`, `recv.name(`, `path::name(` — skipping
/// keywords, macro invocations (`name!(…)` has no `(` right after the
/// name), and uppercase-initial bare names (tuple-struct/variant
/// constructors).
fn call_sites(tokens: &[Token]) -> Vec<CallSite> {
    let mut sites = Vec::new();
    for j in 0..tokens.len() {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident || !tokens.get(j + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let name = t.text.as_str();
        if KEYWORDS.contains(&name) {
            continue;
        }
        let prev = j.checked_sub(1).map(|k| &tokens[k]);
        let is_method = prev.is_some_and(|p| p.is_punct('.'));
        let qualifier =
            if !is_method && j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
                (j >= 3 && tokens[j - 3].kind == TokenKind::Ident)
                    .then(|| tokens[j - 3].text.clone())
            } else {
                None
            };
        // `Some(x)` / `Gemm(…)` / `SoloError::InvalidConfig(…)`-style
        // constructors: uppercase-initial names (bare or path-qualified)
        // are tuple-struct/enum-variant data, not calls.
        if !is_method && name.chars().next().is_some_and(|c| c.is_uppercase()) {
            continue;
        }
        sites.push(CallSite {
            name: name.to_string(),
            qualifier,
            is_method,
            line: t.line,
        });
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<FileItems> = files
            .iter()
            .map(|(rel, src)| parse_file(rel, src))
            .collect();
        CallGraph::build(&parsed)
    }

    fn idx(g: &CallGraph, path: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.path() == path)
            .unwrap_or_else(|| panic!("no fn {path}"))
    }

    #[test]
    fn qualified_method_and_bare_calls_resolve() {
        let g = graph(&[
            (
                "crates/demo/src/pipeline.rs",
                "impl Pipeline {\n\
                 \x20   pub fn run(&self) { helper(); self.stage(); Pool::submit(); }\n\
                 \x20   fn stage(&self) {}\n\
                 }\n\
                 fn helper() { exec::dispatch(); }\n",
            ),
            (
                "crates/demo/src/exec.rs",
                "pub fn dispatch() {}\nimpl Pool {\n    pub fn submit() {}\n}\n",
            ),
        ]);
        let run = idx(&g, "Pipeline::run");
        assert!(g.edges[run].contains(&idx(&g, "helper")));
        assert!(g.edges[run].contains(&idx(&g, "Pipeline::stage")));
        assert!(g.edges[run].contains(&idx(&g, "Pool::submit")));
        let helper = idx(&g, "helper");
        assert!(g.edges[helper].contains(&idx(&g, "dispatch")));
        assert_eq!(g.stats.unresolved, 0);
    }

    #[test]
    fn method_fallback_is_over_approximate() {
        let g = graph(&[(
            "crates/demo/src/lib.rs",
            "impl A {\n    pub fn go(&self) {}\n}\n\
             impl B {\n    pub fn go(&self) {}\n}\n\
             fn driver(x: &A) { x.go(); }\n",
        )]);
        let driver = idx(&g, "driver");
        // Without type inference both `go`s are candidates.
        assert!(g.edges[driver].contains(&idx(&g, "A::go")));
        assert!(g.edges[driver].contains(&idx(&g, "B::go")));
        assert_eq!(g.stats.fallback, 1);
    }

    #[test]
    fn generic_parameter_calls_bind_to_the_trait_impls() {
        let g = graph(&[(
            "crates/demo/src/lib.rs",
            "trait Lane {\n    fn tile();\n}\n\
             impl Lane for f32 {\n    fn tile() { kernel(); }\n}\n\
             fn kernel() {}\n\
             fn walk<E: Lane>() { E::tile(); }\n",
        )]);
        let walk = idx(&g, "walk");
        // `E` is neither a workspace type nor a module; the call still
        // reaches the impl, and through it the kernel.
        assert!(g.edges[walk].contains(&idx(&g, "f32::tile")));
        let reach = g.reachable_from(&g.roots(|f| f.name == "walk"));
        assert!(reach[idx(&g, "kernel")].is_some());
        assert_eq!(g.stats.external, 0);
    }

    #[test]
    fn unresolved_workspace_calls_are_recorded_not_dropped() {
        let g = graph(&[(
            "crates/demo/src/lib.rs",
            "impl Widget {\n    pub fn exists(&self) {}\n}\n\
             fn f() { Widget::missing(); Vec::with_capacity(4); }\n",
        )]);
        assert_eq!(g.stats.unresolved, 1);
        assert_eq!(g.unresolved[0].path, "Widget::missing");
        // `Vec` is not a workspace type: external, not unresolved.
        assert_eq!(g.stats.external, 1);
        assert!(g.stats.coverage() < 1.0);
    }

    #[test]
    fn reachability_walks_transitively_and_skips_tests() {
        let g = graph(&[(
            "crates/demo/src/lib.rs",
            "pub fn root() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf() {}\n\
             fn island() {}\n\
             #[cfg(test)]\nmod tests {\n    fn leaf() { island(); }\n}\n",
        )]);
        let roots = g.roots(|f| f.name == "root");
        let reach = g.reachable_from(&roots);
        assert!(reach[idx(&g, "mid")].is_some());
        assert!(reach[idx(&g, "leaf")].is_some());
        // The test-module `leaf` is not a candidate, so `island` stays
        // unreachable even though a test fn calls it.
        assert!(reach[idx(&g, "island")].is_none());
    }

    #[test]
    fn self_calls_resolve_to_the_enclosing_impl() {
        let g = graph(&[(
            "crates/demo/src/lib.rs",
            "impl Pool {\n\
             \x20   pub fn get() -> Pool { Self::new() }\n\
             \x20   fn new() -> Pool { Pool }\n\
             }\n",
        )]);
        let get = idx(&g, "Pool::get");
        assert!(g.edges[get].contains(&idx(&g, "Pool::new")));
        assert_eq!(g.stats.resolved, 1);
    }

    #[test]
    fn macros_keywords_and_constructors_are_not_calls() {
        let g = graph(&[(
            "crates/demo/src/lib.rs",
            "fn f(x: u32) -> Option<u32> {\n\
             \x20   if (x > 1) { vec![]; }\n\
             \x20   while (x < 2) {}\n\
             \x20   assert!(x != 3);\n\
             \x20   Some(x)\n\
             }\n",
        )]);
        let f = idx(&g, "f");
        assert!(g.edges[f].is_empty());
        assert_eq!(g.stats.external + g.stats.fallback + g.stats.resolved, 0);
    }
}
