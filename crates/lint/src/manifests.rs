//! W1 — workspace hygiene: every dependency declared in a crate manifest
//! must be referenced somewhere in that crate's sources. Declared-but-
//! unused dependencies bloat offline resolution and hide the real
//! dependency graph.
//!
//! The parser is a deliberately small line-oriented TOML subset: it only
//! needs section headers (`[dependencies]`, `[dev-dependencies]`, and
//! their `target.*` variants) and `name = …` / `name.workspace = true`
//! keys, which is the entire grammar this workspace's manifests use.
//! Waive with a trailing `# lint:allow(W1): reason` comment.

use std::path::Path;

use crate::items::{let_end, FileItems};
use crate::rules::{Pattern, Violation};

/// A dependency declaration found in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDecl {
    /// Dependency name as declared (dashes included).
    pub name: String,
    /// 1-indexed line in the manifest.
    pub line: usize,
    /// Whether the declaration line carries a W1 waiver comment.
    pub waived: bool,
}

/// Extracts dependency declarations from manifest text.
pub fn parse_deps(manifest: &str) -> Vec<DepDecl> {
    let mut deps = Vec::new();
    let mut in_deps_section = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            let section = line.trim_matches(['[', ']']);
            // `[workspace.dependencies]` is a version catalog, not a
            // dependency edge — member crates opt in with `.workspace =
            // true`, and those opt-ins are what W1 checks.
            in_deps_section = !section.starts_with("workspace.")
                && (section == "dependencies"
                    || section == "dev-dependencies"
                    || section == "build-dependencies"
                    || section.ends_with(".dependencies")
                    || section.ends_with(".dev-dependencies"));
            continue;
        }
        if !in_deps_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(key) = line.split('=').next() else {
            continue;
        };
        // `name`, `name.workspace`, or a quoted name.
        let name = key
            .trim()
            .split('.')
            .next()
            .unwrap_or("")
            .trim_matches('"')
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_alphanumeric() || c == '-' || c == '_')
        {
            continue;
        }
        let waived = raw.split('#').nth(1).is_some_and(|c| is_w1_waiver(c));
        deps.push(DepDecl {
            name,
            line: idx + 1,
            waived,
        });
    }
    deps
}

fn is_w1_waiver(comment: &str) -> bool {
    let comment = comment.trim();
    let Some(rest) = comment
        .find("lint:allow(W1)")
        .map(|i| &comment[i + "lint:allow(W1)".len()..])
    else {
        return false;
    };
    let rest = rest.trim_start();
    rest.starts_with(':') && !rest[1..].trim().is_empty()
}

/// Whether any source file references the crate `ident` (dashes already
/// mapped to underscores by the caller): a path `ident::…`, or the name
/// inside a `use` declaration or after `extern crate`.
pub fn references_crate(files: &[FileItems], ident: &str) -> bool {
    let path = Pattern::new("::");
    files.iter().any(|f| {
        let t = &f.tokens;
        // Token ranges of the `use` declarations.
        let uses: Vec<(usize, usize)> = (0..t.len())
            .filter(|&i| t[i].is_ident("use"))
            .map(|i| (i, let_end(t, i)))
            .collect();
        (0..t.len()).any(|i| {
            if !t[i].is_ident(ident) || (i > 0 && t[i - 1].is_punct(':')) {
                return false;
            }
            let imported = uses.iter().any(|&(lo, hi)| lo < i && i < hi)
                || (i >= 2 && t[i - 2].is_ident("extern") && t[i - 1].is_ident("crate"));
            path.at(t, i + 1)
                || (imported
                    && t.get(i + 1)
                        .is_none_or(|n| [";", ",", "}", ":", "as"].contains(&n.text.as_str())))
        })
    })
}

/// Runs W1 over one crate: `manifest_rel` is the repo-relative manifest
/// path, `manifest` its text, and `sources` every parsed `.rs` file in the
/// crate's directory tree.
pub fn check_manifest(manifest_rel: &str, manifest: &str, sources: &[FileItems]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for dep in parse_deps(manifest) {
        if dep.waived {
            continue;
        }
        let ident = dep.name.replace('-', "_");
        if !references_crate(sources, &ident) {
            violations.push(Violation {
                file: manifest_rel.to_string(),
                line: dep.line,
                token: 0,
                rule: "W1",
                message: format!(
                    "dependency `{}` is declared but never referenced in this crate's sources",
                    dep.name
                ),
            });
        }
    }
    violations
}

/// The manifest side of the stale-waiver audit (A1): a dependency carrying
/// a W1 waiver that the crate's sources *do* reference no longer needs the
/// waiver — the declaration would pass W1 on its own.
pub fn stale_waivers(manifest_rel: &str, manifest: &str, sources: &[FileItems]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for dep in parse_deps(manifest) {
        let ident = dep.name.replace('-', "_");
        if dep.waived && references_crate(sources, &ident) {
            violations.push(Violation {
                file: manifest_rel.to_string(),
                line: dep.line,
                token: 0,
                rule: "A1",
                message: format!(
                    "stale W1 waiver: `{}` is referenced in this crate's sources, so the \
                     waiver suppresses nothing — delete it",
                    dep.name
                ),
            });
        }
    }
    violations
}

/// Lists the repo-relative manifest paths W1 checks under `root`.
pub fn manifest_paths(root: &Path) -> Vec<String> {
    let mut paths = vec!["Cargo.toml".to_string()];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("Cargo.toml").is_file())
            .map(|e| format!("crates/{}/Cargo.toml", e.file_name().to_string_lossy()))
            .collect();
        dirs.sort();
        paths.extend(dirs);
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    const MANIFEST: &str = "\
[package]
name = \"demo\"

[dependencies]
serde.workspace = true
parking_lot.workspace = true
left-pad = \"1\" # lint:allow(W1): kept for the meme

[dev-dependencies]
proptest = { path = \"../proptest\" }
";

    #[test]
    fn parses_workspace_inline_and_waived_deps() {
        let deps = parse_deps(MANIFEST);
        let names: Vec<&str> = deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["serde", "parking_lot", "left-pad", "proptest"]);
        assert!(deps[2].waived);
        assert!(!deps[0].waived);
    }

    #[test]
    fn flags_unreferenced_deps_only() {
        let src = parse_file(
            "crates/demo/src/lib.rs",
            "use serde::{Serialize};\nfn t() { let x = proptest::prelude::any::<bool>(); }",
        );
        let v = check_manifest("crates/demo/Cargo.toml", MANIFEST, &[src]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("parking_lot"));
        assert_eq!(v[0].rule, "W1");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn ident_matching_is_word_bounded() {
        // `rand_chacha::` must not count as a reference to `rand`.
        let src = parse_file("crates/demo/src/lib.rs", "use rand_chacha::ChaCha8Rng;");
        assert!(!references_crate(&[src], "rand"));
        let src = parse_file("crates/demo/src/lib.rs", "use rand::Rng;");
        assert!(references_crate(&[src], "rand"));
    }
}
