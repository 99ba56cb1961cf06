//! The grandfathering ratchet.
//!
//! `lint-baseline.json` records, per `(file, rule)`, how many violations
//! existed when the rule was introduced. `check` fails only when a count
//! *exceeds* its baseline — so pre-existing debt doesn't block CI, new
//! debt does, and deleting/fixing sites is always safe (line numbers are
//! deliberately not part of the key, so moving code around never churns
//! the file). `--update-baseline` refuses to raise any count: the file can
//! only shrink.
//!
//! The format is a two-level JSON object, parsed with a built-in reader
//! (this crate is dependency-free):
//!
//! ```json
//! { "crates/core/src/esnet.rs": { "P1": 3 } }
//! ```

use std::collections::BTreeMap;

use crate::rules::Violation;

/// Per-`(file, rule)` grandfathered violation counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<String, BTreeMap<String, usize>>,
}

impl Baseline {
    /// The grandfathered count for `(file, rule)`.
    pub fn count(&self, file: &str, rule: &str) -> usize {
        self.entries
            .get(file)
            .and_then(|rules| rules.get(rule))
            .copied()
            .unwrap_or(0)
    }

    /// Total grandfathered count across all keys.
    pub fn total(&self) -> usize {
        self.entries.values().flat_map(|r| r.values()).sum()
    }

    /// Iterates `(file, rule, count)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, usize)> {
        self.entries.iter().flat_map(|(file, rules)| {
            rules
                .iter()
                .map(move |(rule, count)| (file.as_str(), rule.as_str(), *count))
        })
    }

    /// Aggregates raw violations into baseline form.
    pub fn from_violations(violations: &[Violation]) -> Baseline {
        let mut entries: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for v in violations {
            *entries
                .entry(v.file.clone())
                .or_default()
                .entry(v.rule.to_string())
                .or_default() += 1;
        }
        Baseline { entries }
    }

    /// The ratchet step: a new baseline matching `current`, or an error
    /// naming every `(file, rule)` whose count would *grow* — the baseline
    /// may only shrink.
    pub fn shrunk_to(&self, current: &Baseline) -> Result<Baseline, String> {
        let grew: Vec<String> = current
            .iter()
            .filter(|(file, rule, count)| *count > self.count(file, rule))
            .map(|(file, rule, count)| {
                format!("{file}: {rule} {} -> {count}", self.count(file, rule))
            })
            .collect();
        if grew.is_empty() {
            Ok(current.clone())
        } else {
            Err(format!(
                "refusing to grow the baseline (fix the new violations instead):\n  {}",
                grew.join("\n  ")
            ))
        }
    }

    /// Serializes to the committed JSON format (sorted, newline-terminated).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let files: Vec<_> = self.entries.iter().filter(|(_, r)| !r.is_empty()).collect();
        for (fi, (file, rules)) in files.iter().enumerate() {
            out.push_str(&format!("  {:?}: {{", file));
            for (ri, (rule, count)) in rules.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push_str(&format!(" {rule:?}: {count}"));
            }
            out.push_str(" }");
            if fi + 1 < files.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed construct.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let mut p = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let mut entries = BTreeMap::new();
        p.ws();
        p.eat(b'{')?;
        p.ws();
        if p.peek() == Some(b'}') {
            p.eat(b'}')?;
        } else {
            loop {
                p.ws();
                let file = p.string()?;
                p.ws();
                p.eat(b':')?;
                p.ws();
                p.eat(b'{')?;
                let mut rules = BTreeMap::new();
                p.ws();
                if p.peek() == Some(b'}') {
                    p.eat(b'}')?;
                } else {
                    loop {
                        p.ws();
                        let rule = p.string()?;
                        p.ws();
                        p.eat(b':')?;
                        p.ws();
                        rules.insert(rule, p.number()?);
                        p.ws();
                        match p.next() {
                            Some(b',') => {}
                            Some(b'}') => break,
                            _ => return Err(format!("bad rule map near byte {}", p.pos)),
                        }
                    }
                }
                entries.insert(file, rules);
                p.ws();
                match p.next() {
                    Some(b',') => {}
                    Some(b'}') => break,
                    _ => return Err(format!("bad file map near byte {}", p.pos)),
                }
            }
        }
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(Baseline { entries })
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.pos;
        // Paths and rule ids never contain escapes.
        while self.peek().is_some_and(|b| b != b'"') {
            self.pos += 1;
        }
        let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.eat(b'"')?;
        Ok(s)
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(file: &str, rule: &'static str) -> Violation {
        Violation {
            file: file.to_string(),
            line: 1,
            token: 0,
            rule,
            message: String::new(),
        }
    }

    #[test]
    fn json_round_trips() {
        let b = Baseline::from_violations(&[
            violation("a.rs", "P1"),
            violation("a.rs", "P1"),
            violation("a.rs", "D1"),
            violation("b/c.rs", "W1"),
        ]);
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.count("a.rs", "P1"), 2);
        assert_eq!(parsed.count("a.rs", "D1"), 1);
        assert_eq!(parsed.count("missing.rs", "P1"), 0);
        assert_eq!(parsed.total(), 4);
    }

    #[test]
    fn empty_baseline_parses() {
        let b = Baseline::from_json("{}\n").unwrap();
        assert_eq!(b.total(), 0);
        assert_eq!(Baseline::from_json(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn ratchet_only_shrinks() {
        let old = Baseline::from_violations(&[violation("a.rs", "P1"), violation("a.rs", "P1")]);
        let smaller = Baseline::from_violations(&[violation("a.rs", "P1")]);
        let bigger = Baseline::from_violations(&[
            violation("a.rs", "P1"),
            violation("a.rs", "P1"),
            violation("a.rs", "P1"),
        ]);
        assert_eq!(old.shrunk_to(&smaller).unwrap(), smaller);
        let err = old.shrunk_to(&bigger).unwrap_err();
        assert!(err.contains("a.rs: P1 2 -> 3"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Baseline::from_json("{").is_err());
        assert!(Baseline::from_json("{\"a\": {\"P1\": }}").is_err());
        assert!(Baseline::from_json("{} trailing").is_err());
    }
}
