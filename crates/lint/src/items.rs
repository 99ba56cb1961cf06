//! The item model: one file's tokens, comments, functions, test regions
//! and waivers.
//!
//! Built from the [`crate::lexer`] output, one file at a time. The parser
//! is deliberately shallow — it tracks brace nesting and three item forms
//! (`impl … {`, `trait … {`, `fn name(…) {`) and records, for each
//! function, its name, the type it is implemented on (if any), and the
//! token ranges of its signature and body. That is what the call graph
//! needs for name resolution and what the rules need for scoping.
//!
//! Everything a rule asks about a position is answered in tokens, never in
//! lines: whether it sits in a test region (the span of an item carrying
//! `#[cfg(test)]` or `#[test]`), which function encloses it, and which
//! waiver covers it. A waiver covers a statement (see [`Waiver`]), so
//! re-wrapping the code it waives does not move its reach.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Repo-relative file path.
    pub file: String,
    /// The function's name.
    pub name: String,
    /// The first path segment of the enclosing `impl` target (or the
    /// trait name for trait-default bodies); `None` for free functions.
    pub self_ty: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// 1-indexed line of the body's closing brace (== `line` for bodyless
    /// trait/extern declarations).
    pub end_line: usize,
    /// Token range of the signature: from the `fn` keyword to the body's
    /// opening `{` (or a bodyless declaration's `;`), exclusive.
    pub sig: (usize, usize),
    /// Token range of the body in the file's token stream (empty for
    /// bodyless declarations).
    pub body: (usize, usize),
    /// Whether the `fn` keyword sits inside a test region.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn path(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Token range of the whole item, `fn` keyword to closing brace.
    pub fn span(&self) -> (usize, usize) {
        (self.sig.0, self.body.1.max(self.sig.1) + 1)
    }
}

/// A well-formed `// lint:allow(RULE): reason` comment and its reach.
///
/// A *leading* waiver (no code before it on its line) covers from the
/// next code token to the end of that statement: the first `;` or `,` at
/// the waiver's own bracket depth, the `}` that closes a group opened
/// after the waiver, or the close of the group the waiver sits in,
/// whichever comes first. A *trailing* waiver covers the statement that
/// the code before it ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The waived rule id.
    pub rule: String,
    /// 1-indexed line of the waiver comment.
    pub line: usize,
    /// Index of the waiver comment in [`FileItems::comments`].
    pub comment: usize,
    /// Token range the waiver covers.
    pub covers: (usize, usize),
}

/// One file's parsed model.
#[derive(Debug)]
pub struct FileItems {
    /// Repo-relative file path.
    pub file: String,
    /// The full code token stream (every range below indexes into it).
    pub tokens: Vec<Token>,
    /// Every comment, placed by the index of the token after it.
    pub comments: Vec<Comment>,
    /// Every function found, in source order.
    pub fns: Vec<FnItem>,
    /// Token ranges of the items that carry `#[cfg(test)]` or `#[test]`,
    /// attributes included.
    pub tests: Vec<(usize, usize)>,
    /// Every well-formed waiver, in source order.
    pub waivers: Vec<Waiver>,
}

impl FileItems {
    /// Whether token `i` sits inside a test region.
    pub(crate) fn in_test(&self, i: usize) -> bool {
        within(&self.tests, i)
    }

    /// Whether comment `c` sits strictly inside a test region.
    pub(crate) fn comment_in_test(&self, c: &Comment) -> bool {
        self.tests
            .iter()
            .any(|&(lo, hi)| lo < c.next && c.next < hi)
    }

    /// The waiver for `rule` covering token `i`, if any.
    pub(crate) fn waiver(&self, rule: &str, i: usize) -> Option<&Waiver> {
        self.waivers
            .iter()
            .find(|w| w.rule == rule && w.covers.0 <= i && i < w.covers.1)
    }

    /// The innermost function whose item span holds token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.span().0 <= i && i < f.span().1)
            .max_by_key(|f| f.sig.0)
    }
}

/// Parses `text` into the file's model.
pub fn parse_file(rel: &str, text: &str) -> FileItems {
    let lexed = lex(text);
    let tokens = lexed.tokens;
    let tests = test_regions(&tokens);
    let mut fns = Vec::new();
    // Stack of (brace depth the block opened at, owning type name) for
    // impl/trait blocks; the innermost entry owns `fn` items found inside.
    let mut owners: Vec<(usize, String)> = Vec::new();
    // An `impl`/`trait` header seen but its `{` not yet: the pending owner.
    let mut pending_owner: Option<String> = None;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct if t.is_punct('{') => {
                depth += 1;
                if let Some(ty) = pending_owner.take() {
                    owners.push((depth, ty));
                }
                i += 1;
            }
            TokenKind::Punct if t.is_punct('}') => {
                if owners.last().is_some_and(|(d, _)| *d == depth) {
                    owners.pop();
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            TokenKind::Punct if t.is_punct(';') => {
                // `impl Trait for Type;` does not exist, but a stray `;`
                // before the `{` cancels a pending owner (e.g. a macro).
                pending_owner = None;
                i += 1;
            }
            TokenKind::Ident if t.text == "impl" || t.text == "trait" => {
                pending_owner = impl_target(&tokens, i);
                i += 1;
            }
            TokenKind::Ident if t.text == "fn" => {
                let (item, next) = parse_fn(rel, &tokens, i, owners.last(), within(&tests, i));
                if let Some(item) = item {
                    // The main loop resumes *inside* the body (so nested
                    // fns get their own items), but `parse_fn` consumed the
                    // opening `{` — account for it here, empty bodies
                    // included, or the body's `}` would pop the enclosing
                    // impl owner.
                    if tokens.get(item.sig.1).is_some_and(|t| t.is_punct('{')) {
                        depth += 1;
                    }
                    fns.push(item);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    let waivers = lexed
        .comments
        .iter()
        .enumerate()
        .filter_map(|(ci, c)| {
            let rule = waiver_rule(&c.text)?;
            let covers = if c.trailing {
                (statement_start(&tokens, c.next - 1), c.next)
            } else {
                (c.next, statement_end(&tokens, c.next))
            };
            Some(Waiver {
                rule: rule.to_string(),
                line: c.line,
                comment: ci,
                covers,
            })
        })
        .collect();
    FileItems {
        file: rel.to_string(),
        tokens,
        comments: lexed.comments,
        fns,
        tests,
        waivers,
    }
}

/// Whether token `i` lies in one of the `[lo, hi)` token `ranges`.
fn within(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= i && i < hi)
}

/// The rule id of a well-formed waiver (`lint:allow(RULE): reason`, with a
/// non-empty reason) in `comment`, if any.
fn waiver_rule(comment: &str) -> Option<&str> {
    let rest = &comment[comment.find("lint:allow(")? + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    let tail = rest[close + 1..].trim_start();
    (tail.starts_with(':') && !tail[1..].trim().is_empty() && !rule.is_empty()).then_some(rule)
}

/// `+1` for an opening bracket, `-1` for a closing one, `0` otherwise.
pub(crate) fn nesting(t: &Token) -> i32 {
    match t.text.as_str() {
        "(" | "[" | "{" if t.kind == TokenKind::Punct => 1,
        ")" | "]" | "}" if t.kind == TokenKind::Punct => -1,
        _ => 0,
    }
}

/// Index of the token that closes the group opened at `open` (the last
/// token when the group is unclosed).
pub(crate) fn group_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        depth += nesting(t);
        if depth == 0 {
            return j;
        }
    }
    tokens.len().saturating_sub(1)
}

/// Keywords that open a statement a top-level `,` cannot end (a `,` there
/// sits in generics or closure parameters).
const COMMA_FREE: &[&str] = &[
    "let", "fn", "pub", "impl", "struct", "enum", "trait", "type", "const", "static", "use", "mod",
];

/// End (exclusive) of the statement that starts at token `start`: just past
/// the first `;` or `,` at its own depth or the `}` that closes a group
/// opened inside it, or at the close of the group it sits in. A statement
/// that opens with an attribute or one of `COMMA_FREE` ends only at a
/// `;` or `}`.
pub(crate) fn statement_end(tokens: &[Token], start: usize) -> usize {
    let commas = tokens
        .get(start)
        .is_some_and(|t| !t.is_punct('#') && !COMMA_FREE.iter().any(|k| t.is_ident(k)));
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        let d = nesting(t);
        if depth + d < 0 {
            return j;
        }
        depth += d;
        if depth == 0
            && (t.is_punct(';') || (commas && t.is_punct(',')) || (d < 0 && t.is_punct('}')))
        {
            return j + 1;
        }
    }
    tokens.len()
}

/// Start of the statement that token `last` ends: just past the previous
/// `;`, `,` or `}` at its depth, or past the open of the group it sits in.
pub(crate) fn statement_start(tokens: &[Token], last: usize) -> usize {
    // Walking back, a closing bracket enters a group and an opening one
    // leaves it; a closing `last` is already inside its group.
    let mut depth = -nesting(&tokens[last]).min(0);
    for j in (0..last).rev() {
        let t = &tokens[j];
        if depth == 0 && (t.is_punct(';') || t.is_punct(',') || t.is_punct('}')) {
            return j + 1;
        }
        depth -= nesting(t);
        if depth < 0 {
            return j + 1;
        }
    }
    0
}

/// End (exclusive: the `;`) of the `let` statement whose keyword is token
/// `kw`.
pub(crate) fn let_end(tokens: &[Token], kw: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(kw) {
        depth += nesting(t);
        if depth < 0 || (depth == 0 && t.is_punct(';')) {
            return j;
        }
    }
    tokens.len()
}

/// The name a `let [mut] NAME =` / `let [mut] NAME: T =` at token `kw`
/// binds; `None` for a pattern.
pub(crate) fn let_name(tokens: &[Token], kw: usize) -> Option<&str> {
    let at = kw + 1 + usize::from(tokens.get(kw + 1)?.is_ident("mut"));
    let next = tokens.get(at + 1)?;
    (tokens[at].kind == TokenKind::Ident && (next.is_punct('=') || next.is_punct(':')))
        .then_some(tokens[at].text.as_str())
}

/// Token ranges of the items carrying `#[cfg(test)]` or `#[test]`: from
/// the attribute to the item's closing `}` or `;`.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    const ATTRS: [&[&str]; 2] = [
        &["#", "[", "cfg", "(", "test", ")", "]"],
        &["#", "[", "test", "]"],
    ];
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr) = ATTRS.iter().find(|a| {
            tokens
                .get(i..i + a.len())
                .is_some_and(|ts| ts.iter().zip(a.iter()).all(|(t, s)| t.text == *s))
        }) else {
            i += 1;
            continue;
        };
        let mut j = i + attr.len();
        let mut paren = 0i32;
        let end = loop {
            let Some(t) = tokens.get(j) else {
                break tokens.len();
            };
            if t.is_punct('#') && tokens.get(j + 1).is_some_and(|n| n.is_punct('[')) {
                j = group_end(tokens, j + 1) + 1;
                continue;
            }
            if paren == 0 {
                if t.is_punct('{') {
                    break group_end(tokens, j) + 1;
                }
                if t.is_punct(';') || t.is_punct(',') {
                    break j + 1;
                }
                if t.is_punct('}') {
                    break j;
                }
            }
            paren += nesting(t);
            j += 1;
        };
        regions.push((i, end));
        i = end;
    }
    regions
}

/// Reads the owning type of an `impl`/`trait` header starting at its
/// keyword: skips generics, returns the first path segment of the target
/// type (for `impl Trait for Type`, the segment after `for`).
fn impl_target(tokens: &[Token], kw: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    for t in &tokens[kw + 1..] {
        if angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
            break;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if angle == 0 && t.kind == TokenKind::Ident {
            if t.text == "for" {
                saw_for = true;
            } else if t.text == "where" {
                break;
            } else if saw_for {
                if after_for.is_none() {
                    after_for = Some(t.text.clone());
                }
            } else if first.is_none() {
                first = Some(t.text.clone());
            }
        }
    }
    // `impl Trait for Type` → Type; `impl Type` / `trait Name` → first.
    after_for.or(first)
}

/// Parses one `fn` starting at its keyword. Returns the item (if the name
/// parses) and the token index to resume scanning at — just *after* the
/// opening `{` so the main loop still walks the body (nested fns, braces).
fn parse_fn(
    rel: &str,
    tokens: &[Token],
    kw: usize,
    owner: Option<&(usize, String)>,
    is_test: bool,
) -> (Option<FnItem>, usize) {
    let name = match tokens.get(kw + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return (None, kw + 1),
    };
    // Scan the signature for its opening `{` or terminating `;`,
    // paren-balanced so `fn f(g: fn() -> u32)` does not confuse it.
    let mut i = kw + 2;
    let mut paren = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if paren == 0 && (t.is_punct('{') || t.is_punct(';')) {
            break;
        }
        paren += nesting(t);
        i += 1;
    }
    let line = tokens[kw].line;
    let opens = tokens.get(i).is_some_and(|t| t.is_punct('{'));
    // Bodyless declarations (trait methods, extern) have an empty body.
    let close = if opens { group_end(tokens, i) } else { i };
    let item = FnItem {
        file: rel.to_string(),
        name,
        self_ty: owner.map(|(_, ty)| ty.clone()),
        line,
        end_line: tokens.get(close).map_or(line, |t| t.line),
        sig: (kw, i),
        body: if opens { (i + 1, close) } else { (0, 0) },
        is_test,
    };
    (Some(item), i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        parse_file("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn free_and_method_fns_are_found() {
        let items = parse(
            "fn free() { helper(); }\n\
             impl Widget {\n    pub fn method(&self) -> u32 { 1 }\n}\n\
             impl Render for Widget {\n    fn draw(&self) {}\n}\n\
             trait Render {\n    fn draw(&self);\n    fn area(&self) -> u32 { 0 }\n}\n",
        );
        let paths: Vec<String> = items.fns.iter().map(|f| f.path()).collect();
        assert_eq!(
            paths,
            vec![
                "free",
                "Widget::method",
                "Widget::draw",
                "Render::draw",
                "Render::area"
            ]
        );
    }

    #[test]
    fn methods_after_an_empty_body_keep_their_impl() {
        let items =
            parse("impl Pool {\n    fn visit(&self) {}\n    fn infer(&self) {}\n}\nfn free() {}\n");
        let paths: Vec<String> = items.fns.iter().map(|f| f.path()).collect();
        assert_eq!(paths, vec!["Pool::visit", "Pool::infer", "free"]);
    }

    #[test]
    fn generic_impls_resolve_their_target() {
        let items = parse("impl<T: Clone> Stack<T> {\n    fn push(&mut self, t: T) {}\n}\n");
        assert_eq!(items.fns[0].self_ty.as_deref(), Some("Stack"));
    }

    #[test]
    fn nested_fns_get_their_own_items_and_spans() {
        let items =
            parse("fn outer() {\n    fn inner() { x(); }\n    inner();\n}\nfn after() {}\n");
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "after"]);
        assert_eq!(items.fns[0].line, 1);
        assert_eq!(items.fns[0].end_line, 4);
        assert_eq!(items.fns[1].line, 2);
        assert_eq!(items.fns[1].end_line, 2);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let items = parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib(); }\n}\n");
        assert!(!items.fns[0].is_test);
        assert!(items.fns[1].is_test);
    }

    /// Whether any token on 1-indexed `line` satisfies `pred`.
    fn on_line(f: &FileItems, line: usize, pred: impl Fn(usize) -> bool) -> bool {
        (0..f.tokens.len()).any(|i| f.tokens[i].line == line && pred(i))
    }

    fn waived(f: &FileItems, rule: &str, line: usize) -> bool {
        on_line(f, line, |i| f.waiver(rule, i).is_some())
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}";
        let f = parse(src);
        let flags: Vec<bool> = (1..=6).map(|l| on_line(&f, l, |i| f.in_test(i))).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
        // A line break inside the attribute changes nothing, and `#[test]`
        // marks a lone function.
        let f = parse("#[cfg(\ntest\n)]\nmod t { fn a() {} }\n#[test]\nfn b() {}\nfn c() {}");
        let marked: Vec<bool> = f.fns.iter().map(|f| f.is_test).collect();
        assert_eq!(marked, vec![true, true, false]);
    }

    #[test]
    fn waiver_matches_same_and_next_line() {
        let src = "a.unwrap(); // lint:allow(P1): startup config is mandatory\n\
                   // lint:allow(P1): next-line form\n\
                   b.unwrap();\n\
                   c.unwrap();";
        let f = parse(src);
        assert!(waived(&f, "P1", 1));
        assert!(waived(&f, "P1", 3));
        assert!(!waived(&f, "P1", 4));
        assert!(!waived(&f, "D1", 1));
    }

    #[test]
    fn waiver_covers_a_statement_wherever_it_breaks() {
        // Mid-chain; in a match arm, trailing or leading with more comment
        // lines after it; and across a generic comma in a `let`.
        let f = parse(
            "let x = y\n    .first()\n    // lint:allow(P1): reason\n    .expect(\"m\");\n\
             match q { Some(v) => v.unwrap(), // lint:allow(P1): arm reason\n\
             // lint:allow(P1): other arm\n// continued\nNone => panic!(\"n\"), }\n\
             // lint:allow(P1): one statement\nlet m: Map<K, V> = w\n    .unwrap();",
        );
        let hits: Vec<bool> = (0..f.tokens.len())
            .filter(|&i| {
                ["expect", "unwrap", "panic"]
                    .iter()
                    .any(|n| f.tokens[i].is_ident(n))
            })
            .map(|i| f.waiver("P1", i).is_some())
            .collect();
        assert_eq!(hits, vec![true; 4]);
    }

    #[test]
    fn waiver_requires_reason() {
        let f = parse("a.unwrap(); // lint:allow(P1)\nb.unwrap(); // lint:allow(P1):   ");
        assert!(!waived(&f, "P1", 1));
        assert!(!waived(&f, "P1", 2));
    }

    #[test]
    fn signature_types_with_parens_do_not_confuse_body_detection() {
        let items = parse("fn hof(g: fn(u32) -> u32, h: impl Fn() -> bool) -> u32 { g(1) }\n");
        assert_eq!(items.fns.len(), 1);
        assert!(items.fns[0].body.0 < items.fns[0].body.1);
    }
}
