//! A small Rust lexer: the analyzer's only front end.
//!
//! Every rule reads the token stream this produces, or the item model
//! ([`crate::items`]) built on it, so no verdict depends on where a line
//! breaks. The lexer models Rust's lexical structure (comments,
//! string/char/byte literals raw and cooked, lifetimes, numbers,
//! identifiers, punctuation) and is lossy where the analyses don't care:
//! literal *contents* are dropped (a string becomes one
//! [`TokenKind::Literal`] token), and multi-character operators are emitted
//! as single-character [`TokenKind::Punct`] tokens (`::` is two `:`
//! tokens; the byte spans tell `->` from `- >`).
//!
//! Comments do not enter the token stream. They come back separately as
//! [`Comment`]s, each placed by the index of the code token that follows
//! it; waivers and SAFETY justifications live there.

/// What a token is; contents are only kept for identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `impl`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`) — the tick plus the name, kept distinct from char
    /// literals.
    Lifetime,
    /// Any literal: string/raw string/byte string/char/byte/number.
    /// Contents are dropped so later passes can never match inside them.
    Literal,
    /// One punctuation character (`.`, `(`, `{`, `!`, `:`, …).
    Punct,
}

/// One lexed code token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's class.
    pub kind: TokenKind,
    /// Identifier text (without a raw `r#` prefix), the lifetime's name, or
    /// the single punctuation character; empty for literals.
    pub text: String,
    /// 1-indexed source line of the token's first character.
    pub line: usize,
    /// Byte range `start..end` of the token in the source text.
    pub span: (usize, usize),
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }
}

/// One comment: line, block or doc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// The text between the delimiters (`//` and the line end, or `/*` and
    /// `*/`); a doc comment's extra `/` or `!` is kept.
    pub text: String,
    /// 1-indexed line the comment starts on.
    pub line: usize,
    /// Byte range `start..end` of the comment, delimiters included.
    pub span: (usize, usize),
    /// Whether a code token precedes the comment on its line.
    pub trailing: bool,
    /// Index of the first code token after the comment (the token count at
    /// the end of the file).
    pub next: usize,
}

/// A lexed file: its code tokens and, apart, its comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `text` into code tokens and comments, skipping whitespace.
///
/// Unterminated constructs (a string or block comment still open at EOF)
/// simply end the stream — the lexer is for analysis, not compilation, so
/// it never fails.
pub fn lex(text: &str) -> Lexed {
    Lexer {
        text,
        chars: text.char_indices().collect(),
        pos: 0,
        line: 1,
        code_line: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    text: &'a str,
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
    /// The line the last code token ended on (0 before the first token).
    code_line: usize,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let (start, line) = (self.pos, self.line);
            let kind = match c {
                c if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                '/' if self.peek(1) == Some('/') => {
                    while self.peek(0).is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                    self.push_comment(start, line);
                    continue;
                }
                '/' if self.peek(1) == Some('*') => {
                    self.block_comment();
                    self.push_comment(start, line);
                    continue;
                }
                '"' => {
                    self.string();
                    TokenKind::Literal
                }
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => {
                    self.number();
                    TokenKind::Literal
                }
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => {
                    self.bump();
                    TokenKind::Punct
                }
            };
            let span = (self.offset(start), self.offset(self.pos));
            let raw = &self.text[span.0..span.1];
            let text = match kind {
                TokenKind::Ident => raw.trim_start_matches("r#"),
                TokenKind::Lifetime => &raw[1..],
                TokenKind::Punct => raw,
                TokenKind::Literal => "",
            };
            self.out.tokens.push(Token {
                kind,
                text: text.to_string(),
                line,
                span,
            });
            self.code_line = self.line;
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    /// Byte offset of char index `pos` (the text length past the end).
    fn offset(&self, pos: usize) -> usize {
        self.chars.get(pos).map_or(self.text.len(), |&(b, _)| b)
    }

    /// Advances one char, tracking line numbers.
    fn bump(&mut self) {
        if self.peek(0) == Some('\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn push_comment(&mut self, start: usize, line: usize) {
        let span = (self.offset(start), self.offset(self.pos));
        let raw = &self.text[span.0 + 2..span.1];
        let text = if self.text[span.0..].starts_with("/*") {
            raw.strip_suffix("*/").unwrap_or(raw)
        } else {
            raw
        };
        self.out.comments.push(Comment {
            text: text.to_string(),
            line,
            span,
            trailing: self.code_line == line,
            next: self.out.tokens.len(),
        });
    }

    /// Nested block comment: `/* /* */ */` only closes at depth zero.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Cooked string starting at the opening `"`: `\` escapes the next
    /// character (so `\"` does not close).
    fn string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            self.bump();
            match c {
                '\\' => self.bump(),
                '"' => break,
                _ => {}
            }
        }
    }

    /// Raw string starting at the first `#` or `"` after the `r`/`br`
    /// prefix: `r##"…"##` closes only on `"` followed by the same number
    /// of hashes. Backslashes are NOT escapes inside raw strings.
    fn raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '"' && (1..=hashes).all(|k| self.peek(k) == Some('#')) {
                for _ in 0..=hashes {
                    self.bump();
                }
                break;
            }
            self.bump();
        }
    }

    /// `'a` lifetime vs `'x'` / `'\n'` char literal, starting at the tick.
    fn char_or_lifetime(&mut self) -> TokenKind {
        // Escaped char literal: `'\…'` — skip the escaped char itself (so
        // `'\''` does not close on its payload), then multi-char escapes
        // (`\x41`, `\u{…}`) run to the closing tick.
        if self.peek(1) == Some('\\') {
            for _ in 0..3 {
                self.bump();
            }
            while self.peek(0).is_some_and(|c| c != '\'') {
                self.bump();
            }
            self.bump(); // closing tick
            return TokenKind::Literal;
        }
        // `'c'` (any single char, including `"`).
        if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            for _ in 0..3 {
                self.bump();
            }
            return TokenKind::Literal;
        }
        // Lifetime: tick + identifier.
        self.bump();
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        TokenKind::Lifetime
    }

    /// Number literal: digits, `_`, radix prefixes, exponents, type
    /// suffixes — all folded into one [`TokenKind::Literal`]. A trailing
    /// `.` is included only when followed by a digit (so `1.max(2)` lexes
    /// the method call).
    fn number(&mut self) {
        self.alnum_run();
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            self.alnum_run();
        }
        // Signed exponent (`1e-3`): the alnum scan stops at the sign.
        if matches!(self.peek(0), Some('-' | '+'))
            && matches!(self.chars[self.pos - 1].1, 'e' | 'E')
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.bump();
            self.alnum_run();
        }
    }

    fn alnum_run(&mut self) {
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
    }

    /// Identifier, keyword, or a literal prefix (`r"`, `r#"`, `b"`, `br"`,
    /// `b'`, `r#ident` raw identifiers).
    fn ident_or_prefixed_literal(&mut self) -> TokenKind {
        let start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        let ident: String = self.chars[start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        match (ident.as_str(), self.peek(0)) {
            ("r" | "br", Some('"')) => self.raw_string(),
            ("r" | "br", Some('#')) => {
                // `r#"…"#` raw string vs `r#ident` raw identifier: a raw
                // string has `"` after the hashes.
                let mut k = 0;
                while self.peek(k) == Some('#') {
                    k += 1;
                }
                if self.peek(k) == Some('"') {
                    self.raw_string();
                } else {
                    if ident == "r" {
                        // Raw identifier `r#ident`: the hash and the name
                        // belong to this token.
                        self.bump();
                        while self.peek(0).is_some_and(is_ident_continue) {
                            self.bump();
                        }
                    }
                    return TokenKind::Ident;
                }
            }
            // Cooked byte string `b"…"` / byte char `b'…'`.
            ("b", Some('"')) => self.string(),
            ("b", Some('\'')) => {
                self.char_or_lifetime();
            }
            _ => return TokenKind::Ident,
        }
        TokenKind::Literal
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(usize, String)> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.line, t.text))
            .collect()
    }

    #[test]
    fn idents_and_lines() {
        let toks = idents("fn main() {\n    let x = foo();\n}");
        assert_eq!(
            toks,
            vec![
                (1, "fn".into()),
                (1, "main".into()),
                (2, "let".into()),
                (2, "x".into()),
                (2, "foo".into()),
            ]
        );
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let toks =
            idents("a(); // unwrap()\n/* panic! /* nested */ still */ b();\n\"expect(\" c();");
        assert_eq!(
            toks,
            vec![(1, "a".into()), (2, "b".into()), (3, "c".into())]
        );
        let src =
            "let a = \"panic!\"; // but panic! here is comment\nlet b = 1; /* panic! */ let c;";
        let lexed = lex(src);
        assert!(idents(src).iter().all(|(_, t)| t != "panic"));
        assert!(idents(src).contains(&(2, "c".into())));
        assert!(lexed.comments[0].text.contains("panic!"));
        // Nested block comments span lines; code after them keeps its line.
        let toks = idents("a /* x /* y */ still */ b\n/* open\nclose */ tail");
        assert_eq!(
            toks,
            vec![(1, "a".into()), (1, "b".into()), (3, "tail".into())]
        );
    }

    #[test]
    fn comments_carry_text_line_placement_and_next_token() {
        let src = "a(); // trailing\n// leading\n/* block */ b();\n";
        let lexed = lex(src);
        let c: Vec<(&str, usize, bool, usize)> = lexed
            .comments
            .iter()
            .map(|c| (c.text.as_str(), c.line, c.trailing, c.next))
            .collect();
        // `a ( ) ;` are tokens 0..4, so every comment precedes token 4.
        assert_eq!(
            c,
            vec![
                (" trailing", 1, true, 4),
                (" leading", 2, false, 4),
                (" block ", 3, false, 4)
            ]
        );
    }

    #[test]
    fn spans_rebuild_the_source_exactly() {
        let src = "fn r#type<'a>(x: &'a str) -> u8 { // c\n    b'x' + 1.0e-3 /* d */ as u8\n}\n";
        let lexed = lex(src);
        let mut pieces: Vec<(usize, usize)> = lexed.tokens.iter().map(|t| t.span).collect();
        pieces.extend(lexed.comments.iter().map(|c| c.span));
        pieces.sort_unstable();
        let mut rebuilt = String::new();
        let mut at = 0;
        for (lo, hi) in pieces {
            assert!(
                src[at..lo].trim().is_empty(),
                "gap {at}..{lo} is not whitespace"
            );
            rebuilt.push_str(&src[at..hi]);
            at = hi;
        }
        rebuilt.push_str(&src[at..]);
        assert_eq!(rebuilt, src);
        assert_eq!(lexed.tokens[1].text, "type");
        assert_eq!(
            &src[lexed.tokens[1].span.0..lexed.tokens[1].span.1],
            "r#type"
        );
    }

    #[test]
    fn raw_and_byte_strings_are_single_literals() {
        for src in [
            "let s = r#\"unwrap() \"inner\" panic!\"#; done();",
            "let s = br#\"unwrap() \\\"#; done();",
            "let s = b\"unwrap()\"; done();",
            "let s = r\"unwrap()\"; done();",
            "let s = r##\"one \"# two\"##; done();",
            "let s = br\"panic!\"; done();",
        ] {
            let ids = idents(src);
            assert!(
                ids.iter().all(|(_, t)| t != "unwrap" && t != "panic"),
                "{src}: {ids:?}"
            );
            assert!(ids.iter().any(|(_, t)| t == "done"), "{src}: {ids:?}");
        }
        // `br#"…\"#`: the backslash is no escape, so the literal closes and
        // the code after it survives.
        let ids = idents("let s = br#\"tail\\\"#; x.unwrap();");
        assert!(ids.iter().any(|(_, t)| t == "unwrap"), "{ids:?}");
    }

    #[test]
    fn multiline_raw_string_tracks_lines() {
        let toks = idents("let s = r#\"line one\nline two\"#;\nafter();");
        assert_eq!(toks.last().unwrap(), &(3, "after".to_string()));
        let toks = idents("let s = r#\"first unwrap()\nsecond panic!\ndone\"#; after();");
        assert!(toks.iter().all(|(_, t)| t != "unwrap" && t != "panic"));
        assert_eq!(toks.last(), Some(&(3, "after".to_string())));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { let q = '\"'; let e = '\\''; }").tokens;
        let lifetimes: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        // The quote/escaped-quote char literals must not open string state:
        // the closing brace survives as punctuation.
        assert!(toks.iter().any(|t| t.is_punct('}')));
        // `'\''` closes after its payload, not on it.
        let ids = idents("let q = '\\''; x.unwrap();");
        assert!(ids.iter().any(|(_, t)| t == "unwrap"), "{ids:?}");
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = idents("let x = 1.max(2) + 0xff + 1.0e-3 + 10usize;");
        assert!(toks.iter().any(|(_, t)| t == "max"));
        assert!(!toks
            .iter()
            .any(|(_, t)| t == "ff" || t == "e" || t == "usize"));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = idents("let r#type = r#match();");
        assert!(toks.iter().any(|(_, t)| t == "type"));
        assert!(toks.iter().any(|(_, t)| t == "match"));
    }
}
