//! The one tokenizer and token cursor behind every MLDS front end.
//!
//! ABDL, CODASYL-DML and its DDL, Daplex, SQL and DL/I all lex the same
//! way: words (case preserved; keywords match case-insensitively),
//! single-quoted strings with `''` escaping, signed numbers, `{ … }`
//! record bodies, punctuation, and `--` / `*>` line comments. The lexer
//! emits every token any of them uses and leaves it to each parser to
//! reject the ones its grammar lacks. Input is decoded as UTF-8: words
//! and literals may hold any Unicode text, and offsets are byte offsets.
//!
//! A [`Dialect`] holds the only way two languages tokenize the same
//! accepted input differently; each parser keeps its dialect as a
//! `const`.

use crate::error::{Error, Result};
use crate::query::RelOp;
use crate::value::Value;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword, name or bareword.
    Word(String),
    /// Single-quoted string literal (escapes already resolved).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `{ … }` record body text.
    Body(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `:=`
    Assign,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` (also `<>`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl Tok {
    /// The relational operator this token spells, if any.
    pub fn relop(&self) -> Option<RelOp> {
        Some(match self {
            Tok::Eq => RelOp::Eq,
            Tok::Ne => RelOp::Ne,
            Tok::Lt => RelOp::Lt,
            Tok::Le => RelOp::Le,
            Tok::Gt => RelOp::Gt,
            Tok::Ge => RelOp::Ge,
            _ => return None,
        })
    }
}

/// A token plus the byte offset where it starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub tok: Tok,
    /// Byte offset of the token start in the source text.
    pub offset: usize,
}

/// How one language's tokens differ from the others'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dialect {
    /// `-` continues a word, as in ABDL's `RETRIEVE-COMMON`; elsewhere
    /// `a-1` is the word `a` followed by the number `-1`.
    pub hyphen_in_words: bool,
}

fn parse_err(msg: impl Into<String>, offset: usize) -> Error {
    Error::Parse { msg: msg.into(), offset }
}

/// Tokenize `src` completely (trailing [`Tok::Eof`] included).
pub fn tokenize(src: &str, dialect: &Dialect) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let digits_from = |mut p: usize| {
        while bytes.get(p).is_some_and(u8::is_ascii_digit) {
            p += 1;
        }
        p
    };
    let mut out = Vec::new();
    let mut pos = 0;
    loop {
        // Whitespace and `--` / `*>` line comments.
        loop {
            while bytes.get(pos).is_some_and(u8::is_ascii_whitespace) {
                pos += 1;
            }
            match bytes.get(pos..pos + 2) {
                Some(b"--" | b"*>") => {
                    pos = src[pos..].find('\n').map_or(src.len(), |i| pos + i);
                }
                _ => break,
            }
        }
        let offset = pos;
        let Some(&b) = bytes.get(pos) else {
            out.push(Token { tok: Tok::Eof, offset });
            return Ok(out);
        };
        let next = bytes.get(pos + 1).copied();
        let (tok, len) = match (b, next) {
            (b':', Some(b'=')) => (Tok::Assign, 2),
            (b'.', Some(b'.')) => (Tok::DotDot, 2),
            (b'!', Some(b'=')) | (b'<', Some(b'>')) => (Tok::Ne, 2),
            (b'<', Some(b'=')) => (Tok::Le, 2),
            (b'>', Some(b'=')) => (Tok::Ge, 2),
            (b'!', _) => return Err(parse_err("expected `=` after `!`", offset)),
            (b'(', _) => (Tok::LParen, 1),
            (b')', _) => (Tok::RParen, 1),
            (b',', _) => (Tok::Comma, 1),
            (b';', _) => (Tok::Semi, 1),
            (b':', _) => (Tok::Colon, 1),
            (b'.', _) => (Tok::Dot, 1),
            (b'*', _) => (Tok::Star, 1),
            (b'=', _) => (Tok::Eq, 1),
            (b'<', _) => (Tok::Lt, 1),
            (b'>', _) => (Tok::Gt, 1),
            (b'\'', _) => {
                let mut s = String::new();
                let mut p = pos + 1;
                loop {
                    let Some(i) = bytes[p..].iter().position(|&b| b == b'\'') else {
                        return Err(parse_err("unterminated string literal", offset));
                    };
                    s.push_str(&src[p..p + i]);
                    p += i + 1;
                    if bytes.get(p) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    p += 1;
                }
                (Tok::Str(s), p - pos)
            }
            (b'{', _) => match src[pos + 1..].find('}') {
                Some(i) => (Tok::Body(src[pos + 1..pos + 1 + i].to_owned()), i + 2),
                None => return Err(parse_err("unterminated record body", offset)),
            },
            (b'0'..=b'9' | b'-' | b'+', _) => {
                let start = if b.is_ascii_digit() { pos } else { pos + 1 };
                let mut end = digits_from(start);
                // A fraction needs a digit right after the point, so `3.5.`
                // ends in a `.` and `16..99` is a range.
                let mut is_float = bytes.get(end) == Some(&b'.')
                    && bytes.get(end + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    end = digits_from(end + 1);
                }
                if end == start {
                    return Err(parse_err("expected digits in number", offset));
                }
                if matches!(bytes.get(end), Some(b'e' | b'E')) {
                    let signed = matches!(bytes.get(end + 1), Some(b'-' | b'+'));
                    let exp = end + 1 + usize::from(signed);
                    if bytes.get(exp).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        end = digits_from(exp);
                    }
                }
                let text = &src[pos..end];
                let bad = |e: &dyn std::fmt::Display| {
                    let kind = if is_float { "float" } else { "integer" };
                    parse_err(format!("bad {kind} literal: {e}"), offset)
                };
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|e| bad(&e))?)
                } else {
                    Tok::Int(text.parse().map_err(|e| bad(&e))?)
                };
                (tok, end - pos)
            }
            _ => {
                let c = src[pos..].chars().next().expect("pos is below the end of input");
                if c != '_' && !c.is_alphabetic() {
                    return Err(parse_err(format!("unexpected character `{c}`"), offset));
                }
                let len = src[pos..]
                    .find(|c: char| {
                        !(c == '_' || c.is_alphanumeric() || (c == '-' && dialect.hyphen_in_words))
                    })
                    .unwrap_or(src.len() - pos);
                (Tok::Word(src[pos..pos + len].to_owned()), len)
            }
        };
        out.push(Token { tok, offset });
        pos += len;
    }
}

/// A cursor over a token list with the keyword helpers every parser
/// uses. Errors are [`Error::Parse`] at the current token's offset.
#[derive(Debug)]
pub struct Cursor {
    toks: Vec<Token>,
    pos: usize,
}

impl Cursor {
    /// Tokenize `src` and wrap the tokens.
    pub fn new(src: &str, dialect: &Dialect) -> Result<Self> {
        Ok(Cursor { toks: tokenize(src, dialect)?, pos: 0 })
    }

    /// Current token.
    pub fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    /// Token after the current one.
    pub fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    /// Byte offset of the current token.
    pub fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    /// Advance and return the consumed token ([`Tok::Eof`] repeats).
    pub fn bump(&mut self) -> Tok {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
            // Tokens behind the cursor are never read again.
            std::mem::replace(&mut self.toks[self.pos - 1].tok, Tok::Eof)
        } else {
            Tok::Eof
        }
    }

    /// At end of input?
    pub fn at_eof(&self) -> bool {
        *self.peek() == Tok::Eof
    }

    /// Parse error at the current offset, in any error type that wraps
    /// [`Error`].
    pub fn err<E: From<Error>>(&self, msg: impl Into<String>) -> E {
        parse_err(msg, self.offset()).into()
    }

    /// Is the current token the given keyword (case-insensitive)?
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        self.at_kw(kw) && {
            self.bump();
            true
        }
    }

    /// Require the keyword.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    /// Require a sequence of keywords.
    pub fn expect_kws(&mut self, kws: &[&str]) -> Result<()> {
        kws.iter().try_for_each(|kw| self.expect_kw(kw))
    }

    /// Require a name (word), returned verbatim.
    pub fn name(&mut self, what: &str) -> Result<String> {
        if let Tok::Word(_) = self.peek() {
            if let Tok::Word(w) = self.bump() {
                return Ok(w);
            }
        }
        Err(self.err(format!("expected {what}, found {:?}", self.peek())))
    }

    /// Parse a comma-separated list of names.
    pub fn name_list(&mut self, what: &str) -> Result<Vec<String>> {
        let mut names = vec![self.name(what)?];
        while self.eat(Tok::Comma) {
            names.push(self.name(what)?);
        }
        Ok(names)
    }

    /// Require an integer literal.
    pub fn int(&mut self, what: &str) -> Result<i64> {
        match *self.peek() {
            Tok::Int(i) => {
                self.bump();
                Ok(i)
            }
            ref other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Require a literal: a number, a string or `NULL`.
    pub fn literal(&mut self, what: &str) -> Result<Value> {
        match self.peek() {
            Tok::Int(_) | Tok::Float(_) | Tok::Str(_) => {}
            Tok::Word(w) if w.eq_ignore_ascii_case("NULL") => {}
            other => return Err(self.err(format!("expected {what}, found {other:?}"))),
        }
        Ok(match self.bump() {
            Tok::Int(i) => Value::Int(i),
            Tok::Float(f) => Value::Float(f),
            Tok::Str(s) => Value::Str(s),
            _ => Value::Null,
        })
    }

    /// Consume the punctuation token if present.
    pub fn eat(&mut self, tok: Tok) -> bool {
        *self.peek() == tok && {
            self.bump();
            true
        }
    }

    /// Require a punctuation token.
    pub fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    /// Require the end of input.
    pub fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    /// Consume `;` terminators.
    pub fn eat_semis(&mut self) {
        while self.eat(Tok::Semi) {}
    }

    /// Consume `.` / `;` clause terminators (COBOL-style languages
    /// accept either, or none).
    pub fn eat_terminators(&mut self) {
        while matches!(self.peek(), Tok::Dot | Tok::Semi) {
            self.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::ABDL;
    use super::*;
    use Tok::*;

    /// The dialect of the CODASYL, Daplex, SQL and DL/I parsers.
    const PLAIN: Dialect = Dialect { hyphen_in_words: false };

    /// A row of the lexer table: source, dialect, and the tokens before
    /// `Eof` or the byte offset of the error.
    type Row = (&'static str, Dialect, std::result::Result<Vec<Tok>, usize>);

    fn check(rows: Vec<Row>) {
        for (src, dialect, want) in rows {
            let got = match tokenize(src, &dialect) {
                Ok(toks) => Ok(toks.into_iter().map(|t| t.tok).collect()),
                Err(Error::Parse { offset, .. }) => Err(offset),
                Err(other) => panic!("{src:?}: not a parse error: {other:?}"),
            };
            let want = want.map(|mut toks| {
                toks.push(Eof);
                toks
            });
            assert_eq!(got, want, "{src:?} in {dialect:?}");
        }
    }

    fn w(s: &str) -> Tok {
        Word(s.into())
    }

    fn s(text: &str) -> Tok {
        Str(text.into())
    }

    #[test]
    fn lexes_punctuation_and_relops() {
        check(vec![
            (
                "( ) , ; = != <> < <= > >= *",
                ABDL,
                Ok(vec![LParen, RParen, Comma, Semi, Eq, Ne, Ne, Lt, Le, Gt, Ge, Star]),
            ),
            ("= != < <= > >= <>", PLAIN, Ok(vec![Eq, Ne, Lt, Le, Gt, Ge, Ne])),
            ("major := 'CS' : x", PLAIN, Ok(vec![w("major"), Assign, s("CS"), Colon, w("x")])),
            ("!x", PLAIN, Err(0)),
            ("§", PLAIN, Err(0)),
        ]);
    }

    #[test]
    fn lexes_numbers() {
        check(vec![
            (
                "42 -7 3.5 -0.25 1e3",
                ABDL,
                Ok(vec![Int(42), Int(-7), Float(3.5), Float(-0.25), Float(1000.0)]),
            ),
            ("1e20 2.5E-3 2e", PLAIN, Ok(vec![Float(1e20), Float(0.0025), Int(2), w("e")])),
            ("x - 1", PLAIN, Err(2)),
            ("99999999999999999999", PLAIN, Err(0)),
        ]);
    }

    /// A fraction needs a digit right after the point.
    #[test]
    fn period_does_not_eat_floats() {
        check(vec![
            ("3.5.", PLAIN, Ok(vec![Float(3.5), Dot])),
            ("RANGE 16..99", PLAIN, Ok(vec![w("RANGE"), Int(16), DotDot, Int(99)])),
            ("0.5..3.5", PLAIN, Ok(vec![Float(0.5), DotDot, Float(3.5)])),
        ]);
    }

    #[test]
    fn lexes_strings_with_escapes() {
        check(vec![(
            "'Advanced Database' 'O''Brien'",
            ABDL,
            Ok(vec![s("Advanced Database"), s("O'Brien")]),
        )]);
    }

    #[test]
    fn strings_and_comments() {
        check(vec![
            ("MOVE 'O''Brien' -- comment\n TO", PLAIN, Ok(vec![w("MOVE"), s("O'Brien"), w("TO")])),
            ("-- hi\n'O''Brien' 3.5", PLAIN, Ok(vec![s("O'Brien"), Float(3.5)])),
            ("GET *> a COBOL comment\nx", PLAIN, Ok(vec![w("GET"), w("x")])),
        ]);
    }

    #[test]
    fn skips_line_comments() {
        check(vec![("a -- a comment\n b", ABDL, Ok(vec![w("a"), w("b")]))]);
    }

    #[test]
    fn unterminated_string_errors() {
        check(vec![("'oops", ABDL, Err(0)), ("x 'oops", PLAIN, Err(2)), ("{open", ABDL, Err(0))]);
    }

    /// Clauses of each language; the lexer leaves rejecting a token to
    /// the parser (Daplex has no `.`).
    #[test]
    fn lexes_ddl_clause() {
        check(vec![
            (
                "02 name TYPE IS CHARACTER 30.",
                PLAIN,
                Ok(vec![Int(2), w("name"), w("TYPE"), w("IS"), w("CHARACTER"), Int(30), Dot]),
            ),
            (
                "SELECT s.sname FROM supplier s WHERE sno >= 2;",
                PLAIN,
                Ok(vec![
                    w("SELECT"),
                    w("s"),
                    Dot,
                    w("sname"),
                    w("FROM"),
                    w("supplier"),
                    w("s"),
                    w("WHERE"),
                    w("sno"),
                    Ge,
                    Int(2),
                    Semi,
                ]),
            ),
            (
                "(<FILE, f>, {notes})",
                ABDL,
                Ok(vec![
                    LParen,
                    Lt,
                    w("FILE"),
                    Comma,
                    w("f"),
                    Gt,
                    Comma,
                    Body("notes".into()),
                    RParen,
                ]),
            ),
            ("x.", PLAIN, Ok(vec![w("x"), Dot])),
        ]);
    }

    /// The one dialect difference: `-` inside a word.
    #[test]
    fn lexes_hyphenated_ident() {
        check(vec![
            ("RETRIEVE-COMMON", ABDL, Ok(vec![w("RETRIEVE-COMMON")])),
            ("a-1", ABDL, Ok(vec![w("a-1")])),
            ("a-1", PLAIN, Ok(vec![w("a"), Int(-1)])),
        ]);
    }

    /// Words and literals are UTF-8; offsets are byte offsets.
    #[test]
    fn decodes_utf8_words_and_literals() {
        check(vec![
            ("'Müller' café", PLAIN, Ok(vec![s("Müller"), w("café")])),
            ("'東京 ''Ōsaka''' naïve_1", ABDL, Ok(vec![s("東京 'Ōsaka'"), w("naïve_1")])),
            ("'é' ¿", PLAIN, Err(5)),
        ]);
    }

    #[test]
    fn cursor_keyword_helpers() {
        let mut c = Cursor::new("SET NAME IS advisor.", &PLAIN).unwrap();
        assert!(c.at_kw("set"));
        c.expect_kws(&["SET", "NAME", "IS"]).unwrap();
        assert_eq!(c.name("set name").unwrap(), "advisor");
        assert!(c.eat(Dot));
        assert!(c.at_eof());
        assert_eq!(c.bump(), Eof);
    }
}
