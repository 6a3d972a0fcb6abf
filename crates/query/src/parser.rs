//! A hand-written parser for datalog-style conjunctive queries.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query  := [name] "(" terms? ")" ":-" lit ("," lit)* "."?
//! lit    := atom | ineq
//! atom   := relname "(" terms ")"
//! ineq   := term "!=" term
//! term   := IDENT            (variable)
//!         | "\"" chars "\""  (text constant)
//!         | INT              (integer constant)
//! ```
//!
//! Identifiers are variables; constants must be quoted or numeric, so
//! `Teams(x, "EU")` reads as the paper writes `Teams(x, EU)`. Inside a
//! quoted constant, `\` starts one of the escapes that `{:?}` prints, so
//! [`ConjunctiveQuery::display`] output parses back to the same query.

use std::fmt;
use std::sync::Arc;

use qoco_data::{Schema, Value};

use crate::ast::{Atom, ConjunctiveQuery, Inequality, QueryError, Term, Var};

/// Parse errors with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexical error at byte offset.
    Lex {
        /// Byte offset of the offending character.
        at: usize,
        /// The offending character.
        found: char,
    },
    /// Unexpected token.
    Unexpected {
        /// Byte offset of the token.
        at: usize,
        /// What was found.
        found: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Input ended prematurely.
    Eof {
        /// What was expected.
        expected: &'static str,
    },
    /// A relation name is not in the schema.
    UnknownRelation(String),
    /// The parsed query failed semantic validation.
    Invalid(QueryError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex { at, found } => {
                write!(f, "unexpected character {found:?} at offset {at}")
            }
            ParseError::Unexpected {
                at,
                found,
                expected,
            } => {
                write!(f, "expected {expected} but found `{found}` at offset {at}")
            }
            ParseError::Eof { expected } => {
                write!(f, "unexpected end of input; expected {expected}")
            }
            ParseError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ParseError::Invalid(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        ParseError::Invalid(e)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Turnstile, // :-
    Neq,       // !=
    Dot,
}

/// Decode the escape sequence at the start of `rest` (which begins with
/// `\`) into its character and its length in chars. The set is exactly
/// what `{:?}` emits for a string, so [`ConjunctiveQuery::display`] output
/// parses back to the same constants: `\\`, `\"`, `\'`, `\t`, `\n`, `\r`,
/// `\0` and `\u{hex}`. Anything else is not an escape.
fn unescape(rest: &[char]) -> Option<(char, usize)> {
    let c = match rest.get(1)? {
        '\\' => '\\',
        '"' => '"',
        '\'' => '\'',
        't' => '\t',
        'n' => '\n',
        'r' => '\r',
        '0' => '\0',
        'u' if rest.get(2) == Some(&'{') => {
            // `\u{` plus at most six hex digits: the `}` is within 10 chars
            let close = rest.iter().take(10).position(|&c| c == '}')?;
            let hex = &rest[3..close];
            if hex.is_empty() || !hex.iter().all(char::is_ascii_hexdigit) {
                return None;
            }
            let code = u32::from_str_radix(&hex.iter().collect::<String>(), 16).ok()?;
            return Some((char::from_u32(code)?, close + 1));
        }
        _ => return None,
    };
    Some((c, 2))
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            ',' => {
                toks.push((i, Tok::Comma));
                i += 1;
            }
            '.' => {
                toks.push((i, Tok::Dot));
                i += 1;
            }
            ':' if bytes.get(i + 1) == Some(&'-') => {
                toks.push((i, Tok::Turnstile));
                i += 2;
            }
            '!' if bytes.get(i + 1) == Some(&'=') => {
                toks.push((i, Tok::Neq));
                i += 2;
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            let (c, len) = unescape(&bytes[i..])
                                .ok_or(ParseError::Lex { at: i, found: '\\' })?;
                            s.push(c);
                            i += len;
                        }
                        Some(&c) => {
                            s.push(c);
                            i += 1;
                        }
                        None => {
                            return Err(ParseError::Eof {
                                expected: "closing quote",
                            })
                        }
                    }
                }
                toks.push((start, Tok::Str(s)));
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                let mut s = String::new();
                if c == '-' {
                    s.push('-');
                    i += 1;
                }
                while let Some(&d) = bytes.get(i) {
                    if d.is_ascii_digit() {
                        s.push(d);
                        i += 1;
                    } else {
                        break;
                    }
                }
                let n: i64 = s.parse().map_err(|_| ParseError::Lex {
                    at: start,
                    found: c,
                })?;
                toks.push((start, Tok::Int(n)));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                let mut s = String::new();
                while let Some(&d) = bytes.get(i) {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push((start, Tok::Ident(s)));
            }
            other => {
                return Err(ParseError::Lex {
                    at: i,
                    found: other,
                })
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    schema: &'a Arc<Schema>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self, expected: &'static str) -> Result<(usize, Tok), ParseError> {
        let item = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or(ParseError::Eof { expected })?;
        self.pos += 1;
        Ok(item)
    }

    fn expect(&mut self, want: Tok, expected: &'static str) -> Result<(), ParseError> {
        let (at, got) = self.next(expected)?;
        if got == want {
            Ok(())
        } else {
            Err(ParseError::Unexpected {
                at,
                found: format!("{got:?}"),
                expected,
            })
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let (at, tok) = self.next("a term")?;
        match tok {
            Tok::Ident(name) => Ok(Term::Var(Var::new(name))),
            Tok::Str(s) => Ok(Term::Const(Value::text(s))),
            Tok::Int(n) => Ok(Term::Const(Value::Int(n))),
            other => Err(ParseError::Unexpected {
                at,
                found: format!("{other:?}"),
                expected: "a variable, string or integer",
            }),
        }
    }

    fn term_list(&mut self) -> Result<Vec<Term>, ParseError> {
        self.expect(Tok::LParen, "`(`")?;
        let mut terms = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
            return Ok(terms);
        }
        loop {
            terms.push(self.term()?);
            match self.next("`,` or `)`")? {
                (_, Tok::Comma) => continue,
                (_, Tok::RParen) => break,
                (at, other) => {
                    return Err(ParseError::Unexpected {
                        at,
                        found: format!("{other:?}"),
                        expected: "`,` or `)`",
                    })
                }
            }
        }
        Ok(terms)
    }

    fn query(&mut self) -> Result<ConjunctiveQuery, ParseError> {
        // optional head name
        let name = if let Some(Tok::Ident(_)) = self.peek() {
            match self.next("head")? {
                (_, Tok::Ident(n)) => n,
                _ => unreachable!("peeked an identifier"),
            }
        } else {
            "Q".to_string()
        };
        let head = self.term_list()?;
        self.expect(Tok::Turnstile, "`:-`")?;

        let mut atoms = Vec::new();
        let mut inequalities = Vec::new();
        loop {
            // a literal: either `Rel(...)` or `term != term`
            match self.peek() {
                Some(Tok::Ident(_)) => {
                    // could be an atom (ident followed by `(`) or an
                    // inequality lhs (ident followed by `!=`)
                    let (at, tok) = self.next("a literal")?;
                    let ident = match tok {
                        Tok::Ident(s) => s,
                        _ => unreachable!("peeked an identifier"),
                    };
                    match self.peek() {
                        Some(Tok::LParen) => {
                            let rel = self
                                .schema
                                .rel_id(&ident)
                                .map_err(|_| ParseError::UnknownRelation(ident.clone()))?;
                            let terms = self.term_list()?;
                            atoms.push(Atom::new(rel, terms));
                        }
                        Some(Tok::Neq) => {
                            self.pos += 1;
                            let rhs = self.term()?;
                            inequalities.push(Inequality::new(Var::new(ident), rhs));
                        }
                        _ => {
                            return Err(ParseError::Unexpected {
                                at,
                                found: ident,
                                expected: "`(` (atom) or `!=` (inequality)",
                            })
                        }
                    }
                }
                Some(other) => {
                    let found = format!("{other:?}");
                    let at = self.toks[self.pos].0;
                    return Err(ParseError::Unexpected {
                        at,
                        found,
                        expected: "a literal",
                    });
                }
                None => {
                    return Err(ParseError::Eof {
                        expected: "a literal",
                    })
                }
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.pos += 1;
                    continue;
                }
                Some(Tok::Dot) => {
                    self.pos += 1;
                    break;
                }
                None => break,
                Some(other) => {
                    let found = format!("{other:?}");
                    let at = self.toks[self.pos].0;
                    return Err(ParseError::Unexpected {
                        at,
                        found,
                        expected: "`,` or `.`",
                    });
                }
            }
        }
        if let Some(t) = self.peek() {
            let found = format!("{t:?}");
            let at = self.toks[self.pos].0;
            return Err(ParseError::Unexpected {
                at,
                found,
                expected: "end of input",
            });
        }
        ConjunctiveQuery::new(self.schema.clone(), name, head, atoms, inequalities)
            .map_err(ParseError::from)
    }
}

/// Parse a conjunctive query with inequalities against `schema`.
///
/// ```
/// use qoco_data::Schema;
/// use qoco_query::parse_query;
///
/// let schema = Schema::builder()
///     .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
///     .relation("Teams", &["country", "continent"])
///     .build()
///     .unwrap();
/// let q = parse_query(
///     &schema,
///     r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2),
///                Teams(x, "EU"), d1 != d2."#,
/// )
/// .unwrap();
/// assert_eq!(q.atoms().len(), 3);
/// assert_eq!(q.inequalities().len(), 1);
/// ```
pub fn parse_query(schema: &Arc<Schema>, input: &str) -> Result<ConjunctiveQuery, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        schema,
    };
    p.query()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::Schema;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap()
    }

    #[test]
    fn parses_paper_q1() {
        let s = schema();
        let q = parse_query(
            &s,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap();
        assert_eq!(q.name(), "Q1");
        assert_eq!(q.atoms().len(), 3);
        assert_eq!(q.inequalities().len(), 1);
        assert_eq!(q.head(), &[Term::var("x")]);
    }

    #[test]
    fn parses_paper_q2() {
        let s = schema();
        let q = parse_query(
            &s,
            r#"Q2(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, "Final", u), Teams(y, "EU")."#,
        )
        .unwrap();
        assert_eq!(q.atoms().len(), 4);
        assert!(q.inequalities().is_empty());
    }

    #[test]
    fn head_name_is_optional() {
        let s = schema();
        let q = parse_query(&s, r#"(x) :- Teams(x, "EU")"#).unwrap();
        assert_eq!(q.name(), "Q");
    }

    #[test]
    fn trailing_dot_is_optional() {
        let s = schema();
        assert!(parse_query(&s, r#"(x) :- Teams(x, "EU")."#).is_ok());
        assert!(parse_query(&s, r#"(x) :- Teams(x, "EU")"#).is_ok());
    }

    #[test]
    fn integer_constants() {
        let s = schema();
        let q = parse_query(&s, r#"(x) :- Players(x, y, 1979, w)"#).unwrap();
        assert_eq!(q.atoms()[0].terms[2], Term::cons(1979i64));
    }

    #[test]
    fn negative_integer_constants() {
        let s = schema();
        let q = parse_query(&s, r#"(x) :- Players(x, y, -1, w)"#).unwrap();
        assert_eq!(q.atoms()[0].terms[2], Term::cons(-1i64));
    }

    #[test]
    fn inequality_with_constant_rhs() {
        let s = schema();
        let q = parse_query(&s, r#"(x) :- Teams(x, c), c != "EU""#).unwrap();
        assert_eq!(q.inequalities()[0].rhs, Term::cons("EU"));
    }

    #[test]
    fn unknown_relation_is_reported() {
        let s = schema();
        let err = parse_query(&s, r#"(x) :- Nope(x)"#).unwrap_err();
        assert_eq!(err, ParseError::UnknownRelation("Nope".into()));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let s = schema();
        let err = parse_query(&s, r#"(x) :- Teams(x)"#).unwrap_err();
        assert!(matches!(
            err,
            ParseError::Invalid(QueryError::AtomArity { .. })
        ));
    }

    #[test]
    fn unsafe_head_is_reported() {
        let s = schema();
        let err = parse_query(&s, r#"(w) :- Teams(x, y)"#).unwrap_err();
        assert!(matches!(
            err,
            ParseError::Invalid(QueryError::UnsafeHeadVar(_))
        ));
    }

    #[test]
    fn unterminated_string_is_reported() {
        let s = schema();
        let err = parse_query(&s, r#"(x) :- Teams(x, "EU"#).unwrap_err();
        assert!(matches!(err, ParseError::Eof { .. }));
    }

    #[test]
    fn garbage_after_query_is_rejected() {
        let s = schema();
        let err = parse_query(&s, r#"(x) :- Teams(x, "EU"). extra"#).unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn lex_error_position() {
        let s = schema();
        let err = parse_query(&s, "(x) :- Teams(x, @)").unwrap_err();
        assert!(matches!(err, ParseError::Lex { found: '@', .. }));
    }

    #[test]
    fn missing_turnstile() {
        let s = schema();
        let err = parse_query(&s, r#"(x) Teams(x, "EU")"#).unwrap_err();
        assert!(matches!(
            err,
            ParseError::Unexpected {
                expected: "`:-`",
                ..
            }
        ));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let s = schema();
        let q = parse_query(
            &s,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Teams(x, "EU"), d1 != x."#,
        )
        .unwrap();
        let q2 = parse_query(&s, &q.display()).unwrap();
        assert_eq!(q.atoms(), q2.atoms());
        assert_eq!(q.inequalities(), q2.inequalities());
        assert_eq!(q.head(), q2.head());
    }

    #[test]
    fn string_escapes_decode_and_unknown_ones_are_rejected() {
        let s = schema();
        let q = parse_query(&s, r#"(x) :- Teams(x, "a\\b\"c\td\u{200b}e")"#).unwrap();
        assert_eq!(q.atoms()[0].terms[1], Term::cons("a\\b\"c\td\u{200b}e"));
        for bad in [r"\e", r"\u{}", r"\u{+41}", r"\u{110000}", r"\u41", "\\"] {
            let text = format!(r#"(x) :- Teams(x, "{bad}")"#);
            assert!(
                matches!(
                    parse_query(&s, &text),
                    Err(ParseError::Lex { .. } | ParseError::Eof { .. })
                ),
                "{text} must not parse"
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParseError::Unexpected {
            at: 3,
            found: "x".into(),
            expected: "`,`",
        };
        assert!(e.to_string().contains("offset 3"));
        assert!(ParseError::UnknownRelation("R".into())
            .to_string()
            .contains('R'));
    }
}
