//! Recursive-descent parser for ABDL requests.

use super::lexer::{Cursor, Dialect, Tok};
use crate::error::Result;
use crate::query::{Predicate, Query};
use crate::record::Record;
use crate::request::{Aggregate, Modifier, Request, Target, TargetList, Transaction};
use crate::value::Value;

/// ABDL's one tokenizing difference: `-` continues a word
/// (`RETRIEVE-COMMON`).
pub(super) const ABDL: Dialect = Dialect { hyphen_in_words: true };

/// Parse a single ABDL request; trailing input is an error.
pub fn parse_request(src: &str) -> Result<Request> {
    let mut c = Cursor::new(src, &ABDL)?;
    let req = request(&mut c)?;
    c.eat_semis();
    c.expect_eof()?;
    Ok(req)
}

/// Parse a transaction: one or more requests separated by optional `;`
/// or newlines.
pub fn parse_transaction(src: &str) -> Result<Transaction> {
    let mut c = Cursor::new(src, &ABDL)?;
    let mut requests = Vec::new();
    c.eat_semis();
    while !c.at_eof() {
        requests.push(request(&mut c)?);
        c.eat_semis();
    }
    Ok(Transaction::new(requests))
}

fn request(c: &mut Cursor) -> Result<Request> {
    let name = c.name("request operation")?;
    match name.to_ascii_uppercase().as_str() {
        "INSERT" => insert(c),
        "DELETE" => Ok(Request::Delete { query: query(c)? }),
        "UPDATE" => {
            let query = query(c)?;
            let modifier = modifier(c)?;
            Ok(Request::Update { query, modifier })
        }
        "RETRIEVE" => {
            let query = query(c)?;
            let target = target_list(c)?;
            let by = if c.eat_kw("BY") { Some(c.name("by-attribute")?) } else { None };
            Ok(Request::Retrieve { query, target, by })
        }
        "RETRIEVE-COMMON" => {
            let left = query(c)?;
            c.expect_tok(Tok::LParen, "`(`")?;
            let left_attr = c.name("join attribute")?;
            c.expect_tok(Tok::RParen, "`)`")?;
            if !c.eat_kw("COMMON") {
                return Err(c.err("expected `COMMON`"));
            }
            let right = query(c)?;
            c.expect_tok(Tok::LParen, "`(`")?;
            let right_attr = c.name("join attribute")?;
            c.expect_tok(Tok::RParen, "`)`")?;
            let target = target_list(c)?;
            Ok(Request::RetrieveCommon { left, left_attr, right, right_attr, target })
        }
        other => Err(c.err(format!("unknown ABDL operation `{other}`"))),
    }
}

fn insert(c: &mut Cursor) -> Result<Request> {
    c.expect_tok(Tok::LParen, "`(` opening keyword list")?;
    let mut record = Record::new();
    loop {
        match c.peek() {
            Tok::Lt => {
                c.bump();
                let attr = c.name("attribute name")?;
                c.expect_tok(Tok::Comma, "`,` in keyword")?;
                let value = value(c)?;
                c.expect_tok(Tok::Gt, "`>` closing keyword")?;
                record.set(attr, value);
            }
            Tok::Body(text) => {
                record.body = Some(text.clone());
                c.bump();
            }
            other => {
                return Err(c.err(format!("expected `<attr, value>` keyword, found {other:?}")))
            }
        }
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    c.expect_tok(Tok::RParen, "`)` closing keyword list")?;
    Ok(Request::Insert { record })
}

fn modifier(c: &mut Cursor) -> Result<Modifier> {
    c.expect_tok(Tok::LParen, "`(` opening modifier")?;
    let attr = c.name("modifier attribute")?;
    c.expect_tok(Tok::Eq, "`=` in modifier")?;
    let value = value(c)?;
    c.expect_tok(Tok::RParen, "`)` closing modifier")?;
    Ok(Modifier { attr, value })
}

fn target_list(c: &mut Cursor) -> Result<TargetList> {
    c.expect_tok(Tok::LParen, "`(` opening target list")?;
    if c.eat(Tok::Star) {
        c.expect_tok(Tok::RParen, "`)` closing target list")?;
        return Ok(TargetList::all());
    }
    let mut targets = Vec::new();
    loop {
        let name = c.name("target attribute")?;
        match Aggregate::from_name(&name) {
            Some(op) if c.eat(Tok::LParen) => {
                let attr = c.name("aggregated attribute")?;
                c.expect_tok(Tok::RParen, "`)` closing aggregate")?;
                targets.push(Target::Agg(op, attr));
            }
            _ => targets.push(Target::Attr(name)),
        }
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    c.expect_tok(Tok::RParen, "`)` closing target list")?;
    Ok(TargetList { targets })
}

/// Queries: the grammar is permissive about parenthesization; we
/// parse a parenthesized boolean expression over predicates with
/// `and` binding tighter than `or`, then flatten to DNF. Inputs are
/// already in DNF per the model definition, so flattening never
/// needs distribution — a conjunction containing a disjunction is
/// rejected.
fn query(c: &mut Cursor) -> Result<Query> {
    let expr = or_expr(c)?;
    expr.into_dnf().map_err(|msg| c.err(msg))
}

fn or_expr(c: &mut Cursor) -> Result<Expr> {
    let mut terms = vec![and_expr(c)?];
    while c.eat_kw("or") {
        terms.push(and_expr(c)?);
    }
    Ok(if terms.len() == 1 { terms.pop().expect("one term") } else { Expr::Or(terms) })
}

fn and_expr(c: &mut Cursor) -> Result<Expr> {
    let mut terms = vec![primary(c)?];
    while c.eat_kw("and") {
        terms.push(primary(c)?);
    }
    Ok(if terms.len() == 1 { terms.pop().expect("one term") } else { Expr::And(terms) })
}

/// A primary is `(expr)` or `(attr relop value)`; the lookahead after
/// `(` distinguishes a nested expression from a predicate: a
/// predicate is IDENT RELOP.
fn primary(c: &mut Cursor) -> Result<Expr> {
    c.expect_tok(Tok::LParen, "`(` in query")?;
    let expr = match (c.peek(), c.peek2()) {
        (Tok::Word(_), k) if k.relop().is_some() => {
            let attr = c.name("predicate attribute")?;
            let op = c.bump().relop().expect("peeked a relational operator");
            let value = value(c)?;
            Expr::Pred(Predicate { attr, op, value })
        }
        (Tok::Word(s), Tok::RParen) if s.eq_ignore_ascii_case("TRUE") => {
            c.bump();
            Expr::And(vec![])
        }
        (Tok::Word(s), Tok::RParen) if s.eq_ignore_ascii_case("FALSE") => {
            c.bump();
            Expr::Or(vec![])
        }
        _ => or_expr(c)?,
    };
    c.expect_tok(Tok::RParen, "`)` in query")?;
    Ok(expr)
}

fn value(c: &mut Cursor) -> Result<Value> {
    // Barewords are string values (the thesis writes unquoted values
    // like `course` in `(FILE = course)`).
    if let Tok::Word(w) = c.peek() {
        if !w.eq_ignore_ascii_case("NULL") {
            return Ok(Value::Str(c.name("value")?));
        }
    }
    c.literal("value")
}

/// Intermediate boolean expression flattened into DNF after parsing.
enum Expr {
    Pred(Predicate),
    And(Vec<Expr>),
    Or(Vec<Expr>),
}

impl Expr {
    fn into_dnf(self) -> std::result::Result<Query, String> {
        match self {
            Expr::Pred(p) => Ok(Query::conjunction(vec![p])),
            Expr::Or(terms) => {
                let mut disjuncts = Vec::new();
                for t in terms {
                    disjuncts.extend(t.into_dnf()?.disjuncts);
                }
                Ok(Query::new(disjuncts))
            }
            Expr::And(terms) => {
                let mut predicates = Vec::new();
                for t in terms {
                    match t {
                        Expr::Pred(p) => predicates.push(p),
                        Expr::And(inner) => {
                            for i in inner {
                                match i.into_dnf()?.disjuncts.as_slice() {
                                    [single] => predicates.extend(single.predicates.clone()),
                                    _ => {
                                        return Err(
                                            "query is not in disjunctive normal form".to_owned()
                                        )
                                    }
                                }
                            }
                        }
                        Expr::Or(_) => {
                            return Err(
                                "query is not in disjunctive normal form (OR inside AND)"
                                    .to_owned(),
                            )
                        }
                    }
                }
                Ok(Query::conjunction(predicates))
            }
        }
    }
}
