//! The SQL DML subset: statement AST and parser.

use crate::error::{Error, Result};
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use abdl::{Aggregate, RelOp, Value};

/// A possibly-qualified column reference (`city` / `s.city`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    /// Table name or alias qualifier.
    pub qualifier: Option<String>,
    /// The column.
    pub column: String,
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// `*`
    All,
    /// A column.
    Col(ColRef),
    /// An aggregate over a column.
    Agg(Aggregate, ColRef),
}

/// The right-hand side of a WHERE predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Rhs {
    /// A literal value.
    Value(Value),
    /// Another column (a join predicate).
    Col(ColRef),
}

/// One WHERE predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlPred {
    /// Left-hand column.
    pub lhs: ColRef,
    /// Relational operator.
    pub op: RelOp,
    /// Right-hand side.
    pub rhs: Rhs,
}

/// A WHERE clause in disjunctive normal form (OR of ANDs).
pub type Where = Vec<Vec<SqlPred>>;

/// A FROM entry: table plus optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// The table.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStatement {
    /// `SELECT … FROM … [WHERE …] [GROUP BY …] [ORDER BY … [DESC]]`.
    Select {
        /// The select list.
        items: Vec<SelectItem>,
        /// FROM tables (1 = plain retrieval, 2 = equi-join).
        from: Vec<FromItem>,
        /// WHERE clause (empty = all rows).
        wher: Where,
        /// GROUP BY column.
        group_by: Option<ColRef>,
        /// ORDER BY column with direction (`true` = descending).
        order_by: Option<(ColRef, bool)>,
    },
    /// `INSERT INTO t (c1, …) VALUES (v1, …)`.
    Insert {
        /// The table.
        table: String,
        /// Column list.
        columns: Vec<String>,
        /// Values, positionally matching `columns`.
        values: Vec<Value>,
    },
    /// `UPDATE t SET c = v, … [WHERE …]`.
    Update {
        /// The table.
        table: String,
        /// SET assignments.
        sets: Vec<(String, Value)>,
        /// WHERE clause.
        wher: Where,
    },
    /// `DELETE FROM t [WHERE …]`.
    Delete {
        /// The table.
        table: String,
        /// WHERE clause.
        wher: Where,
    },
}

/// Parse a script of `;`-separated SQL statements.
pub fn parse_statements(src: &str) -> Result<Vec<SqlStatement>> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut out = Vec::new();
    c.eat_semis();
    while !c.at_eof() {
        out.push(parse_statement(&mut c)?);
        c.eat_semis();
    }
    Ok(out)
}

/// Parse exactly one statement.
pub fn parse_statement_str(src: &str) -> Result<SqlStatement> {
    let stmts = parse_statements(src)?;
    match stmts.len() {
        1 => Ok(stmts.into_iter().next().expect("one statement")),
        n => Err(crate::Error::Parse { msg: format!("expected 1 statement, found {n}"), offset: 0 }),
    }
}

fn parse_statement(c: &mut Cursor) -> Result<SqlStatement> {
    if c.eat_kw("SELECT") {
        return parse_select(c);
    }
    if c.eat_kw("INSERT") {
        c.expect_kw("INTO")?;
        let table = c.name("table name")?;
        c.expect_tok(Tok::LParen, "`(` opening column list")?;
        let mut columns = Vec::new();
        loop {
            columns.push(c.name("column name")?);
            if !c.eat(Tok::Comma) {
                break;
            }
        }
        c.expect_tok(Tok::RParen, "`)` closing column list")?;
        c.expect_kw("VALUES")?;
        c.expect_tok(Tok::LParen, "`(` opening value list")?;
        let mut values = Vec::new();
        loop {
            values.push(c.literal("literal")?);
            if !c.eat(Tok::Comma) {
                break;
            }
        }
        c.expect_tok(Tok::RParen, "`)` closing value list")?;
        return Ok(SqlStatement::Insert { table, columns, values });
    }
    if c.eat_kw("UPDATE") {
        let table = c.name("table name")?;
        c.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = c.name("column name")?;
            c.expect_tok(Tok::Eq, "`=`")?;
            sets.push((col, c.literal("literal")?));
            if !c.eat(Tok::Comma) {
                break;
            }
        }
        let wher = parse_where(c)?;
        return Ok(SqlStatement::Update { table, sets, wher });
    }
    if c.eat_kw("DELETE") {
        c.expect_kw("FROM")?;
        let table = c.name("table name")?;
        let wher = parse_where(c)?;
        return Ok(SqlStatement::Delete { table, wher });
    }
    Err(c.err(format!("expected SELECT, INSERT, UPDATE or DELETE, found {:?}", c.peek())))
}

fn parse_select(c: &mut Cursor) -> Result<SqlStatement> {
    let mut items = Vec::new();
    loop {
        if c.eat(Tok::Star) {
            items.push(SelectItem::All);
        } else {
            let word = c.name("column or aggregate")?;
            match Aggregate::from_name(&word) {
                Some(op) if c.eat(Tok::LParen) => {
                    let col = parse_colref_from(c, None)?;
                    c.expect_tok(Tok::RParen, "`)` closing aggregate")?;
                    items.push(SelectItem::Agg(op, col));
                }
                _ => items.push(SelectItem::Col(finish_colref(c, word)?)),
            }
        }
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    c.expect_kw("FROM")?;
    let mut from = Vec::new();
    loop {
        let table = c.name("table name")?;
        // An optional alias: a bare word that is not a clause keyword.
        let alias = match c.peek() {
            Tok::Word(w)
                if !["WHERE", "GROUP", "ORDER"]
                    .iter()
                    .any(|k| w.eq_ignore_ascii_case(k)) =>
            {
                Some(c.name("alias")?)
            }
            _ => None,
        };
        from.push(FromItem { table, alias });
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    let wher = parse_where(c)?;
    let group_by = if c.eat_kw("GROUP") {
        c.expect_kw("BY")?;
        Some(parse_colref_from(c, None)?)
    } else {
        None
    };
    let order_by = if c.eat_kw("ORDER") {
        c.expect_kw("BY")?;
        let col = parse_colref_from(c, None)?;
        let desc = c.eat_kw("DESC");
        if !desc {
            let _ = c.eat_kw("ASC");
        }
        Some((col, desc))
    } else {
        None
    };
    Ok(SqlStatement::Select { items, from, wher, group_by, order_by })
}

fn parse_where(c: &mut Cursor) -> Result<Where> {
    if !c.eat_kw("WHERE") {
        return Ok(Vec::new());
    }
    let mut groups = vec![parse_conj(c)?];
    while c.eat_kw("OR") {
        groups.push(parse_conj(c)?);
    }
    Ok(groups)
}

fn parse_conj(c: &mut Cursor) -> Result<Vec<SqlPred>> {
    let mut preds = vec![parse_pred(c)?];
    while c.eat_kw("AND") {
        preds.push(parse_pred(c)?);
    }
    Ok(preds)
}

fn parse_pred(c: &mut Cursor) -> Result<SqlPred> {
    let parens = c.eat(Tok::LParen);
    let lhs = parse_colref_from(c, None)?;
    let tok = c.bump();
    let op = tok
        .relop()
        .ok_or_else(|| c.err::<Error>(format!("expected relational operator, found {tok:?}")))?;
    let rhs = match c.peek().clone() {
        Tok::Word(w) if !w.eq_ignore_ascii_case("NULL") => {
            c.bump();
            Rhs::Col(finish_colref(c, w)?)
        }
        _ => Rhs::Value(c.literal("literal")?),
    };
    if parens {
        c.expect_tok(Tok::RParen, "`)` closing predicate")?;
    }
    Ok(SqlPred { lhs, op, rhs })
}

/// Parse a column reference; `word` is the already-consumed first word
/// when called from a context that had to look ahead.
fn parse_colref_from(c: &mut Cursor, word: Option<String>) -> Result<ColRef> {
    let first = match word {
        Some(w) => w,
        None => c.name("column name")?,
    };
    finish_colref(c, first)
}

fn finish_colref(c: &mut Cursor, first: String) -> Result<ColRef> {
    if c.eat(Tok::Dot) {
        let column = c.name("column name")?;
        Ok(ColRef { qualifier: Some(first), column })
    } else {
        Ok(ColRef { qualifier: None, column: first })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select_variants() {
        let s = parse_statement_str("SELECT sname, city FROM supplier WHERE sno >= 2;").unwrap();
        let SqlStatement::Select { items, from, wher, group_by, .. } = s else { panic!() };
        assert_eq!(items.len(), 2);
        assert_eq!(from.len(), 1);
        assert_eq!(wher.len(), 1);
        assert!(group_by.is_none());

        let s = parse_statement_str("SELECT * FROM supplier;").unwrap();
        let SqlStatement::Select { items, wher, .. } = s else { panic!() };
        assert_eq!(items, vec![SelectItem::All]);
        assert!(wher.is_empty());

        let s = parse_statement_str("SELECT city, COUNT(sno) FROM supplier GROUP BY city;")
            .unwrap();
        let SqlStatement::Select { items, group_by, .. } = s else { panic!() };
        assert!(matches!(items[1], SelectItem::Agg(Aggregate::Count, _)));
        assert_eq!(group_by.unwrap().column, "city");
    }

    #[test]
    fn parses_join_select() {
        let s = parse_statement_str(
            "SELECT s.sname, p.pname FROM supplier s, part p WHERE s.city = p.city AND s.sno < 5;",
        )
        .unwrap();
        let SqlStatement::Select { from, wher, .. } = s else { panic!() };
        assert_eq!(from.len(), 2);
        assert_eq!(from[0].alias.as_deref(), Some("s"));
        let conj = &wher[0];
        assert!(matches!(&conj[0].rhs, Rhs::Col(c) if c.qualifier.as_deref() == Some("p")));
        assert!(matches!(&conj[1].rhs, Rhs::Value(Value::Int(5))));
    }

    #[test]
    fn parses_or_groups() {
        let s =
            parse_statement_str("SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3;").unwrap();
        let SqlStatement::Select { wher, .. } = s else { panic!() };
        assert_eq!(wher.len(), 2);
        assert_eq!(wher[0].len(), 2);
        assert_eq!(wher[1].len(), 1);
    }

    #[test]
    fn parses_mutations() {
        assert!(matches!(
            parse_statement_str("INSERT INTO t (a, b) VALUES (1, 'x');").unwrap(),
            SqlStatement::Insert { .. }
        ));
        let s = parse_statement_str("UPDATE t SET a = 1, b = 'y' WHERE c != NULL;").unwrap();
        let SqlStatement::Update { sets, wher, .. } = s else { panic!() };
        assert_eq!(sets.len(), 2);
        assert!(matches!(&wher[0][0].rhs, Rhs::Value(Value::Null)));
        assert!(matches!(
            parse_statement_str("DELETE FROM t;").unwrap(),
            SqlStatement::Delete { .. }
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement_str("SELECT FROM t;").is_err());
        assert!(parse_statement_str("INSERT t VALUES (1);").is_err());
        assert!(parse_statement_str("DROP TABLE t;").is_err());
        assert!(parse_statement_str("SELECT a FROM t WHERE a ** 2;").is_err());
    }

    #[test]
    fn non_ascii_names_and_literals_decode_as_utf8() {
        let s = parse_statement_str("INSERT INTO café (name) VALUES ('Müller');").unwrap();
        let SqlStatement::Insert { table, values, .. } = s else { panic!() };
        assert_eq!(table, "café");
        assert_eq!(values, vec![Value::str("Müller")]);
    }
}
