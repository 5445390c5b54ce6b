//! SQL DDL: `CREATE DATABASE` / `CREATE TABLE` parsing and printing.

use crate::error::{Error, Result};
use crate::schema::{ColType, Column, RelSchema, Table};
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use std::fmt::Write as _;

/// Parse a DDL script: one `CREATE DATABASE` followed by `CREATE TABLE`
/// statements.
pub fn parse_schema(src: &str) -> Result<RelSchema> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut schema = RelSchema::default();
    c.expect_kw("CREATE")?;
    c.expect_kw("DATABASE")?;
    schema.name = c.name("database name")?;
    c.expect_tok(Tok::Semi, "`;`")?;
    while !c.at_eof() {
        c.expect_kw("CREATE")?;
        c.expect_kw("TABLE")?;
        schema.tables.push(parse_table(&mut c)?);
    }
    schema.validate()?;
    Ok(schema)
}

fn parse_table(c: &mut Cursor) -> Result<Table> {
    let name = c.name("table name")?;
    c.expect_tok(Tok::LParen, "`(` opening column list")?;
    let mut table = Table { name, columns: Vec::new(), primary_key: Vec::new() };
    loop {
        if c.eat_kw("PRIMARY") {
            c.expect_kw("KEY")?;
            c.expect_tok(Tok::LParen, "`(`")?;
            loop {
                table.primary_key.push(c.name("key column")?);
                if !c.eat(Tok::Comma) {
                    break;
                }
            }
            c.expect_tok(Tok::RParen, "`)`")?;
        } else {
            let col_name = c.name("column name")?;
            let typ = parse_type(c)?;
            let not_null = if c.eat_kw("NOT") {
                c.expect_kw("NULL")?;
                true
            } else {
                false
            };
            table.columns.push(Column { name: col_name, typ, not_null, kernel_attr: None });
        }
        match c.bump() {
            Tok::Comma => continue,
            Tok::RParen => break,
            other => return Err(c.err(format!("expected `,` or `)`, found {other:?}"))),
        }
    }
    c.expect_tok(Tok::Semi, "`;`")?;
    Ok(table)
}

fn parse_type(c: &mut Cursor) -> Result<ColType> {
    let word = c.name("column type")?;
    match word.to_ascii_uppercase().as_str() {
        "INTEGER" | "INT" => Ok(ColType::Int),
        "FLOAT" | "REAL" => Ok(ColType::Float),
        "CHAR" | "VARCHAR" => {
            c.expect_tok(Tok::LParen, "`(` after CHAR")?;
            let len = c.int("character length")?;
            c.expect_tok(Tok::RParen, "`)` after length")?;
            Ok(ColType::Char {
                len: u16::try_from(len).map_err(|_| c.err::<Error>("length out of range"))?,
            })
        }
        other => Err(c.err(format!("unknown column type `{other}`"))),
    }
}

/// Print a schema as canonical DDL (parse∘print = id).
pub fn print_schema(s: &RelSchema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "CREATE DATABASE {};", s.name);
    for t in &s.tables {
        let _ = writeln!(out);
        let _ = writeln!(out, "CREATE TABLE {} (", t.name);
        for (i, col) in t.columns.iter().enumerate() {
            let not_null = if col.not_null { " NOT NULL" } else { "" };
            let last = i + 1 == t.columns.len() && t.primary_key.is_empty();
            let comma = if last { "" } else { "," };
            let _ = writeln!(out, "    {} {}{not_null}{comma}", col.name, col.typ);
        }
        if !t.primary_key.is_empty() {
            let _ = writeln!(out, "    PRIMARY KEY ({})", t.primary_key.join(", "));
        }
        let _ = writeln!(out, ");");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
CREATE DATABASE suppliers;

CREATE TABLE supplier (
    sno   INTEGER NOT NULL,
    sname CHAR(20),
    city  CHAR(15),
    PRIMARY KEY (sno)
);

CREATE TABLE part (
    pno   INTEGER,
    pname CHAR(20),
    city  CHAR(15),
    PRIMARY KEY (pno)
);
";

    #[test]
    fn parses_and_validates() {
        let s = parse_schema(SRC).unwrap();
        assert_eq!(s.name, "suppliers");
        assert_eq!(s.tables.len(), 2);
        let supplier = s.table("supplier").unwrap();
        assert_eq!(supplier.columns.len(), 3);
        assert!(supplier.columns[0].not_null);
        assert_eq!(supplier.columns[1].typ, ColType::Char { len: 20 });
        assert_eq!(supplier.primary_key, vec!["sno".to_owned()]);
    }

    #[test]
    fn round_trips() {
        let s = parse_schema(SRC).unwrap();
        let printed = print_schema(&s);
        assert_eq!(s, parse_schema(&printed).unwrap());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_schema("CREATE TABLE x (a INTEGER);").is_err(), "missing CREATE DATABASE");
        assert!(parse_schema("CREATE DATABASE d; CREATE TABLE x (a BLOB);").is_err());
        assert!(parse_schema("CREATE DATABASE d; CREATE TABLE x (a INTEGER").is_err());
    }
}
