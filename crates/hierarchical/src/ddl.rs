//! The DBD (database definition) parser and printer.

use crate::error::{Error, Result};
use crate::schema::{Field, FieldType, HierSchema, Segment};
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use std::fmt::Write as _;

/// Parse a hierarchical database definition:
///
/// ```text
/// HIERARCHY NAME IS school.
///
/// SEGMENT department.
///   02 dno TYPE IS FIXED.
///   02 dname TYPE IS CHARACTER 20.
///   SEQUENCE IS dno.
///
/// SEGMENT course PARENT IS department.
///   02 cno TYPE IS FIXED.
///   02 title TYPE IS CHARACTER 30.
///   SEQUENCE IS cno.
/// ```
pub fn parse_schema(src: &str) -> Result<HierSchema> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut schema = HierSchema::default();
    c.expect_kw("HIERARCHY")?;
    c.expect_kw("NAME")?;
    c.expect_kw("IS")?;
    schema.name = c.name("database name")?;
    c.eat_terminators();
    while !c.at_eof() {
        c.expect_kw("SEGMENT")?;
        let name = c.name("segment name")?;
        let parent = if c.eat_kw("PARENT") {
            c.expect_kw("IS")?;
            Some(c.name("parent segment")?)
        } else {
            None
        };
        c.eat_terminators();
        let mut segment = Segment { name, parent, fields: Vec::new(), sequence: None };
        loop {
            match c.peek().clone() {
                Tok::Int(_) => {
                    let _level = c.int("level number")?;
                    let fname = c.name("field name")?;
                    c.expect_kw("TYPE")?;
                    c.expect_kw("IS")?;
                    let typ = parse_type(&mut c)?;
                    c.eat_terminators();
                    segment.fields.push(Field { name: fname, typ });
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("SEQUENCE") => {
                    c.bump();
                    c.expect_kw("IS")?;
                    segment.sequence = Some(c.name("sequence field")?);
                    c.eat_terminators();
                }
                _ => break,
            }
        }
        schema.segments.push(segment);
    }
    schema.validate()?;
    Ok(schema)
}

fn parse_type(c: &mut Cursor) -> Result<FieldType> {
    let word = c.name("field type")?;
    match word.to_ascii_uppercase().as_str() {
        "FIXED" | "INTEGER" => Ok(FieldType::Int),
        "FLOAT" => Ok(FieldType::Float),
        "CHARACTER" | "CHAR" => {
            let len = c.int("character length")?;
            Ok(FieldType::Char {
                len: u16::try_from(len).map_err(|_| c.err::<Error>("length out of range"))?,
            })
        }
        other => Err(c.err(format!("unknown field type `{other}`"))),
    }
}

/// Print a schema as canonical DBD text (parse∘print = id).
pub fn print_schema(s: &HierSchema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HIERARCHY NAME IS {}.", s.name);
    for seg in &s.segments {
        let _ = writeln!(out);
        match &seg.parent {
            Some(p) => {
                let _ = writeln!(out, "SEGMENT {} PARENT IS {p}.", seg.name);
            }
            None => {
                let _ = writeln!(out, "SEGMENT {}.", seg.name);
            }
        }
        for f in &seg.fields {
            let _ = writeln!(out, "  02 {} TYPE IS {}.", f.name, f.typ);
        }
        if let Some(seq) = &seg.sequence {
            let _ = writeln!(out, "  SEQUENCE IS {seq}.");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
HIERARCHY NAME IS school.

SEGMENT department.
  02 dno TYPE IS FIXED.
  02 dname TYPE IS CHARACTER 20.
  SEQUENCE IS dno.

SEGMENT course PARENT IS department.
  02 cno TYPE IS FIXED.
  02 title TYPE IS CHARACTER 30.
  SEQUENCE IS cno.

SEGMENT enrollment PARENT IS course.
  02 student TYPE IS CHARACTER 20.
";

    #[test]
    fn parses_and_round_trips() {
        let s = parse_schema(SRC).unwrap();
        assert_eq!(s.name, "school");
        assert_eq!(s.segments.len(), 3);
        assert_eq!(s.segment("course").unwrap().parent.as_deref(), Some("department"));
        assert_eq!(s.segment("course").unwrap().sequence.as_deref(), Some("cno"));
        let printed = print_schema(&s);
        assert_eq!(s, parse_schema(&printed).unwrap());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_schema("SEGMENT x.").is_err());
        assert!(parse_schema("HIERARCHY NAME IS h. SEGMENT x PARENT IS ghost.").is_err());
        assert!(parse_schema("HIERARCHY NAME IS h. SEGMENT x. 02 f TYPE IS BLOB.").is_err());
    }
}
