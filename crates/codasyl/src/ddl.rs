//! Network schema DDL: parser and canonical printer.
//!
//! The concrete syntax follows the set declarations shown in Figure 5.1
//! of the thesis (`SET NAME IS …; OWNER IS …; MEMBER IS …; INSERTION IS
//! …; RETENTION IS …; SET SELECTION IS BY …`) together with COBOL-style
//! record declarations:
//!
//! ```text
//! SCHEMA NAME IS university.
//!
//! RECORD NAME IS course.
//!   02 title    TYPE IS CHARACTER 30.
//!   02 credits  TYPE IS FIXED.
//!   DUPLICATES ARE NOT ALLOWED FOR title, semester.
//!
//! SET NAME IS system_course.
//!   OWNER IS SYSTEM.
//!   MEMBER IS course.
//!   INSERTION IS AUTOMATIC.
//!   RETENTION IS FIXED.
//!   SET SELECTION IS BY APPLICATION.
//! ```
//!
//! Clause periods are tolerated but not required; `;` is accepted as an
//! alternative terminator. The printer emits text the parser accepts
//! (round-trip tested).

use crate::error::{Error, Result};
use crate::schema::{
    AttrType, Insertion, NetAttrType, NetworkSchema, Owner, RecordType, Retention, Selection,
    SetType,
};
use crate::DIALECT;
use crate::SYSTEM;
use abdl::parse::{Cursor, Tok};
use std::fmt::Write as _;

/// Parse a network schema from DDL text (validated before returning).
pub fn parse_schema(src: &str) -> Result<NetworkSchema> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut schema = NetworkSchema::default();

    c.expect_kws(&["SCHEMA", "NAME", "IS"])?;
    schema.name = c.name("schema name")?;
    c.eat_terminators();

    while !c.at_eof() {
        if c.at_kw("RECORD") {
            parse_record(&mut c, &mut schema)?;
        } else if c.at_kw("SET") {
            parse_set(&mut c, &mut schema)?;
        } else {
            return Err(c.err(format!(
                "expected RECORD or SET declaration, found {:?}",
                c.peek()
            )));
        }
    }
    schema.validate()?;
    Ok(schema)
}

fn parse_record(c: &mut Cursor, schema: &mut NetworkSchema) -> Result<()> {
    c.expect_kws(&["RECORD", "NAME", "IS"])?;
    let mut record = RecordType::new(c.name("record type name")?);
    c.eat_terminators();

    loop {
        match c.peek().clone() {
            // A level number starts a data-item declaration.
            Tok::Int(level) => {
                c.bump();
                let name = c.name("data item name")?;
                c.expect_kws(&["TYPE", "IS"])?;
                let typ = parse_attr_type(c)?;
                let check = parse_check(c)?;
                c.eat_terminators();
                record.attrs.push(AttrType {
                    name,
                    level: u8::try_from(level).map_err(|_| {
                        c.err::<Error>(format!("level number {level} out of range"))
                    })?,
                    typ,
                    dup_allowed: true,
                    check,
                });
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("DUPLICATES") => {
                c.bump();
                c.expect_kws(&["ARE", "NOT", "ALLOWED", "FOR"])?;
                let items = c.name_list("data item name")?;
                c.eat_terminators();
                for item in &items {
                    if let Some(attr) = record.attrs.iter_mut().find(|a| &a.name == item) {
                        attr.dup_allowed = false;
                    }
                }
                record.unique_groups.push(items);
            }
            _ => break,
        }
    }
    schema.records.push(record);
    Ok(())
}

fn parse_attr_type(c: &mut Cursor) -> Result<NetAttrType> {
    let word = c.name("data type")?;
    match word.to_ascii_uppercase().as_str() {
        "FIXED" | "INTEGER" => Ok(NetAttrType::Int),
        "FLOAT" => {
            let dec = match *c.peek() {
                Tok::Int(d) => {
                    c.bump();
                    u16::try_from(d).map_err(|_| c.err::<Error>("decimal length out of range"))?
                }
                _ => 2,
            };
            Ok(NetAttrType::Float { dec })
        }
        "CHARACTER" | "CHAR" => {
            let len = c.int("character length")?;
            Ok(NetAttrType::Char {
                len: u16::try_from(len)
                    .map_err(|_| c.err::<Error>("character length out of range"))?,
            })
        }
        other => Err(c.err(format!("unknown data type `{other}`"))),
    }
}

/// Optional integrity-check clause after a data-item type:
/// `RANGE lo..hi` or `VALUES (lit1, …, litn)`.
fn parse_check(c: &mut Cursor) -> Result<Option<crate::schema::ValueCheck>> {
    if c.eat_kw("RANGE") {
        let lo = c.int("range lower bound")?;
        c.expect_tok(Tok::DotDot, "`..` in range")?;
        let hi = c.int("range upper bound")?;
        if lo > hi {
            return Err(c.err(format!("empty range {lo}..{hi}")));
        }
        return Ok(Some(crate::schema::ValueCheck::Range { lo, hi }));
    }
    if c.eat_kw("VALUES") {
        c.expect_tok(Tok::LParen, "`(` opening value list")?;
        let literals = c.name_list("enumeration literal")?;
        c.expect_tok(Tok::RParen, "`)` closing value list")?;
        return Ok(Some(crate::schema::ValueCheck::OneOf { literals }));
    }
    Ok(None)
}

fn parse_set(c: &mut Cursor, schema: &mut NetworkSchema) -> Result<()> {
    c.expect_kws(&["SET", "NAME", "IS"])?;
    let name = c.name("set name")?;
    c.eat_terminators();

    let mut owner: Option<Owner> = None;
    let mut member: Option<String> = None;
    let mut insertion = Insertion::Manual;
    let mut retention = Retention::Optional;
    let mut selection = Selection::Application;

    loop {
        if c.at_kw("OWNER") {
            c.bump();
            c.expect_kw("IS")?;
            let who = c.name("owner record")?;
            owner = Some(if who.eq_ignore_ascii_case(SYSTEM) {
                Owner::System
            } else {
                Owner::Record(who)
            });
            c.eat_terminators();
        } else if c.at_kw("MEMBER") {
            c.bump();
            c.expect_kw("IS")?;
            member = Some(c.name("member record")?);
            c.eat_terminators();
        } else if c.at_kw("INSERTION") {
            c.bump();
            c.expect_kw("IS")?;
            let mode = c.name("insertion mode")?;
            insertion = match mode.to_ascii_uppercase().as_str() {
                "AUTOMATIC" => Insertion::Automatic,
                "MANUAL" => Insertion::Manual,
                other => return Err(c.err(format!("unknown insertion mode `{other}`"))),
            };
            c.eat_terminators();
        } else if c.at_kw("RETENTION") {
            c.bump();
            c.expect_kw("IS")?;
            let mode = c.name("retention mode")?;
            retention = match mode.to_ascii_uppercase().as_str() {
                "FIXED" => Retention::Fixed,
                "OPTIONAL" => Retention::Optional,
                "MANUAL" => Retention::Manual,
                other => return Err(c.err(format!("unknown retention mode `{other}`"))),
            };
            c.eat_terminators();
        } else if c.at_kw("SET") && matches!(c.peek2(), Tok::Word(w) if w.eq_ignore_ascii_case("SELECTION"))
        {
            c.bump();
            c.bump();
            c.expect_kws(&["IS", "BY"])?;
            selection = parse_selection(c)?;
            c.eat_terminators();
        } else {
            break;
        }
    }

    let owner = owner.ok_or_else(|| {
        Error::InvalidSchema(format!("set `{name}` is missing its OWNER clause"))
    })?;
    let member = member.ok_or_else(|| {
        Error::InvalidSchema(format!("set `{name}` is missing its MEMBER clause"))
    })?;
    let mut set = SetType::new(name, owner, member, insertion, retention);
    set.selection = selection;
    schema.sets.push(set);
    Ok(())
}

fn parse_selection(c: &mut Cursor) -> Result<Selection> {
    let mode = c.name("selection mode")?;
    match mode.to_ascii_uppercase().as_str() {
        "APPLICATION" => Ok(Selection::Application),
        "VALUE" => {
            c.expect_kw("OF")?;
            let item = c.name("item name")?;
            c.expect_kw("IN")?;
            let record = c.name("record name")?;
            Ok(Selection::Value { item, record })
        }
        "STRUCTURAL" => {
            let item = c.name("item name")?;
            c.expect_kw("IN")?;
            let record1 = c.name("record name")?;
            c.expect_tok(Tok::Eq, "`=` in structural selection")?;
            let item2 = c.name("item name")?;
            if item2 != item {
                return Err(c.err("structural selection requires the same item on both sides"));
            }
            c.expect_kw("IN")?;
            let record2 = c.name("record name")?;
            Ok(Selection::Structural { item, record1, record2 })
        }
        other => Err(c.err(format!("unknown selection mode `{other}`"))),
    }
}

/// Print a schema as canonical DDL text (Figure 5.1 style).
pub fn print_schema(schema: &NetworkSchema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "SCHEMA NAME IS {}.", schema.name);
    for r in &schema.records {
        let _ = writeln!(out);
        let _ = writeln!(out, "RECORD NAME IS {}.", r.name);
        for a in &r.attrs {
            match &a.check {
                Some(check) => {
                    let _ =
                        writeln!(out, "  {:02} {} TYPE IS {} {check}.", a.level, a.name, a.typ);
                }
                None => {
                    let _ = writeln!(out, "  {:02} {} TYPE IS {}.", a.level, a.name, a.typ);
                }
            }
        }
        for group in &r.unique_groups {
            let _ = writeln!(out, "  DUPLICATES ARE NOT ALLOWED FOR {}.", group.join(", "));
        }
    }
    for s in &schema.sets {
        let _ = writeln!(out);
        let _ = writeln!(out, "SET NAME IS {}.", s.name);
        let _ = writeln!(out, "  OWNER IS {}.", s.owner);
        let _ = writeln!(out, "  MEMBER IS {}.", s.member);
        let _ = writeln!(out, "  INSERTION IS {}.", s.insertion);
        let _ = writeln!(out, "  RETENTION IS {}.", s.retention);
        let _ = writeln!(out, "  SET SELECTION IS {}.", s.selection);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SetOrigin;

    const UNIV: &str = "
SCHEMA NAME IS university.

RECORD NAME IS person.
  02 name TYPE IS CHARACTER 30.
  02 age TYPE IS FIXED.

RECORD NAME IS student.
  02 major TYPE IS CHARACTER 20.
  02 gpa TYPE IS FLOAT 2.
  DUPLICATES ARE NOT ALLOWED FOR major, gpa.

SET NAME IS system_person.
  OWNER IS SYSTEM.
  MEMBER IS person.
  INSERTION IS AUTOMATIC.
  RETENTION IS FIXED.
  SET SELECTION IS BY APPLICATION.

SET NAME IS person_student.
  OWNER IS person.
  MEMBER IS student.
  INSERTION IS AUTOMATIC.
  RETENTION IS FIXED.
  SET SELECTION IS BY APPLICATION.
";

    #[test]
    fn parses_university_fragment() {
        let s = parse_schema(UNIV).unwrap();
        assert_eq!(s.name, "university");
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.sets.len(), 2);
        let person = s.record("person").unwrap();
        assert_eq!(person.attrs[0].typ, NetAttrType::Char { len: 30 });
        assert_eq!(person.attrs[1].typ, NetAttrType::Int);
        let student = s.record("student").unwrap();
        assert!(!student.attr("major").unwrap().dup_allowed);
        assert_eq!(student.unique_groups, vec![vec!["major".to_owned(), "gpa".to_owned()]]);
        let sys = s.set("system_person").unwrap();
        assert_eq!(sys.owner, Owner::System);
        assert_eq!(sys.insertion, Insertion::Automatic);
        assert_eq!(sys.origin, SetOrigin::Native);
    }

    #[test]
    fn print_parse_round_trip() {
        let s = parse_schema(UNIV).unwrap();
        let printed = print_schema(&s);
        let reparsed = parse_schema(&printed).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn selection_modes_parse() {
        let src = "
SCHEMA NAME IS t.
RECORD NAME IS a.
  02 x TYPE IS FIXED.
RECORD NAME IS b.
  02 x TYPE IS FIXED.
SET NAME IS s1.
  OWNER IS a.
  MEMBER IS b.
  INSERTION IS MANUAL.
  RETENTION IS OPTIONAL.
  SET SELECTION IS BY VALUE OF x IN a.
SET NAME IS s2.
  OWNER IS a.
  MEMBER IS b.
  SET SELECTION IS BY STRUCTURAL x IN a = x IN b.
";
        let s = parse_schema(src).unwrap();
        assert_eq!(
            s.set("s1").unwrap().selection,
            Selection::Value { item: "x".into(), record: "a".into() }
        );
        assert_eq!(
            s.set("s2").unwrap().selection,
            Selection::Structural { item: "x".into(), record1: "a".into(), record2: "b".into() }
        );
    }

    #[test]
    fn missing_owner_is_rejected() {
        let src = "SCHEMA NAME IS t. RECORD NAME IS a. 02 x TYPE IS FIXED. SET NAME IS s. MEMBER IS a.";
        assert!(matches!(parse_schema(src), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let src = "SCHEMA NAME IS t. RECORD NAME IS a. 02 x TYPE IS BLOB 4.";
        assert!(parse_schema(src).is_err());
    }

    #[test]
    fn dangling_set_member_is_rejected_by_validation() {
        let src = "SCHEMA NAME IS t. RECORD NAME IS a. 02 x TYPE IS FIXED.
                   SET NAME IS s. OWNER IS a. MEMBER IS ghost.";
        assert!(matches!(parse_schema(src), Err(Error::InvalidSchema(_))));
    }
}
