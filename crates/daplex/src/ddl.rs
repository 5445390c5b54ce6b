//! Daplex DDL: parser and canonical printer.
//!
//! The concrete syntax follows the entity/subtype declaration forms of
//! Figures 5.2 and 5.4 of the thesis:
//!
//! ```text
//! DATABASE university IS
//!
//! TYPE age_type IS INTEGER RANGE 16..99;
//! TYPE rank_type IS ENUMERATION (instructor, assistant, associate, full);
//! CONSTANT max_load IS 4;
//!
//! TYPE person IS
//!   ENTITY
//!     name : STRING(30);
//!     age  : age_type;
//!   END ENTITY;
//!
//! TYPE student IS
//!   ENTITY SUBTYPE OF person
//!     major   : STRING(20);
//!     advisor : faculty;
//!     courses : SET OF course;
//!   END ENTITY;
//!
//! UNIQUE title, semester WITHIN course;
//! OVERLAP faculty WITH support_staff;
//!
//! END DATABASE;
//! ```
//!
//! Type names used as function ranges may be declared later in the file
//! (forward references); the parser resolves them in a second pass.

use crate::error::{Error, Result};
use crate::schema::{
    BaseKind, EntitySubtype, EntityType, FnRange, Function, FunctionalSchema, NonEntityClass,
    NonEntityType, OverlapConstraint, UniqueConstraint,
};
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use abdl::Value;
use std::fmt::Write as _;

/// Parse and validate a functional schema from Daplex DDL text.
pub fn parse_schema(src: &str) -> Result<FunctionalSchema> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut raw = RawSchema::default();

    c.expect_kw("DATABASE")?;
    raw.name = c.name("database name")?;
    c.expect_kw("IS")?;

    loop {
        if c.at_eof() {
            // A truncated schema (no END DATABASE) is rejected so that
            // cut-off DDL files fail loudly instead of loading empty.
            return Err(c.err("unexpected end of input: missing `END DATABASE;`"));
        }
        if c.at_kw("END") {
            c.bump();
            c.expect_kw("DATABASE")?;
            c.eat(Tok::Semi);
            break;
        }
        if c.at_kw("TYPE") {
            parse_type(&mut c, &mut raw)?;
        } else if c.at_kw("CONSTANT") {
            parse_constant(&mut c, &mut raw)?;
        } else if c.at_kw("UNIQUE") {
            c.bump();
            let functions = c.name_list("function name")?;
            c.expect_kw("WITHIN")?;
            let within = c.name("entity type")?;
            c.expect_tok(Tok::Semi, "`;`")?;
            raw.uniques.push(UniqueConstraint { functions, within });
        } else if c.at_kw("OVERLAP") {
            c.bump();
            let left = c.name_list("subtype name")?;
            c.expect_kw("WITH")?;
            let right = c.name_list("subtype name")?;
            c.expect_tok(Tok::Semi, "`;`")?;
            raw.overlaps.push(OverlapConstraint { left, right });
        } else {
            return Err(c.err(format!(
                "expected TYPE, CONSTANT, UNIQUE, OVERLAP or END DATABASE, found {:?}",
                c.peek()
            )));
        }
    }

    let schema = raw.resolve()?;
    schema.validate()?;
    Ok(schema)
}

/// Unresolved function range: named types may be forward references.
#[derive(Debug, Clone)]
enum RawRange {
    Inline(FnRange),
    Named(String),
}

#[derive(Debug, Clone)]
struct RawFunction {
    name: String,
    range: RawRange,
    set_valued: bool,
}

#[derive(Debug, Default)]
struct RawSchema {
    name: String,
    non_entities: Vec<NonEntityType>,
    entities: Vec<(String, Vec<RawFunction>)>,
    subtypes: Vec<(String, Vec<String>, Vec<RawFunction>)>,
    uniques: Vec<UniqueConstraint>,
    overlaps: Vec<OverlapConstraint>,
}

impl RawSchema {
    fn resolve(self) -> Result<FunctionalSchema> {
        let entity_names: Vec<String> = self
            .entities
            .iter()
            .map(|(n, _)| n.clone())
            .chain(self.subtypes.iter().map(|(n, _, _)| n.clone()))
            .collect();
        let non_entity_names: Vec<String> =
            self.non_entities.iter().map(|n| n.name.clone()).collect();

        let resolve_fns = |fns: Vec<RawFunction>| -> Result<Vec<Function>> {
            fns.into_iter()
                .map(|f| {
                    let range = match f.range {
                        RawRange::Inline(r) => r,
                        RawRange::Named(n) => {
                            if entity_names.contains(&n) {
                                FnRange::Entity(n)
                            } else if non_entity_names.contains(&n) {
                                FnRange::NonEntity(n)
                            } else {
                                return Err(Error::InvalidSchema(format!(
                                    "function `{}` refers to undeclared type `{n}`",
                                    f.name
                                )));
                            }
                        }
                    };
                    Ok(Function { name: f.name, range, set_valued: f.set_valued })
                })
                .collect()
        };

        let mut schema = FunctionalSchema::new(self.name);
        schema.non_entities = self.non_entities;
        for (name, fns) in self.entities {
            schema.entities.push(EntityType { name, functions: resolve_fns(fns)? });
        }
        for (name, supertypes, fns) in self.subtypes {
            schema.subtypes.push(EntitySubtype {
                name,
                supertypes,
                functions: resolve_fns(fns)?,
            });
        }
        schema.uniques = self.uniques;
        schema.overlaps = self.overlaps;
        Ok(schema)
    }
}

fn parse_type(c: &mut Cursor, raw: &mut RawSchema) -> Result<()> {
    c.expect_kw("TYPE")?;
    let name = c.name("type name")?;
    c.expect_kw("IS")?;

    if c.at_kw("ENTITY") {
        c.bump();
        let supertypes = if c.eat_kw("SUBTYPE") {
            c.expect_kw("OF")?;
            c.name_list("supertype name")?
        } else {
            Vec::new()
        };
        let mut fns = Vec::new();
        while !c.at_kw("END") {
            let fname = c.name("function name")?;
            c.expect_tok(Tok::Colon, "`:` after function name")?;
            let (range, set_valued) = parse_fn_range(c)?;
            c.expect_tok(Tok::Semi, "`;`")?;
            fns.push(RawFunction { name: fname, range, set_valued });
        }
        c.expect_kw("END")?;
        c.expect_kw("ENTITY")?;
        c.expect_tok(Tok::Semi, "`;`")?;
        if supertypes.is_empty() {
            raw.entities.push((name, fns));
        } else {
            raw.subtypes.push((name, supertypes, fns));
        }
        return Ok(());
    }

    // Non-entity type declaration.
    let derived = c.eat_kw("NEW");
    let (kind, parent) = parse_scalar_or_named(c, raw)?;
    let range = if c.eat_kw("RANGE") {
        let lo = c.int("range lower bound")?;
        c.expect_tok(Tok::DotDot, "`..` in range")?;
        let hi = c.int("range upper bound")?;
        Some((lo, hi))
    } else {
        None
    };
    c.expect_tok(Tok::Semi, "`;`")?;
    let class = match (derived, &parent) {
        (true, Some(p)) => NonEntityClass::Derived { of: p.clone() },
        (true, None) => NonEntityClass::Derived { of: builtin_name(&kind) },
        (false, Some(p)) => NonEntityClass::Subtype { of: p.clone() },
        (false, None) => NonEntityClass::Base,
    };
    raw.non_entities.push(NonEntityType {
        name,
        class,
        kind,
        range,
        constant: false,
        value: None,
    });
    Ok(())
}

fn builtin_name(kind: &BaseKind) -> String {
    match kind {
        BaseKind::Str { .. } => "STRING",
        BaseKind::Int => "INTEGER",
        BaseKind::Float => "FLOAT",
        BaseKind::Bool => "BOOLEAN",
        BaseKind::Enum { .. } => "ENUMERATION",
    }
    .to_owned()
}

/// Parse a scalar type expression; returns the resolved kind and, when
/// the expression was a *named* non-entity type, its name.
fn parse_scalar_or_named(
    c: &mut Cursor,
    raw: &RawSchema,
) -> Result<(BaseKind, Option<String>)> {
    let word = c.name("type")?;
    match word.to_ascii_uppercase().as_str() {
        "STRING" => {
            c.expect_tok(Tok::LParen, "`(` after STRING")?;
            let len = c.int("string length")?;
            c.expect_tok(Tok::RParen, "`)` after string length")?;
            Ok((
                BaseKind::Str {
                    len: u16::try_from(len)
                        .map_err(|_| c.err::<Error>("string length out of range"))?,
                },
                None,
            ))
        }
        "INTEGER" => Ok((BaseKind::Int, None)),
        "FLOAT" => Ok((BaseKind::Float, None)),
        "BOOLEAN" => Ok((BaseKind::Bool, None)),
        "ENUMERATION" => {
            c.expect_tok(Tok::LParen, "`(` after ENUMERATION")?;
            let literals = c.name_list("enumeration literal")?;
            c.expect_tok(Tok::RParen, "`)` after enumeration literals")?;
            Ok((BaseKind::Enum { literals }, None))
        }
        _ => {
            // A named non-entity type, which must already be declared
            // (non-entity chains cannot be forward references because
            // the kind must resolve).
            let parent = raw
                .non_entities
                .iter()
                .find(|n| n.name == word)
                .ok_or_else(|| c.err::<Error>(format!("unknown non-entity type `{word}`")))?;
            Ok((parent.kind.clone(), Some(word)))
        }
    }
}

/// Parse a function's range type: `[SET OF] (scalar | name)`.
fn parse_fn_range(c: &mut Cursor) -> Result<(RawRange, bool)> {
    let set_valued = if c.at_kw("SET") {
        c.bump();
        c.expect_kw("OF")?;
        true
    } else {
        false
    };
    let word = c.name("function range type")?;
    let range = match word.to_ascii_uppercase().as_str() {
        "STRING" => {
            c.expect_tok(Tok::LParen, "`(` after STRING")?;
            let len = c.int("string length")?;
            c.expect_tok(Tok::RParen, "`)` after string length")?;
            RawRange::Inline(FnRange::Str {
                len: u16::try_from(len)
                    .map_err(|_| c.err::<Error>("string length out of range"))?,
            })
        }
        "INTEGER" => RawRange::Inline(FnRange::Int),
        "FLOAT" => RawRange::Inline(FnRange::Float),
        "BOOLEAN" => RawRange::Inline(FnRange::Bool),
        "ENUMERATION" => {
            c.expect_tok(Tok::LParen, "`(` after ENUMERATION")?;
            let literals = c.name_list("enumeration literal")?;
            c.expect_tok(Tok::RParen, "`)` after enumeration literals")?;
            RawRange::Inline(FnRange::Enum { literals })
        }
        _ => RawRange::Named(word),
    };
    Ok((range, set_valued))
}

fn parse_constant(c: &mut Cursor, raw: &mut RawSchema) -> Result<()> {
    c.expect_kw("CONSTANT")?;
    let name = c.name("constant name")?;
    c.expect_kw("IS")?;
    let (value, kind) = match c.peek().clone() {
        Tok::Int(i) => {
            c.bump();
            (Value::Int(i), BaseKind::Int)
        }
        Tok::Float(f) => {
            c.bump();
            (Value::Float(f), BaseKind::Float)
        }
        Tok::Str(s) => {
            let len = s.len() as u16;
            c.bump();
            (Value::Str(s), BaseKind::Str { len })
        }
        other => return Err(c.err(format!("expected literal constant, found {other:?}"))),
    };
    c.expect_tok(Tok::Semi, "`;`")?;
    raw.non_entities.push(NonEntityType {
        name,
        class: NonEntityClass::Base,
        kind,
        range: None,
        constant: true,
        value: Some(value),
    });
    Ok(())
}

/// Print a schema as canonical Daplex DDL (parse → print → parse is the
/// identity on valid schemas).
pub fn print_schema(s: &FunctionalSchema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "DATABASE {} IS", s.name);
    for n in &s.non_entities {
        let _ = writeln!(out);
        if n.constant {
            let _ = writeln!(
                out,
                "CONSTANT {} IS {};",
                n.name,
                n.value.as_ref().expect("constants carry values")
            );
            continue;
        }
        let base = match &n.class {
            NonEntityClass::Base => kind_text(&n.kind),
            NonEntityClass::Subtype { of } => of.clone(),
            NonEntityClass::Derived { of } => {
                if of.eq_ignore_ascii_case(&builtin_name(&n.kind)) {
                    format!("NEW {}", kind_text(&n.kind))
                } else {
                    format!("NEW {of}")
                }
            }
        };
        let range = match n.range {
            Some((lo, hi)) => format!(" RANGE {lo}..{hi}"),
            None => String::new(),
        };
        let _ = writeln!(out, "TYPE {} IS {base}{range};", n.name);
    }
    for e in &s.entities {
        let _ = writeln!(out);
        let _ = writeln!(out, "TYPE {} IS", e.name);
        let _ = writeln!(out, "  ENTITY");
        print_functions(&mut out, &e.functions);
        let _ = writeln!(out, "  END ENTITY;");
    }
    for sub in &s.subtypes {
        let _ = writeln!(out);
        let _ = writeln!(out, "TYPE {} IS", sub.name);
        let _ = writeln!(out, "  ENTITY SUBTYPE OF {}", sub.supertypes.join(", "));
        print_functions(&mut out, &sub.functions);
        let _ = writeln!(out, "  END ENTITY;");
    }
    if !s.uniques.is_empty() || !s.overlaps.is_empty() {
        let _ = writeln!(out);
    }
    for u in &s.uniques {
        let _ = writeln!(out, "UNIQUE {} WITHIN {};", u.functions.join(", "), u.within);
    }
    for o in &s.overlaps {
        let _ = writeln!(out, "OVERLAP {} WITH {};", o.left.join(", "), o.right.join(", "));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "END DATABASE;");
    out
}

fn print_functions(out: &mut String, fns: &[Function]) {
    for f in fns {
        let set = if f.set_valued { "SET OF " } else { "" };
        let range = match &f.range {
            FnRange::Str { len } => format!("STRING({len})"),
            FnRange::Int => "INTEGER".to_owned(),
            FnRange::Float => "FLOAT".to_owned(),
            FnRange::Bool => "BOOLEAN".to_owned(),
            FnRange::Enum { literals } => format!("ENUMERATION ({})", literals.join(", ")),
            FnRange::NonEntity(n) | FnRange::Entity(n) => n.clone(),
        };
        let _ = writeln!(out, "    {} : {set}{range};", f.name);
    }
}

fn kind_text(kind: &BaseKind) -> String {
    match kind {
        BaseKind::Str { len } => format!("STRING({len})"),
        BaseKind::Int => "INTEGER".to_owned(),
        BaseKind::Float => "FLOAT".to_owned(),
        BaseKind::Bool => "BOOLEAN".to_owned(),
        BaseKind::Enum { literals } => format!("ENUMERATION ({})", literals.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
DATABASE mini IS

TYPE age_type IS INTEGER RANGE 16..99;
TYPE rank_type IS ENUMERATION (assistant, associate, full);
TYPE young_age IS age_type RANGE 16..25;
TYPE credit_type IS NEW INTEGER RANGE 1..5;
CONSTANT max_load IS 4;

TYPE person IS
  ENTITY
    name : STRING(30);
    age  : age_type;
  END ENTITY;

TYPE faculty IS
  ENTITY
    fname    : STRING(30);
    rank     : rank_type;
    teaching : SET OF course;
  END ENTITY;

TYPE course IS
  ENTITY
    title     : STRING(30);
    credits   : credit_type;
    taught_by : SET OF faculty;
  END ENTITY;

TYPE student IS
  ENTITY SUBTYPE OF person
    major   : STRING(20);
    advisor : faculty;
  END ENTITY;

UNIQUE title WITHIN course;

END DATABASE;
";

    #[test]
    fn parses_and_validates() {
        let s = parse_schema(SRC).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.entities.len(), 3);
        assert_eq!(s.subtypes.len(), 1);
        assert_eq!(s.non_entities.len(), 5);
        let age = s.non_entity("age_type").unwrap();
        assert_eq!(age.range, Some((16, 99)));
        assert_eq!(age.class, NonEntityClass::Base);
        let young = s.non_entity("young_age").unwrap();
        assert_eq!(young.class, NonEntityClass::Subtype { of: "age_type".into() });
        assert_eq!(young.kind, BaseKind::Int);
        let credit = s.non_entity("credit_type").unwrap();
        assert_eq!(credit.class, NonEntityClass::Derived { of: "INTEGER".into() });
        let max_load = s.non_entity("max_load").unwrap();
        assert!(max_load.constant);
        assert_eq!(max_load.value, Some(Value::Int(4)));
    }

    #[test]
    fn forward_references_resolve() {
        let s = parse_schema(SRC).unwrap();
        // `teaching : SET OF course` references course, declared later.
        let teaching = s.function("faculty", "teaching").unwrap();
        assert_eq!(teaching.range, FnRange::Entity("course".into()));
        assert!(teaching.set_valued);
        // Named non-entity resolves to NonEntity, not Entity.
        let age = s.function("person", "age").unwrap();
        assert_eq!(age.range, FnRange::NonEntity("age_type".into()));
    }

    #[test]
    fn subtype_declaration() {
        let s = parse_schema(SRC).unwrap();
        let student = s.subtype("student").unwrap();
        assert_eq!(student.supertypes, vec!["person".to_owned()]);
        // Inherits name and age.
        assert!(s.function("student", "name").is_some());
    }

    #[test]
    fn print_parse_round_trip() {
        let s = parse_schema(SRC).unwrap();
        let printed = print_schema(&s);
        let reparsed = parse_schema(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed}"));
        assert_eq!(s, reparsed);
    }

    #[test]
    fn undeclared_range_type_is_rejected() {
        let src = "DATABASE t IS TYPE a IS ENTITY f : ghost_type; END ENTITY; END DATABASE;";
        assert!(matches!(parse_schema(src), Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn unknown_scalar_parent_is_rejected() {
        let src = "DATABASE t IS TYPE a IS ghost RANGE 1..2; END DATABASE;";
        assert!(parse_schema(src).is_err());
    }

    #[test]
    fn missing_end_entity_is_rejected() {
        let src = "DATABASE t IS TYPE a IS ENTITY f : INTEGER; END DATABASE;";
        assert!(parse_schema(src).is_err());
    }

    #[test]
    fn overlap_requires_subtypes() {
        let src = "
DATABASE t IS
TYPE a IS ENTITY f : INTEGER; END ENTITY;
TYPE b IS ENTITY g : INTEGER; END ENTITY;
OVERLAP a WITH b;
END DATABASE;";
        assert!(matches!(parse_schema(src), Err(Error::InvalidSchema(_))));
    }
}
