//! CODASYL-DML: statement AST and parser.
//!
//! "CODASYL-DML is a procedural language based upon the concept of
//! currency … CODASYL-DML tasks are generally executed in two phases.
//! First, a FIND command identifies a record to be manipulated and then
//! a second DML command is issued to perform an operation."
//!
//! The statement subset is the one the MLDS network interface supports:
//! FIND (all variants of Chapter VI), GET (three forms), STORE,
//! CONNECT, DISCONNECT, MODIFY, ERASE \[ALL\] — plus the host-language
//! `MOVE literal TO item IN record` that initializes the user work area
//! in every worked example of the thesis.

use crate::error::Result;
use crate::DIALECT;
use abdl::parse::{Cursor, Tok};
use abdl::Value;
use std::fmt;

/// Positional FIND variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    /// `FIND FIRST r WITHIN s`
    First,
    /// `FIND LAST r WITHIN s`
    Last,
    /// `FIND NEXT r WITHIN s`
    Next,
    /// `FIND PRIOR r WITHIN s`
    Prior,
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Position::First => "FIRST",
            Position::Last => "LAST",
            Position::Next => "NEXT",
            Position::Prior => "PRIOR",
        })
    }
}

/// The three GET forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetSpec {
    /// `GET` — the entire current record of the run-unit.
    CurrentOfRunUnit,
    /// `GET record_type` — the current record, checked to be of the
    /// given type.
    Record(String),
    /// `GET item_1, …, item_n IN record_type`.
    Items {
        /// The requested data items.
        items: Vec<String>,
        /// Their record type.
        record: String,
    },
}

/// A CODASYL-DML statement (or the host-language MOVE).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `MOVE value TO item IN record` — host-language UWA assignment.
    Move {
        /// The literal value moved.
        value: Value,
        /// Target data item.
        item: String,
        /// Target record template in the UWA.
        record: String,
    },
    /// `FIND ANY r USING i1, …, in IN r`.
    FindAny {
        /// Record type sought.
        record: String,
        /// UWA items forming the search criteria.
        items: Vec<String>,
    },
    /// `FIND CURRENT r WITHIN s`.
    FindCurrent {
        /// Record type.
        record: String,
        /// Set type whose current member becomes current of run-unit.
        set: String,
    },
    /// `FIND DUPLICATE WITHIN s USING i1, …, in IN r`.
    FindDuplicate {
        /// The set whose occurrence is searched.
        set: String,
        /// Items that must duplicate the current record's values.
        items: Vec<String>,
        /// Their record type.
        record: String,
    },
    /// `FIND FIRST/LAST/NEXT/PRIOR r WITHIN s`.
    FindPosition {
        /// Which position.
        pos: Position,
        /// Member record type.
        record: String,
        /// The set navigated.
        set: String,
    },
    /// `FIND OWNER WITHIN s`.
    FindOwner {
        /// The set whose current owner is sought.
        set: String,
    },
    /// `FIND r WITHIN s CURRENT USING i1, …, in IN r`.
    FindWithinCurrent {
        /// Member record type.
        record: String,
        /// The set searched (current occurrence).
        set: String,
        /// UWA items forming the search criteria.
        items: Vec<String>,
    },
    /// The GET statement (three forms).
    Get {
        /// Which form.
        spec: GetSpec,
    },
    /// `STORE r` — create a new record occurrence from the UWA.
    Store {
        /// Record type stored.
        record: String,
    },
    /// `CONNECT r TO s1, …, sn`.
    Connect {
        /// Member record type (the current of run-unit).
        record: String,
        /// Sets to connect into.
        sets: Vec<String>,
    },
    /// `DISCONNECT r FROM s1, …, sn`.
    Disconnect {
        /// Member record type (the current of run-unit).
        record: String,
        /// Sets to disconnect from.
        sets: Vec<String>,
    },
    /// `MODIFY r` — rewrite the whole current record from the UWA.
    ModifyRecord {
        /// Record type modified.
        record: String,
    },
    /// `MODIFY i1, …, in IN r` — rewrite specific items from the UWA.
    ModifyItems {
        /// Items to modify.
        items: Vec<String>,
        /// Their record type.
        record: String,
    },
    /// `ERASE r` / `ERASE ALL r`.
    Erase {
        /// Record type erased (the current of run-unit).
        record: String,
        /// True for the ERASE ALL option.
        all: bool,
    },
}

impl Statement {
    /// The verb, for diagnostics and the per-statement fan-out table.
    pub fn verb(&self) -> &'static str {
        match self {
            Statement::Move { .. } => "MOVE",
            Statement::FindAny { .. } => "FIND ANY",
            Statement::FindCurrent { .. } => "FIND CURRENT",
            Statement::FindDuplicate { .. } => "FIND DUPLICATE",
            Statement::FindPosition { pos, .. } => match pos {
                Position::First => "FIND FIRST",
                Position::Last => "FIND LAST",
                Position::Next => "FIND NEXT",
                Position::Prior => "FIND PRIOR",
            },
            Statement::FindOwner { .. } => "FIND OWNER",
            Statement::FindWithinCurrent { .. } => "FIND WITHIN CURRENT",
            Statement::Get { .. } => "GET",
            Statement::Store { .. } => "STORE",
            Statement::Connect { .. } => "CONNECT",
            Statement::Disconnect { .. } => "DISCONNECT",
            Statement::ModifyRecord { .. } | Statement::ModifyItems { .. } => "MODIFY",
            Statement::Erase { all: false, .. } => "ERASE",
            Statement::Erase { all: true, .. } => "ERASE ALL",
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Move { value, item, record } => {
                write!(f, "MOVE {value} TO {item} IN {record}")
            }
            Statement::FindAny { record, items } => {
                write!(f, "FIND ANY {record} USING {} IN {record}", items.join(", "))
            }
            Statement::FindCurrent { record, set } => {
                write!(f, "FIND CURRENT {record} WITHIN {set}")
            }
            Statement::FindDuplicate { set, items, record } => {
                write!(f, "FIND DUPLICATE WITHIN {set} USING {} IN {record}", items.join(", "))
            }
            Statement::FindPosition { pos, record, set } => {
                write!(f, "FIND {pos} {record} WITHIN {set}")
            }
            Statement::FindOwner { set } => write!(f, "FIND OWNER WITHIN {set}"),
            Statement::FindWithinCurrent { record, set, items } => {
                write!(
                    f,
                    "FIND {record} WITHIN {set} CURRENT USING {} IN {record}",
                    items.join(", ")
                )
            }
            Statement::Get { spec } => match spec {
                GetSpec::CurrentOfRunUnit => write!(f, "GET"),
                GetSpec::Record(r) => write!(f, "GET {r}"),
                GetSpec::Items { items, record } => {
                    write!(f, "GET {} IN {record}", items.join(", "))
                }
            },
            Statement::Store { record } => write!(f, "STORE {record}"),
            Statement::Connect { record, sets } => {
                write!(f, "CONNECT {record} TO {}", sets.join(", "))
            }
            Statement::Disconnect { record, sets } => {
                write!(f, "DISCONNECT {record} FROM {}", sets.join(", "))
            }
            Statement::ModifyRecord { record } => write!(f, "MODIFY {record}"),
            Statement::ModifyItems { items, record } => {
                write!(f, "MODIFY {} IN {record}", items.join(", "))
            }
            Statement::Erase { record, all } => {
                if *all {
                    write!(f, "ERASE ALL {record}")
                } else {
                    write!(f, "ERASE {record}")
                }
            }
        }
    }
}

/// Parse a whole CODASYL-DML transaction: a sequence of statements,
/// optionally separated by `;` or `.` (one statement per line in the
/// thesis's examples).
pub fn parse_statements(src: &str) -> Result<Vec<Statement>> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let mut out = Vec::new();
    c.eat_terminators();
    while !c.at_eof() {
        out.push(parse_statement(&mut c)?);
        c.eat_terminators();
    }
    Ok(out)
}

/// Parse exactly one statement from `src`.
pub fn parse_statement_str(src: &str) -> Result<Statement> {
    let mut c = Cursor::new(src, &DIALECT)?;
    let stmt = parse_statement(&mut c)?;
    c.eat_terminators();
    c.expect_eof()?;
    Ok(stmt)
}

fn parse_statement(c: &mut Cursor) -> Result<Statement> {
    let verb = c.name("DML verb")?;
    match verb.to_ascii_uppercase().as_str() {
        "MOVE" => parse_move(c),
        "FIND" => parse_find(c),
        "GET" => parse_get(c),
        "STORE" => Ok(Statement::Store { record: c.name("record type")? }),
        "CONNECT" => {
            let record = c.name("record type")?;
            c.expect_kw("TO")?;
            let sets = c.name_list("set name")?;
            Ok(Statement::Connect { record, sets })
        }
        "DISCONNECT" => {
            let record = c.name("record type")?;
            c.expect_kw("FROM")?;
            let sets = c.name_list("set name")?;
            Ok(Statement::Disconnect { record, sets })
        }
        "MODIFY" => {
            let names = c.name_list("record type or item")?;
            if c.eat_kw("IN") {
                let record = c.name("record type")?;
                Ok(Statement::ModifyItems { items: names, record })
            } else if names.len() == 1 {
                Ok(Statement::ModifyRecord {
                    record: names.into_iter().next().expect("one name"),
                })
            } else {
                Err(c.err("MODIFY item list requires `IN record_type`"))
            }
        }
        "ERASE" => {
            let mut all = false;
            if c.eat_kw("ALL") {
                all = true;
            }
            Ok(Statement::Erase { record: c.name("record type")?, all })
        }
        other => Err(c.err(format!("unknown DML verb `{other}`"))),
    }
}

fn parse_move(c: &mut Cursor) -> Result<Statement> {
    let value = c.literal("literal after MOVE")?;
    c.expect_kw("TO")?;
    let item = c.name("data item")?;
    c.expect_kw("IN")?;
    let record = c.name("record type")?;
    Ok(Statement::Move { value, item, record })
}

fn parse_find(c: &mut Cursor) -> Result<Statement> {
    if c.eat_kw("ANY") {
        let record = c.name("record type")?;
        c.expect_kw("USING")?;
        let items = c.name_list("data item")?;
        c.expect_kw("IN")?;
        let record2 = c.name("record type")?;
        if record2 != record {
            return Err(c.err(format!(
                "FIND ANY item list must be IN {record}, found `{record2}`"
            )));
        }
        return Ok(Statement::FindAny { record, items });
    }
    if c.eat_kw("CURRENT") {
        let record = c.name("record type")?;
        c.expect_kw("WITHIN")?;
        return Ok(Statement::FindCurrent { record, set: c.name("set name")? });
    }
    if c.eat_kw("DUPLICATE") {
        c.expect_kw("WITHIN")?;
        let set = c.name("set name")?;
        c.expect_kw("USING")?;
        let items = c.name_list("data item")?;
        c.expect_kw("IN")?;
        let record = c.name("record type")?;
        return Ok(Statement::FindDuplicate { set, items, record });
    }
    if c.eat_kw("OWNER") {
        c.expect_kw("WITHIN")?;
        return Ok(Statement::FindOwner { set: c.name("set name")? });
    }
    for (kw, pos) in [
        ("FIRST", Position::First),
        ("LAST", Position::Last),
        ("NEXT", Position::Next),
        ("PRIOR", Position::Prior),
    ] {
        if c.eat_kw(kw) {
            let record = c.name("record type")?;
            c.expect_kw("WITHIN")?;
            return Ok(Statement::FindPosition { pos, record, set: c.name("set name")? });
        }
    }
    // FIND r WITHIN s CURRENT USING items IN r
    let record = c.name("record type")?;
    c.expect_kw("WITHIN")?;
    let set = c.name("set name")?;
    c.expect_kw("CURRENT")?;
    c.expect_kw("USING")?;
    let items = c.name_list("data item")?;
    c.expect_kw("IN")?;
    let record2 = c.name("record type")?;
    if record2 != record {
        return Err(c.err(format!(
            "FIND WITHIN CURRENT item list must be IN {record}, found `{record2}`"
        )));
    }
    Ok(Statement::FindWithinCurrent { record, set, items })
}

fn parse_get(c: &mut Cursor) -> Result<Statement> {
    // Three forms, disambiguated by lookahead:
    //   GET                      (next token is a verb, terminator or EOF)
    //   GET record_type
    //   GET i1, …, in IN record_type
    const VERBS: [&str; 9] =
        ["MOVE", "FIND", "GET", "STORE", "CONNECT", "DISCONNECT", "MODIFY", "ERASE", "PERFORM"];
    match c.peek().clone() {
        Tok::Word(w) if !VERBS.iter().any(|v| w.eq_ignore_ascii_case(v)) => {
            let names = c.name_list("record type or item")?;
            if c.eat_kw("IN") {
                let record = c.name("record type")?;
                Ok(Statement::Get { spec: GetSpec::Items { items: names, record } })
            } else if names.len() == 1 {
                Ok(Statement::Get {
                    spec: GetSpec::Record(names.into_iter().next().expect("one name")),
                })
            } else {
                Err(c.err("GET item list requires `IN record_type`"))
            }
        }
        _ => Ok(Statement::Get { spec: GetSpec::CurrentOfRunUnit }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_thesis_example_transaction() {
        let stmts = parse_statements(
            "MOVE 'Advanced Database' TO title IN course\n\
             FIND ANY course USING title IN course\n\
             GET course",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert_eq!(
            stmts[0],
            Statement::Move {
                value: Value::str("Advanced Database"),
                item: "title".into(),
                record: "course".into()
            }
        );
        assert_eq!(
            stmts[1],
            Statement::FindAny { record: "course".into(), items: vec!["title".into()] }
        );
        assert_eq!(stmts[2], Statement::Get { spec: GetSpec::Record("course".into()) });
    }

    #[test]
    fn parses_all_find_variants() {
        let cases = [
            ("FIND ANY course USING title, dept IN course", "FIND ANY"),
            ("FIND CURRENT student WITHIN person_student", "FIND CURRENT"),
            ("FIND DUPLICATE WITHIN teaching USING title IN course", "FIND DUPLICATE"),
            ("FIND FIRST student WITHIN person_student", "FIND FIRST"),
            ("FIND LAST student WITHIN person_student", "FIND LAST"),
            ("FIND NEXT student WITHIN person_student", "FIND NEXT"),
            ("FIND PRIOR student WITHIN person_student", "FIND PRIOR"),
            ("FIND OWNER WITHIN dept", "FIND OWNER"),
            ("FIND student WITHIN person_student CURRENT USING major IN student", "FIND WITHIN CURRENT"),
        ];
        for (src, verb) in cases {
            let stmt = parse_statement_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(stmt.verb(), verb, "for {src}");
        }
    }

    #[test]
    fn parses_get_forms() {
        assert_eq!(
            parse_statement_str("GET").unwrap(),
            Statement::Get { spec: GetSpec::CurrentOfRunUnit }
        );
        assert_eq!(
            parse_statement_str("GET student").unwrap(),
            Statement::Get { spec: GetSpec::Record("student".into()) }
        );
        assert_eq!(
            parse_statement_str("GET name, major IN student").unwrap(),
            Statement::Get {
                spec: GetSpec::Items {
                    items: vec!["name".into(), "major".into()],
                    record: "student".into()
                }
            }
        );
    }

    #[test]
    fn get_followed_by_find_is_plain_get() {
        let stmts = parse_statements("GET\nFIND OWNER WITHIN dept").unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0], Statement::Get { spec: GetSpec::CurrentOfRunUnit });
    }

    #[test]
    fn parses_updates_and_erase() {
        assert_eq!(
            parse_statement_str("CONNECT support_staff TO supervisor, advisor").unwrap(),
            Statement::Connect {
                record: "support_staff".into(),
                sets: vec!["supervisor".into(), "advisor".into()]
            }
        );
        assert_eq!(
            parse_statement_str("DISCONNECT support_staff FROM supervisor").unwrap(),
            Statement::Disconnect {
                record: "support_staff".into(),
                sets: vec!["supervisor".into()]
            }
        );
        assert_eq!(
            parse_statement_str("MODIFY title, credits IN course").unwrap(),
            Statement::ModifyItems {
                items: vec!["title".into(), "credits".into()],
                record: "course".into()
            }
        );
        assert_eq!(
            parse_statement_str("MODIFY course").unwrap(),
            Statement::ModifyRecord { record: "course".into() }
        );
        assert_eq!(
            parse_statement_str("ERASE course").unwrap(),
            Statement::Erase { record: "course".into(), all: false }
        );
        assert_eq!(
            parse_statement_str("ERASE ALL course").unwrap(),
            Statement::Erase { record: "course".into(), all: true }
        );
    }

    #[test]
    fn move_accepts_all_literal_kinds() {
        for (src, v) in [
            ("MOVE 'CS' TO major IN student", Value::str("CS")),
            ("MOVE 21 TO age IN person", Value::Int(21)),
            ("MOVE 3.8 TO gpa IN student", Value::Float(3.8)),
            ("MOVE NULL TO advisor IN student", Value::Null),
        ] {
            match parse_statement_str(src).unwrap() {
                Statement::Move { value, .. } => assert_eq!(value, v, "for {src}"),
                other => panic!("wrong statement: {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_using_record_is_rejected() {
        assert!(parse_statement_str("FIND ANY course USING title IN student").is_err());
    }

    #[test]
    fn non_ascii_literal_decodes_as_utf8() {
        let stmt = parse_statement_str("MOVE 'Müller' TO name IN person").unwrap();
        assert!(matches!(stmt, Statement::Move { value, .. } if value == Value::str("Müller")));
    }

    #[test]
    fn display_round_trips() {
        let sources = [
            "MOVE 'CS' TO major IN student",
            "FIND ANY course USING title, dept IN course",
            "FIND CURRENT student WITHIN person_student",
            "FIND DUPLICATE WITHIN teaching USING title IN course",
            "FIND FIRST student WITHIN person_student",
            "FIND OWNER WITHIN dept",
            "FIND student WITHIN person_student CURRENT USING major IN student",
            "GET",
            "GET student",
            "GET name, major IN student",
            "STORE course",
            "CONNECT support_staff TO supervisor",
            "DISCONNECT support_staff FROM supervisor",
            "MODIFY course",
            "MODIFY title IN course",
            "ERASE course",
            "ERASE ALL course",
        ];
        for src in sources {
            let stmt = parse_statement_str(src).unwrap();
            let printed = stmt.to_string();
            let reparsed = parse_statement_str(&printed)
                .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
            assert_eq!(stmt, reparsed, "round trip failed for `{src}`");
        }
    }
}
