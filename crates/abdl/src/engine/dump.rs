//! Kernel snapshots as ABDL text.
//!
//! ABDL is self-sufficient as a persistence format: a database's state
//! is exactly the transaction of INSERTs that recreates it. Dumps are
//! therefore human-readable, diffable, and restorable by any ABDL
//! engine — including this one. File declarations and uniqueness
//! constraints are carried in `--!` directive comments so a dump
//! restores the schema-level state too.

use super::store::Store;
use crate::error::{Error, Result};
use crate::parse::parse_request;
use crate::record::DbKey;
use crate::request::Request;
use std::fmt::Write as _;

/// The dump-format header.
pub const DUMP_HEADER: &str = "--! abdl-dump v1";

/// Serialize the store as restorable ABDL text.
///
/// Layout: header, one `--! file <name>` directive per kernel file, one
/// `--! unique <file> <attr>…` directive per constraint, then one
/// INSERT per record prefixed by a `--! key <n>` directive so database
/// keys survive the round trip.
pub fn dump(store: &Store) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{DUMP_HEADER}");
    for file in store.file_names() {
        let _ = writeln!(out, "--! file {file}");
    }
    for (file, groups) in store.unique_constraints() {
        for group in groups {
            let _ = writeln!(out, "--! unique {file} {}", group.join(" "));
        }
    }
    for (key, record) in store.iter_records() {
        let _ = writeln!(out, "--! key {}", key.0);
        let _ = writeln!(out, "INSERT {record}");
    }
    out
}

/// Restore a store from [`dump`] output.
pub fn restore(text: &str) -> Result<Store> {
    let mut lines = text.lines().peekable();
    match lines.next() {
        Some(line) if line.trim() == DUMP_HEADER => {}
        other => {
            return Err(Error::Parse {
                msg: format!("not an ABDL dump (expected `{DUMP_HEADER}`, found {other:?})"),
                offset: 0,
            })
        }
    }
    let mut store = Store::new();
    let mut pending_key: Option<DbKey> = None;
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(directive) = line.strip_prefix("--!") {
            let mut words = directive.split_whitespace();
            match words.next() {
                Some("file") => {
                    let name = words.next().ok_or_else(|| Error::Parse {
                        msg: "file directive needs a name".into(),
                        offset: lineno,
                    })?;
                    store.create_file(name);
                }
                Some("unique") => {
                    let file = words.next().ok_or_else(|| Error::Parse {
                        msg: "unique directive needs a file".into(),
                        offset: lineno,
                    })?;
                    let attrs: Vec<String> = words.map(str::to_owned).collect();
                    if attrs.is_empty() {
                        return Err(Error::Parse {
                            msg: "unique directive needs attributes".into(),
                            offset: lineno,
                        });
                    }
                    store.add_unique_constraint(file, attrs);
                }
                Some("key") => {
                    let key = words
                        .next()
                        .and_then(|w| w.parse::<u64>().ok())
                        .ok_or_else(|| Error::Parse {
                            msg: "key directive needs an integer".into(),
                            offset: lineno,
                        })?;
                    pending_key = Some(DbKey(key));
                }
                other => {
                    return Err(Error::Parse {
                        msg: format!("unknown dump directive {other:?}"),
                        offset: lineno,
                    })
                }
            }
            continue;
        }
        match parse_request(line)? {
            Request::Insert { record } => match pending_key.take() {
                // Bypass uniqueness checks: the dump is already
                // consistent and restore must be exact.
                Some(key) => store.insert_with_key(key, record)?,
                None => {
                    let key = store.reserve_key();
                    store.insert_with_key(key, record)?;
                }
            },
            other => {
                return Err(Error::Parse {
                    msg: format!("dumps contain only INSERTs, found {}", other.op_name()),
                    offset: lineno,
                })
            }
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, Query};
    use crate::record::Record;
    use crate::value::Value;

    fn sample() -> Store {
        let mut s = Store::new();
        s.create_file("empty_file");
        s.add_unique_constraint("course", vec!["title".into(), "semester".into()]);
        for (i, title) in ["Advanced Database", "O'Brien's Seminar"].iter().enumerate() {
            s.execute(&Request::Insert {
                record: Record::from_pairs([("FILE", Value::str("course"))])
                    .with("course", Value::Int(i as i64 + 1))
                    .with("title", Value::str(*title))
                    .with("semester", Value::str("F87"))
                    .with("gpa", Value::Float(3.5)),
            })
            .unwrap();
        }
        s
    }

    #[test]
    fn dump_restore_is_identity() {
        let original = sample();
        let text = dump(&original);
        let restored = restore(&text).unwrap();
        // Same files (including the empty one).
        assert_eq!(
            original.file_names().collect::<Vec<_>>(),
            restored.file_names().collect::<Vec<_>>()
        );
        // Same records under the same keys.
        let a: Vec<_> = original.iter_records().collect();
        let b: Vec<_> = restored.iter_records().collect();
        assert_eq!(a, b);
        // Dumping again is stable.
        assert_eq!(text, dump(&restored));
    }

    #[test]
    fn dump_restore_is_a_fixpoint_for_non_ascii_text_and_large_floats() {
        let mut s = Store::new();
        s.execute(&Request::Insert {
            record: Record::from_pairs([("FILE", Value::str("person"))])
                .with("name", Value::str("Müller"))
                .with("city", Value::str("東京 'Ōsaka'"))
                .with("big", Value::Float(1e20)),
        })
        .unwrap();
        let text = dump(&s);
        assert!(text.contains("'Müller'"), "{text}");
        assert_eq!(dump(&restore(&text).unwrap()), text);
    }

    #[test]
    fn restored_constraints_are_live() {
        let restored = restore(&dump(&sample())).unwrap();
        let mut restored = restored;
        let err = restored
            .execute(&Request::Insert {
                record: Record::from_pairs([("FILE", Value::str("course"))])
                    .with("course", Value::Int(9))
                    .with("title", Value::str("Advanced Database"))
                    .with("semester", Value::str("F87")),
            })
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));
    }

    #[test]
    fn restored_store_continues_key_sequence() {
        let mut restored = restore(&dump(&sample())).unwrap();
        let next = restored.reserve_key();
        // Must not collide with any restored key.
        assert!(restore(&dump(&sample()))
            .unwrap()
            .iter_records()
            .all(|(k, _)| k < next));
    }

    #[test]
    fn restored_store_answers_queries() {
        let mut restored = restore(&dump(&sample())).unwrap();
        let resp = restored
            .execute(&Request::retrieve_all(Query::conjunction(vec![
                Predicate::eq("FILE", "course"),
                Predicate::eq("title", "O'Brien's Seminar"),
            ])))
            .unwrap();
        assert_eq!(resp.records().len(), 1);
        assert_eq!(resp.records()[0].1.get("gpa"), Some(&Value::Float(3.5)));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(restore("not a dump").is_err());
        assert!(restore(&format!("{DUMP_HEADER}\nDELETE (FILE = f)")).is_err());
        assert!(restore(&format!("{DUMP_HEADER}\n--! bogus directive")).is_err());
        assert!(restore(&format!("{DUMP_HEADER}\n--! unique f")).is_err());
    }
}
