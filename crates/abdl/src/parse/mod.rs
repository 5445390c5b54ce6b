//! Text parser for ABDL requests and transactions, and the one
//! tokenizer and token [`Cursor`] that every MLDS language parser
//! (CODASYL, Daplex, SQL, DL/I) is written over.
//!
//! The grammar follows the request sketches of Chapters II, III and VI of
//! the thesis:
//!
//! ```text
//! transaction := request (';'? request)*
//! request     := 'INSERT' '(' keyword (',' keyword)* [',' '{' text '}'] ')'
//!              | 'DELETE' query
//!              | 'UPDATE' query '(' attr '=' value ')'
//!              | 'RETRIEVE' query target-list ['BY' attr]
//!              | 'RETRIEVE-COMMON' query '(' attr ')' 'COMMON'
//!                                 query '(' attr ')' target-list
//! keyword     := '<' attr ',' value '>'
//! query       := '(' conj ('or' conj)* ')' | conj
//! conj        := '(' pred ('and' pred)* ')' | pred
//! pred        := '(' attr relop value ')' | '(' 'TRUE' ')' | '(' 'FALSE' ')'
//! target-list := '(' '*' ')' | '(' target (',' target)* ')'
//! target      := attr | AGG '(' attr ')'
//! relop       := '=' | '!=' | '<' | '<=' | '>' | '>='
//! value       := integer | float | 'string' | NULL | bareword
//! ```
//!
//! Keywords are case-insensitive; attribute names and barewords are
//! case-sensitive. The canonical printer (`Display` on [`Request`](crate::Request)) emits
//! text this parser accepts (round-trip property-tested).

mod lexer;
mod parser;

pub use lexer::{tokenize, Cursor, Dialect, Tok, Token};
pub use parser::{parse_request, parse_transaction};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, RelOp};
    use crate::request::{Request, TargetList};
    use crate::value::Value;
    use crate::Query;

    #[test]
    fn parses_thesis_find_any_translation() {
        let req = parse_request(
            "RETRIEVE ((FILE = course) AND (title = 'Advanced Database')) \
             (title, dept, semester, credits) BY course",
        )
        .unwrap();
        match req {
            Request::Retrieve { query, target, by } => {
                assert_eq!(query.disjuncts.len(), 1);
                assert_eq!(query.disjuncts[0].predicates.len(), 2);
                assert_eq!(
                    query.disjuncts[0].predicates[1],
                    Predicate::eq("title", "Advanced Database")
                );
                assert_eq!(target, TargetList::attrs(["title", "dept", "semester", "credits"]));
                assert_eq!(by.as_deref(), Some("course"));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_insert_keyword_list() {
        let req = parse_request(
            "INSERT (<FILE, course>, <course, 17>, <title, 'DB'>, <credits, 4>, <gpa, 3.5>)",
        )
        .unwrap();
        match req {
            Request::Insert { record } => {
                assert_eq!(record.file(), Some("course"));
                assert_eq!(record.get("course"), Some(&Value::Int(17)));
                assert_eq!(record.get("gpa"), Some(&Value::Float(3.5)));
                assert_eq!(record.len(), 5);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_update_with_null_modifier() {
        let req = parse_request("UPDATE ((FILE = f) and (k = 3)) (advisor = NULL)").unwrap();
        match req {
            Request::Update { modifier, .. } => {
                assert_eq!(modifier.attr, "advisor");
                assert!(modifier.value.is_null());
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_disjunctive_query() {
        let req = parse_request(
            "DELETE (((FILE = a) and (x > 1)) or ((FILE = a) and (y <= -2)))",
        )
        .unwrap();
        match req {
            Request::Delete { query } => {
                assert_eq!(query.disjuncts.len(), 2);
                assert_eq!(query.disjuncts[0].predicates[1].op, RelOp::Gt);
                assert_eq!(query.disjuncts[1].predicates[1].value, Value::Int(-2));
                assert_eq!(query.file(), Some("a"));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_aggregates_and_star() {
        let req = parse_request("RETRIEVE (FILE = s) (COUNT(name), AVG(gpa)) BY major").unwrap();
        match req {
            Request::Retrieve { target, .. } => {
                assert!(target.has_aggregates());
                assert_eq!(target.targets.len(), 2);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let req = parse_request("RETRIEVE (FILE = s) (*)").unwrap();
        match req {
            Request::Retrieve { target, .. } => assert!(target.is_all()),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_retrieve_common() {
        let req = parse_request(
            "RETRIEVE-COMMON ((FILE = faculty)) (dept) COMMON ((FILE = department)) (dname) (name, building)",
        )
        .unwrap();
        match req {
            Request::RetrieveCommon { left_attr, right_attr, .. } => {
                assert_eq!(left_attr, "dept");
                assert_eq!(right_attr, "dname");
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_transaction_of_requests() {
        let txn = parse_transaction(
            "INSERT (<FILE, f>, <f, 1>);\n\
             RETRIEVE (FILE = f) (*)\n\
             DELETE (FILE = f)",
        )
        .unwrap();
        assert_eq!(txn.requests.len(), 3);
    }

    #[test]
    fn rejects_garbage_with_offset() {
        let err = parse_request("RETRIEVE ((FILE = ) (x)").unwrap_err();
        match err {
            crate::Error::Parse { .. } => {}
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn single_predicate_without_outer_parens() {
        let req = parse_request("DELETE (FILE = f)").unwrap();
        match req {
            Request::Delete { query } => assert_eq!(query, Query::conjunction(vec![
                Predicate::eq("FILE", "f"),
            ])),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse_request("retrieve (file = f) (*)").is_ok());
        assert!(parse_request("Delete (FILE = f)").is_ok());
    }

    #[test]
    fn round_trips_canonical_text() {
        let texts = [
            "INSERT (<FILE, 'f'>, <f, 1>, <t, 'x''y'>)",
            "DELETE ((FILE = 'f') and (x != NULL))",
            "UPDATE ((FILE = 'f') and (k = 3)) (s = NULL)",
            "RETRIEVE ((FILE = 'f') and (a >= 2.5)) (a, b) BY c",
            "RETRIEVE (((FILE = 'f')) or ((FILE = 'f') and (z < 0))) (*)",
        ];
        for text in texts {
            let req = parse_request(text).unwrap();
            let printed = req.to_string();
            let reparsed = parse_request(&printed).unwrap();
            assert_eq!(req, reparsed, "round trip failed for {text}");
        }
    }

    /// Printing and re-parsing is a fixpoint for values whose text is
    /// easy to get wrong: non-ASCII strings and integral floats too
    /// large for a plain decimal point.
    #[test]
    fn round_trips_non_ascii_text_and_large_floats() {
        let values = [
            Value::str("Müller"),
            Value::str("東京 'Ōsaka'"),
            Value::Float(1e15),
            Value::Float(-1e15),
            Value::Float(1e20),
            Value::Float(-2.5e300),
            Value::Float(f64::MAX),
            Value::Float(1e15 + 0.5),
        ];
        for value in values {
            let req = parse_request(&format!("INSERT (<FILE, t>, <v, {value}>)")).unwrap();
            match &req {
                Request::Insert { record } => assert_eq!(record.get("v"), Some(&value)),
                other => panic!("wrong request: {other:?}"),
            }
            let printed = req.to_string();
            assert_eq!(parse_request(&printed).unwrap().to_string(), printed);
        }
    }
}
