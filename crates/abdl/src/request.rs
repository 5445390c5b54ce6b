//! The ABDL request and transaction AST.
//!
//! "ABDL allows the user to issue either a request or a transaction. A
//! request is a basic operation with an attached qualification … a
//! transaction is defined as the grouping together of two or more
//! sequentially executed requests."

use crate::query::Query;
use crate::record::Record;
use crate::value::Value;
use std::fmt;

/// Aggregate operations usable in a RETRIEVE target list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `COUNT(attr)` — number of non-NULL values.
    Count,
    /// `SUM(attr)`.
    Sum,
    /// `AVG(attr)`.
    Avg,
    /// `MIN(attr)`.
    Min,
    /// `MAX(attr)`.
    Max,
}

impl Aggregate {
    /// The aggregate a name spells (case-insensitive), if any.
    pub fn from_name(name: &str) -> Option<Aggregate> {
        use Aggregate::*;
        [Count, Sum, Avg, Min, Max].into_iter().find(|a| name.eq_ignore_ascii_case(&a.to_string()))
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Aggregate::Count => "COUNT",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One element of a RETRIEVE target list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A plain output attribute.
    Attr(String),
    /// An aggregate over an attribute.
    Agg(Aggregate, String),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Attr(a) => f.write_str(a),
            Target::Agg(op, a) => write!(f, "{op}({a})"),
        }
    }
}

/// A RETRIEVE target list: "a list of output attributes".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TargetList {
    /// The targets, in output order.
    pub targets: Vec<Target>,
}

impl TargetList {
    /// Plain-attribute target list.
    pub fn attrs<I: IntoIterator<Item = S>, S: Into<String>>(attrs: I) -> Self {
        TargetList { targets: attrs.into_iter().map(|a| Target::Attr(a.into())).collect() }
    }

    /// The special `*` target list: every attribute of each record
    /// ("(all attributes)" in the thesis's request sketches).
    pub fn all() -> Self {
        TargetList { targets: vec![Target::Attr("*".into())] }
    }

    /// True when the list is the `*` all-attributes list.
    pub fn is_all(&self) -> bool {
        matches!(self.targets.as_slice(), [Target::Attr(a)] if a == "*")
    }

    /// True when any target is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.targets.iter().any(|t| matches!(t, Target::Agg(..)))
    }
}

impl fmt::Display for TargetList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// An UPDATE modifier: "the modifier specifies how the target record(s)
/// are to be modified".
#[derive(Debug, Clone, PartialEq)]
pub struct Modifier {
    /// Attribute to modify.
    pub attr: String,
    /// New value (may be NULL — the translator's DISCONNECT nulls values).
    pub value: Value,
}

impl Modifier {
    /// Construct a modifier.
    pub fn new(attr: impl Into<String>, value: impl Into<Value>) -> Self {
        Modifier { attr: attr.into(), value: value.into() }
    }
}

impl fmt::Display for Modifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} = {})", self.attr, self.value)
    }
}

/// A single ABDL request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// "INSERT places a new record into the database and is qualified by
    /// a list of keywords."
    Insert {
        /// The record to insert (its keyword list).
        record: Record,
    },
    /// "DELETE removes one or more records from the database and \[is\]
    /// qualified by a query."
    Delete {
        /// Which records to remove.
        query: Query,
    },
    /// "UPDATE modifies records of the database and is qualified by a
    /// query and a modifier."
    Update {
        /// Which records to modify.
        query: Query,
        /// How to modify them.
        modifier: Modifier,
    },
    /// "RETRIEVE accesses and returns records of the database and is
    /// qualified by a query, a target-list, and a by-clause."
    Retrieve {
        /// Which records to return.
        query: Query,
        /// Output attributes / aggregates.
        target: TargetList,
        /// Optional grouping attribute.
        by: Option<String>,
    },
    /// RETRIEVE-COMMON: an equi-join of two retrieves on a common
    /// attribute pair. The thesis's implementation "will not concern
    /// itself with" this operation; it is provided here for kernel
    /// completeness (the fifth ABDL operation).
    RetrieveCommon {
        /// Left qualification.
        left: Query,
        /// Join attribute of the left records.
        left_attr: String,
        /// Right qualification.
        right: Query,
        /// Join attribute of the right records.
        right_attr: String,
        /// Output attributes taken from the joined pair (left then right).
        target: TargetList,
    },
}

impl Request {
    /// A RETRIEVE of all attributes with no by-clause.
    pub fn retrieve_all(query: Query) -> Self {
        Request::Retrieve { query, target: TargetList::all(), by: None }
    }

    /// Operation name (for metrics and display).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Insert { .. } => "INSERT",
            Request::Delete { .. } => "DELETE",
            Request::Update { .. } => "UPDATE",
            Request::Retrieve { .. } => "RETRIEVE",
            Request::RetrieveCommon { .. } => "RETRIEVE-COMMON",
        }
    }

    /// True for requests that change the database.
    pub fn is_mutation(&self) -> bool {
        matches!(self, Request::Insert { .. } | Request::Delete { .. } | Request::Update { .. })
    }
}

impl fmt::Display for Request {
    /// Canonical ABDL text; `crate::parse::parse_request` parses it back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Insert { record } => write!(f, "INSERT {record}"),
            Request::Delete { query } => write!(f, "DELETE {query}"),
            Request::Update { query, modifier } => write!(f, "UPDATE {query} {modifier}"),
            Request::Retrieve { query, target, by } => {
                write!(f, "RETRIEVE {query} {target}")?;
                if let Some(by) = by {
                    write!(f, " BY {by}")?;
                }
                Ok(())
            }
            Request::RetrieveCommon { left, left_attr, right, right_attr, target } => {
                write!(
                    f,
                    "RETRIEVE-COMMON {left} ({left_attr}) COMMON {right} ({right_attr}) {target}"
                )
            }
        }
    }
}

/// "A transaction is defined as the grouping together of two or more
/// sequentially executed requests." (We also allow 0 or 1 for harness
/// convenience.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Transaction {
    /// The requests, executed in order.
    pub requests: Vec<Request>,
}

impl Transaction {
    /// Construct a transaction.
    pub fn new(requests: Vec<Request>) -> Self {
        Transaction { requests }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    #[test]
    fn display_matches_thesis_shapes() {
        let req = Request::Retrieve {
            query: Query::conjunction(vec![
                Predicate::eq("FILE", "course"),
                Predicate::eq("title", "Advanced Database"),
            ]),
            target: TargetList::attrs(["title", "credits"]),
            by: Some("dept".into()),
        };
        assert_eq!(
            req.to_string(),
            "RETRIEVE ((FILE = 'course') and (title = 'Advanced Database')) (title, credits) BY dept"
        );
    }

    #[test]
    fn all_target_list() {
        assert!(TargetList::all().is_all());
        assert!(!TargetList::attrs(["a"]).is_all());
        assert_eq!(TargetList::all().to_string(), "(*)");
    }

    #[test]
    fn mutation_classification() {
        assert!(Request::Delete { query: Query::all() }.is_mutation());
        assert!(!Request::retrieve_all(Query::all()).is_mutation());
    }
}
