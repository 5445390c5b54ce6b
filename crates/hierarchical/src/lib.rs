#![warn(missing_docs)]

//! # The hierarchical data model and DL/I — MLDS's hierarchical interface
//!
//! The last member of Figure 1.2's interface family: segment trees in
//! the style of IMS, manipulated with DL/I calls, mapped onto the
//! attribute-based kernel.
//!
//! A hierarchical database is a forest of *segment types*; each segment
//! occurrence has at most one parent occurrence. The kernel layout is
//! the member-side convention once more: one file per segment type,
//! `<FILE, seg>`, `<seg, key>`, one keyword per field, and — for child
//! segments — `<{parent}_{child}, parent-key>` (the same naming the ISA
//! sets use, because a parent-child arc *is* a 1:N set).
//!
//! DL/I calls (with segment search arguments, SSAs):
//!
//! ```text
//! GU   root (ssa) child (ssa) … target (ssa)   get unique: descend a path
//! GN   segment [(ssa)]                         get next of a segment type
//! GNP  segment [(ssa)]                         get next within current parent
//! ISRT segment (field = value, …)              insert under the current parent
//! REPL segment (field = value, …)              replace fields of the current segment
//! DLET segment                                 delete current segment + its subtree
//! ```

//! ## Example
//!
//! ```
//! use dli::{calls, ddl, DliSession};
//!
//! let schema = ddl::parse_schema(
//!     "HIERARCHY NAME IS h.
//!      SEGMENT a. 02 x TYPE IS FIXED.
//!      SEGMENT b PARENT IS a. 02 y TYPE IS FIXED.",
//! ).unwrap();
//! let mut store = abdl::Store::new();
//! dli::ab_map::install(&schema, &mut store);
//! let mut session = DliSession::new(schema);
//! for call in calls::parse_calls(
//!     "ISRT a (x = 1)\nISRT b (y = 2)\nGU a (x = 1) b (y = 2)",
//! ).unwrap() {
//!     session.execute(&mut store, &call).unwrap();
//! }
//! assert_eq!(session.run_unit().unwrap().0, "b");
//! ```

pub mod ab_map;
pub mod calls;
pub mod ddl;
pub mod error;
pub mod schema;

pub use calls::{DliCall, DliSession, Ssa};
pub use error::{Error, Result};
pub use schema::{Field, FieldType, HierSchema, Segment};

/// How the DBD and DL/I call parsers tokenize: `-` never continues a word,
/// so `a-1` is the name `a` and the number `-1`.
const DIALECT: abdl::parse::Dialect = abdl::parse::Dialect { hyphen_in_words: false };
