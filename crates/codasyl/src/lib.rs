#![warn(missing_docs)]

//! # The network data model and CODASYL-DML
//!
//! "The network data model is one of the oldest of the data models …
//! developed in the late 1960's by the Conference on Data System
//! Languages, Database Task Group (CODASYL, DBTG)." A network schema is
//! a collection of *record types* (with typed data items) and *set
//! types* — one-to-many relationships between an owner record type and
//! member record types, with insertion, retention and set-selection
//! rules.
//!
//! This crate provides:
//!
//! * [`schema`] — record types, set types with all three mode families,
//!   SYSTEM-owned sets, uniqueness groups, overlap table slots and the
//!   provenance metadata ([`schema::SetOrigin`]) that the functional→
//!   network transformer records so the CODASYL-DML→ABDL translator
//!   knows how each set is represented in the kernel;
//! * [`ddl`] — a parser and canonical printer for the schema DDL
//!   (`RECORD NAME IS …`, `SET NAME IS …`, `DUPLICATES ARE NOT
//!   ALLOWED FOR …`);
//! * [`dml`] — the CODASYL-DML statement AST and parser: the FIND
//!   family (ANY, CURRENT, DUPLICATE WITHIN, FIRST/LAST/NEXT/PRIOR,
//!   OWNER, WITHIN-CURRENT), GET (three forms), STORE, CONNECT,
//!   DISCONNECT, MODIFY, ERASE \[ALL\], and the host-language `MOVE`
//!   that fills the user work area;
//! * [`uwa`] — the User Work Area (per-record-type item templates);
//! * [`cit`] — the Currency Indicator Table: current of run-unit,
//!   current of each record type and current of each set type;
//! * [`ab_map`] — the network→ABDM mapping (the `AB(network)` store
//!   layout of Banerjee/Wortherly): kernel file per record type, the
//!   record's own key attribute, one attribute per set membership
//!   holding the owner's key.

//! ## Example
//!
//! ```
//! use codasyl::dml::{parse_statements, Statement};
//!
//! let stmts = parse_statements(
//!     "MOVE 'Advanced Database' TO title IN course\n\
//!      FIND ANY course USING title IN course",
//! ).unwrap();
//! assert_eq!(stmts.len(), 2);
//! assert_eq!(stmts[1].verb(), "FIND ANY");
//! ```

pub mod ab_map;
pub mod cit;
pub mod ddl;
pub mod dml;
pub mod error;
pub mod schema;
pub mod uwa;

pub use cit::{Currency, CurrencyTable, SetCurrency};
pub use error::{Error, Result};
pub use schema::{
    AttrType, Insertion, NetAttrType, NetworkSchema, OverlapGroup, Owner, RecordType, Retention,
    Selection, SetOrigin, SetType, ValueCheck,
};
pub use uwa::Uwa;

/// How the CODASYL DDL and DML parsers tokenize: `-` never continues a word,
/// so `a-1` is the name `a` and the number `-1`.
const DIALECT: abdl::parse::Dialect = abdl::parse::Dialect { hyphen_in_words: false };

/// The reserved owner name for SYSTEM-owned (singular) sets.
pub const SYSTEM: &str = "SYSTEM";
