#![warn(missing_docs)]

//! # The functional data model and Daplex
//!
//! "The functional data model is primarily a logical database model that
//! provides a somewhat natural view of the real world based on entities
//! and relationships. … The fundamental data definition constructs of
//! Daplex are the entity and the function, with the function mapping a
//! given entity into a set of target entities."
//!
//! This crate provides:
//!
//! * [`schema`] — entity types, entity subtypes (ISA with multiple
//!   supertypes and value inheritance), non-entity types (base, subtype
//!   and derived scalars, enumerations, constants), functions
//!   (scalar / scalar multi-valued / single-valued / multi-valued),
//!   uniqueness constraints and overlap constraints — the Rust
//!   rendition of the `fun_dbid_node` family of Chapter IV;
//! * [`ddl`] — a parser and canonical printer for the Daplex DDL
//!   (`TYPE … IS ENTITY …`, `SUBTYPE OF`, `UNIQUE … WITHIN`,
//!   `OVERLAP … WITH`);
//! * [`university`] — the University database schema of Figure 2.1 (the
//!   running example of the thesis), as DDL text, parsed schema, and a
//!   sample data population;
//! * [`ab_map`] — the functional→ABDM mapping producing the
//!   `AB(functional)` kernel layout of Figure 3.3: one kernel file per
//!   entity type and subtype, artificial unique-key attributes, function
//!   attributes (with the member-side normalization described in
//!   DESIGN.md), `LINK_X` pair files for many-to-many functions;
//! * [`dml`] — a Daplex DML subset (`FOR EACH`, `CREATE`, `DESTROY`,
//!   `ASSIGN`, `INCLUDE`, `EXCLUDE`) translated to ABDL — the MLDS
//!   functional language interface that the thesis's work extends.

//! ## Example
//!
//! ```
//! // Parse the University schema of Figure 2.1 and inspect it.
//! let schema = daplex::university::schema();
//! assert!(schema.function("student", "name").is_some(), "inherited from person");
//! assert_eq!(schema.m2m_pairs()[0].link, "LINK_1");
//! ```

pub mod ab_map;
pub mod ddl;
pub mod dml;
pub mod error;
pub mod names;
pub mod schema;
pub mod university;

pub use error::{Error, Result};
pub use schema::{
    BaseKind, EntitySubtype, EntityType, FnRange, Function, FunctionalSchema, NonEntityClass,
    NonEntityType, OverlapConstraint, UniqueConstraint,
};

/// How the Daplex DDL and DML parsers tokenize: `-` never continues a word,
/// so `a-1` is the name `a` and the number `-1`.
const DIALECT: abdl::parse::Dialect = abdl::parse::Dialect { hyphen_in_words: false };
