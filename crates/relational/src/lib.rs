#![warn(missing_docs)]

//! # The relational data model and SQL — MLDS's relational interface
//!
//! Figure 1.2 of the thesis shows MLDS "comprised of a hierarchical
//! DL/I interface, a relational SQL interface, a network CODASYL-DML
//! interface, a functional DAPLEX interface, and an attribute-based
//! ABDL interface". This crate is the relational/SQL member of that
//! family: a table schema, a SQL subset, and the straightforward
//! relational→ABDM mapping (a table is a kernel file, a row is a
//! record, a primary key is a `DUPLICATES ARE NOT ALLOWED` group).
//!
//! The SQL subset:
//!
//! ```sql
//! CREATE DATABASE suppliers;
//! CREATE TABLE supplier (
//!     sno   INTEGER,
//!     sname CHAR(20),
//!     city  CHAR(15),
//!     PRIMARY KEY (sno)
//! );
//!
//! INSERT INTO supplier (sno, sname, city) VALUES (1, 'Smith', 'London');
//! SELECT sname, city FROM supplier WHERE city = 'London' AND sno < 10;
//! SELECT city, COUNT(sno) FROM supplier GROUP BY city;
//! SELECT s.sname, p.pname FROM supplier s, part p WHERE s.city = p.city;
//! UPDATE supplier SET city = 'Paris' WHERE sno = 1;
//! DELETE FROM supplier WHERE sno = 1;
//! ```
//!
//! Translation is nearly one-to-one: SELECT → `RETRIEVE` (with the
//! by-clause for GROUP BY), the two-table equi-join SELECT →
//! `RETRIEVE-COMMON` (the fifth ABDL operation, unused by the thesis's
//! network interface but implemented by the kernel), INSERT/UPDATE/
//! DELETE → their ABDL namesakes (one UPDATE per SET column).

//! ## Example
//!
//! ```
//! use relational::{ddl, dml, SqlTranslator};
//!
//! let schema = ddl::parse_schema(
//!     "CREATE DATABASE d; CREATE TABLE t (a INTEGER, b CHAR(8));",
//! ).unwrap();
//! let mut store = abdl::Store::new();
//! relational::ab_map::install(&schema, &mut store);
//! let sql = SqlTranslator::new(schema);
//! for stmt in dml::parse_statements(
//!     "INSERT INTO t (a, b) VALUES (1, 'x'); SELECT b FROM t WHERE a = 1;",
//! ).unwrap() {
//!     let rs = sql.execute(&mut store, &stmt).unwrap();
//!     if !rs.rows.is_empty() {
//!         assert_eq!(rs.rows[0][0], abdl::Value::str("x"));
//!     }
//! }
//! ```

pub mod ab_map;
pub mod ddl;
pub mod dml;
pub mod error;
pub mod schema;
pub mod translate;

pub use error::{Error, Result};
pub use schema::{ColType, Column, RelSchema, Table};
pub use translate::{RowSet, SqlTranslator};

/// How the SQL DDL and DML parsers tokenize: `-` never continues a word,
/// so `a-1` is the name `a` and the number `-1`.
const DIALECT: abdl::parse::Dialect = abdl::parse::Dialect { hyphen_in_words: false };
