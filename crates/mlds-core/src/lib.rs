#![warn(missing_docs)]

//! # MLDS — the Multi-Lingual Database System
//!
//! "The language interface layer (LIL) supports user interaction with
//! the system via a user-selected data model (UDM) with transactions
//! written in a corresponding user data language (UDL). The user's
//! transaction is routed to the kernel mapping subsystem (KMS) by LIL
//! … KMS sends the KDL transaction to KCS, which in turn forwards the
//! KDL transaction to KDS for execution. When KDS has finished …, the
//! results … are routed to the kernel formatting subsystem (KFS). KFS
//! reformats the results into UDM format and displays them, via LIL, to
//! the user."
//!
//! This crate assembles the pipeline:
//!
//! * **LIL** — [`Mlds`]: database creation from any of four DDLs
//!   (CODASYL, Daplex, SQL, DBD — the model is auto-detected), one
//!   schema registry, one connect rule ("LIL … first searches the
//!   existing network schemas … If the desired database is not found
//!   …, the list of functional schemas is then searched"), session
//!   management, and — the thesis's contribution — the one-step schema
//!   transformation triggered when a CODASYL-DML user opens a
//!   *functional* database (and its kin: Daplex over a network
//!   database, SQL over a hierarchical one);
//! * **KMS** — `mlds-translator` (CODASYL-DML→ABDL), the Daplex DML
//!   interpreter of `mlds-daplex`, and the SQL and DL/I translators of
//!   `mlds-relational` and `mlds-hierarchical`;
//! * **KC**  — request forwarding to the kernel: a single
//!   [`abdl::Store`] or the multi-backend [`mbds::Controller`] (over
//!   threads, backend processes or simulated backends), all behind
//!   [`abdl::Kernel`];
//! * **KFS** — [`kfs`]: result formatting back into the user's model.
//!
//! ## Quickstart
//!
//! ```
//! use mlds::Mlds;
//!
//! let mut mlds = Mlds::single_backend();
//! mlds.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
//! mlds.populate_university("university").unwrap();
//!
//! // A CODASYL-DML user opens the *functional* database: LIL finds it
//! // among the functional schemas and transforms it on the fly.
//! let mut session = mlds.connect_codasyl("user1", "university").unwrap();
//! let out = mlds
//!     .execute_codasyl(&mut session, "
//!         MOVE 'Advanced Database' TO title IN course
//!         FIND ANY course USING title IN course
//!         GET course
//!     ")
//!     .unwrap();
//! assert!(out.last().unwrap().display.contains("Advanced Database"));
//! ```

pub mod error;
pub mod kfs;
pub mod namespace;
pub mod service;
pub mod session;
pub mod system;

pub use error::{Error, Result};
pub use namespace::{kernel_file, Namespace, NamespacedKernel};
pub use service::{AdmissionEntry, MldsService, ServiceReport, ServiceSession, SessionStat};
pub use session::{CodasylSession, DaplexSession, HierSession, SqlSession, StatementOutput};
pub use system::Mlds;

// Re-export the layer crates so downstream users need only `mlds`.
pub use abdl;
pub use codasyl;
pub use daplex;
pub use dli;
pub use mbds;
pub use relational;
pub use transform;
pub use translator;
