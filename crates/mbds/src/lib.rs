#![warn(missing_docs)]

//! # MBDS — the Multi-Backend Database System
//!
//! "The Multi-Backend Database System (MBDS) uses a software
//! multiple-backend approach … utilizing multiple backends connected in
//! parallel. The backends have identical software and their own disks.
//! There is a backend controller, the master, which supervises the
//! execution of the database transactions … The backend controller is
//! connected to the individual backends by a communication bus."
//!
//! Two performance claims are made for MBDS (§I.B.2 of the thesis) and
//! reproduced by a simulated controller's cost-model clock:
//!
//! 1. *Response-time reduction*: "by increasing the number of backends,
//!    while maintaining the size of the database … at a constant level,
//!    MBDS yields a nearly reciprocal decrease in the response times."
//! 2. *Capacity growth*: "by increasing the number of backends
//!    proportionally with an increase in the size of the database …
//!    MBDS produces invariant response-times."
//!
//! The one kernel here is the [`Controller`]: N backends, each owning
//! a private [`abdl::Store`] partition, reached over one link apiece
//! (the "communication bus"). It implements [`abdl::Kernel`], so every
//! MLDS language interface runs on it unchanged. Records are placed
//! round-robin per file; non-INSERT requests are broadcast and the
//! partial responses merged (aggregates are re-aggregated globally).
//! Backends can be killed for failure-injection tests. Three links
//! reach the backends, and the controller's code is the same over
//! each:
//!
//! * worker threads on the channel bus ([`Controller::new`]);
//! * `mbds-backend` processes over TCP ([`Controller::over_tcp`], or
//!   any constructor under `MBDS_TRANSPORT=tcp`);
//! * simulated in-memory backends ([`Controller::simulated`]), stepped
//!   serially and deterministically, each round of messages charged on
//!   a [`SimClock`] by a [`CostModel`] over the per-backend disk-block
//!   counters (`max` over backends + bus and merge costs) — exactly the
//!   quantity whose *shape* the two claims describe. The experiment
//!   tables and the standby's warm mirror run on these.
//!
//! Beyond the 1987 design, the controller is *fault tolerant*:
//!
//! * records are placed on **k-way replica groups** (default k = 2) and
//!   reads deduplicate by database key, so replicated answers equal a
//!   single store's byte-for-byte;
//! * the controller detects failures with reply timeouts and the
//!   [`HealthBoard`] (Alive → Suspect → Dead), keeps serving from
//!   survivors, reports `degraded`/`unavailable_backends` on every
//!   response, and `restart_backend` re-replicates lost records from
//!   surviving replicas;
//! * a seeded, deterministic [`FaultPlan`] injects reply drops, delays,
//!   crashes and panics at exact per-backend message counts —
//!   bit-identical across runs over threads and over simulated
//!   backends (experiment E13);
//! * controller state itself is **durable and recoverable** (the [`wal`]
//!   module): every directory mutation is written to a checksummed
//!   write-ahead log with periodic compacted snapshots, and
//!   [`Controller::recover`] rebuilds an equivalent controller —
//!   directory, key allocator, placement rotors, health board and
//!   backend contents — after a crash between any two operations
//!   (experiment E14, `tests/crash_recovery.rs`);
//! * a **hot standby** ([`Standby`], the [`standby`] module) tails the
//!   primary's log, mirrors the full controller state warm, and
//!   promotes over the *existing* backends without replay; promotion is
//!   epoch-fenced, so a demoted primary's stray writes reach neither
//!   the backends nor the log (experiment E16, `tests/failover.rs`).

//! ## Example
//!
//! ```
//! use abdl::{Kernel, Record, Request, Value};
//! use mbds::Controller;
//!
//! let mut mbds = Controller::new(4);
//! mbds.create_file("f");
//! for i in 0..20i64 {
//!     mbds.execute(&Request::Insert {
//!         record: Record::from_pairs([("FILE", Value::str("f"))])
//!             .with("f", Value::Int(i)),
//!     }).unwrap();
//! }
//! let resp = mbds
//!     .execute(&abdl::parse::parse_request("RETRIEVE ((FILE = f) and (f < 10)) (*)").unwrap())
//!     .unwrap();
//! assert_eq!(resp.records().len(), 10);
//! ```

mod controller;
mod directory;
pub mod fault;
pub mod health;
mod link;
pub mod model;
pub mod net;
mod placement;
pub mod rebalance;
pub mod sched;
mod sim;
mod state;
pub mod standby;
pub mod wal;

pub use controller::{Controller, DEFAULT_REPLICATION};
pub use directory::{CompressionStats, Directory};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use health::{BackendState, HealthBoard};
pub use model::{CheckReport, Counterexample, ModelConfig, Mutation, Violation};
pub use net::{
    Frame, FrameReader, LinkDir, NetFaultEvent, NetFaultKind, NetFaultPlan, RemoteLog, ShipServer,
    TcpLink,
};
pub use placement::Partitioner;
pub use rebalance::{MoveJob, Rebalancer};
pub use sched::Footprint;
pub use sim::{CostModel, SimClock};
pub use standby::{LagStats, Standby};
pub use wal::{FileLog, LogCursor, LogRecord, LogStore, MemLog, SnapshotData, Wal};
