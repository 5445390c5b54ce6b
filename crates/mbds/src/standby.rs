//! Hot-standby controller replication: log shipping with epoch-fenced
//! failover.
//!
//! A [`Standby`] tails the primary controller's write-ahead log through
//! a [`crate::wal::LogCursor`] and applies every shipped record to a
//! warm in-process mirror: a [`Controller`] over simulated backends
//! with no log of its own, fed exactly as cold recovery feeds a
//! rebuilt controller. Because the mirror
//! replays continuously, [`Standby::promote`] needs no cold replay: it
//! fences the old primary by raising the cluster epoch, resumes the WAL
//! at the shipped high-water mark, and installs a [`Controller`] over
//! the *existing* backends that takes the mirror's whole cluster
//! state — key allocator, directory, unique-value index, placement
//! rotors, residency counts and health board — by value.
//!
//! The protocol, end to end:
//!
//! 1. **Ship** — the primary appends to its [`crate::wal::LogStore`];
//!    the standby's cursor polls the store, skipping in-flight
//!    group-commit batches and torn tails until they become whole.
//! 2. **Apply** — the mirror bootstraps from the snapshot text
//!    (`load_snapshot`) and each decoded [`crate::LogRecord`] is
//!    replayed into it (`replay`); a snapshot install on the primary
//!    resets the cursor and the mirror rebuilds from the new text.
//! 3. **Promote** — [`Standby::promote`] drops any torn tail, bumps the
//!    store's fence epoch past everything the log has seen, and builds
//!    the new controller without touching the demoted primary.
//! 4. **Fence** — backends refuse every message stamped with an
//!    epoch below the cluster fence, and the WAL refuses appends once
//!    the store's fence passes its epoch, so a demoted primary's stray
//!    writes reach neither the data nor the log: no split brain.

use crate::controller::Controller;
use crate::link::Cluster;
use crate::sim::CostModel;
use crate::state::check_config;
use crate::wal::{CursorUpdate, LogCursor, LogRecord, LogStore, SnapshotData, Wal};
use abdl::{Error, Result};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Replication-lag counters for one [`Standby`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LagStats {
    /// Log records shipped from the primary and applied to the mirror.
    pub records_shipped: u64,
    /// Bytes of primary log the standby has seen but not yet consumed
    /// (torn tails and in-flight batches it is waiting out).
    pub bytes_behind: u64,
    /// Total wall-clock time spent applying shipped state, µs.
    pub apply_micros: u64,
}

/// A warm controller replica tailing a primary's write-ahead log.
///
/// Create one with [`Controller::standby`], keep it fresh with
/// [`Standby::poll`], and on primary failure consume it with
/// [`Standby::promote`]. Promotion must happen *before* the failed
/// primary object is dropped: the backends are shared, and only
/// a fenced (already demoted) primary detaches from them instead of
/// shutting them down.
pub struct Standby {
    cursor: LogCursor,
    mirror: Controller,
    cluster: Cluster,
    /// Backends whose `RestartBegin` shipped without a matching
    /// `RestartEnd`: the primary crashed mid-restart. The mirror has
    /// already applied the full restart (exactly as cold replay would),
    /// but the real backend was never respawned — promotion
    /// finishes these restarts for real.
    mid_restart: BTreeSet<usize>,
    /// Move chunks whose `MoveBegin` shipped without a matching
    /// `MoveEnd`: the primary crashed mid-chunk. The mirror has already
    /// applied the chunk (exactly as cold replay would), but the
    /// physical copy on the real backends was interrupted — promotion
    /// redoes exactly these keys for real.
    mid_move: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)>,
    records_shipped: u64,
    apply_micros: u64,
}

impl Standby {
    /// Attach to a primary's log store and bootstrap the mirror from
    /// its snapshot (a durable controller writes one at creation).
    pub(crate) fn attach(cluster: Cluster, store: Box<dyn LogStore>) -> Result<Standby> {
        let mut cursor = LogCursor::new(store);
        let update = cursor.poll()?;
        let CursorUpdate::Snapshot(text) = update else {
            return Err(Error::Internal(
                "standby: primary's log holds no snapshot to bootstrap from".into(),
            ));
        };
        let mut standby = Standby {
            cursor,
            mirror: Standby::mirror_of(&text)?,
            cluster,
            mid_restart: BTreeSet::new(),
            mid_move: Vec::new(),
            records_shipped: 0,
            apply_micros: 0,
        };
        standby.poll()?;
        Ok(standby)
    }

    /// A fresh mirror rebuilt from snapshot text.
    fn mirror_of(text: &str) -> Result<Controller> {
        let snap = SnapshotData::parse(text)?;
        check_config(&snap)?;
        let mut mirror =
            Controller::simulated(snap.backends, snap.replication, CostModel::default());
        mirror.load_snapshot(&snap)?;
        Ok(mirror)
    }

    /// Ship everything new from the primary's log into the mirror.
    /// Returns the number of log records applied by this call. Safe to
    /// call at any cadence: a poll that races an in-flight group-commit
    /// batch or a torn tail simply stops short and catches up next
    /// time.
    pub fn poll(&mut self) -> Result<usize> {
        let start = Instant::now();
        let mut shipped = 0usize;
        loop {
            match self.cursor.poll()? {
                CursorUpdate::Snapshot(text) => {
                    // The primary compacted its log: rebuild and keep
                    // polling — entries may already follow the install.
                    // Snapshots are never taken between begin/end
                    // markers, so nothing is mid-restart or mid-move.
                    self.mirror = Standby::mirror_of(&text)?;
                    self.mid_restart.clear();
                    self.mid_move.clear();
                }
                CursorUpdate::Entries(entries) => {
                    for entry in &entries {
                        match entry {
                            LogRecord::RestartBegin { backend } => {
                                self.mid_restart.insert(*backend);
                            }
                            LogRecord::RestartEnd { backend } => {
                                self.mid_restart.remove(backend);
                            }
                            LogRecord::MoveBegin { from, to, keys } => {
                                self.mid_move.push((from.clone(), to.clone(), keys.clone()));
                            }
                            LogRecord::MoveEnd { from, to } => {
                                self.mid_move.retain(|(f, t, _)| f != from || t != to);
                            }
                            _ => {}
                        }
                        self.mirror.replay(entry)?;
                    }
                    shipped += entries.len();
                    break;
                }
            }
        }
        self.records_shipped += shipped as u64;
        self.apply_micros += u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        Ok(shipped)
    }

    /// Replication-lag counters: how much has shipped, how far behind
    /// the cursor is, and how long applying has cost.
    pub fn lag(&self) -> LagStats {
        LagStats {
            records_shipped: self.records_shipped,
            bytes_behind: self.cursor.bytes_behind(),
            apply_micros: self.apply_micros,
        }
    }

    /// The mirror's deterministic state digest — byte-comparable with
    /// [`Controller::state_digest`].
    pub fn state_digest(&mut self) -> Result<String> {
        self.mirror.state_digest()
    }

    /// Epoch-fenced failover: consume the standby and install a new
    /// [`Controller`] over the cluster's existing backends.
    ///
    /// Ships any final consumable log records, discards a torn tail the
    /// crashed primary left behind, raises the store's fence epoch past
    /// everything the log has seen, and resumes the WAL at the shipped
    /// high-water mark — no replay. From the moment the fence rises,
    /// every envelope and every WAL append the demoted primary attempts
    /// is rejected.
    ///
    /// Call this *before* dropping the failed primary object: a
    /// not-yet-fenced primary's drop shuts the shared backends
    /// down.
    pub fn promote(mut self) -> Result<Controller> {
        self.poll()?;
        let unfinished: Vec<usize> = self.mid_restart.iter().copied().collect();
        let unfinished_moves = std::mem::take(&mut self.mid_move);
        let consumed = self.cursor.consumed();
        let next_seq = self.cursor.next_seq();
        let max_epoch = self.cursor.max_epoch();
        let torn = self.cursor.bytes_behind() > 0;
        let mut store = self.cursor.into_store();
        if torn {
            // The crashed primary left unconsumable bytes (a torn line
            // or an unfinished batch) past the shipped prefix; the new
            // lineage starts from what was durably whole.
            store.drop_torn_tail(consumed)?;
        }
        let new_epoch = max_epoch.max(store.fence_epoch()?) + 1;
        store.set_fence_epoch(new_epoch)?;
        self.cluster.fence.store(new_epoch, Ordering::SeqCst);
        let wal = Wal::resume(store, next_seq, consumed as u64, new_epoch);
        let mut c = Controller::promoted(self.cluster, wal, new_epoch, self.mirror.into_state());
        c.settle_promotion(&unfinished, unfinished_moves)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::{Kernel, Record, Request, Value};
    use crate::MemLog;

    fn insert(c: &mut Controller, file: &str, v: i64) {
        c.execute(&Request::Insert {
            record: Record::from_pairs([("FILE", Value::str(file))]).with("v", Value::Int(v)),
        })
        .unwrap();
    }

    fn retrieve_all(c: &mut Controller, file: &str) -> String {
        let req = abdl::parse::parse_request(&format!("RETRIEVE ((FILE = {file})) (*)")).unwrap();
        let mut rows: Vec<String> =
            c.execute(&req).unwrap().records().iter().map(|(k, r)| format!("{k:?} {r}")).collect();
        rows.sort();
        rows.join("\n")
    }

    #[test]
    fn standby_tails_the_primary_and_mirrors_its_digest() {
        let log = MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        let mut sb = c.standby(Box::new(log.clone())).unwrap();
        c.try_create_file("f").unwrap();
        for i in 0..20 {
            insert(&mut c, "f", i);
        }
        sb.poll().unwrap();
        assert_eq!(sb.state_digest().unwrap(), c.state_digest().unwrap());
        let lag = sb.lag();
        assert!(lag.records_shipped >= 21, "shipped {}", lag.records_shipped);
        assert_eq!(lag.bytes_behind, 0, "caught-up standby reports no lag");
    }

    #[test]
    fn standby_rebuilds_across_primary_snapshot_installs() {
        let log = MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        c.set_snapshot_every(5);
        let mut sb = c.standby(Box::new(log.clone())).unwrap();
        c.try_create_file("f").unwrap();
        for i in 0..23 {
            insert(&mut c, "f", i);
            if i % 7 == 0 {
                sb.poll().unwrap();
            }
        }
        sb.poll().unwrap();
        assert_eq!(sb.state_digest().unwrap(), c.state_digest().unwrap());
    }

    #[test]
    fn promotion_installs_a_serving_controller_without_replay() {
        let log = MemLog::new();
        let mut c = Controller::durable_with(4, 2, log.clone()).unwrap();
        c.try_create_file("f").unwrap();
        c.add_unique_constraint("f", vec!["v".into()]);
        for i in 0..30 {
            insert(&mut c, "f", i);
        }
        let reference = c.state_digest().unwrap();
        let answers = retrieve_all(&mut c, "f");

        let sb = c.standby(Box::new(log.clone())).unwrap();
        // Promote while the primary still exists — the fence demotes it.
        let mut p = sb.promote().unwrap();
        drop(c);

        assert_eq!(p.state_digest().unwrap(), reference);
        assert_eq!(retrieve_all(&mut p, "f"), answers);
        // The promoted controller keeps serving writes: the allocator,
        // rotors and unique index all came over warm.
        insert(&mut p, "f", 999);
        let dup = p
            .execute(&Request::Insert {
                record: Record::from_pairs([("FILE", Value::str("f"))])
                    .with("v", Value::Int(999)),
            })
            .unwrap_err();
        assert!(
            matches!(dup, abdl::Error::DuplicateKey { .. }),
            "unique constraint survived promotion, got: {dup}"
        );
    }

    #[test]
    fn promoted_lineage_recovers_from_its_own_store() {
        let log = MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        c.try_create_file("f").unwrap();
        for i in 0..10 {
            insert(&mut c, "f", i);
        }
        let sb = c.standby(Box::new(log.clone())).unwrap();
        let mut p = sb.promote().unwrap();
        drop(c);
        insert(&mut p, "f", 100);
        let digest = p.state_digest().unwrap();
        drop(p);
        // Cold recovery starts a new lineage *above* the fenced epoch —
        // the store must not fence out its own recovery.
        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.state_digest().unwrap(), digest);
        insert(&mut r, "f", 101);
    }

    #[test]
    fn demoted_primary_is_fenced_out_of_backends_and_log() {
        let log = MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        c.try_create_file("f").unwrap();
        for i in 0..8 {
            insert(&mut c, "f", i);
        }
        let sb = c.standby(Box::new(log.clone())).unwrap();
        let mut p = sb.promote().unwrap();
        let log_len = log.log_len();

        // The demoted primary keeps issuing writes: every request must
        // be rejected and the WAL must gain no post-demotion records.
        for i in 100..110 {
            let err = c
                .execute(&Request::Insert {
                    record: Record::from_pairs([("FILE", Value::str("f"))])
                        .with("v", Value::Int(i)),
                })
                .unwrap_err();
            assert!(
                err.to_string().contains("fenced") || err.to_string().contains("epoch"),
                "stale write must be fenced, got: {err}"
            );
        }
        let stale_create = c.try_create_file("g").unwrap_err();
        assert!(stale_create.to_string().contains("fenced") || stale_create.to_string().contains("epoch"));
        assert_eq!(log.log_len(), log_len, "no post-demotion WAL records");

        // The promoted controller is unaffected by the stray traffic —
        // and dropping the demoted primary must not kill the shared
        // backend threads.
        drop(c);
        insert(&mut p, "f", 200);
        assert!(retrieve_all(&mut p, "f").contains("200"));
    }

    #[test]
    fn promotion_discards_a_torn_tail() {
        let log = MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        c.try_create_file("f").unwrap();
        for i in 0..6 {
            insert(&mut c, "f", i);
        }
        let reference = c.state_digest().unwrap();
        let sb = c.standby(Box::new(log.clone())).unwrap();
        // Simulate a primary that crashed mid-append: a torn final line.
        log.push_raw_line("deadbeef 99 0 garbage");
        let before = log.log_len();
        let mut p = sb.promote().unwrap();
        drop(c);
        assert!(log.log_len() < before, "promotion truncated the torn tail");
        assert_eq!(p.state_digest().unwrap(), reference);
        insert(&mut p, "f", 7);
    }
}
