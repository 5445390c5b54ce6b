//! Exhaustive bounded model checks (`mbds::model`) of the epoch-fenced
//! failover protocol, the flight scheduler and the live group move,
//! plus the counterexample traces the checker produced during
//! development transcribed into deterministic regression tests against
//! the real `Controller`/`Standby` stack.
//!
//! The empirically tested protocol (crash sweeps, failover sweeps,
//! partition harness) is checked here by enumeration: BFS over every
//! interleaving of write/append/flush/ship/crash/promote/fence up to a
//! bounded depth, with two invariants machine-checked at every state —
//! exclusive epoch writers (no split brain) and acknowledged-write
//! survival.

use mlds::abdl::parse::parse_request;
use mlds::abdl::{Error, Kernel, Record, Request, Value};
use mlds::mbds::model::flight::{FlightConfig, FlightMutation};
use mlds::mbds::model::rebalance::{RebalanceConfig, RebalanceMutation};
use mlds::mbds::model::{check, Action, Model, ModelConfig, Mutation, Violation};
use mlds::mbds::wal::{crc32, CursorUpdate};
use mlds::mbds::{Controller, LogCursor, LogRecord, LogStore, MemLog, Wal};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The exhaustive check CI runs.
// ---------------------------------------------------------------------------

/// The acceptance bar: the small configuration (1 primary, 1 standby,
/// 2 backends, 4 pending writes, depth 13) is exhausted in seconds,
/// explores > 10⁴ distinct states, and both invariants hold at every
/// one of them.
#[test]
fn small_config_exhausts_with_both_invariants_holding() {
    let report = check(&ModelConfig::small());
    println!("model_check: {}", report.summary());
    assert!(
        report.states > 10_000,
        "expected > 10^4 states explored, got {}",
        report.states
    );
    if let Some(ce) = &report.counterexample {
        panic!("the real protocol violated an invariant:\n{}", ce.render());
    }
    assert!(report.elapsed.as_secs() < 30, "took {:?}", report.elapsed);
}

/// A deeper bound still holds (and still fits a CI budget).
#[test]
fn depth_sixteen_also_holds() {
    let report = check(&ModelConfig { depth: 16, ..ModelConfig::small() });
    println!("model_check[d16]: {}", report.summary());
    assert!(report.counterexample.is_none());
    assert!(report.states > report.transitions as usize / 4, "visited-set must dedupe");
}

// ---------------------------------------------------------------------------
// Intentionally broken protocol variants must produce counterexamples.
// ---------------------------------------------------------------------------

/// The acceptance-criteria example: skipping the fence raise on
/// promote must yield a split-brain counterexample with its full
/// action trace.
#[test]
fn skipping_fence_raise_on_promote_yields_a_counterexample_trace() {
    let report = check(&ModelConfig::with_mutation(Mutation::SkipFenceRaiseOnPromote));
    let ce = report
        .counterexample
        .expect("skip-fence-raise must break invariant 1");
    println!("counterexample:\n{}", ce.render());
    assert_eq!(ce.invariant(), 1, "split brain is invariant 1: {}", ce.violation);
    // The trace is a real protocol history: it must actually promote
    // and must end at the violating action.
    assert!(
        ce.trace.contains(&Action::PromoteFence),
        "a fence-raise counterexample must involve a promotion:\n{}",
        ce.render()
    );
    assert!(!ce.trace.is_empty() && ce.trace.len() <= ModelConfig::small().depth as usize);
}

/// Every mutation in the catalogue is caught, each violating the
/// invariant its protocol window attacks.
#[test]
fn every_mutation_in_the_catalogue_is_caught() {
    for &(mutation, name) in ModelConfig::MUTATIONS {
        let report = check(&ModelConfig::with_mutation(mutation));
        println!("{}", report.summary());
        let ce = report
            .counterexample
            .unwrap_or_else(|| panic!("{name} produced no counterexample"));
        let expected_invariant = match mutation {
            Mutation::AckDespiteFailedFlush | Mutation::PromoteSkipsFinalPoll => 2,
            _ => 1,
        };
        assert_eq!(
            ce.invariant(),
            expected_invariant,
            "{name} hit the wrong invariant: {}",
            ce.violation
        );
    }
}

/// BFS returns a *shortest* trace: the ack-despite-failed-flush window
/// needs exactly write → backend-write → wal-append → promote-fence →
/// flush, and the checker must not return anything longer.
#[test]
fn counterexamples_are_shortest_traces() {
    let report = check(&ModelConfig::with_mutation(Mutation::AckDespiteFailedFlush));
    let ce = report.counterexample.expect("counterexample");
    assert_eq!(
        ce.trace.len(),
        5,
        "expected the minimal 5-action window:\n{}",
        ce.render()
    );
    assert!(matches!(
        ce.violation,
        Violation::AckedWriteNotDurable { .. }
    ));
}

// ---------------------------------------------------------------------------
// Counterexamples transcribed against the real Controller/Standby
// stack. Each test replays, deterministically, the action trace a
// mutation produced in the model, and pins the behaviour of the fix.
// ---------------------------------------------------------------------------

fn ins(v: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("g"))]).with("x", Value::Int(v)),
    }
}

/// A [`LogStore`] wrapper that raises the shared fence immediately
/// before the group-commit flush lands — the deterministic replay of a
/// promotion winning the race against a batch commit.
struct FenceBeforeFlush {
    inner: MemLog,
    armed: Arc<AtomicBool>,
}

impl LogStore for FenceBeforeFlush {
    fn append_line(&mut self, line: &str) -> Result<(), Error> {
        self.inner.append_line(line)
    }
    fn append_lines_fenced(&mut self, lines: &[String], epoch: u64) -> Result<(), Error> {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.inner.set_fence_epoch(epoch + 1)?;
        }
        self.inner.append_lines_fenced(lines, epoch)
    }
    fn append_line_fenced(&mut self, line: &str, epoch: u64) -> Result<(), Error> {
        self.inner.append_line_fenced(line, epoch)
    }
    fn install_snapshot_fenced(&mut self, text: &str, epoch: u64) -> Result<(), Error> {
        self.inner.install_snapshot_fenced(text, epoch)
    }
    fn log_lines(&self) -> Result<Vec<String>, Error> {
        self.inner.log_lines()
    }
    fn read_snapshot(&self) -> Result<Option<String>, Error> {
        self.inner.read_snapshot()
    }
    fn install_snapshot(&mut self, text: &str) -> Result<(), Error> {
        self.inner.install_snapshot(text)
    }
    fn has_state(&self) -> Result<bool, Error> {
        self.inner.has_state()
    }
    fn drop_torn_tail(&mut self, keep: usize) -> Result<(), Error> {
        self.inner.drop_torn_tail(keep)
    }
    fn fence_epoch(&self) -> Result<u64, Error> {
        self.inner.fence_epoch()
    }
    fn set_fence_epoch(&mut self, epoch: u64) -> Result<(), Error> {
        self.inner.set_fence_epoch(epoch)
    }
    fn generation(&self) -> Result<u64, Error> {
        self.inner.generation()
    }
}

/// Transcribed `ack-despite-failed-flush` counterexample —
/// client-write → backend-write → wal-append → promote-fence →
/// group-commit-flush. The fence wins the race against the flush, so
/// the batch's log records never land: the controller must retract
/// the batch's write acknowledgements (pre-fix, the flush failure was
/// stashed while every per-request result stayed `Ok`).
#[test]
fn fenced_flush_retracts_the_batch_acknowledgements() {
    let log = MemLog::new();
    let armed = Arc::new(AtomicBool::new(false));
    let store = FenceBeforeFlush { inner: log.clone(), armed: Arc::clone(&armed) };
    let mut c = Controller::durable_with(2, 1, store).unwrap();
    c.create_file("g");
    c.execute(&ins(0)).unwrap();
    let lines_before = log.log_len();

    // The promotion lands between the batch's appends and its flush.
    armed.store(true, Ordering::SeqCst);
    let read = parse_request("RETRIEVE (FILE = g) (*)").unwrap();
    let results = c.execute_batch(&[ins(1), read.clone(), ins(2)]);

    assert_eq!(results.len(), 3);
    assert!(
        results[0].is_err() && results[2].is_err(),
        "writes whose group-commit flush was fenced must not be acknowledged"
    );
    assert!(results[1].is_ok(), "reads saw committed state and stand");
    assert_eq!(
        log.log_len(),
        lines_before,
        "the fenced batch must leave no lines in the store"
    );
    // The controller knows it is fenced: the stashed flush error
    // surfaces on the next request.
    assert!(c.execute(&ins(3)).is_err());
}

/// Transcribed `racy-flush-fence` counterexample — flush-fence-check →
/// promote-fence → flush-land. The fence value read by an earlier
/// check is stale by landing time; the store-side check, atomic with
/// the write, is the one that must hold. This wrapper's
/// `fence_epoch()` *always* answers with the stale value, so only the
/// store's internal check stands between a demoted primary and the
/// promoted lineage's log.
#[test]
fn stale_fence_read_cannot_bypass_the_atomic_store_check() {
    struct StaleFenceRead {
        inner: MemLog,
    }
    impl LogStore for StaleFenceRead {
        fn fence_epoch(&self) -> Result<u64, Error> {
            Ok(0) // the stale pre-promotion read, forever
        }
        fn append_line(&mut self, line: &str) -> Result<(), Error> {
            self.inner.append_line(line)
        }
        fn append_line_fenced(&mut self, line: &str, epoch: u64) -> Result<(), Error> {
            self.inner.append_line_fenced(line, epoch)
        }
        fn append_lines_fenced(&mut self, lines: &[String], epoch: u64) -> Result<(), Error> {
            self.inner.append_lines_fenced(lines, epoch)
        }
        fn install_snapshot_fenced(&mut self, text: &str, epoch: u64) -> Result<(), Error> {
            self.inner.install_snapshot_fenced(text, epoch)
        }
        fn log_lines(&self) -> Result<Vec<String>, Error> {
            self.inner.log_lines()
        }
        fn read_snapshot(&self) -> Result<Option<String>, Error> {
            self.inner.read_snapshot()
        }
        fn install_snapshot(&mut self, text: &str) -> Result<(), Error> {
            self.inner.install_snapshot(text)
        }
        fn has_state(&self) -> Result<bool, Error> {
            self.inner.has_state()
        }
        fn drop_torn_tail(&mut self, keep: usize) -> Result<(), Error> {
            self.inner.drop_torn_tail(keep)
        }
        fn set_fence_epoch(&mut self, epoch: u64) -> Result<(), Error> {
            self.inner.set_fence_epoch(epoch)
        }
        fn generation(&self) -> Result<u64, Error> {
            self.inner.generation()
        }
    }

    let log = MemLog::new();
    let mut promoter = log.clone();
    promoter.set_fence_epoch(1).unwrap(); // the promotion has landed
    let mut wal = Wal::create(Box::new(StaleFenceRead { inner: log.clone() }));

    // The Wal's own pre-check consults the (stale) fence read and
    // passes; the store's atomic check must still refuse the append.
    let err = wal.append(&LogRecord::ReserveKey { key: 1 }).unwrap_err();
    assert!(format!("{err}").contains("fenced"), "got: {err}");
    assert_eq!(log.log_len(), 0, "no stale-epoch line may reach the store");

    // The batched path hits the same wall at flush time.
    wal.begin_batch();
    wal.append(&LogRecord::ReserveKey { key: 2 }).unwrap();
    let err = wal.commit_batch().unwrap_err();
    assert!(format!("{err}").contains("fenced"), "got: {err}");
    assert_eq!(log.log_len(), 0);
}

/// Transcribed `recover-without-refence` counterexample — crash →
/// promote-fence → promote-install → recover → two controllers
/// writing the same epoch. Cold recovery must start a *new* lineage:
/// bump past everything the store has seen and fence out the promoted
/// controller (last recovery wins), rather than adopting — and
/// sharing — its epoch.
#[test]
fn cold_recovery_fences_out_the_promoted_controller() {
    let log = MemLog::new();
    let mut c = Controller::durable_with(2, 2, log.clone()).unwrap();
    c.create_file("g");
    c.execute(&ins(0)).unwrap();

    let sb = c.standby(Box::new(log.clone())).unwrap();
    let mut promoted = sb.promote().unwrap();
    drop(c); // the old primary is gone; the promoted controller serves
    promoted.execute(&ins(1)).unwrap();

    // Operator error: the same store is cold-recovered while the
    // promoted controller is still alive. Pre-fix, both ended up
    // stamping epoch 1 — the model checker's split-brain trace. Now
    // recovery refences: exactly one of the two can keep writing.
    let mut recovered = Controller::recover_with(log.clone()).unwrap();
    assert!(
        LogStore::fence_epoch(&log).unwrap() >= 2,
        "recovery must raise the fence past the promoted epoch"
    );
    let err = promoted.execute(&ins(2)).unwrap_err();
    assert!(format!("{err}").contains("fenced"), "got: {err}");
    recovered.execute(&ins(3)).unwrap();

    // And the surviving lineage recovers cleanly on its own.
    let digest = recovered.state_digest().unwrap();
    drop(recovered);
    let mut again = Controller::recover_with(log).unwrap();
    assert_eq!(again.state_digest().unwrap(), digest);
}

/// Satellite regression: a [`LogCursor`] mid-tail across a racing
/// snapshot install. The store wrapper injects the install *between*
/// the cursor's generation read and its log read — the exact
/// interleaving the cursor's generation sandwich exists for. A naïve
/// cursor would consume the new generation's lines as a continuation
/// (their fresh sequence numbers can collide with what it expects)
/// and silently skip the snapshot; the fixed cursor retries, resyncs
/// from the snapshot, and yields every post-install entry exactly
/// once.
#[test]
fn cursor_resyncs_across_a_racing_snapshot_install() {
    struct InstallBetweenReads {
        inner: MemLog,
        armed: Arc<AtomicBool>,
    }
    impl InstallBetweenReads {
        /// The racing primary: install a snapshot and append a fresh
        /// tail whose sequence numbering restarts at 1.
        fn install_and_extend(&self) {
            let mut writer = self.inner.clone();
            writer.install_snapshot("RACY-SNAPSHOT").unwrap();
            for (i, key) in (100u64..105).enumerate() {
                let body =
                    format!("{} 0 {}", i as u64 + 1, LogRecord::ReserveKey { key }.encode());
                self.inner.push_raw_line(&format!("{:08x} {body}", crc32(body.as_bytes())));
            }
        }
    }
    impl LogStore for InstallBetweenReads {
        fn generation(&self) -> Result<u64, Error> {
            let generation = self.inner.generation()?;
            if self.armed.swap(false, Ordering::SeqCst) {
                // The install lands after the cursor read the
                // generation but before it reads the log.
                self.install_and_extend();
            }
            Ok(generation)
        }
        fn append_line(&mut self, line: &str) -> Result<(), Error> {
            self.inner.append_line(line)
        }
        fn log_lines(&self) -> Result<Vec<String>, Error> {
            self.inner.log_lines()
        }
        fn read_snapshot(&self) -> Result<Option<String>, Error> {
            self.inner.read_snapshot()
        }
        fn install_snapshot(&mut self, text: &str) -> Result<(), Error> {
            self.inner.install_snapshot(text)
        }
        fn has_state(&self) -> Result<bool, Error> {
            self.inner.has_state()
        }
        fn drop_torn_tail(&mut self, keep: usize) -> Result<(), Error> {
            self.inner.drop_torn_tail(keep)
        }
        fn fence_epoch(&self) -> Result<u64, Error> {
            self.inner.fence_epoch()
        }
        fn set_fence_epoch(&mut self, epoch: u64) -> Result<(), Error> {
            self.inner.set_fence_epoch(epoch)
        }
    }

    let log = MemLog::new();
    let mut wal = Wal::create(Box::new(log.clone()));
    for key in 0..3 {
        wal.append(&LogRecord::ReserveKey { key }).unwrap();
    }

    let armed = Arc::new(AtomicBool::new(false));
    let mut cursor = LogCursor::new(Box::new(InstallBetweenReads {
        inner: log.clone(),
        armed: Arc::clone(&armed),
    }));
    // Mid-tail: the cursor has consumed the pre-install log.
    match cursor.poll().unwrap() {
        CursorUpdate::Entries(entries) => assert_eq!(entries.len(), 3),
        CursorUpdate::Snapshot(_) => panic!("no snapshot installed yet"),
    }

    // The racing install: 3 entries compacted away, 5 fresh entries
    // whose sequence numbers restart at 1 — the 4th new line carries
    // seq 4, exactly what the cursor expects next.
    armed.store(true, Ordering::SeqCst);
    match cursor.poll().unwrap() {
        CursorUpdate::Snapshot(text) => assert_eq!(text, "RACY-SNAPSHOT"),
        CursorUpdate::Entries(entries) => {
            panic!("cursor consumed a wrong-generation tail: {entries:?}")
        }
    }
    match cursor.poll().unwrap() {
        CursorUpdate::Entries(entries) => {
            let keys: Vec<u64> = entries
                .iter()
                .map(|e| match e {
                    LogRecord::ReserveKey { key } => *key,
                    other => panic!("unexpected entry {other:?}"),
                })
                .collect();
            assert_eq!(keys, vec![100, 101, 102, 103, 104], "no torn or duplicated entries");
        }
        CursorUpdate::Snapshot(_) => panic!("generation already resynced"),
    }
    assert_eq!(cursor.consumed(), 5);
}

// ---------------------------------------------------------------------------
// Flight-scheduling model: overlapped reads never observe a torn batch.
// ---------------------------------------------------------------------------

/// The read pipeline's safety/liveness pair, machine-checked: with the
/// scheduler's two fences in place (reads wait for earlier-admitted
/// conflicting writes to drain; later-admitted writes wait for the
/// probes), every interleaving of two reader sessions against a
/// replicated write batch yields exactly the admission-prefix deleted
/// set — and the two readers' probe envelopes still genuinely overlap.
#[test]
fn overlapped_reads_never_observe_a_torn_write_batch() {
    let report = check(&FlightConfig::small());
    println!("flight_model: {}", report.summary());
    if let Some(ce) = &report.counterexample {
        panic!("the read pipeline violated the prefix invariant:\n{}", ce.render());
    }
    assert!(
        report.reached("read-read-overlap"),
        "conflict fences must not serialise read against read"
    );
}

/// Deleting either fence must produce a counterexample — the fences
/// are load-bearing, not incidental.
#[test]
fn every_flight_mutation_is_caught() {
    for &(mutation, name) in FlightConfig::MUTATIONS {
        let report = check(&FlightConfig::with_mutation(mutation));
        println!("{}", report.summary());
        let ce = report
            .counterexample
            .unwrap_or_else(|| panic!("{name} produced no counterexample"));
        assert!(!ce.trace.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Rebalance model: WAL-bracketed group moves vs reads, crash, promotion.
// ---------------------------------------------------------------------------

/// The live-move protocol's two invariants, machine-checked: reads
/// route to the old placement until the commit point and to the new
/// one after (never a partial copy set), and a committed move survives
/// both a cold recovery and a standby promotion — including crashes
/// landing strictly inside the bracket.
#[test]
fn bracketed_group_moves_hold_both_invariants() {
    let report = check(&RebalanceConfig::small());
    println!("rebalance_model: {}", report.summary());
    if let Some(ce) = &report.counterexample {
        panic!("the move protocol violated an invariant:\n{}", ce.render());
    }
    assert!(report.reached("mid-move-crash"), "mid-bracket crashes must be explored");
    assert!(report.reached("post-commit-crash"), "post-commit crashes must be explored");
}

/// Deleting either guard — commit-point routing, or the recovery redo
/// at an unmatched begin marker — must produce a counterexample.
#[test]
fn every_rebalance_mutation_is_caught() {
    for &(mutation, name) in RebalanceConfig::MUTATIONS {
        let report = check(&RebalanceConfig::with_mutation(mutation));
        println!("{}", report.summary());
        let ce = report
            .counterexample
            .unwrap_or_else(|| panic!("{name} produced no counterexample"));
        assert!(!ce.trace.is_empty());
    }
}

// ---------------------------------------------------------------------------
// One checker for every model.
// ---------------------------------------------------------------------------

/// Every model's CI configuration, shipped and mutated, visits exactly
/// these states, takes exactly these transitions and (for a mutation)
/// returns a shortest trace of exactly this many actions. A change to
/// any model's abstraction, or to the one search behind them, shows
/// here first; update a row only when its model is meant to change.
#[test]
fn every_model_explores_its_pinned_state_space() {
    fn pinned<M: Model>(rows: &[(M::Mutation, usize, u64, usize)]) {
        assert_eq!(rows.len(), M::MUTATIONS.len() + 1, "{}: one row per catalogue entry", M::NAME);
        for &(mutation, states, transitions, trace_len) in rows {
            let report = check(&M::with_mutation(mutation));
            let found = report.counterexample.as_ref().map_or(0, |ce| ce.trace.len());
            assert_eq!(
                (report.states, report.transitions, found),
                (states, transitions, trace_len),
                "{}",
                report.summary()
            );
            assert!(report.as_expected(), "{}", report.summary());
        }
    }
    pinned::<ModelConfig>(&[
        (Mutation::None, 16470, 37897, 0),
        (Mutation::AckDespiteFailedFlush, 91, 130, 5),
        (Mutation::RacyFlushFence, 194, 297, 6),
        (Mutation::SkipFenceRaiseOnPromote, 1177, 2067, 8),
        (Mutation::PromoteWithoutEpochBump, 212, 324, 6),
        (Mutation::RecoverWithoutRefence, 1104, 2030, 8),
        (Mutation::PromoteSkipsFinalPoll, 204, 309, 6),
    ]);
    pinned::<FlightConfig>(&[
        (FlightMutation::None, 82, 228, 0),
        (FlightMutation::OverlapConflictingRead, 85, 151, 3),
        (FlightMutation::ReorderAheadOfWrites, 767, 2045, 7),
    ]);
    pinned::<RebalanceConfig>(&[
        (RebalanceMutation::None, 50, 132, 0),
        (RebalanceMutation::ServeFromNewBeforeCommit, 6, 7, 2),
        (RebalanceMutation::SkipMoveEndOnRecovery, 24, 43, 4),
    ]);
}
