//! Deterministic failover harness for the hot-standby controller.
//!
//! The headline property: attach a standby that continuously tails the
//! primary's write-ahead log, kill the primary immediately after the
//! Nth WAL append — for **every** N in a seeded randomized workload —
//! promote the standby over the *same live backends* without replaying
//! the log, resume, and the final directory state, key-allocator
//! high-water mark and query results are byte-identical to a run that
//! never crashed (the reference `tests/common` shares with
//! `tests/crash_recovery.rs`).
//!
//! The crash point is `Controller::set_wal_crash_after(n)`: the nth
//! append writes its entry durably and then fails the controller, the
//! model of a process dying right after its log write. Unlike cold
//! recovery, the backends' worker threads survive the controller crash;
//! promotion installs the standby's warm mirror of the directory, key
//! allocator, placement rotors and health board over the existing
//! threads under a bumped, fenced epoch — the demoted primary's drop
//! must detach rather than shut the shared backends down, which is why
//! every check promotes *before* dropping the crashed primary.
//!
//! Resume rule (shared with crash recovery): every operation performs
//! its single log append only after its effects are fully applied, so
//! an op whose append crashed is durably complete — skip it. A
//! `restart_backend` is two appends and idempotent, so the crashed
//! restart is always re-run; a crash on its `RestartBegin` leaves the
//! real backend dead while the shipped log says it restarted, and
//! promotion itself finishes the interrupted restart. A transaction's
//! appends are group-committed but the crashing append still flushes
//! durably, so exactly the first `crash_n - appends_before` inserts
//! survive and the harness finishes the tail.

mod common;

use common::{
    apply, gen_ops, gen_ops_unique, probe, reference_run, resume, txn_insert,
    Op, Reference, BACKENDS, REPLICATION,
};
use mlds::abdl::parse::parse_request;
use mlds::abdl::{Kernel, Record, Request, Value};
use mlds::mbds::{Controller, MemLog};

/// Crash the primary after append `crash_n` with a standby tailing its
/// log, promote the standby over the surviving backends, resume, and
/// check the final state against the never-crashed reference.
fn failover_check(ops: &[Op], crash_n: u64, snapshot_every: u64, want: &Reference) {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.set_snapshot_every(snapshot_every);
    // The standby tails the same store the primary appends to — the
    // in-memory analogue of a warm replica reading the shared disk.
    let mut sb = c.standby(Box::new(log.clone())).unwrap();
    c.set_wal_crash_after(crash_n);

    let mut crashed = None;
    for (i, op) in ops.iter().enumerate() {
        let before = c.wal_appends();
        apply(&mut c, op);
        // Continuous tailing: ship after every primary operation, so
        // promotion later has at most the crash-point tail to catch up.
        sb.poll().unwrap();
        if c.wal_crashed() {
            crashed = Some((i, before));
            break;
        }
    }
    let (crashed_at, appends_before) =
        crashed.unwrap_or_else(|| panic!("crash point {crash_n} never fired"));
    let ctx = format!("crash after append {crash_n} (op {crashed_at}: {:?})", ops[crashed_at]);

    // Promote *before* dropping the primary: the fence must rise while
    // the primary still exists, so its drop detaches from the shared
    // backend threads instead of shutting them down.
    let mut p = sb.promote().unwrap_or_else(|e| panic!("promotion failed: {ctx}: {e}"));
    drop(c);
    assert_eq!(p.epoch(), 1, "promotion must bump the fenced epoch: {ctx}");
    p.set_snapshot_every(snapshot_every);

    // Resume rule — see the module docs. Promotion already finished an
    // interrupted restart, and re-running a completed one is a no-op,
    // so the crashed restart is always safe to re-run.
    resume(&mut p, ops, crashed_at, crash_n, appends_before);
    want.assert_matches(&mut p, &ctx);
}

/// The acceptance property: a 200-op seeded workload, with the primary
/// crashed after every single WAL append index, always promotes to the
/// exact state and answers of the never-crashed run.
#[test]
fn every_crash_point_in_a_200_op_workload_fails_over_identically() {
    let ops = gen_ops(0xC0FFEE, 200);
    let want = reference_run(&ops, 0);
    assert!(want.total_appends > 100, "workload too light: {} appends", want.total_appends);
    for crash_n in 1..=want.total_appends {
        failover_check(&ops, crash_n, 0, &want);
    }
}

/// The same sweep with snapshot compaction enabled: crash points land
/// before, at and after snapshot installs, so the standby's cursor
/// crosses log truncations (rebuilding its mirror from the installed
/// snapshot) while the primary keeps appending — and promotion must
/// not care.
#[test]
fn every_crash_point_fails_over_identically_with_snapshots() {
    let ops = gen_ops(0xBEEF, 120);
    let want = reference_run(&ops, 13);
    for crash_n in 1..=want.total_appends {
        failover_check(&ops, crash_n, 13, &want);
    }
}

/// The unique-constrained sweep: duplicate-rejecting inserts,
/// tuple-moving updates and group-committed transactions all ship to
/// the standby, and the promoted unique index matches the reference at
/// every crash point.
#[test]
fn unique_constrained_workload_fails_over_identically() {
    let ops = gen_ops_unique(0x1DECAFE, 100);
    let want = reference_run(&ops, 0);
    assert!(!want.index_digest.is_empty(), "workload never populated the index");
    for crash_n in 1..=want.total_appends {
        failover_check(&ops, crash_n, 0, &want);
    }
}

/// Focused: crashes landing exactly on the two appends of a
/// `restart_backend` re-replication. A crash on `RestartBegin` is the
/// nasty case — the shipped log says the backend restarted (and the
/// standby's mirror applied the full restart), but the real worker
/// thread was never respawned; promotion must finish the restart for
/// real before serving.
#[test]
fn failover_finishes_an_interrupted_restart() {
    let mut ops = vec![Op::CreateFile];
    for v in 0..12 {
        ops.push(Op::Insert { v });
    }
    ops.push(Op::Kill { backend: 1 });
    for v in 12..18 {
        ops.push(Op::Insert { v });
    }
    ops.push(Op::Restart { backend: 1 });
    let want = reference_run(&ops, 0);
    // The restart is the final op: its RestartBegin/RestartEnd entries
    // are the last two appends.
    for crash_n in [want.total_appends - 1, want.total_appends] {
        failover_check(&ops, crash_n, 0, &want);
    }
}

/// Focused group-commit coverage: a single large transaction, crashed
/// at each of its buffered appends in turn. The crashing append is
/// flushed durably, so exactly the first `crash_n` inserts ship to the
/// standby; the harness finishes the tail on the promoted controller.
#[test]
fn failover_inside_a_group_committed_transaction() {
    let mut ops = vec![Op::CreateFile, Op::AddUnique];
    for v in 0..4 {
        ops.push(Op::InsertU { v, u: v });
    }
    ops.push(Op::Txn { vs: (2000..2008).collect() });
    ops.push(Op::InsertU { v: 50, u: 20 });
    let want = reference_run(&ops, 0);
    for crash_n in 1..=want.total_appends {
        failover_check(&ops, crash_n, 0, &want);
    }
}

/// While tailing, the standby's warm mirror is byte-identical to the
/// primary — the live-replication analogue of the recovery equivalence
/// pinned by `tests/crash_recovery.rs`.
#[test]
fn standby_mirror_matches_primary_digest_while_tailing() {
    let ops = gen_ops(0xD15C, 60);
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    let mut sb = c.standby(Box::new(log)).unwrap();
    for (i, op) in ops.iter().enumerate() {
        apply(&mut c, op);
        sb.poll().unwrap();
        if i % 20 == 0 {
            assert_eq!(sb.state_digest().unwrap(), c.state_digest().unwrap(), "diverged at op {i}");
        }
    }
    assert_eq!(sb.state_digest().unwrap(), c.state_digest().unwrap());
    let lag = sb.lag();
    assert_eq!(lag.bytes_behind, 0, "caught-up standby must report zero lag");
    assert!(lag.records_shipped > 0);
}

/// Epoch fencing end-to-end: after promotion the demoted primary is
/// still running, but every write it issues — backend requests and log
/// appends alike — is rejected, and the shared log gains no records
/// from the dead epoch. Split-brain is structurally impossible.
#[test]
fn demoted_primary_writes_are_fenced_after_failover() {
    let ops = gen_ops(0xFE2CE, 40);
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    let mut sb = c.standby(Box::new(log.clone())).unwrap();
    for op in &ops {
        apply(&mut c, op);
        sb.poll().unwrap();
    }
    let want_digest = c.state_digest().unwrap();
    let want_answers = probe(&mut c);

    let mut p = sb.promote().unwrap();
    assert_eq!(p.epoch(), 1);

    // The demoted primary keeps issuing writes from its dead epoch.
    let appends_before = log.log_len();
    for v in 5000..5010 {
        let err = c
            .execute(&txn_insert(v))
            .expect_err("a fenced primary must not accept writes");
        let msg = err.to_string();
        assert!(msg.contains("fenced") || msg.contains("epoch"), "unexpected error: {msg}");
    }
    assert!(c.try_create_file("g").is_err(), "a fenced primary must not create files");
    assert_eq!(log.log_len(), appends_before, "the dead epoch appended to the shared log");

    // The promoted controller serves the exact pre-failover state and
    // keeps accepting writes.
    assert_eq!(p.state_digest().unwrap(), want_digest);
    assert_eq!(probe(&mut p), want_answers);
    p.execute(&txn_insert(7777)).unwrap();
    drop(c); // the demoted primary detaches; the backends stay up
    p.execute(&txn_insert(7778)).unwrap();
    let all = parse_request("RETRIEVE ((FILE = f) and (v > 7000)) (*)").unwrap();
    assert_eq!(p.execute(&all).unwrap().records().len(), 2);
}

/// Promotion hands the mirror's routing state — the per-file residency
/// counts and the health board — to the new controller, and no digest
/// covers either. Pin them by their effect: after the same seeded
/// workload (with kills and restarts), a promoted standby and a
/// never-crashed primary must spend exactly the same backend messages
/// on the same key-scoped point reads and file-scoped scans.
#[test]
fn promoted_standby_routes_reads_at_the_primarys_message_cost() {
    let ops = gen_ops_unique(0x5EED, 120);
    // Finish the workload with exactly backend 3 dead — the board must
    // come through promotion — and a second, one-record file, whose
    // scan is scoped to the record's replica group by the residency
    // counts alone.
    let seed_g = |c: &mut Controller| {
        for i in 0..BACKENDS {
            c.restart_backend(i).unwrap();
        }
        c.kill_backend(3);
        c.try_create_file("g").unwrap();
        let rec = Record::from_pairs([("FILE", Value::str("g"))]).with("v", Value::Int(1));
        c.execute(&Request::Insert { record: rec }).unwrap();
    };
    let mut reference = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    for op in &ops {
        apply(&mut reference, op);
    }
    seed_g(&mut reference);

    let log = MemLog::new();
    let mut primary = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    let mut sb = primary.standby(Box::new(log)).unwrap();
    for op in &ops {
        apply(&mut primary, op);
        sb.poll().unwrap();
    }
    seed_g(&mut primary);
    let mut promoted = sb.promote().unwrap();
    drop(primary);

    let reads: Vec<String> = (0..40)
        .map(|u| format!("RETRIEVE ((FILE = f) and (u = {u})) (*)"))
        .chain(["RETRIEVE (FILE = f) (*)", "RETRIEVE (FILE = g) (*)"].map(String::from))
        .collect();
    let cost = |c: &mut Controller| -> Vec<(u64, usize)> {
        reads
            .iter()
            .map(|q| {
                let before = c.exec_totals().messages_sent;
                let rows = c.execute(&parse_request(q).unwrap()).unwrap().records().len();
                (c.exec_totals().messages_sent - before, rows)
            })
            .collect()
    };
    let want = cost(&mut reference);
    assert_eq!(cost(&mut promoted), want, "per-read (messages, rows) diverged after promotion");
    let g_scan = want.last().unwrap().0;
    assert_eq!(g_scan, REPLICATION as u64, "the one-record file's scan must stay scoped");
    assert!(
        want.iter().any(|&(msgs, rows)| rows == 1 && msgs < BACKENDS as u64),
        "some point read must be key-scoped: {want:?}"
    );
}
