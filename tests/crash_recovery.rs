//! Deterministic crash-recovery harness for the durable MBDS
//! controller.
//!
//! The headline property: kill the controller immediately after the
//! Nth write-ahead-log append — for **every** N in a seeded randomized
//! workload — recover from the surviving log, resume, and the final
//! directory state, key-allocator high-water mark and query results
//! are byte-identical to a run that never crashed.
//!
//! The crash point is `Controller::set_wal_crash_after(n)`: the nth
//! append writes its entry durably and then fails the controller (the
//! model of a process dying right after its log write), and every
//! later append is refused. The harness drops the crashed controller,
//! rebuilds one with `Controller::recover_with` from the shared
//! [`MemLog`] (the in-memory analogue of a disk surviving a process
//! crash) and replays the remainder of the workload.
//!
//! Resume rule: every operation performs its single log append only
//! after its effects are fully applied, so an op whose append crashed
//! is durably complete — the harness skips it and resumes at the next
//! one. The exception is `restart_backend`, which logs two entries
//! (RestartBegin/RestartEnd); re-running a completed restart is a
//! no-op, so the harness always re-runs the crashed restart.

mod common;

use common::{
    apply, gen_ops, gen_ops_unique, probe, reference_run, resume,
    Op, Reference, BACKENDS, REPLICATION,
};
use mlds::abdl::parse::parse_request;
use mlds::abdl::Kernel;
use mlds::mbds::{Controller, MemLog};

/// Run ops until the armed crash point fires. Returns the index of the
/// op whose append crashed and the WAL append count just before that
/// op started (so a partially logged transaction knows how many of its
/// inserts are durable), or None if the workload finished.
fn run_until_crash(c: &mut Controller, ops: &[Op]) -> Option<(usize, u64)> {
    for (i, op) in ops.iter().enumerate() {
        let before = c.wal_appends();
        apply(c, op);
        if c.wal_crashed() {
            return Some((i, before));
        }
    }
    None
}

/// Crash after append `crash_n`, recover, resume, and check the final
/// state against the reference.
fn crash_recover_check(ops: &[Op], crash_n: u64, snapshot_every: u64, want: &Reference) {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.set_snapshot_every(snapshot_every);
    c.set_wal_crash_after(crash_n);
    let (crashed_at, appends_before) = run_until_crash(&mut c, ops)
        .unwrap_or_else(|| panic!("crash point {crash_n} never fired"));
    drop(c);

    let mut r = Controller::recover_with(log).unwrap();
    r.set_snapshot_every(snapshot_every);
    resume(&mut r, ops, crashed_at, crash_n, appends_before);
    let ctx = format!("crash after append {crash_n} (op {crashed_at}: {:?})", ops[crashed_at]);
    want.assert_matches(&mut r, &ctx);
}

/// The acceptance property: a 200-op seeded workload, crashed after
/// every single WAL append index, always recovers to the exact state
/// and answers of the never-crashed run.
#[test]
fn every_crash_point_in_a_200_op_workload_recovers_identically() {
    let ops = gen_ops(0xC0FFEE, 200);
    let want = reference_run(&ops, 0);
    assert!(want.total_appends > 100, "workload too light: {} appends", want.total_appends);
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 0, &want);
    }
}

/// The same sweep with snapshot compaction enabled: crash points land
/// before, at and after snapshot installs, and recovery must not care.
#[test]
fn every_crash_point_recovers_identically_with_snapshots() {
    let ops = gen_ops(0xBEEF, 120);
    let want = reference_run(&ops, 13);
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 13, &want);
    }
}

/// Focused satellite: crashes landing exactly on the two appends of a
/// `restart_backend` re-replication (RestartBegin and RestartEnd).
#[test]
fn crash_during_restart_re_replication_recovers() {
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
        crash_recover_check(&ops, crash_n, 0, &want);
    }
}

/// Satellite property: with no crash at all, a controller rebuilt from
/// snapshot + WAL equals the live one — directory, alive set, key
/// allocator — across seeds, with and without compaction.
#[test]
fn rebuilt_controller_equals_live_across_seeds() {
    for (seed, snapshot_every) in [(1u64, 0u64), (7, 0), (99, 9), (1234, 17)] {
        let ops = gen_ops(seed, 60);
        let log = MemLog::new();
        let mut live = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
        live.set_snapshot_every(snapshot_every);
        for op in &ops {
            apply(&mut live, op);
        }
        let mut back = Controller::recover_with(log).unwrap();
        assert_eq!(
            back.state_digest().unwrap(),
            live.state_digest().unwrap(),
            "seed {seed} snapshot_every {snapshot_every}"
        );
        assert_eq!(back.key_high_water(), live.key_high_water(), "seed {seed}");
        assert_eq!(back.alive_count(), live.alive_count(), "seed {seed}");
        assert_eq!(probe(&mut back), probe(&mut live), "seed {seed}");
    }
}

/// A torn tail — the final log line half-written at the crash — loses
/// at most the append in flight, and is physically discarded so a
/// second crash+recovery does not resurrect it over resumed appends.
#[test]
fn torn_tail_loses_only_the_last_append_even_across_double_crash() {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.try_create_file("f").unwrap();
    for v in 0..10 {
        apply(&mut c, &Op::Insert { v });
    }
    drop(c);
    log.corrupt_line(log.log_len() - 1); // tear the 10th insert
    let mut r = Controller::recover_with(log.clone()).unwrap();
    let all = parse_request("RETRIEVE (FILE = f) (*)").unwrap();
    assert_eq!(r.execute(&all).unwrap().records().len(), 9);
    // Resume writing, crash again, recover again: the resumed insert
    // must survive the second recovery.
    apply(&mut r, &Op::Insert { v: 99 });
    drop(r);
    let mut r2 = Controller::recover_with(log).unwrap();
    assert_eq!(r2.execute(&all).unwrap().records().len(), 10);
}

/// A durable controller over simulated backends, for the twin tests.
fn simulated_durable() -> Controller {
    use mlds::mbds::CostModel;
    Controller::simulated_durable(BACKENDS, REPLICATION, CostModel::default(), MemLog::new())
        .unwrap()
}

/// The controller over threads (or processes) and over simulated
/// backends produces the same snapshot text (and hence the same
/// recovered state) for the same operation sequence — the durable
/// analogue of E13's equivalence.
#[test]
fn controller_and_sim_cluster_agree_on_durable_state() {
    let ops = gen_ops(0xD15C, 50);
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    let mut s = simulated_durable();
    for op in &ops {
        apply(&mut c, op);
        apply(&mut s, op);
    }
    assert_eq!(c.state_digest().unwrap(), s.state_digest().unwrap());
    assert_eq!(c.key_high_water(), s.key_high_water());
}

/// The same twin equivalence over a unique-constrained workload:
/// scoped routing, index-based duplicate rejection, tuple-moving
/// updates and group-committed transactions all produce identical
/// durable state — and identical unique indexes — over either link.
#[test]
fn controller_and_sim_cluster_agree_on_unique_constrained_state() {
    let ops = gen_ops_unique(0xA11CE, 80);
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    let mut s = simulated_durable();
    for op in &ops {
        apply(&mut c, op);
        apply(&mut s, op);
    }
    assert_eq!(c.state_digest().unwrap(), s.state_digest().unwrap());
    assert_eq!(c.unique_index_digest(), s.unique_index_digest());
    assert!(!c.unique_index_digest().is_empty(), "workload never populated the index");
    assert_eq!(c.key_high_water(), s.key_high_water());
}

/// The headline sweep over the unique-constrained workload: crash
/// after every WAL append — including appends buffered inside
/// group-committed transactions and duplicate-rejecting inserts —
/// recover, resume, and state, answers *and the rebuilt unique index*
/// match the never-crashed run.
#[test]
fn every_crash_point_in_a_unique_constrained_workload_recovers_identically() {
    let ops = gen_ops_unique(0x1DECAFE, 140);
    let want = reference_run(&ops, 0);
    assert!(want.total_appends > 100, "workload too light: {} appends", want.total_appends);
    assert!(!want.index_digest.is_empty(), "workload never populated the index");
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 0, &want);
    }
}

/// The unique-constrained sweep with snapshot compaction: the index
/// must also rebuild correctly from a snapshot + log suffix.
#[test]
fn unique_constrained_crash_sweep_recovers_with_snapshots() {
    let ops = gen_ops_unique(0x5EED, 100);
    let want = reference_run(&ops, 11);
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 11, &want);
    }
}

/// Focused group-commit coverage: a single large transaction, crashed
/// at each of its buffered appends in turn. The crashing append is
/// flushed durably (flush-through-crash), so exactly the first
/// `crash_n` inserts survive; the harness finishes the tail and the
/// final state matches the uninterrupted run.
#[test]
fn crash_inside_a_group_committed_transaction_recovers() {
    let mut ops = vec![Op::CreateFile, Op::AddUnique];
    for v in 0..4 {
        ops.push(Op::InsertU { v, u: v });
    }
    ops.push(Op::Txn { vs: (2000..2008).collect() });
    ops.push(Op::InsertU { v: 50, u: 20 });
    let want = reference_run(&ops, 0);
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 0, &want);
    }
}
