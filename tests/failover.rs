//! Deterministic failover harness for the hot-standby controller.
//!
//! The headline property: attach a standby that continuously tails the
//! primary's write-ahead log, kill the primary immediately after the
//! Nth WAL append — for **every** N in a seeded randomized workload —
//! promote the standby over the *same live backends* without replaying
//! the log, resume, and the final directory state, key-allocator
//! high-water mark and query results are byte-identical to a run that
//! never crashed (the same reference `tests/crash_recovery.rs` uses).
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

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{Kernel, Record, Request, Transaction, Value};
use mlds::mbds::{Controller, MemLog};

const BACKENDS: usize = 4;
const REPLICATION: usize = 2;

/// One step of the randomized workload, generated ahead of time from a
/// seed so the same list replays identically on the reference run, the
/// crashed run and the promoted run.
#[derive(Clone, Debug)]
enum Op {
    CreateFile,
    AddUnique,
    Insert { v: i64 },
    /// Insert carrying a `u` value under a `DUPLICATES NOT ALLOWED`
    /// constraint — collisions are rejected by the controller's unique
    /// index (appending nothing, deterministically).
    InsertU { v: i64, u: i64 },
    Update { below: i64, set: i64 },
    /// Update that rewrites the constrained attribute, exercising the
    /// index's tuple-move path in the standby's mirror.
    UpdateU { below: i64, set: i64 },
    Delete { v: i64 },
    Retrieve { below: i64 },
    Kill { backend: usize },
    Restart { backend: usize },
    /// A multi-insert transaction: its WAL appends are group-committed
    /// (buffered, one sync). Values are drawn from a disjoint range and
    /// carry no `u`, so every insert appends exactly one entry.
    Txn { vs: Vec<i64> },
}

fn txn_insert(v: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v)),
    }
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut alive = [true; BACKENDS];
    let mut ops = vec![Op::CreateFile];
    while ops.len() <= n {
        let live: Vec<usize> = (0..BACKENDS).filter(|&i| alive[i]).collect();
        let dead: Vec<usize> = (0..BACKENDS).filter(|&i| !alive[i]).collect();
        let roll = rng.gen_range(0, 100);
        let op = if roll < 50 {
            Op::Insert { v: rng.gen_range(0, 1000) }
        } else if roll < 62 {
            Op::Update { below: rng.gen_range(0, 1000), set: rng.gen_range(0, 10) }
        } else if roll < 72 {
            Op::Delete { v: rng.gen_range(0, 1000) }
        } else if roll < 82 {
            Op::Retrieve { below: rng.gen_range(0, 1000) }
        } else if roll < 91 && live.len() > 2 {
            // Keep at least two alive so adjacent k=2 replica groups
            // never lose both members and answers stay complete.
            let b = *rng.pick(&live);
            alive[b] = false;
            Op::Kill { backend: b }
        } else if !dead.is_empty() {
            let b = *rng.pick(&dead);
            alive[b] = true;
            Op::Restart { backend: b }
        } else {
            Op::Insert { v: rng.gen_range(0, 1000) }
        };
        ops.push(op);
    }
    ops
}

/// A workload over a `DUPLICATES NOT ALLOWED` file: unique-index
/// checks, tuple-moving updates, group-committed transactions. Kills
/// keep at most one backend down at a time, so no record data is ever
/// permanently lost — the promoted unique index must then match the
/// never-crashed one exactly.
fn gen_ops_unique(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut alive = [true; BACKENDS];
    let mut ops = vec![Op::CreateFile, Op::AddUnique];
    while ops.len() <= n {
        let live: Vec<usize> = (0..BACKENDS).filter(|&i| alive[i]).collect();
        let dead: Vec<usize> = (0..BACKENDS).filter(|&i| !alive[i]).collect();
        let roll = rng.gen_range(0, 100);
        let op = if roll < 40 {
            // A small u-space, so duplicate rejections actually happen.
            Op::InsertU { v: rng.gen_range(0, 1000), u: rng.gen_range(0, 40) }
        } else if roll < 50 {
            let len = rng.gen_range(2, 5);
            Op::Txn { vs: (0..len).map(|_| rng.gen_range(2000, 3000)).collect() }
        } else if roll < 58 {
            Op::UpdateU { below: rng.gen_range(0, 1000), set: rng.gen_range(0, 40) }
        } else if roll < 68 {
            Op::Delete { v: rng.gen_range(0, 1000) }
        } else if roll < 78 {
            Op::Retrieve { below: rng.gen_range(0, 1000) }
        } else if roll < 89 && live.len() == BACKENDS {
            let b = *rng.pick(&live);
            alive[b] = false;
            Op::Kill { backend: b }
        } else if !dead.is_empty() {
            let b = *rng.pick(&dead);
            alive[b] = true;
            Op::Restart { backend: b }
        } else {
            Op::InsertU { v: rng.gen_range(0, 1000), u: rng.gen_range(0, 40) }
        };
        ops.push(op);
    }
    ops
}

/// Apply one op, ignoring the result — a crashed append surfaces as an
/// error here, and the harness decides what to do from `wal_crashed`.
fn apply(c: &mut Controller, op: &Op) {
    match op {
        Op::CreateFile => {
            let _ = c.try_create_file("f");
        }
        Op::AddUnique => c.add_unique_constraint("f", vec!["u".to_owned()]),
        Op::Insert { v } => {
            let rec =
                Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(*v));
            let _ = c.execute(&Request::Insert { record: rec });
        }
        Op::InsertU { v, u } => {
            let rec = Record::from_pairs([("FILE", Value::str("f"))])
                .with("v", Value::Int(*v))
                .with("u", Value::Int(*u));
            let _ = c.execute(&Request::Insert { record: rec });
        }
        Op::Update { below, set } => {
            let req =
                parse_request(&format!("UPDATE ((FILE = f) and (v < {below})) (m = {set})"))
                    .unwrap();
            let _ = c.execute(&req);
        }
        Op::UpdateU { below, set } => {
            let req =
                parse_request(&format!("UPDATE ((FILE = f) and (v < {below})) (u = {set})"))
                    .unwrap();
            let _ = c.execute(&req);
        }
        Op::Delete { v } => {
            let req = parse_request(&format!("DELETE ((FILE = f) and (v = {v}))")).unwrap();
            let _ = c.execute(&req);
        }
        Op::Retrieve { below } => {
            let req =
                parse_request(&format!("RETRIEVE ((FILE = f) and (v < {below})) (*)")).unwrap();
            let _ = c.execute(&req);
        }
        Op::Kill { backend } => c.kill_backend(*backend),
        Op::Restart { backend } => {
            let _ = c.restart_backend(*backend);
        }
        Op::Txn { vs } => {
            let txn = Transaction::new(vs.iter().map(|v| txn_insert(*v)).collect());
            let _ = c.execute_transaction(&txn);
        }
    }
}

/// Query results that must match byte-for-byte between the reference
/// run and every promoted run.
fn probe(c: &mut Controller) -> Vec<String> {
    [
        "RETRIEVE (FILE = f) (*)",
        "RETRIEVE ((FILE = f) and (v < 500)) (*)",
        "RETRIEVE (FILE = f) (COUNT(v)) BY m",
        // Key-scoped: when `u` is constrained unique, this routes
        // through the promoted index rather than a broadcast.
        "RETRIEVE ((FILE = f) and (u = 3)) (*)",
    ]
    .iter()
    .map(|q| {
        let resp = c.execute(&parse_request(q).unwrap()).unwrap();
        let mut records = resp.records().to_vec();
        records.sort_by_key(|(k, _)| *k);
        format!("{records:?} {:?}", resp.groups)
    })
    .collect()
}

struct Reference {
    digest: String,
    index_digest: String,
    high_water: u64,
    answers: Vec<String>,
    total_appends: u64,
}

fn reference_run(ops: &[Op], snapshot_every: u64) -> Reference {
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    c.set_snapshot_every(snapshot_every);
    for op in ops {
        apply(&mut c, op);
    }
    Reference {
        digest: c.state_digest().unwrap(),
        index_digest: c.unique_index_digest(),
        high_water: c.key_high_water(),
        answers: probe(&mut c),
        total_appends: c.wal_appends(),
    }
}

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
    let resume_from = match &ops[crashed_at] {
        Op::Restart { .. } => crashed_at,
        Op::Txn { vs } => {
            let done = (crash_n - appends_before) as usize;
            for v in &vs[done..] {
                let _ = p.execute(&txn_insert(*v));
            }
            crashed_at + 1
        }
        _ => crashed_at + 1,
    };
    for op in &ops[resume_from..] {
        apply(&mut p, op);
    }
    assert_eq!(p.state_digest().unwrap(), want.digest, "digest diverged: {ctx}");
    assert_eq!(p.unique_index_digest(), want.index_digest, "unique index diverged: {ctx}");
    assert_eq!(p.key_high_water(), want.high_water, "key allocator diverged: {ctx}");
    assert_eq!(probe(&mut p), want.answers, "query answers diverged: {ctx}");
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
