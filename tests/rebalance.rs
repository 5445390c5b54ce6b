//! Elastic-cluster harness: online backend add/drain under live
//! foreground traffic, WAL-bracketed group moves, and every failure
//! mode the brackets exist for.
//!
//! The headline property: a seeded mixed workload interleaved with
//! `add_backend()` and `drain_backend()` ends in a logical state
//! byte-identical to the same workload on a static cluster — and the
//! *durable* state survives a crash after **every** WAL append index
//! (including appends inside move brackets), whether the cluster
//! recovers cold or a hot standby is promoted mid-move.
//!
//! Resume rule: membership ops log their durable goal first
//! (`add-backend` / `drain-begin`), so an op whose append crashed is
//! durably effective — the harness skips it and recovery re-plans the
//! remaining moves from the directory itself. The exception is
//! `FinishRebalance`, which works off the queue (several bracketed
//! appends); committed moves drop out of the re-plan, so re-running it
//! is always safe.
//!
//! Everything here is transport-agnostic: under `MBDS_TRANSPORT=tcp`
//! the same sweeps run against `mbds-backend` OS processes, and
//! `add_backend()` spawns and handshakes a brand-new process mid-run.

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{Kernel, Record, Request, Value};
use mlds::mbds::rebalance::DEFAULT_MOVE_CHUNK;
use mlds::mbds::{Controller, CostModel, MemLog};

const BACKENDS: usize = 3;
const REPLICATION: usize = 2;

/// One step of the seeded workload, shared by the reference run, the
/// crashed runs and the promoted runs.
#[derive(Clone, Debug)]
enum Op {
    CreateFile,
    Insert { v: i64 },
    Update { below: i64, set: i64 },
    Delete { v: i64 },
    Retrieve { below: i64 },
    /// Widen the cluster by one backend and queue the unwrap moves.
    AddBackend,
    /// Start draining a backend; its groups move to substitutes.
    Drain { backend: usize },
    /// Work the move queue dry synchronously.
    FinishRebalance,
}

fn gen_mixed(rng: &mut Prng, ops: &mut Vec<Op>, n: usize) {
    for _ in 0..n {
        let roll = rng.gen_range(0, 100);
        let op = if roll < 55 {
            Op::Insert { v: rng.gen_range(0, 1000) }
        } else if roll < 70 {
            Op::Update { below: rng.gen_range(0, 1000), set: rng.gen_range(0, 10) }
        } else if roll < 82 {
            Op::Delete { v: rng.gen_range(0, 1000) }
        } else {
            Op::Retrieve { below: rng.gen_range(0, 1000) }
        };
        ops.push(op);
    }
}

/// The elastic workload: foreground traffic, then `add_backend` with
/// traffic pumping the unwrap moves, then `drain_backend(0)` with
/// traffic pumping the vacate moves, each phase closed by an explicit
/// queue drain so the next membership change finds the cluster idle.
fn gen_ops(seed: u64, per_phase: usize) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut ops = vec![Op::CreateFile];
    gen_mixed(&mut rng, &mut ops, per_phase);
    ops.push(Op::AddBackend);
    gen_mixed(&mut rng, &mut ops, per_phase);
    ops.push(Op::FinishRebalance);
    ops.push(Op::Drain { backend: 0 });
    gen_mixed(&mut rng, &mut ops, per_phase);
    ops.push(Op::FinishRebalance);
    ops
}

fn apply(c: &mut Controller, op: &Op) {
    match op {
        Op::CreateFile => {
            let _ = c.try_create_file("f");
        }
        Op::Insert { v } => {
            let rec =
                Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(*v));
            let _ = c.execute(&Request::Insert { record: rec });
        }
        Op::Update { below, set } => {
            let req =
                parse_request(&format!("UPDATE ((FILE = f) and (v < {below})) (m = {set})"))
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
        Op::AddBackend => {
            let _ = c.add_backend();
        }
        Op::Drain { backend } => {
            let _ = c.drain_backend(*backend);
        }
        Op::FinishRebalance => {
            let _ = c.finish_rebalance();
        }
    }
}

/// Query results that must match between the reference and every
/// recovered / promoted run.
fn probe(c: &mut Controller) -> Vec<String> {
    [
        "RETRIEVE (FILE = f) (*)",
        "RETRIEVE ((FILE = f) and (v < 500)) (*)",
        "RETRIEVE (FILE = f) (COUNT(v)) BY m",
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
    high_water: u64,
    answers: Vec<String>,
    total_appends: u64,
}

/// `move_chunk = None` keeps the default (groups here are far smaller,
/// so every move is one bracket); `Some(k)` forces large groups to
/// stream as multi-bracket chunk sequences.
fn reference_run(ops: &[Op], snapshot_every: u64, move_chunk: Option<usize>) -> Reference {
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    c.set_snapshot_every(snapshot_every);
    if let Some(k) = move_chunk {
        c.set_move_chunk(k);
    }
    for op in ops {
        apply(&mut c, op);
    }
    assert_eq!(c.rebalance_pending(), 0, "reference run must end in goal placement");
    Reference {
        digest: c.state_digest().unwrap(),
        high_water: c.key_high_water(),
        answers: probe(&mut c),
        total_appends: c.wal_appends(),
    }
}

/// Where to resume after the crashed op: membership ops and foreground
/// ops append their durable record first/once and are complete at the
/// crash point; a queue drain is re-run (committed moves drop out of
/// the recovery re-plan, so it is idempotent).
fn resume_index(ops: &[Op], crashed_at: usize) -> usize {
    match &ops[crashed_at] {
        Op::FinishRebalance => crashed_at,
        _ => crashed_at + 1,
    }
}

/// Crash after append `crash_n` (which may land on a `move-begin`, a
/// `move-end`, or anywhere between brackets), recover cold from the
/// surviving log, resume, and check against the reference.
fn crash_recover_check(
    ops: &[Op],
    crash_n: u64,
    snapshot_every: u64,
    move_chunk: Option<usize>,
    want: &Reference,
) {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.set_snapshot_every(snapshot_every);
    if let Some(k) = move_chunk {
        c.set_move_chunk(k);
    }
    c.set_wal_crash_after(crash_n);
    let mut crashed = None;
    for (i, op) in ops.iter().enumerate() {
        apply(&mut c, op);
        if c.wal_crashed() {
            crashed = Some(i);
            break;
        }
    }
    let crashed_at = crashed.unwrap_or_else(|| panic!("crash point {crash_n} never fired"));
    drop(c);

    let mut r = Controller::recover_with(log).unwrap();
    r.set_snapshot_every(snapshot_every);
    if let Some(k) = move_chunk {
        r.set_move_chunk(k);
    }
    for op in &ops[resume_index(ops, crashed_at)..] {
        apply(&mut r, op);
    }
    let ctx = format!("crash after append {crash_n} (op {crashed_at}: {:?})", ops[crashed_at]);
    assert_eq!(r.rebalance_pending(), 0, "moves left queued: {ctx}");
    assert_eq!(r.state_digest().unwrap(), want.digest, "digest diverged: {ctx}");
    assert_eq!(r.key_high_water(), want.high_water, "key allocator diverged: {ctx}");
    assert_eq!(probe(&mut r), want.answers, "query answers diverged: {ctx}");
}

/// Crash after append `crash_n` with a hot standby tailing the log,
/// promote it — mid-move promotion heals the partial copy under a
/// fresh bracket — resume on the promoted controller, and check
/// against the reference.
fn failover_check(
    ops: &[Op],
    crash_n: u64,
    snapshot_every: u64,
    move_chunk: Option<usize>,
    want: &Reference,
) {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.set_snapshot_every(snapshot_every);
    if let Some(k) = move_chunk {
        c.set_move_chunk(k);
    }
    let mut sb = c.standby(Box::new(log.clone())).unwrap();
    c.set_wal_crash_after(crash_n);
    let mut crashed = None;
    for (i, op) in ops.iter().enumerate() {
        apply(&mut c, op);
        sb.poll().unwrap();
        if c.wal_crashed() {
            crashed = Some(i);
            break;
        }
    }
    let crashed_at = crashed.unwrap_or_else(|| panic!("crash point {crash_n} never fired"));
    let ctx = format!("crash after append {crash_n} (op {crashed_at}: {:?})", ops[crashed_at]);

    // Promote before dropping the primary, as in `tests/failover.rs`:
    // the fence rises while the primary still holds the backends.
    let mut p = sb.promote().unwrap_or_else(|e| panic!("promotion failed: {ctx}: {e}"));
    drop(c);
    p.set_snapshot_every(snapshot_every);
    if let Some(k) = move_chunk {
        p.set_move_chunk(k);
    }
    for op in &ops[resume_index(ops, crashed_at)..] {
        apply(&mut p, op);
    }
    assert_eq!(p.rebalance_pending(), 0, "moves left queued: {ctx}");
    assert_eq!(p.state_digest().unwrap(), want.digest, "digest diverged: {ctx}");
    assert_eq!(p.key_high_water(), want.high_water, "key allocator diverged: {ctx}");
    assert_eq!(probe(&mut p), want.answers, "query answers diverged: {ctx}");
}

/// The tentpole acceptance property, logical half: the elastic run
/// (start at 3 backends, add a 4th mid-traffic, then drain backend 0
/// mid-traffic) answers every query and holds every record exactly as
/// a static cluster does — and the rebalance counters prove the moves
/// actually happened online.
#[test]
fn elastic_add_then_drain_matches_a_static_cluster() {
    let ops = gen_ops(0xE1A571C, 40);
    let mut stat = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    let mut elas = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    for op in &ops {
        // The static twin runs only the foreground traffic.
        if !matches!(op, Op::AddBackend | Op::Drain { .. } | Op::FinishRebalance) {
            apply(&mut stat, op);
        }
        apply(&mut elas, op);
    }
    assert_eq!(elas.backend_count(), BACKENDS + 1, "the added backend must be live");
    assert_eq!(elas.rebalance_pending(), 0);
    assert!(elas.draining_backends().is_empty(), "the drain must have retired");
    assert_eq!(
        elas.logical_digest().unwrap(),
        stat.logical_digest().unwrap(),
        "elastic and static clusters diverged logically"
    );
    assert_eq!(probe(&mut elas), probe(&mut stat));
    let t = elas.exec_totals();
    assert!(t.groups_moved > 0, "no group was actually moved");
    assert!(t.move_bytes > 0, "no record bytes were actually shipped");
}

/// The same elastic-vs-static equivalence over simulated backends,
/// plus across links: the controller over threads (or processes) and
/// over simulated backends agree byte-for-byte on durable state through
/// the add and the drain. A bulk load ahead of the workload puts ~1,700
/// records in each of the 3 replica groups, so every group move streams
/// as at least four default-size chunks through the move cursor.
#[test]
fn sim_cluster_agrees_with_controller_through_add_and_drain() {
    let mut ops = vec![Op::CreateFile];
    ops.extend((0..5_100).map(|v| Op::Insert { v: v % 1000 }));
    ops.extend(gen_ops(0x51A5, 30).into_iter().skip(1));
    let simulated = || {
        Controller::simulated_durable(BACKENDS, REPLICATION, CostModel::default(), MemLog::new())
            .unwrap()
    };
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    let mut s = simulated();
    let mut stat = simulated();
    for op in &ops {
        if matches!(op, Op::AddBackend) {
            let (entries, groups, _) = c.directory_stats();
            assert!(
                entries / groups > 3 * DEFAULT_MOVE_CHUNK,
                "groups too small to move in several chunks: {entries} records in {groups} groups"
            );
        }
        apply(&mut c, op);
        apply(&mut s, op);
        if !matches!(op, Op::AddBackend | Op::Drain { .. } | Op::FinishRebalance) {
            apply(&mut stat, op);
        }
    }
    assert_eq!(c.state_digest().unwrap(), s.state_digest().unwrap(), "links diverged");
    assert_eq!(c.key_high_water(), s.key_high_water());
    assert_eq!(
        s.logical_digest().unwrap(),
        stat.logical_digest().unwrap(),
        "elastic sim diverged from static"
    );
    let t = s.exec_totals();
    assert!(t.groups_moved > 0 && t.move_bytes > 0);
}

/// The tentpole acceptance property, durable half: crash after every
/// single WAL append of the elastic workload — before, inside and
/// after every move bracket — recover cold, resume, and the final
/// state is byte-identical to the never-crashed run.
#[test]
fn every_crash_point_during_add_and_drain_recovers_identically() {
    let ops = gen_ops(0xC0FFEE, 25);
    let want = reference_run(&ops, 0, None);
    assert!(want.total_appends > 60, "workload too light: {} appends", want.total_appends);
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 0, None, &want);
    }
}

/// The same sweep with snapshot compaction enabled: snapshots carry
/// the `draining` set and the `rebalance unwrap` flag, never land
/// inside a bracket, and recovery from snapshot + suffix re-plans the
/// remaining moves identically.
#[test]
fn elastic_crash_sweep_recovers_identically_with_snapshots() {
    let ops = gen_ops(0xBEEF, 20);
    let want = reference_run(&ops, 9, None);
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 9, None, &want);
    }
}

/// The promotion half: a hot standby tails the elastic run and is
/// promoted after every crash point. A crash between `move-begin` and
/// `move-end` leaves the mirror's directory already naming the new
/// placement while the real backends hold a partial copy — promotion
/// must heal the move under a fresh bracket before serving.
#[test]
fn standby_promoted_mid_move_reaches_the_reference_digest() {
    let ops = gen_ops(0xFA110, 20);
    let want = reference_run(&ops, 0, None);
    assert!(want.total_appends > 50, "workload too light: {} appends", want.total_appends);
    for crash_n in 1..=want.total_appends {
        failover_check(&ops, crash_n, 0, None, &want);
    }
}

/// Chunked group moves: with a chunk bound far below the group size,
/// each group streams out as several `move-begin`/`move-end` brackets.
/// Crash after every append — including between chunks of one group
/// and inside a chunk's bracket — recover cold, resume, and the final
/// state is byte-identical to the never-crashed chunked run.
#[test]
fn chunked_move_crash_sweep_recovers_identically() {
    let ops = gen_ops(0xC4A2, 20);
    let want = reference_run(&ops, 0, Some(3));
    for crash_n in 1..=want.total_appends {
        crash_recover_check(&ops, crash_n, 0, Some(3), &want);
    }
}

/// The promotion half of the chunked sweep: the standby mirror applies
/// each chunk's exact keys at its begin marker, so a promotion between
/// chunks (or mid-chunk) heals only the bracketed keys and re-plans
/// the rest of the group from state.
#[test]
fn chunked_move_failover_sweep_reaches_the_reference_digest() {
    let ops = gen_ops(0xC4A2F, 16);
    let want = reference_run(&ops, 0, Some(3));
    for crash_n in 1..=want.total_appends {
        failover_check(&ops, crash_n, 0, Some(3), &want);
    }
}

/// A move chunk bounds the records relocated per pump step: with chunk
/// `k` and throttle 1, a foreground request under rebalance advances
/// one bracket of at most `k` records — and every read it interleaves
/// sees a complete placement (old for unmoved keys, new for moved
/// ones), never a half-moved group.
#[test]
fn chunked_moves_bound_work_per_pump_step_and_keep_reads_whole() {
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    c.try_create_file("f").unwrap();
    for v in 0..60i64 {
        let rec = Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v));
        c.execute(&Request::Insert { record: rec }).unwrap();
    }
    c.set_rebalance_throttle(1);
    c.set_move_chunk(4);
    let before = c.exec_totals().move_bytes;
    c.add_backend().unwrap();
    let mut steps = 0u32;
    while c.rebalance_pending() > 0 {
        let prev_bytes = c.exec_totals().move_bytes;
        let req = parse_request("RETRIEVE (FILE = f) (*)").unwrap();
        let resp = c.execute(&req).unwrap();
        assert_eq!(resp.records().len(), 60, "a read under rebalance lost records");
        let keys: Vec<u64> = resp.records().iter().map(|(k, _)| k.0).collect();
        let uniq: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(uniq.len(), 60, "a read under rebalance duplicated records");
        let chunk_bytes = c.exec_totals().move_bytes - prev_bytes;
        // 4 records per bracket, one copy each (replication stays 2 and
        // the unwrap swaps a single member): a generous per-record
        // ceiling still catches a whole-group (20-record) move.
        assert!(
            chunk_bytes <= 4 * 200,
            "one pump step shipped {chunk_bytes} bytes — more than a 4-record chunk"
        );
        steps += 1;
        assert!(steps < 200, "rebalance failed to converge");
    }
    assert!(
        steps > 5,
        "a 60-record cluster at chunk 4 must take many pump steps, took {steps}"
    );
    assert!(c.exec_totals().move_bytes > before, "no bytes were actually moved");
    assert_eq!(c.backend_count(), BACKENDS + 1);
}

/// Throttling bounds the in-flight rebalance: with throttle 1, each
/// foreground request retires at most one queued job, so the pending
/// count decays one step per request instead of draining at once.
#[test]
fn rebalance_throttle_bounds_moves_per_request() {
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    c.try_create_file("f").unwrap();
    for v in 0..30i64 {
        let rec = Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v));
        c.execute(&Request::Insert { record: rec }).unwrap();
    }
    c.set_rebalance_throttle(1);
    c.add_backend().unwrap();
    let mut pending = c.rebalance_pending();
    assert!(pending > 1, "the add must queue several jobs, got {pending}");
    while pending > 0 {
        let before = pending;
        let req = parse_request("RETRIEVE ((FILE = f) and (v < 5)) (*)").unwrap();
        c.execute(&req).unwrap();
        pending = c.rebalance_pending();
        assert!(
            before - pending <= 1,
            "throttle 1 must retire at most one job per request ({before} -> {pending})"
        );
        assert!(pending < before, "the queue must make progress");
    }
    assert_eq!(c.backend_count(), BACKENDS + 1);
}

/// Membership changes are serialized: a second change is refused while
/// moves are still queued, and a drain below the replication floor is
/// refused outright.
#[test]
fn concurrent_membership_changes_are_refused() {
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    c.try_create_file("f").unwrap();
    for v in 0..20i64 {
        let rec = Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v));
        c.execute(&Request::Insert { record: rec }).unwrap();
    }
    c.set_rebalance_throttle(1);
    c.add_backend().unwrap();
    assert!(c.rebalance_pending() > 0);
    assert!(c.add_backend().is_err(), "a second add must wait for the first rebalance");
    assert!(c.drain_backend(0).is_err(), "a drain must wait for the running rebalance");
    c.finish_rebalance().unwrap();
    // Now idle: the drain is accepted, but draining below the
    // replication floor is not.
    c.drain_backend(0).unwrap();
    c.finish_rebalance().unwrap();
    // 4 backends, one retired: draining one more leaves exactly
    // `replication` serving, which is still legal…
    c.drain_backend(1).unwrap();
    c.finish_rebalance().unwrap();
    // …but going below the floor is not.
    assert!(
        c.drain_backend(2).is_err(),
        "draining to fewer serving backends than replicas must be refused"
    );
}

/// An in-flight group move is a write conflict: batched foreground
/// requests execute solo (counted as rebalance stalls) until the move
/// queue drains, so no staged flight overlaps a directory retarget.
#[test]
fn batches_stall_while_a_move_is_in_flight() {
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, MemLog::new()).unwrap();
    c.try_create_file("f").unwrap();
    for v in 0..20i64 {
        let rec = Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v));
        c.execute(&Request::Insert { record: rec }).unwrap();
    }
    c.set_rebalance_throttle(1);
    c.add_backend().unwrap();
    assert!(c.rebalance_pending() > 0);
    let reqs: Vec<Request> = (100..104i64)
        .map(|v| Request::Insert {
            record: Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v)),
        })
        .collect();
    for r in c.execute_batch(&reqs) {
        r.unwrap();
    }
    let t = c.exec_totals();
    // The stall counter records requests that *would have staged* but
    // ran solo because of the move queue.
    assert!(t.rebalance_stalls > 0, "batch under rebalance must count stalls");
    c.finish_rebalance().unwrap();
}
