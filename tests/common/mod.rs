//! The seeded workload and never-crashed reference shared by the
//! crash-recovery sweep (`tests/crash_recovery.rs`) and the failover
//! sweep (`tests/failover.rs`): both crash the controller after every
//! WAL append of the same kind of workload, resume it on a recovered
//! or promoted controller, and compare the result with one reference
//! run.

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{Kernel, Record, Request, Transaction, Value};
use mlds::mbds::{Controller, MemLog};

pub const BACKENDS: usize = 4;
pub const REPLICATION: usize = 2;

/// One step of the randomized workload. Generated ahead of time from a
/// seed (with a private model of which backends are alive), so the
/// same list replays identically on the reference run, the crashed
/// run and the recovered or promoted run.
#[derive(Clone, Debug)]
pub enum Op {
    CreateFile,
    AddUnique,
    Insert { v: i64 },
    /// Insert carrying a `u` value under a `DUPLICATES NOT ALLOWED`
    /// constraint — collisions are rejected by the controller's unique
    /// index (appending nothing, deterministically).
    InsertU { v: i64, u: i64 },
    Update { below: i64, set: i64 },
    /// Update that rewrites the constrained attribute, exercising the
    /// index's tuple-move path (in the standby's mirror too).
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

/// One insert of a transaction's value `v` into file `f`.
pub fn txn_insert(v: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v)),
    }
}

/// A workload of `n` ops after the `CreateFile`, drawn from `seed`.
pub fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
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
/// keep at least three of four backends alive (at most one down at a
/// time), so adjacent k=2 replica groups never lose both members and
/// no record data is ever permanently lost — the recovered or promoted
/// unique index must then match the never-crashed one exactly.
pub fn gen_ops_unique(seed: u64, n: usize) -> Vec<Op> {
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
pub fn apply(c: &mut Controller, op: &Op) {
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
/// and every recovered or promoted run.
pub fn probe(c: &mut Controller) -> Vec<String> {
    [
        "RETRIEVE (FILE = f) (*)",
        "RETRIEVE ((FILE = f) and (v < 500)) (*)",
        "RETRIEVE (FILE = f) (COUNT(v)) BY m",
        // Key-scoped: when `u` is constrained unique, this routes
        // through the rebuilt or promoted index rather than a broadcast.
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

/// What the never-crashed run ends with.
pub struct Reference {
    pub digest: String,
    pub index_digest: String,
    pub high_water: u64,
    pub answers: Vec<String>,
    /// WAL appends the whole workload makes: the crash points a sweep
    /// covers.
    pub total_appends: u64,
}

/// Run `ops` on a durable controller that never crashes.
pub fn reference_run(ops: &[Op], snapshot_every: u64) -> Reference {
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

/// Resume `ops` on `c`, recovered or promoted after the append
/// `crash_n` crashed op `crashed_at` (`appends_before` appends were
/// logged before that op began). Single-append ops are durably
/// complete once their append is on disk — skip them. A restart is two
/// appends and idempotent, so re-run it whichever of the two crashed.
/// A transaction appends one entry per insert (group-committed, but
/// the crashing append is still flushed durably): the first
/// `crash_n - appends_before` inserts are durable and applied, the rest
/// never ran — finish the tail, then continue with the next op.
pub fn resume(c: &mut Controller, ops: &[Op], crashed_at: usize, crash_n: u64, appends_before: u64) {
    let resume_from = match &ops[crashed_at] {
        Op::Restart { .. } => crashed_at,
        Op::Txn { vs } => {
            let done = (crash_n - appends_before) as usize;
            for v in &vs[done..] {
                let _ = c.execute(&txn_insert(*v));
            }
            crashed_at + 1
        }
        _ => crashed_at + 1,
    };
    for op in &ops[resume_from..] {
        apply(c, op);
    }
}

impl Reference {
    /// Assert that `c` ends where the never-crashed run did: the same
    /// directory digest, unique index, key high-water mark and answers.
    pub fn assert_matches(&self, c: &mut Controller, ctx: &str) {
        assert_eq!(c.state_digest().unwrap(), self.digest, "digest diverged: {ctx}");
        assert_eq!(c.unique_index_digest(), self.index_digest, "unique index diverged: {ctx}");
        assert_eq!(c.key_high_water(), self.high_water, "key allocator diverged: {ctx}");
        assert_eq!(probe(c), self.answers, "query answers diverged: {ctx}");
    }
}
