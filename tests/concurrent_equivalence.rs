//! Concurrency is a scheduling optimisation, not a semantics change.
//!
//! The property (same technique as `routing_equivalence.rs`): a seeded
//! workload pushed through the concurrent front door — N session
//! threads submitting over an [`mlds::MldsService`], the controller's
//! batch scheduler keeping non-conflicting requests in flight together
//! and group-committing their WAL appends — is equivalent to *some*
//! serial order, namely the service's admission order. The service
//! records that order in its admission log; replaying the log one
//! request at a time on a fresh, identically-configured system must
//! reproduce every per-request outcome (records, affected counts,
//! duplicate-key rejections) and the same final controller state.
//!
//! Three hardening variants ride along: the equivalence must survive a
//! unique-index constraint being fought over by every session, a hot
//! standby tailing the concurrent primary must promote to its exact
//! state, and a controller killed mid cross-session group commit must
//! recover to an admission-order *prefix* of the workload.
//!
//! The controller transport is chosen by `MBDS_TRANSPORT` (in-process
//! channels by default, `tcp` for real sockets), so CI runs the main
//! equivalence property in both modes without test changes.

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{Kernel, Request};
use mlds::mbds::{Controller, MemLog};
use mlds::service::outcome_of;
use mlds::{Mlds, MldsService, NamespacedKernel};

const BACKENDS: usize = 4;
const SESSIONS: u64 = 8;
const REQUESTS_PER_SESSION: usize = 40;

/// The two databases the sessions are spread over — both declare a
/// file `t` with a unique constraint on `u`, so the namespace mapping
/// and the per-database scope of constraints are both exercised.
const DATABASES: [&str; 2] = ["dba", "dbb"];

fn configure(kernel: &mut impl Kernel) {
    for db in DATABASES {
        let mut ns = NamespacedKernel::new(kernel, db);
        ns.create_file("t");
        ns.add_unique_constraint("t", vec!["u".to_owned()]);
    }
}

fn db_of(session: u64) -> &'static str {
    DATABASES[(session % 2) as usize]
}

/// One session's seeded request stream: inserts whose unique attribute
/// collides with other sessions', point lookups on it, range reads,
/// aggregates, updates and deletes — all against the session's own
/// database.
fn session_requests(session: u64, n: usize) -> Vec<Request> {
    let mut rng = Prng::seed_from_u64(0xC0C0 + session);
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0, 100);
            let text = if roll < 40 {
                // The contended range is shared by every session, so
                // concurrent duplicates are frequent and some session
                // must lose each collision.
                format!(
                    "INSERT (<FILE, t>, <u, {}>, <v, {}>, <m, {}>)",
                    rng.gen_range(0, 60),
                    rng.gen_range(0, 1000),
                    rng.gen_range(0, 7)
                )
            } else if roll < 55 {
                format!("RETRIEVE ((FILE = t) and (u = {})) (*)", rng.gen_range(0, 60))
            } else if roll < 70 {
                format!("RETRIEVE ((FILE = t) and (v < {})) (*)", rng.gen_range(0, 1000))
            } else if roll < 80 {
                "RETRIEVE (FILE = t) (COUNT(v)) BY m".to_owned()
            } else if roll < 90 {
                format!(
                    "UPDATE ((FILE = t) and (v < {})) (m = {})",
                    rng.gen_range(0, 300),
                    rng.gen_range(0, 7)
                )
            } else {
                format!("DELETE ((FILE = t) and (v = {}))", rng.gen_range(0, 1000))
            };
            parse_request(&text).unwrap()
        })
        .collect()
}

/// A 90%-read variant of the session stream: mostly key-scoped point
/// reads (the scheduler's probe fast path), plus range reads,
/// aggregates, full scans, and enough contended inserts to keep mixed
/// read/insert flights forming.
fn read_heavy_requests(session: u64, n: usize) -> Vec<Request> {
    let mut rng = Prng::seed_from_u64(0x5EAD + session);
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0, 100);
            let text = if roll < 10 {
                format!(
                    "INSERT (<FILE, t>, <u, {}>, <v, {}>, <m, {}>)",
                    rng.gen_range(0, 60),
                    rng.gen_range(0, 1000),
                    rng.gen_range(0, 7)
                )
            } else if roll < 60 {
                format!("RETRIEVE ((FILE = t) and (u = {})) (*)", rng.gen_range(0, 60))
            } else if roll < 75 {
                format!("RETRIEVE ((FILE = t) and (v < {})) (*)", rng.gen_range(0, 1000))
            } else if roll < 85 {
                "RETRIEVE (FILE = t) (COUNT(v)) BY m".to_owned()
            } else {
                // Broadcast scan: rides read-only flights.
                "RETRIEVE (FILE = t) (*)".to_owned()
            };
            parse_request(&text).unwrap()
        })
        .collect()
}

/// Records every session's reads can hit from the first admission on.
fn prepopulate(kernel: &mut impl Kernel) {
    for db in DATABASES {
        let mut ns = NamespacedKernel::new(kernel, db);
        for u in 0..30 {
            let text = format!(
                "INSERT (<FILE, t>, <u, {u}>, <v, {}>, <m, {}>)",
                u * 37 % 1000,
                u % 7
            );
            ns.execute(&parse_request(&text).unwrap()).expect("prepopulate insert");
        }
    }
}

/// Drive a seeded workload through `svc` with one thread per session,
/// every thread released by a barrier at once.
fn drive_with(
    svc: &mut MldsService<Controller>,
    sessions: u64,
    per_session: usize,
    gen: fn(u64, usize) -> Vec<Request>,
) {
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(sessions as usize));
    let mut joins = Vec::new();
    for s in 0..sessions {
        let session = svc.open(&format!("user{s}"), db_of(s));
        let barrier = barrier.clone();
        joins.push(std::thread::spawn(move || {
            let reqs = gen(s, per_session);
            barrier.wait();
            for req in reqs {
                // Errors (duplicate-key losses) are outcomes, not
                // failures; the admission log records them.
                let _ = session.submit(req);
            }
        }));
    }
    for j in joins {
        j.join().expect("session thread panicked");
    }
}

fn drive(svc: &mut MldsService<Controller>, sessions: u64, per_session: usize) {
    drive_with(svc, sessions, per_session, session_requests);
}

/// The property test proper: N concurrent sessions over two databases,
/// every admitted request's outcome compared against a serial replay,
/// then the final controller state compared digest-for-digest.
#[test]
fn concurrent_execution_matches_serial_admission_order() {
    let mut live = Mlds::multi_backend(BACKENDS);
    configure(live.kernel_mut());
    let mut svc = MldsService::start(live);
    drive(&mut svc, SESSIONS, REQUESTS_PER_SESSION);
    let (mut live, report) = svc.into_parts();

    assert_eq!(
        report.admissions.len(),
        SESSIONS as usize * REQUESTS_PER_SESSION,
        "every submitted request must be admitted exactly once"
    );
    let totals = live.exec_totals();
    assert!(
        totals.batched_requests > 0,
        "eight concurrent sessions never formed a single admission batch"
    );

    // Serial replay in admission order on a fresh identical system.
    let mut serial = Mlds::multi_backend(BACKENDS);
    configure(serial.kernel_mut());
    for (i, entry) in report.admissions.iter().enumerate() {
        let mut ns = NamespacedKernel::new(serial.kernel_mut(), &entry.db);
        let outcome = outcome_of(&ns.execute(&entry.request));
        assert_eq!(
            outcome, entry.outcome,
            "admission {i} (session {}, {:?}) diverged from the serial replay",
            entry.session, entry.request
        );
    }
    assert_eq!(
        live.kernel_mut().state_digest().unwrap(),
        serial.kernel_mut().state_digest().unwrap(),
        "concurrent and serial final states differ"
    );
    assert_eq!(
        live.kernel_mut().unique_index_digest(),
        serial.kernel_mut().unique_index_digest(),
        "concurrent and serial unique indexes differ"
    );
}

/// The read pipeline under real concurrency: a 90%-read seeded mix
/// over prepopulated databases must form read flights (and send
/// single-backend probes) in-process, and — transport-independently —
/// every admitted outcome and the final state must match the serial
/// admission-order replay.
#[test]
fn read_heavy_concurrent_execution_matches_serial_admission_order() {
    let mut live = Mlds::multi_backend(BACKENDS);
    configure(live.kernel_mut());
    prepopulate(live.kernel_mut());
    let mut svc = MldsService::start(live);
    drive_with(&mut svc, SESSIONS, REQUESTS_PER_SESSION, read_heavy_requests);
    let (mut live, report) = svc.into_parts();

    assert_eq!(report.admissions.len(), SESSIONS as usize * REQUESTS_PER_SESSION);
    let totals = live.exec_totals();
    assert!(
        totals.sched_read_flights > 0,
        "a 90%-read concurrent mix never formed a read flight: {totals:?}"
    );
    assert!(
        totals.read_probes > 0,
        "key-scoped point reads never probed a single backend: {totals:?}"
    );

    let mut serial = Mlds::multi_backend(BACKENDS);
    configure(serial.kernel_mut());
    prepopulate(serial.kernel_mut());
    for (i, entry) in report.admissions.iter().enumerate() {
        let mut ns = NamespacedKernel::new(serial.kernel_mut(), &entry.db);
        let outcome = outcome_of(&ns.execute(&entry.request));
        assert_eq!(
            outcome, entry.outcome,
            "admission {i} (session {}, {:?}) diverged from the serial replay",
            entry.session, entry.request
        );
    }
    assert_eq!(
        live.kernel_mut().state_digest().unwrap(),
        serial.kernel_mut().state_digest().unwrap(),
        "concurrent-read and serial final states differ"
    );
    assert_eq!(
        live.kernel_mut().unique_index_digest(),
        serial.kernel_mut().unique_index_digest(),
        "concurrent-read and serial unique indexes differ"
    );
}

/// The same property through the sharded dispatcher: admission workers
/// own the two databases' namespace slices, the executor concatenates
/// their runs — the admission log it records must still replay.
#[test]
fn sharded_dispatcher_matches_serial_admission_order() {
    let mut live = Mlds::multi_backend(BACKENDS);
    configure(live.kernel_mut());
    prepopulate(live.kernel_mut());
    let mut svc = MldsService::start_sharded(live, 2);
    drive_with(&mut svc, SESSIONS, REQUESTS_PER_SESSION, read_heavy_requests);
    let (mut live, report) = svc.into_parts();

    assert_eq!(report.admissions.len(), SESSIONS as usize * REQUESTS_PER_SESSION);
    let mut serial = Mlds::multi_backend(BACKENDS);
    configure(serial.kernel_mut());
    prepopulate(serial.kernel_mut());
    for (i, entry) in report.admissions.iter().enumerate() {
        let mut ns = NamespacedKernel::new(serial.kernel_mut(), &entry.db);
        let outcome = outcome_of(&ns.execute(&entry.request));
        assert_eq!(
            outcome, entry.outcome,
            "sharded admission {i} (session {}, {:?}) diverged from the serial replay",
            entry.session, entry.request
        );
    }
    assert_eq!(
        live.kernel_mut().state_digest().unwrap(),
        serial.kernel_mut().state_digest().unwrap(),
        "sharded and serial final states differ"
    );
}

/// Deterministic mixed-flight check, no thread timing involved: a
/// hand-built batch of key-disjoint inserts and reads must fly as one
/// mixed flight (with the point reads probing single backends) and
/// still produce exactly the serial admission-order results and state.
#[test]
fn mixed_read_insert_flight_matches_serial_semantics() {
    let build = || {
        let mut c = Controller::new(BACKENDS);
        c.create_file("t");
        c.add_unique_constraint("t", vec!["u".to_owned()]);
        for u in 0..8 {
            let text = format!("INSERT (<FILE, t>, <u, {u}>, <v, {}>)", u * 10);
            c.execute(&parse_request(&text).unwrap()).unwrap();
        }
        c
    };
    let batch: Vec<Request> = [
        "INSERT (<FILE, t>, <u, 100>, <v, 1>)",
        "RETRIEVE ((FILE = t) and (u = 3)) (*)",
        "INSERT (<FILE, t>, <u, 101>, <v, 2>)",
        "RETRIEVE ((FILE = t) and (u = 5)) (*)",
        "RETRIEVE ((FILE = t) and (u = 7)) (*)",
    ]
    .iter()
    .map(|t| parse_request(t).unwrap())
    .collect();

    let mut batched = build();
    let batch_results = batched.execute_batch(&batch);
    let mut serial = build();
    let serial_results: Vec<_> = batch.iter().map(|r| serial.execute(r)).collect();
    for (i, (b, s)) in batch_results.iter().zip(&serial_results).enumerate() {
        assert_eq!(outcome_of(b), outcome_of(s), "request {i} diverged");
    }
    assert_eq!(
        batched.state_digest().unwrap(),
        serial.state_digest().unwrap(),
        "mixed flight diverged from serial execution"
    );
    let t = batched.exec_totals();
    assert_eq!(t.sched_flights, 1, "batch should fly as one flight: {t:?}");
    assert_eq!(t.sched_mixed_flights, 1);
    assert_eq!(t.sched_max_flight, 5);
    assert_eq!(t.conflict_stalls, 0);
    assert!(t.read_probes >= 3, "point reads should probe single backends: {t:?}");
}

/// A hot standby tailing the concurrent primary's group-committed log
/// must promote to the primary's exact state: cross-session batches
/// are flushed as admission-order line groups, so the tailer sees the
/// same serial history the replay sees.
#[test]
fn tailing_standby_promotes_to_the_concurrent_primary_state() {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, 2, log.clone()).unwrap();
    let mut sb = c.standby(Box::new(log)).unwrap();
    configure(&mut c);
    let mut svc = MldsService::start(Mlds::with_kernel(c));
    drive(&mut svc, SESSIONS, REQUESTS_PER_SESSION / 2);
    let (mut live, _report) = svc.into_parts();

    sb.poll().unwrap();
    // Digest the primary *before* promotion: the promoted epoch fences
    // the old primary off the shared backends.
    let want_state = live.kernel_mut().state_digest().unwrap();
    let want_index = live.kernel_mut().unique_index_digest();
    let mut promoted = sb.promote().unwrap();
    drop(live);
    assert_eq!(promoted.state_digest().unwrap(), want_state, "promoted state diverged");
    assert_eq!(promoted.unique_index_digest(), want_index, "promoted unique index diverged");
}

fn batch_insert(u: i64) -> Request {
    parse_request(&format!("INSERT (<FILE, f>, <u, {u}>, <v, {}>)", u * 3 % 100)).unwrap()
}

/// Kill the controller mid cross-session group commit —
/// deterministically, by arming the WAL crash point at an append index
/// inside one `execute_batch` flight — and recover. The injector
/// flushes the open batch *through* the crashing entry, so the
/// recovered state must be exactly the first `M + 1` admitted inserts
/// (`M` reported Ok live; the crashing one is durable but was reported
/// as the crash error).
#[test]
fn crash_mid_group_commit_recovers_an_admission_order_prefix() {
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, 2, log.clone()).unwrap();
    c.try_create_file("f").unwrap();
    c.add_unique_constraint("f", vec!["u".to_owned()]);
    let base = c.wal_appends();
    c.set_wal_crash_after(base + 5);

    let reqs: Vec<Request> = (0..12).map(batch_insert).collect();
    let results = c.execute_batch(&reqs);
    let ok = results.iter().take_while(|r| r.is_ok()).count();
    assert!(results[ok..].iter().all(Result::is_err), "Ok results must form a prefix");
    assert_eq!(ok, 4, "appends {} through {} should have landed", base + 1, base + 4);
    drop(c);

    let mut r = Controller::recover_with(log).unwrap();
    let resp = r.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
    let mut got: Vec<i64> = resp
        .records()
        .iter()
        .map(|(_, rec)| match rec.get("u").unwrap() {
            mlds::abdl::Value::Int(u) => *u,
            other => panic!("unexpected u value {other:?}"),
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3, 4], "recovered inserts must be the admission-order prefix");
}

/// The same crash under real concurrency: session threads race over
/// the service while the WAL crash point fires inside one of their
/// group commits. Whatever interleaving the scheduler produced, the
/// recovered state must be an admission-order prefix of the admitted
/// inserts — the Ok ones plus exactly the one durable crashing entry.
#[test]
fn concurrent_crash_recovers_an_admission_order_prefix() {
    const CRASH_SESSIONS: u64 = 4;
    const PER_SESSION: u64 = 16;
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, 2, log.clone()).unwrap();
    {
        let mut ns = NamespacedKernel::new(&mut c, "db");
        ns.create_file("t");
        ns.add_unique_constraint("t", vec!["u".to_owned()]);
    }
    let base = c.wal_appends();
    c.set_wal_crash_after(base + 20);

    let mut svc = MldsService::start(Mlds::with_kernel(c));
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CRASH_SESSIONS as usize));
    let mut joins = Vec::new();
    for s in 0..CRASH_SESSIONS {
        let session = svc.open(&format!("user{s}"), "db");
        let barrier = barrier.clone();
        joins.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..PER_SESSION {
                // Session-unique keys: every pre-crash insert succeeds,
                // every post-crash one fails, nothing is a duplicate.
                let u = (s * 1000 + i) as i64;
                let req = parse_request(&format!("INSERT (<FILE, t>, <u, {u}>)")).unwrap();
                let _ = session.submit(req);
            }
        }));
    }
    for j in joins {
        j.join().expect("session thread panicked");
    }
    let (_live, report) = svc.into_parts();

    // Admission-order insert keys and how many were reported Ok.
    let admitted: Vec<i64> = report
        .admissions
        .iter()
        .map(|e| match &e.request {
            Request::Insert { record } => match record.get("u").unwrap() {
                mlds::abdl::Value::Int(u) => *u,
                other => panic!("unexpected u value {other:?}"),
            },
            other => panic!("workload submits only inserts, got {other:?}"),
        })
        .collect();
    let ok = report.admissions.iter().filter(|e| e.outcome.starts_with("ok")).count();
    assert!(ok > 0, "the crash fired before any insert landed");
    assert!(ok < admitted.len(), "the crash never fired");

    let mut r = Controller::recover_with(log).unwrap();
    let mut ns = NamespacedKernel::new(&mut r, "db");
    let resp = ns.execute(&parse_request("RETRIEVE (FILE = t) (*)").unwrap()).unwrap();
    let mut got: Vec<i64> = resp
        .records()
        .iter()
        .map(|(_, rec)| match rec.get("u").unwrap() {
            mlds::abdl::Value::Int(u) => *u,
            other => panic!("unexpected u value {other:?}"),
        })
        .collect();
    got.sort_unstable();
    let mut want: Vec<i64> = admitted[..ok + 1].to_vec();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "recovered inserts are not the admission-order prefix (ok = {ok}, admitted = {})",
        admitted.len()
    );
}
