//! Partition-tolerance harness for the out-of-process MBDS.
//!
//! The backends here are real OS processes (`mbds-backend`) reached
//! over the checksummed TCP wire protocol, so the faults are real too:
//! a severed link is a closed socket, not a simulated flag, and epoch
//! fencing is enforced by the *remote* process's own fence — the
//! controller never pre-checks locally, so every rejection in this file
//! travelled the wire.
//!
//! Five properties:
//!
//! 1. **Transport parity** — the same seeded workload (inserts,
//!    updates, deletes, kills, restarts) produces byte-identical state
//!    digests and query answers on the in-process channel bus and the
//!    socket transport.
//! 2. **Partition failover** — sever the primary's every backend link
//!    mid-workload, promote a standby that tails the WAL *over the
//!    wire* (`ShipServer`/`RemoteLog`), heal the old primary's links,
//!    and prove its writes are fenced at the now-remote backends while
//!    the promoted controller serves the exact pre-partition state.
//! 3. **Lossy-link convergence** — seeded link faults dropping,
//!    delaying, duplicating and reordering frames must converge to the
//!    same digest as the clean run (retries and idempotent request ids
//!    doing their job), with the retry counters proving frames were
//!    actually lost.
//! 4. **Flap regression** — a backend that goes down, comes back, and
//!    goes down *again* must be tracked Alive→Dead→Alive→Dead by the
//!    health board, with `reconnect_backend` restoring the live process
//!    (data intact, no re-replication restart) on each recovery.
//! 5. **Faulty ship link** — drops, duplicates and reorders on the WAL
//!    ship link itself; the standby's at-most-once reply application
//!    converges its mirror to the primary's digest and promotes
//!    cleanly.

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{Kernel, Record, Request, Value};
use mlds::mbds::{
    BackendState, Controller, FaultKind, FaultPlan, LinkDir, LinkFault, MemLog, RemoteLog,
    ShipServer,
};

const BACKENDS: usize = 4;
const REPLICATION: usize = 2;

#[derive(Clone, Debug)]
enum Op {
    Insert { v: i64 },
    Update { below: i64, set: i64 },
    Delete { v: i64 },
    Retrieve { below: i64 },
    Kill { backend: usize },
    Restart { backend: usize },
}

/// The failover-harness workload shape, shared verbatim between the
/// channel and socket runs of the parity check.
fn gen_ops(seed: u64, n: usize, churn: bool) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut alive = [true; BACKENDS];
    let mut ops = Vec::new();
    while ops.len() < n {
        let live: Vec<usize> = (0..BACKENDS).filter(|&i| alive[i]).collect();
        let dead: Vec<usize> = (0..BACKENDS).filter(|&i| !alive[i]).collect();
        let roll = rng.gen_range(0, 100);
        let op = if roll < 55 {
            Op::Insert { v: rng.gen_range(0, 1000) }
        } else if roll < 67 {
            Op::Update { below: rng.gen_range(0, 1000), set: rng.gen_range(0, 10) }
        } else if roll < 77 {
            Op::Delete { v: rng.gen_range(0, 1000) }
        } else if roll < 87 {
            Op::Retrieve { below: rng.gen_range(0, 1000) }
        } else if churn && roll < 93 && live.len() > 2 {
            let b = *rng.pick(&live);
            alive[b] = false;
            Op::Kill { backend: b }
        } else if churn && !dead.is_empty() {
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

fn apply(c: &mut Controller, op: &Op) {
    match op {
        Op::Insert { v } => {
            let rec = Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(*v));
            let _ = c.execute(&Request::Insert { record: rec });
        }
        Op::Update { below, set } => {
            let req = parse_request(&format!("UPDATE ((FILE = f) and (v < {below})) (m = {set})"))
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
    }
}

fn insert_req(v: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(v)),
    }
}

/// Query results that must match byte-for-byte across transports.
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

/// Property 1: the socket transport is semantically invisible — same
/// workload, same digests, same answers as the in-process bus, through
/// backend kills and restarts (which over TCP are real `SIGKILL`-class
/// process deaths and re-spawns).
#[test]
fn tcp_transport_matches_in_process_run() {
    let ops = gen_ops(0x7C9, 120, true);

    let mut chan = Controller::with_replication(BACKENDS, REPLICATION);
    chan.try_create_file("f").unwrap();
    for op in &ops {
        apply(&mut chan, op);
    }

    let mut tcp = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
    assert!(tcp.is_tcp());
    tcp.try_create_file("f").unwrap();
    for op in &ops {
        apply(&mut tcp, op);
    }

    assert_eq!(tcp.state_digest().unwrap(), chan.state_digest().unwrap());
    assert_eq!(tcp.key_high_water(), chan.key_high_water());
    assert_eq!(probe(&mut tcp), probe(&mut chan));
}

/// Property 2 — the acceptance sweep: a real partition isolates the
/// primary, the standby (tailing the WAL over TCP) promotes over the
/// same backend processes, and the old primary's writes are rejected by
/// the backends' own fences once the partition heals.
#[test]
fn partition_failover_fences_isolated_primary_at_remote_backends() {
    let ops = gen_ops(0xA11CE, 60, false);
    let log = MemLog::new();
    let mut c = Controller::durable_over_tcp(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.try_create_file("f").unwrap();

    // The WAL ships over the wire: the primary's log is served by a
    // ShipServer; the standby pulls through a RemoteLog — no shared
    // memory between the log writer and the log reader.
    let ship = ShipServer::spawn(Box::new(log.clone())).unwrap();
    let remote = RemoteLog::connect(ship.addr());
    let mut sb = c.standby(Box::new(remote)).unwrap();

    for op in &ops {
        apply(&mut c, op);
        sb.poll().unwrap();
    }
    let want_digest = c.state_digest().unwrap();
    let want_answers = probe(&mut c);

    // Partition: the primary loses every backend link mid-flight.
    for i in 0..BACKENDS {
        c.sever_link(i);
    }

    // The standby promotes across the partition: its Hello at the new
    // epoch raises every backend process's fence, and backends the
    // partition made unreachable *to the old primary* are re-probed
    // Alive — they answered, so their stores are intact.
    let mut p = sb.promote().unwrap();
    assert_eq!(p.epoch(), 1);
    assert_eq!(p.state_digest().unwrap(), want_digest);
    assert_eq!(probe(&mut p), want_answers);
    p.execute(&insert_req(7777)).unwrap();

    // The isolated primary cannot reach any replica of any record.
    let err = c.execute(&insert_req(9001)).expect_err("a fully partitioned primary must fail");
    assert!(err.to_string().contains("unavailable") || err.to_string().contains("backend"));

    // Partition heals; the old primary reconnects — and every write it
    // sends is rejected by the *remote* fence (the error text is
    // manufactured by the backend process, not this controller).
    for i in 0..BACKENDS {
        c.heal_link(i);
    }
    for v in 5000..5005 {
        let err = c
            .execute(&insert_req(v))
            .expect_err("a fenced primary must not write through remote backends");
        let msg = err.to_string();
        assert!(
            msg.contains("fenced") || msg.contains("unavailable"),
            "unexpected rejection: {msg}"
        );
    }
    // Nothing from the dead epoch landed: the promoted controller's
    // view is exactly its own history.
    let all = parse_request("RETRIEVE ((FILE = f) and (v > 4000)) (*)").unwrap();
    let survivors = p.execute(&all).unwrap();
    assert_eq!(survivors.records().len(), 1, "only the promoted write may exist");
    drop(c); // demoted: detaches, backends stay up
    p.execute(&insert_req(7778)).unwrap();
    assert_eq!(p.execute(&all).unwrap().records().len(), 2);
}

/// Property 3: under a seeded lossy network plan — drops, delays,
/// duplicates and reorders on every link, both directions — the retry
/// budget and idempotent request ids deliver exactly-once application:
/// the final digest equals the clean run's.
#[test]
fn lossy_link_workload_converges_to_clean_digest() {
    let ops = gen_ops(0x10C5, 80, false);

    let mut clean = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
    clean.try_create_file("f").unwrap();
    for op in &ops {
        apply(&mut clean, op);
    }
    let want_digest = clean.state_digest().unwrap();
    let want_answers = probe(&mut clean);

    let mut lossy = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
    // Tight windows so dropped frames retry in test time, with budget
    // enough that a lost frame never exhausts its window.
    lossy.set_reply_timeout(std::time::Duration::from_millis(400));
    lossy.set_retry_budget(4);
    lossy.try_create_file("f").unwrap();
    // A seeded plan plus a hand-placed burst on link 0 so every fault
    // kind provably fires.
    let plan = FaultPlan::seeded_links(0xBAD5EED, BACKENDS, 60)
        .with_link(0, LinkDir::Send, 3, LinkFault::Drop)
        .with_link(0, LinkDir::Recv, 4, LinkFault::Duplicate)
        .with_link(1, LinkDir::Send, 5, LinkFault::DelayMs(8))
        .with_link(1, LinkDir::Recv, 6, LinkFault::Reorder)
        .with_link(2, LinkDir::Recv, 3, LinkFault::Drop);
    lossy.set_fault_plan(plan);
    for op in &ops {
        apply(&mut lossy, op);
    }

    assert_eq!(lossy.state_digest().unwrap(), want_digest, "lossy run diverged");
    assert_eq!(probe(&mut lossy), want_answers);
    let totals = lossy.exec_totals();
    assert!(totals.retries > 0, "the fault plan never cost a retry: {totals:?}");
}

/// Property 4 — the flap regression: down → up → down → up, with the
/// health board re-probed back to Alive (epoch checked, store intact,
/// no restart re-replication) at each recovery, and demoted again on
/// the second outage rather than serving stale Alive state.
#[test]
fn health_board_tracks_a_flapping_backend() {
    let mut c = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
    c.set_reply_timeout(std::time::Duration::from_millis(200));
    c.try_create_file("f").unwrap();
    for v in 0..30 {
        c.execute(&insert_req(v)).unwrap();
    }
    let want_digest = c.state_digest().unwrap();
    assert_eq!(c.backend_state(1), BackendState::Alive);

    // Outage one: the link drops. Writes routed at backend 1 fail over
    // to surviving replicas; the board demotes it.
    c.sever_link(1);
    for v in 100..110 {
        let _ = c.execute(&insert_req(v));
    }
    assert_eq!(c.backend_state(1), BackendState::Dead, "severed backend must be demoted");
    assert_eq!(c.health().unavailable, vec![1]);

    // Recovery one: same process, same store — reconnect re-probes it
    // Alive without the restart path (its data never left).
    c.heal_link(1);
    c.reconnect_backend(1).unwrap();
    assert_eq!(c.backend_state(1), BackendState::Alive, "healed backend must be re-probed Alive");
    assert!(c.health().unavailable.is_empty());

    // Outage two — the flap. A stale board would still say Alive.
    c.sever_link(1);
    for v in 200..210 {
        let _ = c.execute(&insert_req(v));
    }
    assert_eq!(c.backend_state(1), BackendState::Dead, "flapped backend must be demoted again");

    // Recovery two, then the full-state check: nothing was lost or
    // double-applied across the flap.
    c.heal_link(1);
    c.reconnect_backend(1).unwrap();
    assert_eq!(c.backend_state(1), BackendState::Alive);
    for v in 300..305 {
        c.execute(&insert_req(v)).unwrap();
    }
    let digest = c.state_digest().unwrap();
    assert_ne!(digest, want_digest); // the flap-era writes landed …
    let count = parse_request("RETRIEVE ((FILE = f) and (v > 99)) (*)").unwrap();
    let n = c.execute(&count).unwrap().records().len();
    assert_eq!(n, 25, "every write issued around the outages must exist exactly once");
}

/// Property 5 — a faulty *ship* link. The standby tails the primary's
/// WAL through a `RemoteLog` whose pull requests and replies are
/// dropped, duplicated and reordered by a `FaultPlan`'s link events.
/// At-most-once reply application on the replica must absorb every
/// duplicate and stale delivery: the standby converges, and its
/// promotion serves the primary's exact digest and query answers.
#[test]
fn faulty_ship_link_standby_converges_and_promotes_to_primary_digest() {
    use std::sync::{Arc, Mutex};

    let ops = gen_ops(0x5711, 50, false);
    let log = MemLog::new();
    let mut c = Controller::durable_with(BACKENDS, REPLICATION, log.clone()).unwrap();
    c.try_create_file("f").unwrap();

    // The ship link carries faults: duplicates and reorders front and
    // centre (the satellite under test), drops for good measure. All
    // fire in the first ~30 frames; the workload generates ~150, so the
    // tail of the run and promote's final poll are clean.
    let plan = Arc::new(Mutex::new(
        FaultPlan::new()
            .with_link(0, LinkDir::Recv, 3, LinkFault::Reorder)
            .with_link(0, LinkDir::Recv, 5, LinkFault::Duplicate)
            .with_link(0, LinkDir::Recv, 9, LinkFault::Reorder)
            .with_link(0, LinkDir::Recv, 11, LinkFault::Duplicate)
            .with_link(0, LinkDir::Recv, 13, LinkFault::Drop)
            .with_link(0, LinkDir::Recv, 17, LinkFault::Reorder)
            .with_link(0, LinkDir::Recv, 21, LinkFault::Duplicate)
            .with_link(0, LinkDir::Send, 4, LinkFault::Duplicate)
            .with_link(0, LinkDir::Send, 7, LinkFault::Drop)
            .with_link(0, LinkDir::Send, 14, LinkFault::Duplicate)
            .with_link(0, LinkDir::Send, 19, LinkFault::Drop)
            .with_link(0, LinkDir::Send, 25, LinkFault::Reorder),
    ));
    let ship = ShipServer::spawn(Box::new(log.clone())).unwrap();
    let remote = RemoteLog::connect(ship.addr()).with_fault_plan(0, Arc::clone(&plan));
    let mut sb = c.standby(Box::new(remote)).unwrap();

    for op in &ops {
        apply(&mut c, op);
        sb.poll().unwrap();
    }
    let want_digest = c.state_digest().unwrap();
    let want_answers = probe(&mut c);

    // A couple of clean polls flush any reply still held by a reorder,
    // then the standby's own mirror must already match the primary.
    sb.poll().unwrap();
    sb.poll().unwrap();
    assert_eq!(sb.state_digest().unwrap(), want_digest, "standby mirror diverged under ship faults");

    // Promotion fences the primary and serves the identical state.
    let mut p = sb.promote().unwrap();
    assert_eq!(p.state_digest().unwrap(), want_digest);
    assert_eq!(probe(&mut p), want_answers);
    let err = c.execute(&insert_req(9001)).expect_err("fenced primary must not write");
    assert!(err.to_string().contains("fenced"), "unexpected rejection: {err}");
    drop(c);
    p.execute(&insert_req(4242)).unwrap();
}

/// Property 3, through the batch front door: the same lossy links, but
/// the workload arrives as `execute_batch` calls mixing inserts,
/// updates and reads — the path every sharded-dispatcher session
/// takes. The scheduler stages flights over TCP too, so retries resend
/// whole retransmission windows and replies arrive out of the order
/// they are collected in; the final digest must still equal a clean
/// serial run's.
#[test]
fn lossy_link_batched_workload_converges_to_clean_digest() {
    let mut rng = Prng::seed_from_u64(0xBA7C);
    let mut batches: Vec<Vec<Request>> = Vec::new();
    for _ in 0..10 {
        let mut batch = Vec::new();
        for _ in 0..8 {
            let roll = rng.gen_range(0, 100);
            batch.push(if roll < 40 {
                Request::Insert {
                    record: Record::from_pairs([("FILE", Value::str("f"))])
                        .with("v", Value::Int(rng.gen_range(0, 1000))),
                }
            } else if roll < 55 {
                parse_request(&format!(
                    "UPDATE ((FILE = f) and (v < {})) (m = {})",
                    rng.gen_range(0, 1000),
                    rng.gen_range(0, 10)
                ))
                .unwrap()
            } else if roll < 80 {
                parse_request(&format!(
                    "RETRIEVE ((FILE = f) and (v < {})) (*)",
                    rng.gen_range(0, 1000)
                ))
                .unwrap()
            } else {
                parse_request("RETRIEVE (FILE = f) (*)").unwrap()
            });
        }
        batches.push(batch);
    }

    let mut clean = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
    clean.try_create_file("f").unwrap();
    for batch in &batches {
        for req in batch {
            let _ = clean.execute(req);
        }
    }
    let want_digest = clean.state_digest().unwrap();
    let want_answers = probe(&mut clean);

    let mut lossy = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
    lossy.set_reply_timeout(std::time::Duration::from_millis(400));
    lossy.set_retry_budget(4);
    lossy.try_create_file("f").unwrap();
    lossy.set_fault_plan(
        FaultPlan::seeded_links(0x5EED5, BACKENDS, 40)
            .with_link(0, LinkDir::Send, 3, LinkFault::Drop)
            .with_link(1, LinkDir::Recv, 4, LinkFault::Reorder)
            .with_link(2, LinkDir::Recv, 5, LinkFault::Drop),
    );
    for batch in &batches {
        for res in lossy.execute_batch(batch) {
            let _ = res;
        }
    }

    assert_eq!(lossy.state_digest().unwrap(), want_digest, "batched lossy run diverged");
    assert_eq!(probe(&mut lossy), want_answers);
    let totals = lossy.exec_totals();
    assert!(totals.sched_flights > 0, "no batch staged a flight over TCP: {totals:?}");
}

/// A request's full answer: affected count, records and groups, or the
/// error text.
fn outcome(result: &mlds::abdl::Result<mlds::abdl::Response>) -> String {
    match result {
        Ok(r) => {
            let mut records = r.records().to_vec();
            records.sort_by_key(|(k, _)| *k);
            format!("ok {} {records:?} {:?}", r.affected, r.groups)
        }
        Err(e) => format!("err {e}"),
    }
}

/// Staged flights over a faulty link: one batch of 400 pairwise
/// commuting unique-keyed inserts and point reads — longer than the
/// backends' reply cache, so the scheduler must close a flight at the
/// cap — with frames dropped, duplicated and reordered mid-flight in
/// both directions of one link. Each retry resends the link's whole
/// window of unanswered frames; per-request outcomes, the state digest
/// and the unique index must all equal a serial run of the same batch.
#[test]
fn long_faulty_flight_over_tcp_matches_serial_execution() {
    const SEEDED: i64 = 16;
    let build = || {
        let mut c = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
        c.try_create_file("u").unwrap();
        c.add_unique_constraint("u", vec!["k".into()]);
        for k in 0..SEEDED {
            c.execute(&unique_insert(k)).unwrap();
        }
        c
    };
    // Even members insert fresh keys, odd members read seeded ones: no
    // two members conflict, so only the flight cap can split the batch.
    let batch: Vec<Request> = (0..400i64)
        .map(|n| {
            if n % 2 == 0 {
                unique_insert(1000 + n)
            } else {
                parse_request(&format!("RETRIEVE ((FILE = u) and (k = {})) (*)", n % SEEDED))
                    .unwrap()
            }
        })
        .collect();

    let mut serial = build();
    let want: Vec<String> = batch.iter().map(|r| outcome(&serial.execute(r))).collect();

    let mut faulty = build();
    faulty.set_reply_timeout(std::time::Duration::from_millis(400));
    faulty.set_retry_budget(4);
    // Every link has moved at most `sent` frames each way so far, so
    // these all fire inside the batch, early in the first flight.
    let sent = faulty.exec_totals().messages_sent;
    faulty.set_fault_plan(
        FaultPlan::new()
            .with_link(0, LinkDir::Send, sent + 5, LinkFault::Drop)
            .with_link(0, LinkDir::Send, sent + 9, LinkFault::Duplicate)
            .with_link(0, LinkDir::Send, sent + 13, LinkFault::Reorder)
            .with_link(0, LinkDir::Recv, sent + 6, LinkFault::Drop)
            .with_link(0, LinkDir::Recv, sent + 10, LinkFault::Duplicate)
            .with_link(0, LinkDir::Recv, sent + 14, LinkFault::Reorder),
    );
    let got: Vec<String> = faulty.execute_batch(&batch).iter().map(outcome).collect();

    for (n, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "request {n} diverged from serial execution");
    }
    let t = faulty.exec_totals();
    assert_eq!(faulty.alive_count(), BACKENDS, "a lost frame was never resent: {t:?}");
    assert_eq!(faulty.state_digest().unwrap(), serial.state_digest().unwrap());
    assert_eq!(faulty.unique_index_digest(), serial.unique_index_digest());
    assert!(t.retries > 0, "the fault plan never cost a retry: {t:?}");
    assert_eq!(t.conflict_stalls, 0, "{t:?}");
    assert!(t.sched_flights >= 2, "the reply-cache cap never closed a flight: {t:?}");
}

/// A backend crash in the middle of a coalesced burst. Backend 0 of a
/// 2-backend, k = 2 cluster crashes on the 6th insert of one 16-insert
/// flight, whose requests reached it as one burst. A backend writes its
/// pending replies before the process exits, so the five inserts it
/// handled before the crash are answered and placed on both replicas —
/// exactly what the in-process bus does, where every reply leaves the
/// moment it is made.
#[test]
fn crash_mid_burst_answers_every_request_handled_before_it() {
    let run = |mut c: Controller| {
        c.set_reply_timeout(std::time::Duration::from_millis(150));
        c.try_create_file("u").unwrap();
        c.add_unique_constraint("u", vec!["k".into()]);
        for k in 0..8 {
            c.execute(&unique_insert(k)).unwrap();
        }
        // Backend 0 has handled 9 messages (the file, 8 inserts), so
        // message 15 is the batch's 6th insert.
        c.set_fault_plan(FaultPlan::new().with(0, 15, FaultKind::Crash));
        let batch: Vec<Request> = (100..116).map(unique_insert).collect();
        let got: Vec<String> = c.execute_batch(&batch).iter().map(outcome).collect();
        let t = c.exec_totals();
        assert!(t.sched_flights >= 1, "the batch never ran as a flight: {t:?}");
        assert_eq!(c.backend_state(0), BackendState::Dead, "{t:?}");
        (got, c.state_digest().unwrap(), c.unique_index_digest())
    };
    let want = run(Controller::with_replication(2, 2));
    let got = run(Controller::over_tcp(2, 2).unwrap());
    for (n, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
        assert_eq!(g, w, "request {n} diverged from the in-process bus");
    }
    assert_eq!(got.1, want.1, "placement diverged from the in-process bus");
    assert_eq!(got.2, want.2);
}

/// A group move whose bracket (`set_move_chunk`) is longer than the
/// backends' reply cache, over a seeded lossy network. The copy is
/// windowed at the reply cache's span, so every retransmitted copy is
/// answered from the cache instead of being applied twice, and the
/// grown cluster holds exactly the static cluster's data.
#[test]
fn a_move_longer_than_the_reply_cache_converges_over_a_lossy_link() {
    let seed = |c: &mut Controller| {
        c.try_create_file("u").unwrap();
        for k in 0..1_200 {
            c.execute(&unique_insert(k)).unwrap();
        }
    };
    let mut fixed = Controller::over_tcp(3, REPLICATION).unwrap();
    seed(&mut fixed);
    let mut grown = Controller::over_tcp(3, REPLICATION).unwrap();
    seed(&mut grown);
    grown.set_reply_timeout(std::time::Duration::from_millis(400));
    grown.set_retry_budget(4);
    // One bracket moves the whole ~400-record group.
    grown.set_move_chunk(1_024);
    // The seeded events on the three seeded links have passed; the
    // joining backend's link counts frames from 0, so its events (and
    // a reply dropped early in the copy) fire inside the move.
    grown.set_fault_plan(
        FaultPlan::seeded_links(0xC0B1, 4, 300).with_link(3, LinkDir::Recv, 5, LinkFault::Drop),
    );
    grown.add_backend().unwrap();
    grown.finish_rebalance().unwrap();
    let t = grown.exec_totals();
    assert!(t.groups_moved > 0, "nothing moved: {t:?}");
    assert!(t.retries > 0, "the fault plan never cost a retry: {t:?}");
    assert_eq!(grown.alive_count(), 4, "{t:?}");
    assert_eq!(grown.logical_digest().unwrap(), fixed.logical_digest().unwrap());
}

/// One plan, both vocabularies: a backend crash and link drops and
/// duplicates installed by one `set_fault_plan` end with the dead set
/// and the digest of the crash alone. The link faults cost retries,
/// not outcomes.
#[test]
fn one_plan_carries_backend_and_link_faults_over_tcp() {
    let ops = gen_ops(0xF1A7, 60, false);
    let run = |plan: FaultPlan| {
        let mut c = Controller::over_tcp(BACKENDS, REPLICATION).unwrap();
        c.set_reply_timeout(std::time::Duration::from_millis(400));
        c.set_retry_budget(4);
        c.try_create_file("f").unwrap();
        c.set_fault_plan(plan);
        for op in &ops {
            apply(&mut c, op);
        }
        (c.health().unavailable, c.state_digest().unwrap(), c.exec_totals().retries)
    };
    let crash = FaultPlan::new().with(2, 12, FaultKind::Crash);
    let both = crash
        .clone()
        .with_link(0, LinkDir::Send, 4, LinkFault::Drop)
        .with_link(0, LinkDir::Recv, 6, LinkFault::Duplicate)
        .with_link(1, LinkDir::Recv, 5, LinkFault::Drop)
        .with_link(3, LinkDir::Send, 7, LinkFault::Duplicate);
    let (want_dead, want_digest, _) = run(crash);
    assert_eq!(want_dead, vec![2], "the crash must fire");
    let (dead, digest, retries) = run(both);
    assert_eq!(dead, want_dead);
    assert_eq!(digest, want_digest);
    assert!(retries > 0, "the link drops never cost a retry");
}

/// Installing a plan moves no frame counter: the plan travels to the
/// backend on the handshake's unjudged control path. A drop placed on
/// the first frame after everything the link has sent so far hits the
/// next request, not the plan's own `SetFaults` frame, and costs that
/// request a retry.
#[test]
fn installing_a_plan_moves_no_frame_counter() {
    let mut c = Controller::over_tcp(1, 1).unwrap();
    c.set_reply_timeout(std::time::Duration::from_millis(400));
    c.set_retry_budget(4);
    c.try_create_file("u").unwrap();
    let sent = c.exec_totals().messages_sent;
    c.set_fault_plan(FaultPlan::new().with_link(0, LinkDir::Send, sent + 1, LinkFault::Drop));
    assert_eq!(c.exec_totals().retries, 0);
    c.execute(&unique_insert(1)).unwrap();
    assert!(c.exec_totals().retries > 0, "the drop hit something other than the insert");
    let all = parse_request("RETRIEVE (FILE = u) (*)").unwrap();
    assert_eq!(c.execute(&all).unwrap().records().len(), 1);
}

fn unique_insert(k: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("u"))]).with("k", Value::Int(k)),
    }
}
