//! Scoped routing is an optimisation, not a semantics change.
//!
//! The property: a seeded workload pushed through a threaded
//! controller — scoped routing, the controller-side unique index,
//! parallel replica writes, all of them always on — produces the same
//! answer for every single request as a single `abdl::Store` holding
//! the same files and unique constraint: records, aggregate groups,
//! affected counts and errors (duplicate-key rejections included). The
//! store checks uniqueness by its own probe of its records, so the
//! oracle does not share the controller's index. The same holds while
//! backends are down, and after they are restarted.
//!
//! The payoff is then checked as exact message counts on the requests
//! the optimisations are about (unique inserts, duplicate rejections,
//! point reads on the unique attribute, key-pinned updates and deletes,
//! batched point reads). Every controller read is planned the same
//! way, so a solo point read, a batched one and a key-pinned
//! mutation's pre-image fetch each probe one backend.

use mlds::abdl::parse::parse_request;
use mlds::abdl::prng::Prng;
use mlds::abdl::{Error, Kernel, Record, Request, Response, Store, Value};
use mlds::mbds::{Controller, CostModel, FaultKind, FaultPlan};
use std::collections::HashMap;

const BACKENDS: usize = 6;
const REPLICATION: usize = 2;

/// A normalized, comparable rendering of one request's outcome: record
/// contents without database keys (the two kernels allocate keys
/// differently — the controller consumes one on a rejected insert too),
/// aggregate groups, affected counts and errors.
fn outcome(result: &mlds::abdl::Result<Response>) -> String {
    match result {
        Ok(resp) => {
            let mut rows: Vec<String> = resp.records().iter().map(|(_, r)| r.to_string()).collect();
            rows.sort();
            format!("rows={rows:?} groups={:?} affected={}", resp.groups, resp.affected)
        }
        Err(e) => format!("error={e:?}"),
    }
}

fn insert_g(v: i64, u: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("g"))])
            .with("v", Value::Int(v))
            .with("u", Value::Int(u))
            .with("m", Value::Int(v % 7)),
    }
}

fn insert_h(v: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("h"))])
            .with("v", Value::Int(v))
            .with("m", Value::Int(v % 5)),
    }
}

/// One phase of seeded mixed traffic. `allow_dup_u` gates inserts that
/// can collide on the unique attribute: while whole replica groups are
/// dead, the controller's index (which still knows about unreachable
/// records) and the oracle (which no longer holds them) legitimately
/// disagree about duplicates of *lost* records, so the degraded phase
/// sticks to fresh unique values.
fn phase_requests(rng: &mut Prng, n: usize, allow_dup_u: bool, fresh_u_from: i64) -> Vec<Request> {
    let mut fresh_u = fresh_u_from;
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0, 100);
            if roll < 25 {
                let u = if allow_dup_u {
                    rng.gen_range(0, 30)
                } else {
                    fresh_u += 1;
                    fresh_u
                };
                insert_g(rng.gen_range(0, 1000), u)
            } else if roll < 35 {
                insert_h(rng.gen_range(0, 1000))
            } else if roll < 50 {
                // Key-scoped point lookup on the unique attribute.
                parse_request(&format!(
                    "RETRIEVE ((FILE = g) and (u = {})) (*)",
                    rng.gen_range(0, 30)
                ))
                .unwrap()
            } else if roll < 62 {
                let file = if rng.gen_range(0, 2) == 0 { "g" } else { "h" };
                parse_request(&format!(
                    "RETRIEVE ((FILE = {file}) and (v < {})) (*)",
                    rng.gen_range(0, 1000)
                ))
                .unwrap()
            } else if roll < 72 {
                parse_request("RETRIEVE (FILE = g) (COUNT(v)) BY m").unwrap()
            } else if roll < 80 {
                parse_request(&format!(
                    "UPDATE ((FILE = g) and (v < {})) (u = {})",
                    rng.gen_range(0, 300),
                    rng.gen_range(0, 30)
                ))
                .unwrap()
            } else if roll < 88 {
                let file = if rng.gen_range(0, 2) == 0 { "g" } else { "h" };
                parse_request(&format!(
                    "DELETE ((FILE = {file}) and (v = {}))",
                    rng.gen_range(0, 1000)
                ))
                .unwrap()
            } else {
                parse_request("RETRIEVE-COMMON ((FILE = g)) (v) COMMON ((FILE = h)) (v) (m)")
                    .unwrap()
            }
        })
        .collect()
}

/// Files `g` and `h`, with `u` unique in `g`, on any kernel.
fn create_files(k: &mut impl Kernel) {
    k.create_file("g");
    k.create_file("h");
    k.add_unique_constraint("g", vec!["u".to_owned()]);
}

/// Run `reqs` on the controller and the oracle, comparing every answer,
/// and require every successful controller answer to carry `degraded`.
fn run_both(c: &mut Controller, oracle: &mut Store, reqs: &[Request], degraded: bool, ctx: &str) {
    for (i, req) in reqs.iter().enumerate() {
        let got = c.execute(req);
        assert_eq!(
            outcome(&got),
            outcome(&oracle.execute(req)),
            "{ctx}: request {i} diverged ({req:?})"
        );
        if let Ok(resp) = &got {
            assert_eq!(resp.degraded, degraded, "{ctx}: request {i} degraded flag ({req:?})");
        }
    }
}

/// Drop from the oracle every record a full scan of the controller no
/// longer returns (matched by contents: the kernels' keys differ).
/// Returns how many records were dropped.
fn forget_lost_records(c: &mut Controller, oracle: &mut Store) -> usize {
    let mut lost = 0;
    for file in ["g", "h"] {
        let scan = parse_request(&format!("RETRIEVE (FILE = {file}) (*)")).unwrap();
        let mut live: HashMap<String, usize> = HashMap::new();
        for (_, rec) in c.execute(&scan).unwrap().records() {
            *live.entry(rec.to_string()).or_default() += 1;
        }
        for (key, rec) in oracle.execute(&scan).unwrap().records() {
            match live.get_mut(&rec.to_string()) {
                Some(n) if *n > 0 => *n -= 1,
                _ => {
                    oracle.remove_by_key(*key).expect("oracle holds the key it returned");
                    lost += 1;
                }
            }
        }
    }
    lost
}

/// The property test proper: three phases (all-alive, one backend
/// down, a whole replica group down = degraded reads), every request
/// compared against the single-store oracle.
#[test]
fn scoped_routing_equals_broadcast_on_a_seeded_workload() {
    let mut c = Controller::with_replication(BACKENDS, REPLICATION);
    let mut oracle = Store::new();
    create_files(&mut c);
    create_files(&mut oracle);

    let mut rng = Prng::seed_from_u64(0x2073);
    // Phase 1: full availability, duplicate collisions allowed.
    let reqs = phase_requests(&mut rng, 120, true, 1000);
    run_both(&mut c, &mut oracle, &reqs, false, "phase 1 (all alive)");

    // Phase 2: one backend down — replicated reads, substituted writes.
    c.kill_backend(2);
    let reqs = phase_requests(&mut rng, 60, true, 2000);
    run_both(&mut c, &mut oracle, &reqs, false, "phase 2 (one down)");

    // Phase 3: restart, then kill an adjacent pair — some replica
    // groups are wholly dead, so their records are gone and every
    // answer is flagged degraded; unique inserts use fresh values (see
    // `phase_requests`).
    c.restart_backend(2).unwrap();
    c.kill_backend(3);
    c.kill_backend(4);
    let lost = forget_lost_records(&mut c, &mut oracle);
    assert_eq!(lost, 8, "the dead pair held the only replicas of 8 records");
    let reqs = phase_requests(&mut rng, 60, false, 3000);
    run_both(&mut c, &mut oracle, &reqs, true, "phase 3 (degraded)");
}

/// The routed fast path must also agree under failure *during* the
/// workload (not just at phase boundaries): a mid-stream death is
/// detected by whichever round touches the dead backend first, and the
/// answers afterwards still match the oracle.
#[test]
fn mid_workload_death_converges_identically() {
    let mut c = Controller::with_replication(4, 2);
    let mut oracle = Store::new();
    create_files(&mut c);
    create_files(&mut oracle);
    for v in 0..24 {
        let req = insert_g(v, v);
        assert_eq!(outcome(&c.execute(&req)), outcome(&oracle.execute(&req)));
    }
    c.kill_backend(1);
    let mut reqs: Vec<Request> = [3i64, 11, 19]
        .iter()
        .map(|u| parse_request(&format!("RETRIEVE ((FILE = g) and (u = {u})) (*)")).unwrap())
        .collect();
    // A colliding insert is rejected identically (every record still
    // has a live replica), and the full file reads back the same.
    reqs.push(insert_g(99, 5));
    reqs.push(parse_request("RETRIEVE (FILE = g) (*)").unwrap());
    run_both(&mut c, &mut oracle, &reqs, false, "after one death");
}

fn insert_f(u: i64) -> Request {
    Request::Insert {
        record: Record::from_pairs([("FILE", Value::str("f"))])
            .with("u", Value::Int(u))
            .with("v", Value::Int(u % 10)),
    }
}

fn point_read(u: i64) -> Request {
    parse_request(&format!("RETRIEVE ((FILE = f) and (u = {u})) (*)")).unwrap()
}

/// Files `f` (with `u` unique and `rows` records) and `empty`.
fn load_f(k: &mut impl Kernel, rows: i64) {
    k.create_file("f");
    k.create_file("empty");
    k.add_unique_constraint("f", vec!["u".to_owned()]);
    for u in 0..rows {
        k.execute(&insert_f(u)).unwrap();
    }
}

/// The broadcast tax, counted: on 8 backends with k = 2, a unique
/// insert costs exactly its k replica writes (the index replaces a
/// cluster-wide probe), a duplicate is rejected before any message, a
/// point read on the unique attribute probes one backend of its
/// replica group, a key-pinned update or delete costs that one
/// pre-image probe plus its k mutation messages, a read the index
/// cannot pin reaches every backend holding the file, and a read of an
/// empty file reaches nobody. A point read whose probed backend crashes
/// on the probe fails over to the replica and still answers.
#[test]
fn unique_attribute_requests_cost_exact_message_counts() {
    let mut c = Controller::with_replication(8, 2);
    load_f(&mut c, 200);
    for u in 200..203 {
        let resp = c.execute(&insert_f(u)).unwrap();
        assert_eq!(resp.messages_sent, 2, "unique insert u={u}");
    }

    let before = c.exec_totals().messages_sent;
    let dup = c.execute(&insert_f(7));
    assert!(matches!(dup, Err(Error::DuplicateKey { .. })), "{dup:?}");
    assert_eq!(c.exec_totals().messages_sent, before, "a duplicate costs no message");

    for u in [0, 57, 202] {
        let resp = c.execute(&point_read(u)).unwrap();
        assert_eq!(resp.records().len(), 1);
        assert_eq!(resp.messages_sent, 1, "point read u={u} probes one replica");
    }
    for (text, what) in [
        ("UPDATE ((FILE = f) and (u = 57)) (v = 99)", "update"),
        ("DELETE ((FILE = f) and (u = 202))", "delete"),
    ] {
        let probes = c.exec_totals().read_probes;
        let resp = c.execute(&parse_request(text).unwrap()).unwrap();
        assert_eq!(resp.affected, 1, "key-pinned {what}");
        assert_eq!(resp.messages_sent, 1 + 2, "key-pinned {what}: pre-image probe + k writes");
        assert_eq!(c.exec_totals().read_probes, probes + 1, "key-pinned {what} pre-image");
    }
    let scan = parse_request("RETRIEVE ((FILE = f) and (v = 3)) (*)").unwrap();
    let resp = c.execute(&scan).unwrap();
    assert_eq!(resp.records().len(), 20);
    assert_eq!(resp.messages_sent, c.backend_count() as u64, "an unpinned read is a broadcast");

    let resp = c.execute(&parse_request("RETRIEVE (FILE = empty) (*)").unwrap()).unwrap();
    assert!(resp.records().is_empty());
    assert_eq!(resp.messages_sent, 0, "an empty file costs nothing");

    // Find the backend that point read probes, then crash it on its
    // next message, whatever its count: a crash is armed at every
    // message number it can have reached. Two short reply windows
    // detect the crash.
    c.set_reply_timeout(std::time::Duration::from_millis(100));
    let probed_before = c.read_probe_counts().to_vec();
    c.execute(&point_read(0)).unwrap();
    let probed = (0..c.backend_count())
        .find(|&i| c.read_probe_counts()[i] > probed_before[i])
        .expect("a point read probes a backend");
    let horizon = c.exec_totals().messages_sent + 1;
    c.set_fault_plan((1..=horizon).fold(FaultPlan::new(), |plan, n| {
        plan.with(probed, n, FaultKind::Crash)
    }));
    let failovers = c.exec_totals().read_probe_failovers;
    let resp = c.execute(&point_read(0)).unwrap();
    assert_eq!(resp.records().len(), 1, "the replica answers for the crashed probe");
    assert_eq!(resp.messages_sent, 2, "the probe and its failover");
    assert_eq!(c.exec_totals().read_probe_failovers, failovers + 1);
    assert!(!c.health().unavailable.is_empty(), "the probed backend crashed");
}

/// Batched point reads fly as single-backend probes, in flights capped
/// at the backends' reply-cache span (256): 300 reads are 2 flights,
/// 300 probes and 300 messages, and the same reads one by one are
/// flights of one and cost one probe each. The simulator's scheduler
/// forms exactly the same flights.
#[test]
fn batched_point_reads_fly_as_probes_in_capped_flights() {
    const ROWS: i64 = 300;
    let reads: Vec<Request> = (0..ROWS).map(point_read).collect();

    let mut c = Controller::with_replication(4, 2);
    load_f(&mut c, ROWS);
    let before = c.exec_totals();
    for res in c.execute_batch(&reads) {
        assert_eq!(res.unwrap().records().len(), 1);
    }
    let after = c.exec_totals();
    assert_eq!(after.sched_flights - before.sched_flights, 2);
    assert_eq!(after.sched_max_flight, 256);
    assert_eq!(after.read_probes - before.read_probes, ROWS as u64);
    assert_eq!(after.messages_sent - before.messages_sent, ROWS as u64);

    let before = c.exec_totals().messages_sent;
    for r in &reads {
        c.execute(r).unwrap();
    }
    assert_eq!(c.exec_totals().messages_sent - before, ROWS as u64);

    let mut sim = Controller::simulated(4, 2, CostModel::default());
    load_f(&mut sim, ROWS);
    for res in sim.execute_batch(&reads) {
        assert_eq!(res.unwrap().records().len(), 1);
    }
    let t = sim.exec_totals();
    assert_eq!(t.sched_flights, 2);
    assert_eq!(t.sched_max_flight, 256);
    assert_eq!(t.read_probes, ROWS as u64);
}
