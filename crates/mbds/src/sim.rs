//! The simulated link: in-memory backends on a cost-model clock.
//!
//! Wall-clock benchmarking of the threaded controller on a single
//! shared-memory machine cannot exhibit *disk* parallelism — all
//! backends contend for the same CPU and there are no disks. The cost
//! model recovers the quantity the MBDS claims are about: per-request
//! response time composed of bus messages, the *maximum* of the
//! backends' disk times (they run in parallel), and result merging at
//! the controller.
//!
//! A simulated cluster is the one [`Controller`](crate::Controller)
//! over a third kind of link. Each backend is an in-memory
//! [`Backend`] running the same step as a worker thread or a backend
//! process (fence, [`FaultPlan`] count, apply), synchronously, at the
//! moment a message is queued; its reply waits in the link until the
//! controller awaits it. Nothing sleeps and nothing spawns, so a seeded
//! fault schedule gives bit-identical results run after run. A dropped
//! reply misses every reply window; a delayed one misses the windows
//! its delay spans, in virtual time, as it would on the channel bus in
//! real time.
//!
//! A *round* is the set of messages the controller queues under one
//! seq, and the [`SimClock`] charges it once:
//!
//! ```text
//! round_time = msg_time                                  (broadcast on the bus)
//!            + max_i (blocks_touched_i × block_time
//!                     + records_returned_i × record_time
//!                     + reply_delay_i)
//!            + backends_reached × msg_time                (per-backend reply)
//! ```
//!
//! One `InsertWithKey` costs one block; a `FetchKeys` costs the records
//! it returns, like any result. Result forwarding is charged
//! *inside* the parallel phase: each backend transmits its own partial
//! result concurrently with the others (MBDS backends have private
//! channels to the controller), so growing the response size
//! proportionally with the backends leaves the per-backend phase — and
//! the response time — invariant.
//!
//! The parameters are calibrated to 1980s hardware orders of magnitude
//! (a ~30 ms track read, millisecond-scale bus messages); only the
//! *shape* of the curves matters for the reproduction.

use crate::fault::FaultPlan;
use crate::link::{Backend, Cluster, Delivery, Link, Stamp, Verdict, Window};
use crate::net::WireOp;
use abdl::{ExecTotals, Response, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Cost-model parameters (microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Time to read one data block from a backend's disk.
    pub block_time_us: f64,
    /// Time for one controller↔backend bus message.
    pub msg_time_us: f64,
    /// Per-record cost of merging/forwarding results to the host.
    pub record_time_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // A late-1980s minicomputer disk reads a ~16-record block in
        // ~30 ms; the parallel bus delivers a message in ~2 ms; record
        // forwarding costs ~0.2 ms each.
        CostModel { block_time_us: 30_000.0, msg_time_us: 2_000.0, record_time_us: 200.0 }
    }
}

/// The virtual clock of one simulated cluster, shared by its links.
/// Clones are handles onto the same clock.
#[derive(Clone)]
pub struct SimClock(Arc<Mutex<Clock>>);

struct Clock {
    cost: CostModel,
    /// The latest round: its seq, its busiest backend (µs) and the
    /// number of backends it reached.
    round: Option<(u64, f64, usize)>,
    /// Simulated time of the rounds before it since the last reset, µs.
    earlier_us: f64,
}

impl Clock {
    fn round_us(&self) -> f64 {
        self.round.map_or(0.0, |(_, busiest, reached)| {
            self.cost.msg_time_us + busiest + reached as f64 * self.cost.msg_time_us
        })
    }
}

impl SimClock {
    pub(crate) fn new(cost: CostModel) -> SimClock {
        SimClock(Arc::new(Mutex::new(Clock { cost, round: None, earlier_us: 0.0 })))
    }

    fn lock(&self) -> MutexGuard<'_, Clock> {
        self.0.lock().expect("sim clock lock")
    }

    /// One message of round `seq` reached a backend, which was busy
    /// with it for `busy_us`.
    fn charge(&self, seq: u64, busy_us: f64) {
        let mut clock = self.lock();
        if clock.round.is_some_and(|(s, ..)| s != seq) {
            clock.earlier_us += clock.round_us();
            clock.round = None;
        }
        let (_, busiest, reached) = clock.round.get_or_insert((seq, 0.0, 0));
        *busiest = busiest.max(busy_us);
        *reached += 1;
    }

    /// Simulated time of the latest round, µs.
    pub fn last_response_us(&self) -> f64 {
        self.lock().round_us()
    }

    /// Simulated time of every round since the last reset, µs.
    pub fn total_us(&self) -> f64 {
        let clock = self.lock();
        clock.earlier_us + clock.round_us()
    }

    /// Zero the clock (not the data).
    pub fn reset(&self) {
        let mut clock = self.lock();
        clock.round = None;
        clock.earlier_us = 0.0;
    }
}

/// One simulated backend, shared by every link attached to it; `None`
/// once it has crashed or been stopped.
pub(crate) type Slot = Arc<Mutex<Option<Backend>>>;

/// A link to one in-memory backend.
pub(crate) struct SimLink {
    slot: Slot,
    fence: Arc<AtomicU64>,
    faults: Arc<Mutex<FaultPlan>>,
    clock: SimClock,
    cost: CostModel,
    /// Replies not yet awaited, by seq, with how long after the round
    /// each arrives (`Duration::MAX`: a dropped reply, never).
    parked: BTreeMap<u64, (Result<Response>, Duration)>,
}

impl SimLink {
    /// A link to `slot`, reading `cluster`'s fence and fault plan and
    /// charging `clock`.
    pub(crate) fn new(slot: Slot, cluster: &Cluster, clock: SimClock) -> SimLink {
        let cost = clock.lock().cost;
        SimLink {
            slot,
            fence: Arc::clone(&cluster.fence),
            faults: Arc::clone(&cluster.faults),
            clock,
            cost,
            parked: BTreeMap::new(),
        }
    }
}

impl Link for SimLink {
    /// The backend handles the message at once. A message that crashes
    /// it was still delivered, and its seq answers `Lost`; after that
    /// the backend cannot be reached.
    fn queue(&mut self, at: Stamp, seq: u64, op: WireOp) -> bool {
        let mut slot = self.slot.lock().expect("sim backend lock");
        let Some(backend) = slot.as_mut() else { return false };
        let insert = matches!(op, WireOp::InsertWithKey(..));
        let faults = &self.faults;
        let fault = |i, n| faults.lock().ok().and_then(|p| p.action(i, n));
        let mut busy_us = 0.0;
        match backend.step(at.epoch, self.fence.load(Ordering::SeqCst), op, fault) {
            Verdict::Reply(result, delivery) => {
                let late = match delivery {
                    Delivery::Now => Duration::ZERO,
                    Delivery::AfterMs(ms) => {
                        busy_us += ms as f64 * 1000.0;
                        Duration::from_millis(ms)
                    }
                    Delivery::Never => Duration::MAX,
                };
                busy_us += match &result {
                    Ok(_) if insert => self.cost.block_time_us,
                    Ok(resp) => {
                        resp.stats.blocks_touched as f64 * self.cost.block_time_us
                            + resp.stats.records_returned as f64 * self.cost.record_time_us
                    }
                    Err(_) => 0.0,
                };
                self.parked.insert(seq, (result, late));
            }
            Verdict::Ignore => {}
            Verdict::Shutdown | Verdict::Crash | Verdict::Panic => *slot = None,
        }
        self.clock.charge(seq, busy_us);
        true
    }

    /// A reply arriving later than the window stays parked, that much
    /// less late, for the next window.
    fn await_reply(&mut self, at: Stamp, seq: u64, _: &mut ExecTotals) -> Window {
        match self.parked.remove(&seq) {
            None => Window::Lost,
            Some((result, late)) if late < at.window => Window::Reply(result),
            Some((result, late)) => {
                self.parked.insert(seq, (result, late.saturating_sub(at.window)));
                Window::Missed
            }
        }
    }

    fn forget(&mut self) {
        self.parked.clear();
    }

    /// A shutdown from a fenced-out controller is ignored, as on the
    /// other links.
    fn stop(&mut self, at: Stamp) {
        let mut slot = self.slot.lock().expect("sim backend lock");
        let fence = self.fence.load(Ordering::SeqCst);
        if let Some(backend) = slot.as_mut() {
            if let Verdict::Shutdown = backend.step(at.epoch, fence, WireOp::Shutdown, |_, _| None) {
                *slot = None;
            }
        }
        self.parked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::wal::MemLog;
    use crate::Controller;
    use abdl::parse::parse_request;
    use abdl::{Kernel, Record, Request, Store, Value};

    fn sim(n: usize) -> Controller {
        Controller::simulated(n, 2.min(n), CostModel::default())
    }

    fn load(cluster: &mut Controller, records: usize) {
        cluster.create_file("f");
        for i in 0..records {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i as i64));
            rec.set("m", Value::Int((i % 10) as i64));
            cluster.execute(&Request::Insert { record: rec }).unwrap();
        }
        cluster.clock().unwrap().reset();
    }

    /// Cost model for the shape tests: realistic disk and bus, light
    /// record forwarding so the curve is dominated by the disk phase
    /// (the MBDS papers' regime of large responses is benched in E7/E8).
    fn shape_cost() -> CostModel {
        CostModel { block_time_us: 30_000.0, msg_time_us: 2_000.0, record_time_us: 10.0 }
    }

    /// A simulated cluster forms the same flights as any other:
    /// scheduler accounting (flights, read/mixed split) with exactly
    /// the serial answers.
    #[test]
    fn batch_mirrors_scheduler_accounting_and_serial_results() {
        let mut cluster = sim(4);
        cluster.create_file("f");
        cluster.add_unique_constraint("f", vec!["f".into()]);
        for i in 0..8 {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i));
            cluster.execute(&Request::Insert { record: rec }).unwrap();
        }
        let mut batch = vec![
            // Read-only flight: two key-scoped reads plus a broadcast scan.
            parse_request("RETRIEVE ((FILE = f) and (f = 1)) (*)").unwrap(),
            parse_request("RETRIEVE ((FILE = f) and (f = 2)) (*)").unwrap(),
            parse_request("RETRIEVE (FILE = f) (*)").unwrap(),
            // A delete closes the flight (not flyable).
            parse_request("DELETE ((FILE = f) and (f = 7))").unwrap(),
        ];
        // Mixed flight: key-disjoint insert + key-scoped read.
        let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
        rec.set("f", Value::Int(100));
        batch.push(Request::Insert { record: rec });
        batch.push(parse_request("RETRIEVE ((FILE = f) and (f = 3)) (*)").unwrap());
        let results = Kernel::execute_batch(&mut cluster, &batch);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        assert_eq!(results[2].as_ref().unwrap().records().len(), 8);
        let t = cluster.exec_totals();
        assert_eq!(t.sched_flights, 2);
        assert_eq!(t.sched_read_flights, 1);
        assert_eq!(t.sched_mixed_flights, 1);
        assert_eq!(t.batched_requests, 6);
    }

    /// Claim 1: fixed database, growing backends → response time falls
    /// nearly reciprocally. The selection predicate is a key range,
    /// which round-robin placement spreads evenly over any backend
    /// count. Unreplicated — the claim is about partitioning.
    #[test]
    fn response_time_falls_reciprocally_with_backends() {
        let query = parse_request("RETRIEVE ((FILE = f) and (f < 4000)) (*)").unwrap();
        let mut times = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let mut cluster = Controller::simulated(n, 1, shape_cost());
            load(&mut cluster, 40_000);
            cluster.execute(&query).unwrap();
            times.push(cluster.clock().unwrap().last_response_us());
        }
        // Each doubling of backends should cut the time by a factor
        // approaching 2 (bounded below by bus/merge overhead).
        for w in times.windows(2) {
            let speedup = w[0] / w[1];
            assert!(
                speedup > 1.5 && speedup <= 2.1,
                "expected near-2x speedup per doubling, got {speedup:.2} ({times:?})"
            );
        }
        // Overall 1→8 speedup is close to 8 but below it (overhead).
        let overall = times[0] / times[3];
        assert!(overall > 5.0 && overall < 8.0, "1→8 backends speedup {overall:.2}");
    }

    /// Claim 2: database and backends grow proportionally → response
    /// time is invariant.
    #[test]
    fn response_time_invariant_under_proportional_growth() {
        let mut times = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let query =
                parse_request(&format!("RETRIEVE ((FILE = f) and (f < {})) (*)", 100 * n))
                    .unwrap();
            let mut cluster = Controller::simulated(n, 1, shape_cost());
            load(&mut cluster, 1_000 * n);
            cluster.execute(&query).unwrap();
            times.push(cluster.clock().unwrap().last_response_us());
        }
        let base = times[0];
        for (i, t) in times.iter().enumerate() {
            let ratio = t / base;
            assert!(
                (0.9..=1.25).contains(&ratio),
                "response time drifted at step {i}: ratio {ratio:.3} ({times:?})"
            );
        }
    }

    /// The simulated cluster returns exactly the same answers as a
    /// single store — simulation (and replication) only changes the
    /// clock.
    #[test]
    fn sim_results_match_single_store() {
        let mut single = Store::new();
        single.create_file("f");
        let mut sim = sim(6);
        sim.create_file("f");
        for i in 0..60i64 {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i));
            rec.set("m", Value::Int(i % 7));
            single.execute(&Request::Insert { record: rec.clone() }).unwrap();
            sim.execute(&Request::Insert { record: rec }).unwrap();
        }
        for q in [
            "RETRIEVE ((FILE = f) and (m = 4)) (f)",
            "RETRIEVE (FILE = f) (AVG(f)) BY m",
            "DELETE ((FILE = f) and (m = 0))",
            "RETRIEVE (FILE = f) (COUNT(f))",
        ] {
            let a = single.execute(&parse_request(q).unwrap()).unwrap();
            let b = sim.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(a.records(), b.records(), "for {q}");
            assert_eq!(a.groups, b.groups, "for {q}");
            assert_eq!(a.affected, b.affected, "for {q}");
        }
    }

    /// One broadcast retrieve is one round: the clock charges it once,
    /// by the module's formula, and a reset zeroes it. Only simulated
    /// clusters have a clock.
    #[test]
    fn clock_accumulates_and_resets() {
        let mut cluster = sim(2);
        load(&mut cluster, 100);
        let clock = cluster.clock().unwrap();
        assert_eq!(clock.total_us(), 0.0);
        let resp = cluster.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert!(clock.last_response_us() > 0.0);
        assert_eq!(clock.total_us(), clock.last_response_us());
        // Both backends scanned the whole file (k = 2); each returned
        // all 100 records.
        let cost = CostModel::default();
        let blocks = resp.stats.blocks_touched as f64 / 2.0;
        let want = cost.msg_time_us
            + (blocks * cost.block_time_us + 100.0 * cost.record_time_us)
            + 2.0 * cost.msg_time_us;
        assert_eq!(clock.last_response_us(), want);
        cluster.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(clock.total_us(), 2.0 * want);
        clock.reset();
        assert_eq!((clock.total_us(), clock.last_response_us()), (0.0, 0.0));
        assert!(Controller::new(1).clock().is_none());
    }

    /// A key fetch is charged for the records it returns. Restarting
    /// one of two backends costs exactly the schema round, one fetch
    /// round from its partner per replica group holding it (`[0, 1]`
    /// and `[1, 0]`, 10 records each) and one copy round per record.
    #[test]
    fn a_fetch_round_is_charged_for_the_records_it_returns() {
        let mut cluster = sim(2);
        load(&mut cluster, 20);
        cluster.kill_backend(1);
        let clock = cluster.clock().unwrap();
        clock.reset();
        cluster.restart_backend(1).unwrap();
        let CostModel { block_time_us: block, msg_time_us: msg, record_time_us: record } =
            CostModel::default();
        let schema = msg + msg;
        let fetch = msg + 10.0 * record + msg;
        let copies = 20.0 * (msg + block + msg);
        assert_eq!(clock.total_us(), schema + 2.0 * fetch + copies);
    }

    #[test]
    fn kill_and_restart_mirror_the_threaded_controller() {
        let mut sim = sim(4);
        load(&mut sim, 20);
        sim.kill_backend(2);
        let resp = sim.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "replication keeps every record answerable");
        assert!(!resp.degraded);
        assert_eq!(resp.unavailable_backends, vec![2]);

        let clock = sim.clock().unwrap();
        let before = clock.total_us();
        sim.restart_backend(2).unwrap();
        assert!(clock.total_us() > before, "recovery costs simulated time");
        assert!(!sim.health().degraded);

        // Redundancy is restored: a second, different failure loses
        // nothing.
        sim.kill_backend(3);
        let resp = sim.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "second failure after recovery loses nothing");
        assert!(!resp.degraded);
    }

    #[test]
    fn losing_a_whole_replica_group_is_degraded_not_silent() {
        let mut sim = sim(4);
        load(&mut sim, 20);
        sim.kill_backend(1);
        sim.kill_backend(2);
        let resp = sim.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert!(resp.records().len() < 20);
        assert!(resp.degraded, "partial answers must be flagged");
        assert_eq!(resp.unavailable_backends, vec![1, 2]);
    }

    #[test]
    fn seeded_fault_plans_are_bit_identical_across_runs() {
        let run = || {
            let mut sim = sim(5);
            sim.set_fault_plan(FaultPlan::seeded(7, 5, 40));
            sim.create_file("f");
            let mut out = Vec::new();
            for i in 0..30i64 {
                let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
                rec.set("f", Value::Int(i));
                let _ = sim.execute(&Request::Insert { record: rec });
                if i % 5 == 0 {
                    let resp = sim
                        .execute(&parse_request("RETRIEVE (FILE = f) (COUNT(f))").unwrap())
                        .unwrap();
                    out.push(format!("{:?} {:?}", resp.groups, resp.unavailable_backends));
                }
            }
            out
        };
        assert_eq!(run(), run(), "same seed, same failure schedule, same answers");
    }

    /// Reply faults are judged in virtual time against the reply
    /// window: a delay shorter than the window is only charged, one
    /// spanning a window costs the backend a Suspect step, one longer
    /// than two windows kills it, and a dropped reply misses both.
    #[test]
    fn reply_faults_are_judged_against_the_window_in_virtual_time() {
        let mut sim = sim(3);
        sim.set_reply_timeout(Duration::from_millis(100));
        load(&mut sim, 6);
        let scan = parse_request("RETRIEVE (FILE = f) (*)").unwrap();
        let clock = sim.clock().unwrap();
        sim.execute(&scan).unwrap();
        let base = clock.last_response_us();
        // Each backend holds 4 of the 6 records, so all are equally
        // busy, and has handled 6 messages: the create, 4 inserts and
        // the scan.
        sim.set_fault_plan(FaultPlan::new().with(0, 7, FaultKind::DelayReplyMs(50)));
        sim.execute(&scan).unwrap();
        assert_eq!(clock.last_response_us(), base + 50_000.0, "the delay is charged");
        assert_eq!((sim.alive_count(), sim.exec_totals().reply_timeouts), (3, 0));
        sim.set_fault_plan(
            FaultPlan::new()
                .with(0, 8, FaultKind::DelayReplyMs(250))
                .with(1, 8, FaultKind::DropReply)
                .with(2, 8, FaultKind::DelayReplyMs(150)),
        );
        assert_eq!(sim.execute(&scan).unwrap().records().len(), 4);
        assert_eq!(sim.alive_count(), 1);
        assert_eq!(sim.backend_state(2), crate::BackendState::Alive);
        assert_eq!(sim.exec_totals().reply_timeouts, 2 + 2 + 1);
    }

    /// A durable simulated controller rebuilt from its log equals the
    /// live one: same state digest, key high-water mark and query
    /// answers.
    #[test]
    fn durable_sim_cluster_rebuilds_identically_from_the_log() {
        let log = MemLog::new();
        let mut sim =
            Controller::simulated_durable(4, 2, CostModel::default(), log.clone()).unwrap();
        sim.create_file("f");
        sim.add_unique_constraint("f", vec!["f".to_owned()]);
        for i in 0..15i64 {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i));
            sim.execute(&Request::Insert { record: rec }).unwrap();
        }
        sim.execute(&parse_request("UPDATE ((FILE = f) and (f < 3)) (m = 1)").unwrap())
            .unwrap();
        sim.execute(&parse_request("DELETE ((FILE = f) and (f = 9))").unwrap()).unwrap();
        sim.kill_backend(1);
        sim.restart_backend(1).unwrap();
        let _ = sim.reserve_key();

        let mut back = Controller::simulated_recover(CostModel::default(), log).unwrap();
        assert_eq!(back.state_digest().unwrap(), sim.state_digest().unwrap());
        assert_eq!(back.key_high_water(), sim.key_high_water());
        for q in ["RETRIEVE (FILE = f) (*)", "RETRIEVE (m = 1) (COUNT(f))"] {
            let want = sim.execute(&parse_request(q).unwrap()).unwrap();
            let got = back.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(got.records(), want.records(), "query {q}");
            assert_eq!(got.groups, want.groups, "query {q}");
        }
    }

    /// Snapshots compact the simulated controller's log without
    /// changing recovery.
    #[test]
    fn sim_snapshots_compact_and_preserve_recovery() {
        let log = MemLog::new();
        let mut sim =
            Controller::simulated_durable(3, 2, CostModel::default(), log.clone()).unwrap();
        sim.set_snapshot_every(6);
        sim.create_file("f");
        for i in 0..20i64 {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i));
            sim.execute(&Request::Insert { record: rec }).unwrap();
        }
        assert!(log.log_len() < 20, "snapshots should truncate the log");
        let mut back = Controller::simulated_recover(CostModel::default(), log).unwrap();
        assert_eq!(back.state_digest().unwrap(), sim.state_digest().unwrap());
    }
}
