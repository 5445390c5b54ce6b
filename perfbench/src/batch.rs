//! `batch_1m` and `batch_tcp`: one client hands 64-request batches to
//! `Kernel::execute_batch` — exactly what the service executor hands
//! the controller at full admission — on a 4-backend, k = 2 cluster of
//! unique-keyed rows. 90 % prime-stride point reads, 10 % fresh unique
//! inserts; every 4th batch carries one selective broadcast scan.
//! Every read must return exactly its row, every insert must succeed,
//! and every scan's count must equal the generator's.

use crate::report::{self, Fnv, Outcome};
use crate::trace::{AsController, TracedKernel};
use crate::{secs, Meter, Stop};
use mlds::abdl::prng::Prng;
use mlds::abdl::{ExecTotals, Kernel, Predicate, Query, Record, Request, Response, Value};
use mlds::mbds::Controller;
use std::time::Instant;

const BACKENDS: usize = 4;
const REPLICATION: usize = 2;
/// Requests per batch: the service's admission batch bound.
pub const BATCH: usize = 64;
/// The seeded `v` attribute takes this many values; a scan selects one.
const V_VALUES: u64 = 997;
/// Point-read stride: a prime, so probes scatter over the whole set.
const STRIDE: u64 = 7919;

#[derive(Debug, Clone)]
pub struct Config {
    pub rows: u64,
    pub tcp: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Config {
    pub fn in_process(rows: u64) -> Self {
        Config {
            rows,
            tcp: false,
            setup_repeats: 1,
        }
    }

    pub fn tcp(rows: u64) -> Self {
        Config {
            rows,
            tcp: true,
            setup_repeats: crate::SETUP_REPEATS,
        }
    }
}

/// What the generator knows each request must answer.
enum Expect {
    Row { u: u64, v: u64 },
    Inserted,
    Count(u64),
}

/// The seeded request generator; it also keeps the per-`v` row counts
/// a scan is checked against.
struct Gen {
    rows: u64,
    shift: u64,
    probe: u64,
    next_key: u64,
    batches: u64,
    counts: Vec<u64>,
    rng: Prng,
}

impl Gen {
    fn new(rows: u64, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let shift = rng.next_u64() % V_VALUES;
        let probe = rng.next_u64() % rows;
        let mut counts = vec![0u64; V_VALUES as usize];
        for u in 0..rows {
            counts[Self::seeded_v(u, shift) as usize] += 1;
        }
        Gen {
            rows,
            shift,
            probe,
            next_key: rows,
            batches: 0,
            counts,
            rng,
        }
    }

    fn seeded_v(u: u64, shift: u64) -> u64 {
        (u * 37 + shift) % V_VALUES
    }

    fn row(u: u64, v: u64) -> Request {
        Request::Insert {
            record: Record::from_pairs([("FILE", Value::str("t"))])
                .with("u", Value::Int(u as i64))
                .with("v", Value::Int(v as i64)),
        }
    }

    /// The seed rows, as 64-request batches.
    fn seed_batches(&self) -> impl Iterator<Item = Vec<Request>> + '_ {
        (0..self.rows).step_by(BATCH).map(move |lo| {
            (lo..(lo + BATCH as u64).min(self.rows))
                .map(|u| Self::row(u, Self::seeded_v(u, self.shift)))
                .collect()
        })
    }

    fn batch(&mut self) -> (Vec<Request>, Vec<Expect>) {
        self.batches += 1;
        let scan_at = self
            .batches
            .is_multiple_of(4)
            .then(|| self.rng.index(BATCH));
        let mut reqs = Vec::with_capacity(BATCH);
        let mut expect = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            if i % 10 == 9 {
                let u = self.next_key;
                self.next_key += 1;
                let v = u % V_VALUES;
                self.counts[v as usize] += 1;
                reqs.push(Self::row(u, v));
                expect.push(Expect::Inserted);
            } else if Some(i) == scan_at {
                let v = self.rng.next_u64() % V_VALUES;
                reqs.push(
                    mlds::abdl::parse::parse_request(&format!(
                        "RETRIEVE ((FILE = t) and (v = {v})) (COUNT(u))"
                    ))
                    .expect("static scan request"),
                );
                expect.push(Expect::Count(self.counts[v as usize]));
            } else {
                self.probe = (self.probe + STRIDE) % self.rows;
                let u = self.probe;
                reqs.push(Request::retrieve_all(Query::conjunction(vec![
                    Predicate::eq("FILE", "t"),
                    Predicate::eq("u", Value::Int(u as i64)),
                ])));
                expect.push(Expect::Row {
                    u,
                    v: Self::seeded_v(u, self.shift),
                });
            }
        }
        (reqs, expect)
    }
}

fn check(result: &mlds::abdl::Result<Response>, expect: &Expect) -> bool {
    let Ok(resp) = result else { return false };
    match *expect {
        Expect::Row { u, v } => {
            resp.records().len() == 1
                && *resp.records()[0].1.get_or_null("u") == Value::Int(u as i64)
                && *resp.records()[0].1.get_or_null("v") == Value::Int(v as i64)
        }
        Expect::Inserted => resp.affected == 1,
        Expect::Count(n) => resp
            .groups
            .as_ref()
            .and_then(|g| g.first())
            .and_then(|row| row.values.first())
            .is_some_and(|c| *c == Value::Int(n as i64)),
    }
}

/// Build and seed one cluster; returns it with its seeding seconds.
fn build(cfg: &Config, gen: &Gen) -> Result<(Controller, f64), String> {
    let mut c = if cfg.tcp {
        if mlds::mbds::net::backend_binary().is_none() {
            return Err("mbds-backend binary not found (set MBDS_BACKEND_BIN or build it next to the benchmark)".into());
        }
        Controller::over_tcp(BACKENDS, REPLICATION)
            .map_err(|e| format!("spawning TCP backends: {e}"))?
    } else {
        Controller::with_replication(BACKENDS, REPLICATION)
    };
    c.create_file("t");
    c.add_unique_constraint("t", vec!["u".to_owned()]);
    let (seeded, seed_s) = secs(|| -> Result<(), String> {
        for batch in gen.seed_batches() {
            for r in c.execute_batch(&batch) {
                r.map_err(|e| format!("seed insert: {e}"))?;
            }
        }
        Ok(())
    });
    seeded?;
    Ok((c, seed_s))
}

pub fn run(cfg: &Config, seed: u64, stop: Stop, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        drop(built.take());
        let gen = Gen::new(cfg.rows, seed);
        let (res, s) = secs(|| build(cfg, &gen));
        let (c, seed_s) = res?;
        setups.push(s);
        built = Some((c, seed_s, gen));
    }
    let (c, seed_s, mut gen) = built.expect("at least one set-up");
    out.set("setup_s", report::median(&setups));
    out.note(format!(
        "{} rows on {BACKENDS} {} backends (k = {REPLICATION}); set-up {:.3} s (median of {}: {setups:.3?})",
        cfg.rows,
        if cfg.tcp { "TCP" } else { "in-process" },
        report::median(&setups),
        setups.len()
    ));
    out.set("setup.rows_per_s", cfg.rows as f64 / seed_s);
    let comp = c.directory_compression();
    out.set(
        "directory.bytes_per_entry",
        report::ratio(comp.resident_bytes as f64, comp.entries as f64),
    );
    if trace {
        let mut k = TracedKernel::new(c);
        measure(&mut k, cfg, &mut gen, stop, true, &mut out)?;
    } else {
        let mut c = c;
        measure(&mut c, cfg, &mut gen, stop, false, &mut out)?;
    }
    Ok(out)
}

fn measure<K: Kernel + AsController>(
    k: &mut K,
    cfg: &Config,
    gen: &mut Gen,
    stop: Stop,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let t0 = k.controller().exec_totals();
    let mut meter = Meter::new(stop, trace);
    let mut answers = Fnv::default();
    let (mut reads, mut failed) = (0u64, 0u64);
    let (mut point_us, mut scan_us) = (Vec::new(), Vec::new());
    // The scheduler's counts over the first MIN_OPS batches: the same
    // batches in every run of a seed, so they repeat exactly.
    let mut sched_window: Option<(ExecTotals, u64)> = None;
    while meter.more() {
        let (reqs, expect) = gen.batch();
        let t = Instant::now();
        let s = crate::trace::open("op.batch");
        let results = k.execute_batch(&reqs);
        s.close();
        let lat = t.elapsed();
        meter.done(lat);
        let has_scan = expect.iter().any(|e| matches!(e, Expect::Count(_)));
        if has_scan {
            &mut scan_us
        } else {
            &mut point_us
        }
        .push(lat.as_secs_f64() * 1e6);
        reads += expect
            .iter()
            .filter(|e| matches!(e, Expect::Row { .. }))
            .count() as u64;
        let bad = results
            .iter()
            .zip(&expect)
            .filter(|(r, e)| !check(r, e))
            .count();
        if bad > 0 {
            failed += 1;
            out.note(format!(
                "batch {}: {bad} request(s) failed their check",
                gen.batches
            ));
        }
        for r in &results {
            answers.add(mlds::service::outcome_of(r).as_bytes());
        }
        if meter.total_ops() == crate::MIN_OPS {
            sched_window = Some((k.controller().exec_totals(), reads));
        }
    }
    crate::trace::set_enabled(false);
    let t1 = k.controller().exec_totals();
    let d = delta(&t0, &t1);
    out.attempted = meter.total_ops();
    out.failed = failed;
    meter.report(out, "64-request batch");
    out.note(format!(
        "failed_ratio {} ({failed} of {} batches)",
        report::ratio(failed as f64, out.attempted as f64),
        out.attempted
    ));

    let (ws, w_reads, w_batches) = match sched_window {
        Some((t, r)) => (delta(&t0, &t), r, crate::MIN_OPS as f64),
        None => (d, reads, meter.total_ops() as f64),
    };
    out.set(
        "kernel.messages_per_request",
        report::ratio(d.messages_sent as f64, d.requests as f64),
    );
    out.set(
        "store.examined_per_request",
        report::ratio(d.records_examined as f64, d.requests as f64),
    );
    out.set(
        "sched.flights_per_batch",
        ws.sched_flights as f64 / w_batches,
    );
    out.set("sched.max_flight", ws.sched_max_flight as f64);
    out.set(
        "sched.conflict_stalls_per_batch",
        ws.conflict_stalls as f64 / w_batches,
    );
    out.set(
        "sched.probes_per_read",
        report::ratio(ws.read_probes as f64, w_reads as f64),
    );
    out.set("controller.point_batch_us", mean(&point_us));
    out.set("controller.scan_batch_us", mean(&scan_us));
    if cfg.tcp {
        let busy: f64 = point_us.iter().chain(&scan_us).sum();
        out.set(
            "net.messages_per_request",
            report::ratio(d.messages_sent as f64, d.requests as f64),
        );
        out.set(
            "net.us_per_message",
            report::ratio(busy, d.messages_sent as f64),
        );
        out.set("net.retries", d.retries as f64);
        out.set("net.reply_timeouts", d.reply_timeouts as f64);
    }
    out.note(format!(
        "scheduler over the first {w_batches} batches: {:.4} flights/batch, max flight {}, {:.4} stalls/batch, \
         {:.4} probes/read; {:.3} messages/request; retries {}, reply timeouts {}",
        ws.sched_flights as f64 / w_batches,
        ws.sched_max_flight,
        ws.conflict_stalls as f64 / w_batches,
        report::ratio(ws.read_probes as f64, w_reads as f64),
        report::ratio(d.messages_sent as f64, d.requests as f64),
        d.retries,
        d.reply_timeouts
    ));
    crate::clean_bus(&d)?;
    out.answer_digest = answers.0;
    if let Stop::Ops(_) = stop {
        // The equivalence tests compare final states; a timed run skips
        // this O(rows) read of every backend.
        let digest = k
            .controller()
            .logical_digest()
            .map_err(|e| format!("logical digest: {e}"))?;
        out.state_digest = Fnv::of(&digest);
    }
    out.correct = failed == 0;
    if trace {
        let spans = crate::trace::take();
        let agg = crate::trace::aggregate(&spans);
        let kb = agg.get("kernel.batch").copied().unwrap_or_default();
        out.note(format!(
            "traced: {} kernel.batch spans, mean {:.1} us",
            kb.count,
            kb.mean_us()
        ));
        let name = if cfg.tcp { "batch_tcp" } else { "batch_1m" };
        crate::trace::write_spans(&crate::spans_path(name), &spans)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    report::ratio(v.iter().sum(), v.len() as f64)
}

/// Counter growth between two `ExecTotals` readings.
pub fn delta(a: &ExecTotals, b: &ExecTotals) -> ExecTotals {
    ExecTotals {
        requests: b.requests - a.requests,
        records_examined: b.records_examined - a.records_examined,
        messages_sent: b.messages_sent - a.messages_sent,
        wal_appends: b.wal_appends - a.wal_appends,
        wal_batches: b.wal_batches - a.wal_batches,
        wal_syncs: b.wal_syncs - a.wal_syncs,
        wal_snapshots: b.wal_snapshots - a.wal_snapshots,
        reply_timeouts: b.reply_timeouts - a.reply_timeouts,
        retries: b.retries - a.retries,
        backoff_ms: b.backoff_ms - a.backoff_ms,
        batched_requests: b.batched_requests - a.batched_requests,
        sched_flights: b.sched_flights - a.sched_flights,
        sched_read_flights: b.sched_read_flights - a.sched_read_flights,
        sched_mixed_flights: b.sched_mixed_flights - a.sched_mixed_flights,
        read_probes: b.read_probes - a.read_probes,
        read_probe_failovers: b.read_probe_failovers - a.read_probe_failovers,
        sched_max_flight: b.sched_max_flight,
        conflict_stalls: b.conflict_stalls - a.conflict_stalls,
        wal_max_batch: b.wal_max_batch,
        groups_moved: b.groups_moved - a.groups_moved,
        move_bytes: b.move_bytes - a.move_bytes,
        rebalance_stalls: b.rebalance_stalls - a.rebalance_stalls,
    }
}
