//! The front door with writes beside reads: the second phase of
//! `lang_university`'s traced run, which times the service, ABDL-parse,
//! WAL and recovery layers.
//!
//! Two client threads, one `ServiceSession` each on its own database,
//! through `MldsService::start_sharded` over a durable 4-backend
//! controller whose WAL is a file log (`FileLog`: one fsync per group
//! commit) in a directory unique to the run and removed afterwards.
//! Each database holds 50 000 unique-keyed rows. Each client submits
//! ABDL text: 30 % point RETRIEVE, 40 % unique INSERT, 20 % key-scoped
//! UPDATE, 10 % key-scoped DELETE, always on a key its generator knows
//! to be live (or fresh, for inserts).
//!
//! Oracles: every answer is checked against the generator; a serial
//! replay of the service's admission log on a fresh single-site store
//! must reproduce every `service::outcome_of`; and the controller
//! recovered from the WAL (`Mlds::recover_backend`) must have the live
//! controller's logical digest.

use crate::report::{self, Fnv, Outcome};
use crate::trace::{self, AsController, TracedKernel, TracedLog};
use crate::{secs, Deck, Stop, WorkDir, MIN_OPS};
use mlds::abdl::prng::Prng;
use mlds::abdl::{Kernel, Request, Value};
use mlds::mbds::{Controller, FileLog};
use mlds::service::outcome_of;
use mlds::{Mlds, MldsService, NamespacedKernel, ServiceSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BACKENDS: usize = 4;
const REPLICATION: usize = 2;
const DATABASES: [&str; 2] = ["dba", "dbb"];

#[derive(Debug, Clone)]
pub struct Config {
    /// Seeded rows per database.
    pub rows: u64,
}

impl Config {
    pub fn full() -> Self {
        Config { rows: 50_000 }
    }

    /// A small instance for the equivalence tests.
    pub fn small() -> Self {
        Config { rows: 500 }
    }
}

fn seed_v(u: u64) -> u64 {
    u * 37 % 1000
}

/// Create both databases' file and unique constraint, and seed
/// `rows` rows into each in 64-request batches.
fn load<K: Kernel>(kernel: &mut K, rows: u64) -> Result<(), String> {
    for db in DATABASES {
        let mut ns = NamespacedKernel::new(kernel, db);
        ns.create_file("t");
        ns.add_unique_constraint("t", vec!["u".to_owned()]);
        let reqs: Vec<Request> = (0..rows).map(|u| insert(u, seed_v(u))).collect();
        for chunk in reqs.chunks(64) {
            for r in ns.execute_batch(chunk) {
                r.map_err(|e| format!("seeding {db}: {e}"))?;
            }
        }
    }
    Ok(())
}

fn insert(u: u64, v: u64) -> Request {
    mlds::abdl::parse::parse_request(&format!("INSERT (<FILE, t>, <u, {u}>, <v, {v}>)"))
        .expect("static insert")
}

/// What one client op must answer.
enum Expect {
    Row { u: u64, v: u64 },
    Affected,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Insert,
    Update,
    Delete,
}

/// Per ten requests: 3 point reads, 4 unique inserts, 2 key-scoped
/// updates, 1 key-scoped delete.
const MIX: [Op; 10] = [
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Insert,
    Op::Insert,
    Op::Insert,
    Op::Insert,
    Op::Update,
    Op::Update,
    Op::Delete,
];

/// One client's seeded op stream over its own database, dealt from a
/// [`Deck`] of [`MIX`]. It tracks the live keys (and their `v`) so every
/// op targets a row that exists.
struct Gen {
    rng: Prng,
    mix: Deck<Op>,
    live: Vec<(u64, u64)>,
    next_u: u64,
}

impl Gen {
    fn new(rows: u64, seed: u64, client: u64) -> Self {
        Gen {
            rng: Prng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(client)),
            mix: Deck::new(&MIX),
            live: (0..rows).map(|u| (u, seed_v(u))).collect(),
            next_u: rows,
        }
    }

    /// (ABDL text, expected answer, is a write).
    fn next(&mut self) -> (String, Expect, bool) {
        let op = self.mix.draw(&mut self.rng);
        if matches!(op, Op::Insert) || self.live.is_empty() {
            let u = self.next_u;
            self.next_u += 1;
            let v = self.rng.next_u64() % 1000;
            self.live.push((u, v));
            return (
                format!("INSERT (<FILE, t>, <u, {u}>, <v, {v}>)"),
                Expect::Affected,
                true,
            );
        }
        let i = self.rng.index(self.live.len());
        let (u, v) = self.live[i];
        match op {
            Op::Read => (
                format!("RETRIEVE ((FILE = t) and (u = {u})) (*)"),
                Expect::Row { u, v },
                false,
            ),
            Op::Update => {
                let nv = self.rng.next_u64() % 1000;
                self.live[i].1 = nv;
                (
                    format!("UPDATE ((FILE = t) and (u = {u})) (v = {nv})"),
                    Expect::Affected,
                    true,
                )
            }
            _ => {
                self.live.swap_remove(i);
                (
                    format!("DELETE ((FILE = t) and (u = {u}))"),
                    Expect::Affected,
                    true,
                )
            }
        }
    }
}

/// Per-client tallies; index 0 is untraced, 1 traced.
#[derive(Default)]
struct ClientStats {
    ops: [u64; 2],
    writes: [u64; 2],
    write_bytes: [u64; 2],
    failed: u64,
    answers: Fnv,
    first_failure: Option<String>,
}

fn check(
    result: &mlds::abdl::Result<mlds::abdl::Response>,
    expect: &Expect,
) -> Result<String, String> {
    let resp = result.as_ref().map_err(|e| format!("error {e}"))?;
    match *expect {
        Expect::Row { u, v } => {
            let rows = resp.records();
            if rows.len() == 1
                && *rows[0].1.get_or_null("u") == Value::Int(u as i64)
                && *rows[0].1.get_or_null("v") == Value::Int(v as i64)
            {
                Ok(format!("row {u} {v}"))
            } else {
                Err(format!(
                    "expected row u={u} v={v}, got {} record(s)",
                    rows.len()
                ))
            }
        }
        Expect::Affected if resp.affected == 1 => Ok("affected 1".to_owned()),
        Expect::Affected => Err(format!("expected 1 affected, got {}", resp.affected)),
    }
}

fn client(
    session: ServiceSession,
    mut gen: Gen,
    quota: Option<u64>,
    stop: &AtomicBool,
) -> ClientStats {
    let mut st = ClientStats::default();
    loop {
        let done = st.ops[0] + st.ops[1];
        let finished = match quota {
            Some(q) => done >= q,
            // Past the deadline, run on (untraced) until this client has
            // its half of the MIN_OPS sample floor.
            None => stop.load(Ordering::Relaxed) && done >= MIN_OPS.div_ceil(2),
        };
        if finished {
            break;
        }
        let (text, expect, write) = gen.next();
        let on = trace::enabled();
        if on {
            trace::new_op();
        }
        let result = if on {
            let s = trace::open("abdl.parse");
            let parsed = mlds::abdl::parse::parse_request(&text);
            s.close();
            match parsed {
                Ok(req) => trace::timed("service.submit", || session.submit(req)),
                Err(e) => Err(e),
            }
        } else {
            session.execute_abdl(&text)
        };
        let state = on as usize;
        st.ops[state] += 1;
        if write {
            st.writes[state] += 1;
            st.write_bytes[state] += text.len() as u64;
        }
        match check(&result, &expect) {
            Ok(answer) => st.answers.add(answer.as_bytes()),
            Err(why) => {
                st.failed += 1;
                st.first_failure
                    .get_or_insert_with(|| format!("`{text}`: {why}"));
            }
        }
    }
    st
}

/// The durable system before the service starts: controller (traced
/// or not) over a fresh file WAL in `dir`, both databases seeded.
fn build<K: Kernel>(
    dir: &WorkDir,
    rows: u64,
    wrap: impl Fn(Controller) -> K,
    traced_log: bool,
) -> Result<Mlds<K>, String> {
    let log = FileLog::open(dir.path()).map_err(|e| format!("opening WAL: {e}"))?;
    let c = if traced_log {
        Controller::durable_with(BACKENDS, REPLICATION, TracedLog::new(log))
    } else {
        Controller::durable_with(BACKENDS, REPLICATION, log)
    }
    .map_err(|e| format!("durable controller: {e}"))?;
    let mut m = Mlds::with_kernel(wrap(c));
    load(m.kernel_mut(), rows)?;
    Ok(m)
}

pub fn run(cfg: &Config, seed: u64, stop: Stop, trace_on: bool) -> Result<Outcome, String> {
    if trace_on {
        run_with(cfg, seed, stop, true, TracedKernel::new)
    } else {
        run_with(cfg, seed, stop, false, |c| c)
    }
}

fn run_with<K: Kernel + AsController + Send + 'static>(
    cfg: &Config,
    seed: u64,
    stop: Stop,
    trace_on: bool,
    wrap: impl Fn(Controller) -> K + Copy,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = WorkDir::new("wal").map_err(|e| format!("creating the WAL directory: {e}"))?;
    let (built, setup_s) = secs(|| -> Result<_, String> {
        let mut m = build(&dir, cfg.rows, wrap, trace_on)?;
        let seeded = m.kernel_mut().controller().exec_totals();
        Ok((MldsService::start_sharded(m, 2), seeded))
    });
    let (mut svc, t0) = built?;
    out.note(format!(
        "2 sessions x {} rows on {BACKENDS} durable in-process backends (k = {REPLICATION}, file WAL, \
         fsync per group commit); set-up {setup_s:.3} s",
        cfg.rows
    ));

    let sessions: Vec<ServiceSession> = DATABASES
        .iter()
        .enumerate()
        .map(|(i, db)| svc.open(&format!("user{i}"), db))
        .collect();
    let stop_flag = AtomicBool::new(false);
    let quota = match stop {
        Stop::Ops(n) => Some(n / 2),
        Stop::Seconds(_) => None,
    };
    trace::set_enabled(false);
    let mut phase_secs = [0.0f64; 2];
    let start = Instant::now();
    let stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let gen = Gen::new(cfg.rows, seed, i as u64);
                let s = s.clone();
                let flag = &stop_flag;
                scope.spawn(move || client(s, gen, quota, flag))
            })
            .collect();
        // The main thread owns the clock: it stops the clients and, in
        // a traced run, flips recording every block. It sleeps until
        // the next of those events, so it takes no CPU from the
        // clients and the service in between.
        let mut phase_start = start;
        let mut on = false;
        let deadline = match stop {
            Stop::Seconds(limit) => Some(start + Duration::from_secs_f64(limit)),
            Stop::Ops(_) => None,
        };
        loop {
            let now = Instant::now();
            let over = match deadline {
                Some(d) => now >= d,
                None => handles.iter().all(|h| h.is_finished()),
            };
            if over {
                break;
            }
            if trace_on && now.duration_since(phase_start) >= stop.trace_block() {
                phase_secs[on as usize] += now.duration_since(phase_start).as_secs_f64();
                phase_start = now;
                on = !on;
                trace::set_enabled(on);
            }
            let mut wake = deadline.unwrap_or(now + Duration::from_millis(1));
            if trace_on {
                wake = wake.min(phase_start + stop.trace_block());
            }
            std::thread::sleep(wake.saturating_duration_since(now));
        }
        // Clients still short of the sample floor finish untraced.
        phase_secs[on as usize] += phase_start.elapsed().as_secs_f64();
        phase_start = Instant::now();
        on = false;
        trace::set_enabled(false);
        stop_flag.store(true, Ordering::Relaxed);
        let stats: Vec<ClientStats> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        phase_secs[on as usize] += phase_start.elapsed().as_secs_f64();
        stats
    });
    drop(sessions);
    let (mut live, admissions) = svc.into_parts();
    let spans = if trace_on { trace::take() } else { Vec::new() };

    let ops: [u64; 2] = [
        stats.iter().map(|s| s.ops[0]).sum(),
        stats.iter().map(|s| s.ops[1]).sum(),
    ];
    if trace_on {
        let untraced = report::ratio(ops[0] as f64, phase_secs[0]);
        let traced = report::ratio(ops[1] as f64, phase_secs[1]);
        out.set("trace.overhead_ratio", report::ratio(traced, untraced));
        out.note(format!(
            "traced {traced:.1} ops/s ({} requests in {:.2} s) vs untraced {untraced:.1} ops/s ({} in {:.2} s)",
            ops[1], phase_secs[1], ops[0], phase_secs[0]
        ));
    } else {
        out.note(format!("{} requests in {:.2} s", ops[0], phase_secs[0]));
    }

    // Oracle 1: the generator's expected answers.
    let mut failed: u64 = stats.iter().map(|s| s.failed).sum();
    for s in &stats {
        if let Some(f) = &s.first_failure {
            out.note(format!("client check failed: {f}"));
        }
    }
    // Oracle 2: serial replay of the admission log on a fresh
    // single-site store seeded identically.
    let mut serial = mlds::abdl::Store::new();
    load(&mut serial, cfg.rows)?;
    let mut diverged = 0u64;
    for (i, entry) in admissions.admissions.iter().enumerate() {
        let got =
            outcome_of(&NamespacedKernel::new(&mut serial, &entry.db).execute(&entry.request));
        if got != entry.outcome {
            diverged += 1;
            if diverged <= 3 {
                out.note(format!(
                    "admission {i} ({:?}): live `{}`, serial replay `{got}`",
                    entry.request, entry.outcome
                ));
            }
        }
    }
    out.note(format!(
        "serial replay of {} admissions: {diverged} diverged",
        admissions.admissions.len()
    ));
    failed += diverged;

    let totals = crate::batch::delta(&t0, &live.kernel_mut().controller().exec_totals());
    crate::clean_bus(&totals)?;
    let writes: u64 = stats.iter().map(|s| s.writes[0] + s.writes[1]).sum();

    // Oracle 3: recovery reproduces the live logical digest.
    let live_digest = live
        .kernel_mut()
        .controller()
        .logical_digest()
        .map_err(|e| format!("live digest: {e}"))?;
    out.state_digest = rows_digest(live.kernel_mut())?;
    drop(live);
    let (recovered, recovery_s) = secs(|| Mlds::recover_backend(dir.path()));
    let mut recovered = recovered.map_err(|e| format!("recovering from the WAL: {e}"))?;
    let rec_digest = recovered
        .kernel_mut()
        .logical_digest()
        .map_err(|e| format!("recovered digest: {e}"))?;
    drop(recovered);
    let recovery_ok = rec_digest == live_digest;
    if !recovery_ok {
        failed += 1;
        out.note("recovered logical digest differs from the live one");
    }
    out.set("recovery_s", recovery_s);
    out.note(format!(
        "recovery {recovery_s:.3} s, logical digest {}",
        if recovery_ok { "matches" } else { "DIFFERS" }
    ));

    out.attempted = ops[0] + ops[1];
    out.failed = failed;
    out.correct = failed == 0;
    out.note(format!(
        "failed_ratio {}",
        report::ratio(failed as f64, out.attempted as f64)
    ));
    let mut answers = Fnv::default();
    for s in &stats {
        answers.add(&s.answers.0.to_le_bytes());
    }
    out.answer_digest = answers.0;

    out.set(
        "kernel.messages_per_request",
        report::ratio(totals.messages_sent as f64, totals.requests as f64),
    );
    out.set(
        "store.examined_per_request",
        report::ratio(totals.records_examined as f64, totals.requests as f64),
    );
    out.set(
        "wal.syncs_per_write",
        report::ratio(totals.wal_syncs as f64, writes as f64),
    );
    if trace_on {
        let agg = trace::aggregate(&spans);
        let get = |n: &str| agg.get(n).copied().unwrap_or_default();
        let (batch, append, submit) = (
            get("kernel.batch"),
            get("wal.append"),
            get("service.submit"),
        );
        out.set("abdl.parse_us", get("abdl.parse").mean_us());
        out.set(
            "service.batch_size",
            report::ratio(batch.n as f64, batch.count as f64),
        );
        out.set("service.exec_us", batch.mean_us());
        out.set("service.wait_us", submit.mean_us() - batch.mean_us());
        out.set("wal.append_us", append.mean_us());
        out.set(
            "wal.records_per_batch",
            report::ratio(append.n as f64, append.count as f64),
        );
        let traced_writes: u64 = stats.iter().map(|s| s.writes[1]).sum();
        let user_bytes: u64 = stats.iter().map(|s| s.write_bytes[1]).sum();
        out.set(
            "wal.bytes_per_write",
            report::ratio(append.x as f64, traced_writes as f64),
        );
        out.set(
            "wal.bytes_per_user_byte",
            report::ratio(append.x as f64, user_bytes as f64),
        );
        out.note(format!(
            "service: {:.2} requests/batch, exec {:.1} us, submit {:.1} us; WAL: {} appends, {:.1} us each, \
             {:.2} lines each, {:.1} B/write",
            report::ratio(batch.n as f64, batch.count as f64),
            batch.mean_us(),
            submit.mean_us(),
            append.count,
            append.mean_us(),
            report::ratio(append.n as f64, append.count as f64),
            report::ratio(append.x as f64, traced_writes as f64)
        ));
        trace::write_spans(&crate::spans_path("front_door"), &spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        // Replay through the traced log: the time recovery spends
        // outside the log store's reads is replay proper.
        let (c, replay_total) = secs(|| {
            trace::set_enabled(true);
            let c = FileLog::open(dir.path())
                .and_then(|log| Controller::recover_with(TracedLog::new(log)));
            trace::set_enabled(false);
            c
        });
        drop(c.map_err(|e| format!("traced recovery: {e}"))?);
        let reads = trace::aggregate(&trace::take())
            .get("wal.read")
            .copied()
            .unwrap_or_default();
        out.set("wal.replay_s", replay_total - reads.total_ns as f64 / 1e9);
        out.set("wal.read_s", reads.total_ns as f64 / 1e9);
    }
    drop(dir);
    Ok(out)
}

/// A key-free digest of both databases' rows (sorted `(u, v)` pairs):
/// database keys interleave between the two concurrent clients, row
/// contents do not.
fn rows_digest<K: Kernel>(kernel: &mut K) -> Result<u64, String> {
    let mut h = Fnv::default();
    for db in DATABASES {
        let all =
            mlds::abdl::parse::parse_request("RETRIEVE (FILE = t) (*)").expect("static request");
        let resp = NamespacedKernel::new(kernel, db)
            .execute(&all)
            .map_err(|e| format!("reading {db}: {e}"))?;
        let mut rows: Vec<String> = resp
            .records()
            .iter()
            .map(|(_, r)| format!("{} {}", r.get_or_null("u"), r.get_or_null("v")))
            .collect();
        rows.sort_unstable();
        h.add(db.as_bytes());
        for r in rows {
            h.add(r.as_bytes());
        }
    }
    Ok(h.0)
}
