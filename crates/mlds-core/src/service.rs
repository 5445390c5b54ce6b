//! The concurrent front door: a multi-session service over one MLDS.
//!
//! The 1987 system is described as serving "numerous databases" to
//! many users at once, but [`Mlds`](crate::Mlds) itself is a
//! single-threaded value: every `execute_*` call borrows it mutably.
//! [`MldsService`] lifts that restriction without touching the kernel
//! borrow discipline. It moves the whole `Mlds` into an executor
//! thread and hands out [`ServiceSession`] handles that are `Send` —
//! each session submits ABDL requests over a channel and blocks on a
//! private reply channel.
//!
//! The concurrency win comes from *admission batching*: when several
//! sessions have requests queued at once, they are drained together,
//! each mapped through its session's database [`Namespace`], and the
//! whole group is handed to [`Kernel::execute_batch`] in one call. On
//! the multi-backend controller that means the batch scheduler keeps
//! non-conflicting requests in flight on the backend bus together and
//! the WAL group-commits every append under a single sync — the two
//! costs that dominate a one-at-a-time front door.
//!
//! Admission is one pipeline of N shard workers feeding one executor
//! ([`start`](MldsService::start) is the pipeline with one worker).
//! Each worker owns a disjoint slice of the database namespace
//! (sessions are routed to the worker that owns their database at open
//! time), drains its own queue and namespace-maps its runs, so at high
//! session counts the mapping work runs in parallel. The executor owns
//! the `Mlds` and concatenates runs from different shards into one
//! [`Kernel::execute_batch`] call, so the cross-session group commit
//! and flight scheduling span shards. Per-worker channel ordering keeps
//! every session's open-before-submit and submission-order guarantees.
//!
//! Every executed request is also recorded in the **admission log**
//! (session id, database, session-level request, normalized outcome),
//! in the executor's concatenation order. Replaying that log serially
//! on an identically-configured fresh system must reproduce every
//! outcome and the same final state — the equivalence bar that
//! `tests/concurrent_equivalence.rs` pins.

use crate::namespace::Namespace;
use crate::system::Mlds;
use abdl::{Error, Kernel, Request, Response};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

/// Most jobs a worker or the executor will drain into one admission
/// batch.
/// Bounds per-batch latency; the controller's scheduler decides how
/// much of the batch actually flies concurrently.
const MAX_BATCH: usize = 64;

/// One admitted request, recorded in admission order.
#[derive(Debug, Clone)]
pub struct AdmissionEntry {
    /// Session that submitted the request.
    pub session: u64,
    /// Database the session was connected to.
    pub db: String,
    /// The session-level (unprefixed) request.
    pub request: Request,
    /// Normalized outcome observed by the live run — compare against
    /// [`outcome_of`] on a serial replay.
    pub outcome: String,
}

/// Per-session activity counters, for the shell's `.sessions` view.
#[derive(Debug, Clone)]
pub struct SessionStat {
    /// Session id (service-unique, in open order).
    pub id: u64,
    /// User id given at open.
    pub uid: String,
    /// Database the session is scoped to.
    pub db: String,
    /// Requests executed on behalf of this session.
    pub requests: u64,
    /// Of those, how many returned an error.
    pub errors: u64,
}

/// Everything the executor hands back when the service stops.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Every executed request, in admission order.
    pub admissions: Vec<AdmissionEntry>,
    /// Per-session counters, in open order.
    pub sessions: Vec<SessionStat>,
}

/// Normalize a request outcome for order-equivalence comparison:
/// enough to distinguish any semantically different result, nothing
/// that varies between a concurrent and a serial run of the same
/// admission order.
pub fn outcome_of(result: &abdl::Result<Response>) -> String {
    match result {
        Ok(r) => {
            let mut keys: Vec<u64> = r.records().iter().map(|(k, _)| k.0).collect();
            keys.sort_unstable();
            format!(
                "ok affected={} records={:?} groups={}",
                r.affected,
                keys,
                r.groups.as_ref().map_or(0, Vec::len),
            )
        }
        Err(e) => format!("err {e}"),
    }
}

enum Job {
    Open { id: u64, uid: String, db: String, ack: Sender<()> },
    Exec { id: u64, request: Request, reply: Sender<abdl::Result<Response>> },
    Stop,
}

/// One Exec job a shard worker has already namespace-mapped, ready for
/// the executor to run.
struct MappedJob {
    id: u64,
    /// The session-level (unprefixed) request, for the admission log.
    request: Request,
    /// The namespace-mapped request handed to the kernel.
    mapped: Request,
    ns: Namespace,
    reply: Sender<abdl::Result<Response>>,
}

/// Worker → executor traffic. A single mpsc receiver preserves each
/// worker's send order, which is all the protocol needs: a session's
/// `Open` always precedes its runs because both pass through the same
/// worker.
enum ShardMsg {
    Open { id: u64, uid: String, db: String, ack: Sender<()> },
    Run(Vec<MappedJob>),
    WorkerDone,
}

/// The shard a database's sessions are admitted through: a fixed FNV-1a
/// hash, so the mapping is stable across runs and every session of one
/// database lands on the same worker (disjoint namespace slices).
fn shard_of(db: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in db.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A `Send` handle onto one open session of a running [`MldsService`].
///
/// Cloning is cheap; clones share the session (same id, same database,
/// same counters).
#[derive(Clone)]
pub struct ServiceSession {
    id: u64,
    db: String,
    tx: Sender<Job>,
}

impl ServiceSession {
    /// The service-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The database this session is scoped to.
    pub fn database(&self) -> &str {
        &self.db
    }

    /// Submit one ABDL request and block for its response. Safe to
    /// call from any thread; concurrent submitters from different
    /// sessions are admitted as one batch.
    pub fn submit(&self, request: Request) -> abdl::Result<Response> {
        let (rtx, rrx) = channel();
        self.tx
            .send(Job::Exec { id: self.id, request, reply: rtx })
            .map_err(|_| Error::Unavailable("service stopped".into()))?;
        rrx.recv().map_err(|_| Error::Unavailable("service stopped".into()))?
    }

    /// Parse `text` as one ABDL request and submit it.
    pub fn execute_abdl(&self, text: &str) -> abdl::Result<Response> {
        self.submit(abdl::parse::parse_request(text)?)
    }
}

/// A running multi-session service wrapping one [`Mlds`].
///
/// Construct the `Mlds` first (create databases, load schemas), then
/// [`start`](MldsService::start) it. The service owns the system until
/// [`into_parts`](MldsService::into_parts) hands it back along with
/// the admission log.
pub struct MldsService<K: Kernel + Send + 'static> {
    /// One admission queue per shard worker.
    txs: Vec<Sender<Job>>,
    /// Shard worker threads.
    workers: Vec<JoinHandle<()>>,
    handle: JoinHandle<(Mlds<K>, ServiceReport)>,
    next_id: u64,
}

impl<K: Kernel + Send + 'static> MldsService<K> {
    /// Move `mlds` into an executor thread and start serving through
    /// one admission worker.
    pub fn start(mlds: Mlds<K>) -> Self {
        MldsService::start_sharded(mlds, 1)
    }

    /// Like [`start`](MldsService::start), but admission is sharded:
    /// `shards` workers each own a disjoint slice of the database
    /// namespace and drain + namespace-map their sessions' requests in
    /// parallel, feeding one executor thread that owns the `Mlds` and
    /// batches mapped runs across shards into single
    /// `execute_batch` calls (cross-shard group commit).
    pub fn start_sharded(mlds: Mlds<K>, shards: usize) -> Self {
        let shards = shards.max(1);
        let (exec_tx, exec_rx) = channel();
        let handle = std::thread::spawn(move || sharded_executor(mlds, exec_rx, shards));
        let mut txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            let exec_tx = exec_tx.clone();
            workers.push(std::thread::spawn(move || shard_worker(rx, exec_tx)));
            txs.push(tx);
        }
        MldsService { txs, workers, handle, next_id: 0 }
    }

    /// The number of admission shards (1 for [`start`](MldsService::start)).
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// Open a session for `uid` against database `db`. The handle is
    /// `Send` and may be moved to (or cloned across) worker threads.
    pub fn open(&mut self, uid: &str, db: &str) -> ServiceSession {
        self.next_id += 1;
        let id = self.next_id;
        let tx = self.txs[shard_of(db, self.txs.len())].clone();
        let (ack_tx, ack_rx) = channel();
        // The executor owns the session table; wait for its ack so a
        // session can never race ahead of its own registration.
        let _ = tx.send(Job::Open {
            id,
            uid: uid.to_owned(),
            db: db.to_owned(),
            ack: ack_tx,
        });
        let _ = ack_rx.recv();
        ServiceSession { id, db: db.to_owned(), tx }
    }

    /// Stop the service and reclaim the `Mlds` plus the admission
    /// log and per-session counters. Outstanding sessions' submits
    /// fail with [`Error::Unavailable`] afterwards.
    pub fn into_parts(self) -> (Mlds<K>, ServiceReport) {
        for tx in &self.txs {
            let _ = tx.send(Job::Stop);
        }
        for w in self.workers {
            let _ = w.join();
        }
        self.handle.join().expect("service executor panicked")
    }
}

/// One admission shard: drains its own queue, namespace-maps runs of
/// Exec jobs (the parallelizable part of admission), and forwards them
/// to the executor. Owns the namespaces of every session routed here.
fn shard_worker(rx: Receiver<Job>, exec_tx: Sender<ShardMsg>) {
    let mut registry: HashMap<u64, Namespace> = HashMap::new();
    'serve: loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let mut jobs = vec![first];
        while jobs.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        while !jobs.is_empty() {
            if matches!(jobs[0], Job::Exec { .. }) {
                let mut j = 1;
                while j < jobs.len() && matches!(jobs[j], Job::Exec { .. }) {
                    j += 1;
                }
                let mut mapped = Vec::with_capacity(j);
                for job in jobs.drain(..j) {
                    let Job::Exec { id, request, reply } = job else { unreachable!() };
                    let Some(ns) = registry.get(&id) else {
                        let _ = reply
                            .send(Err(Error::Unavailable(format!("unknown session {id}"))));
                        continue;
                    };
                    mapped.push(MappedJob {
                        id,
                        mapped: ns.map_request_in(&request),
                        request,
                        ns: ns.clone(),
                        reply,
                    });
                }
                if !mapped.is_empty() && exec_tx.send(ShardMsg::Run(mapped)).is_err() {
                    break 'serve;
                }
                continue;
            }
            match jobs.remove(0) {
                Job::Open { id, uid, db, ack } => {
                    registry.insert(id, Namespace::new(&db));
                    // The executor acks after registering the session
                    // stat, so `open` still can't race registration.
                    if exec_tx.send(ShardMsg::Open { id, uid, db, ack }).is_err() {
                        break 'serve;
                    }
                }
                Job::Stop => break 'serve,
                Job::Exec { .. } => unreachable!(),
            }
        }
    }
    let _ = exec_tx.send(ShardMsg::WorkerDone);
}

/// The sharded service's kernel thread: owns the `Mlds`, concatenates
/// mapped runs from all shard workers into cross-shard admission
/// batches, and keeps the admission log. Exits once every worker has
/// reported done.
fn sharded_executor<K: Kernel>(
    mut mlds: Mlds<K>,
    rx: Receiver<ShardMsg>,
    workers: usize,
) -> (Mlds<K>, ServiceReport) {
    let mut report = ServiceReport::default();
    // id → index into report.sessions
    let mut slots: HashMap<u64, usize> = HashMap::new();
    let mut live = workers;
    let open = |report: &mut ServiceReport,
                    slots: &mut HashMap<u64, usize>,
                    id: u64,
                    uid: String,
                    db: String,
                    ack: Sender<()>| {
        slots.insert(id, report.sessions.len());
        report.sessions.push(SessionStat { id, uid, db, requests: 0, errors: 0 });
        let _ = ack.send(());
    };
    while live > 0 {
        let msg = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => break,
        };
        let mut batch = match msg {
            ShardMsg::Open { id, uid, db, ack } => {
                open(&mut report, &mut slots, id, uid, db, ack);
                continue;
            }
            ShardMsg::WorkerDone => {
                live -= 1;
                continue;
            }
            ShardMsg::Run(run) => run,
        };
        // Concatenate whatever other shards have queued meanwhile:
        // their namespace slices are disjoint, so the combined batch
        // flies well and group-commits under one sync. Opens drained
        // along the way are registered immediately (order with this
        // batch is irrelevant: a session's own Open always precedes
        // its runs on the same worker channel).
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(ShardMsg::Run(run)) => batch.extend(run),
                Ok(ShardMsg::Open { id, uid, db, ack }) => {
                    open(&mut report, &mut slots, id, uid, db, ack);
                }
                Ok(ShardMsg::WorkerDone) => live -= 1,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        let mapped: Vec<Request> = batch.iter().map(|m| m.mapped.clone()).collect();
        let results = mlds.kernel_mut().execute_batch(&mapped);
        for (job, result) in batch.into_iter().zip(results) {
            let result = result.map(|r| job.ns.map_response_out(r));
            let slot = slots[&job.id];
            let stat = &mut report.sessions[slot];
            stat.requests += 1;
            if result.is_err() {
                stat.errors += 1;
            }
            report.admissions.push(AdmissionEntry {
                session: job.id,
                db: stat.db.clone(),
                request: job.request,
                outcome: outcome_of(&result),
            });
            let _ = job.reply.send(result);
        }
    }
    (mlds, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::Value;
    use std::sync::{Arc, Barrier};

    fn seeded_mlds() -> Mlds {
        let mut mlds = Mlds::single_backend();
        let k = mlds.kernel_mut();
        let mut ns = crate::NamespacedKernel::new(k, "db");
        ns.create_file("t");
        ns.add_unique_constraint("t", vec!["t".into()]);
        mlds
    }

    #[test]
    fn sessions_execute_and_the_admission_log_replays() {
        let mut svc = MldsService::start(seeded_mlds());
        let a = svc.open("alice", "db");
        let b = svc.open("bob", "db");
        a.execute_abdl("INSERT (<FILE, t>, <t, 1>)").unwrap();
        b.execute_abdl("INSERT (<FILE, t>, <t, 2>)").unwrap();
        let dup = b.execute_abdl("INSERT (<FILE, t>, <t, 1>)");
        assert!(matches!(dup, Err(Error::DuplicateKey { .. })));
        let resp = a.execute_abdl("RETRIEVE (FILE = t) (*)").unwrap();
        assert_eq!(resp.records().len(), 2);
        assert_eq!(resp.records()[0].1.file(), Some("t"), "namespace stripped");

        let (_mlds, report) = svc.into_parts();
        assert_eq!(report.admissions.len(), 4);
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.sessions[0].uid, "alice");
        assert_eq!(report.sessions[1].requests, 2);
        assert_eq!(report.sessions[1].errors, 1);

        // Serial replay on a fresh system reproduces every outcome.
        let mut fresh = seeded_mlds();
        for entry in &report.admissions {
            let mut ns = crate::NamespacedKernel::new(fresh.kernel_mut(), &entry.db);
            let result = ns.execute(&entry.request);
            assert_eq!(outcome_of(&result), entry.outcome);
        }
    }

    #[test]
    fn concurrent_sessions_from_many_threads() {
        let mut svc = MldsService::start(seeded_mlds());
        let barrier = Arc::new(Barrier::new(8));
        let mut joins = Vec::new();
        for s in 0..8u64 {
            let session = svc.open(&format!("u{s}"), "db");
            let barrier = barrier.clone();
            joins.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..10u64 {
                    let key = (s * 100 + i) as i64;
                    let mut rec =
                        abdl::Record::from_pairs([("FILE", Value::str("t"))]);
                    rec.set("t".to_owned(), Value::Int(key));
                    session.submit(Request::Insert { record: rec }).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let (mut mlds, report) = svc.into_parts();
        assert_eq!(report.admissions.len(), 80);
        let mut ns = crate::NamespacedKernel::new(mlds.kernel_mut(), "db");
        let resp = ns
            .execute(&abdl::parse::parse_request("RETRIEVE (FILE = t) (*)").unwrap())
            .unwrap();
        assert_eq!(resp.records().len(), 80, "every session's inserts landed");
    }

    fn seeded_multi_db() -> Mlds {
        let mut mlds = Mlds::single_backend();
        for db in ["dbx", "dby", "dbz"] {
            let k = mlds.kernel_mut();
            let mut ns = crate::NamespacedKernel::new(k, db);
            ns.create_file("t");
            ns.add_unique_constraint("t", vec!["t".into()]);
        }
        mlds
    }

    #[test]
    fn sharded_sessions_execute_and_the_admission_log_replays() {
        let mut svc = MldsService::start_sharded(seeded_multi_db(), 3);
        assert_eq!(svc.shards(), 3);
        let barrier = Arc::new(Barrier::new(9));
        let mut joins = Vec::new();
        for s in 0..9u64 {
            let db = ["dbx", "dby", "dbz"][(s % 3) as usize];
            let session = svc.open(&format!("u{s}"), db);
            let barrier = barrier.clone();
            joins.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..10u64 {
                    let key = (s * 100 + i) as i64;
                    let mut rec = abdl::Record::from_pairs([("FILE", Value::str("t"))]);
                    rec.set("t".to_owned(), Value::Int(key));
                    session.submit(Request::Insert { record: rec }).unwrap();
                    if i % 3 == 0 {
                        let resp = session
                            .execute_abdl(&format!("RETRIEVE ((t = {key})) (*)"))
                            .unwrap();
                        assert_eq!(resp.records().len(), 1);
                        assert_eq!(resp.records()[0].1.file(), Some("t"), "namespace stripped");
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let (mut mlds, report) = svc.into_parts();
        assert_eq!(report.admissions.len(), 9 * 14);
        assert_eq!(report.sessions.len(), 9);

        // Every database holds exactly its three sessions' inserts.
        for db in ["dbx", "dby", "dbz"] {
            let mut ns = crate::NamespacedKernel::new(mlds.kernel_mut(), db);
            let resp = ns
                .execute(&abdl::parse::parse_request("RETRIEVE (FILE = t) (*)").unwrap())
                .unwrap();
            assert_eq!(resp.records().len(), 30);
        }

        // Serial replay of the admission log on a fresh system
        // reproduces every outcome.
        let mut fresh = seeded_multi_db();
        for entry in &report.admissions {
            let mut ns = crate::NamespacedKernel::new(fresh.kernel_mut(), &entry.db);
            let result = ns.execute(&entry.request);
            assert_eq!(outcome_of(&result), entry.outcome);
        }
    }

    #[test]
    fn sharding_routes_a_database_to_one_worker() {
        // Same db → same shard, regardless of session; shard ids stay
        // in range for any shard count.
        for shards in 1..8 {
            for db in ["dbx", "dby", "dbz", "spawn"] {
                let s = shard_of(db, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(db, shards));
            }
        }
    }

    #[test]
    fn submitting_after_stop_reports_unavailable() {
        let mut svc = MldsService::start(seeded_mlds());
        let s = svc.open("u", "db");
        let _ = svc.into_parts();
        assert!(matches!(
            s.execute_abdl("RETRIEVE (FILE = t) (*)"),
            Err(Error::Unavailable(_))
        ));
    }
}
