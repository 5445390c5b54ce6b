//! The backend controller (the "master") and the links to its
//! backends (the "slaves").
//!
//! Beyond the 1987 design — a controller broadcasting to N backends
//! with private, unreplicated partitions — this controller adds the
//! availability machinery a production deployment needs:
//!
//! * **k-way replicated placement** (default k = 2): every insert goes
//!   to a replica group chosen by the [`Partitioner`]; reads are
//!   broadcast, merged, and deduplicated by database key, so replicated
//!   answers are byte-identical to a single store's.
//! * **failure detection** via reply sequence numbers, reply windows
//!   and the per-backend [`HealthBoard`] (Alive → Suspect → Dead);
//!   requests are retried on survivors instead of erroring.
//! * **recovery**: [`Controller::restart_backend`] respawns a backend
//!   and re-replicates its lost records from surviving replicas.
//! * **degraded-mode reporting**: every response carries `degraded` and
//!   `unavailable_backends`, and [`Kernel::health`] exposes the board.
//! * **deterministic fault injection** ([`FaultPlan`]) applied inside
//!   each backend's message step, for reproducible availability
//!   experiments.
//!
//! The controller never names its transport. Each backend is reached
//! through one [`Link`] — worker threads on the channel bus or
//! `mbds-backend` processes over TCP (chosen by `MBDS_TRANSPORT`), or
//! in-memory backends on a cost-model clock (the `simulated`
//! constructors, [`crate::sim`]) — and the links are spawned and
//! attached through the shared [`Cluster`] handle; see [`crate::link`].
//!
//! [`Partitioner`]: crate::Partitioner
//! [`HealthBoard`]: crate::HealthBoard

use crate::fault::FaultPlan;
use crate::health::BackendState;
use crate::link::{Cluster, Link, Stamp, Window};
use crate::net::{WireOp, REPLY_CACHE};
use crate::rebalance;
use crate::sim::{CostModel, SimClock};
use crate::state::{check_config, file_scan, ClusterState};
use crate::wal::{FileLog, LogRecord, LogStore, SnapshotData, Wal};
use abdl::engine::aggregate;
use abdl::{
    DbKey, Error, ExecTotals, Kernel, KernelHealth, Record, Request, Response, Result, Transaction,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Default replica count per record (clamped to the backend count).
pub const DEFAULT_REPLICATION: usize = 2;

/// Default number of retransmissions the socket transport attempts
/// inside one reply window before letting the health board demote the
/// backend (the in-process channel bus is lossless and never retries).
pub const DEFAULT_RETRY_BUDGET: u32 = 3;

/// A stable client identity for idempotent request ids: constant
/// across reconnects of one controller, distinct across controllers
/// (and across promoted incarnations), so the backends' reply caches
/// never mix two senders' sequence spaces.
fn next_client_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    ((std::process::id() as u64) << 32) | NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What a read sends. Partial aggregates do not merge (AVG), so an
/// aggregate goes out as the raw retrieve and is aggregated in phase 3.
fn read_wire(request: &Request) -> Cow<'_, Request> {
    match request {
        Request::Retrieve { query, target, .. } if target.has_aggregates() => {
            Cow::Owned(Request::retrieve_all(query.clone()))
        }
        _ => Cow::Borrowed(request),
    }
}

/// One flight member's state between the batch scheduler's staging
/// (send) and collection (reply) phases — see
/// `Controller::execute_flight`.
struct StagedInsert {
    key: DbKey,
    file: String,
    seq: u64,
    /// Backends the staged wave reached.
    sent: Vec<usize>,
    /// Backends that acknowledged the write.
    assigned: Vec<usize>,
    /// First error any wave member returned (drained, as always).
    err: Option<Error>,
    /// Placement scan cursor: substitute waves continue where the
    /// staged wave stopped.
    primary: usize,
    scanned: usize,
    /// Backend messages attributed to this member's response.
    msgs: u64,
}

/// One read flight member's state between the batch scheduler's
/// staging (send) and collection (reply) phases — the read-side
/// counterpart of [`StagedInsert`].
struct StagedRead {
    seq: u64,
    /// Backends the round reached.
    sent: Vec<usize>,
    /// Untried replicas that can each answer the whole probe, in
    /// failover order (empty for non-probe reads).
    fallback: Vec<usize>,
    /// Merged partial responses collected so far.
    merged: Response,
    /// First error any contacted backend returned (the round is always
    /// fully drained first).
    err: Option<Error>,
    /// A contacted backend died before answering. For a probe the
    /// merged answer is missing entirely and phase 3 fails over to a
    /// replica; for a routed round the survivors carry the answer
    /// (degraded-mode reporting covers the rest).
    lost: bool,
    /// True when this member went out as a single-backend probe.
    probe: bool,
    /// Backend messages attributed to this member's response.
    msgs: u64,
}

/// A flight member's in-flight state, same position as its item.
enum Staged {
    Insert(Result<StagedInsert>),
    Read(Box<StagedRead>),
}

/// The MBDS controller: owns the backends, assigns database keys,
/// places inserted records on replica groups, broadcasts everything
/// else and merges (and deduplicates) the partial responses.
pub struct Controller {
    /// Placement, index, membership and log — the bookkeeping a
    /// standby's mirror hands over by value at promotion.
    pub(crate) state: ClusterState,
    /// One link per backend, by index.
    backends: Vec<Box<dyn Link>>,
    next_seq: u64,
    /// Some link holds queued messages not yet flushed.
    unflushed: bool,
    /// This controller's epoch: 0 for a fresh controller, higher for
    /// one installed by standby promotion. Stamped into every WAL line
    /// and backend message.
    epoch: u64,
    /// The fence, fault plan, reply window and backend table, shared
    /// with any standby. `restart_backend` replaces a slot in place, so
    /// a standby attached before the restart still promotes onto the
    /// *current* backend.
    cluster: Cluster,
    degraded_cache: bool,
    pub(crate) degraded_dirty: bool,
    /// Key-scoped single-backend probes sent, per backend — how evenly
    /// the point-read load spreads across replica groups.
    read_probes_by_backend: Vec<u64>,
    /// Lifetime execution counters (requests, messages, examined).
    pub(crate) totals: ExecTotals,
    /// Records relocated per WAL bracket: large groups move as a
    /// sequence of bounded chunks so a pump step never stalls a
    /// foreground request behind a whole-group copy.
    pub(crate) move_chunk: usize,
    /// Retransmissions attempted per reply window on a lossy link (the
    /// channel bus never retries).
    retry_budget: u32,
    /// This controller's wire identity, constant across re-dials.
    client_id: u64,
}

impl Controller {
    /// Spawn a controller with `n` backend threads and the default
    /// replication factor (2, clamped to `n`).
    pub fn new(n: usize) -> Self {
        Controller::with_replication(n, DEFAULT_REPLICATION.min(n))
    }

    /// Spawn a controller with `n` backends and an unreplicated layout
    /// (k = 1): the paper's original MBDS, where each record lives on
    /// exactly one backend. Killing a backend loses its partition.
    pub fn unreplicated(n: usize) -> Self {
        Controller::with_replication(n, 1)
    }

    /// Spawn a controller with `n` backend threads keeping `k` copies
    /// of every record (`1 <= k <= n`). When the `MBDS_TRANSPORT=tcp`
    /// environment variable is set, the backends are spawned as
    /// separate OS processes reached over the socket transport instead
    /// — which is how the existing crash/failover sweeps run unchanged
    /// over TCP.
    pub fn with_replication(n: usize, k: usize) -> Self {
        Controller::spawned(n, k, Cluster::from_env())
            .expect("MBDS_TRANSPORT=tcp: spawning backend processes failed")
    }

    /// Spawn a controller with `n` backends, `k` copies per record and
    /// a caller-chosen reply window instead of the 1-second default —
    /// the constructor form of [`set_reply_timeout`](Self::set_reply_timeout)
    /// for deployments whose links are slower (or test rigs that want
    /// failure detection in milliseconds).
    pub fn with_timeouts(n: usize, k: usize, reply_timeout: Duration) -> Self {
        let mut c = Controller::with_replication(n, k);
        c.set_reply_timeout(reply_timeout);
        c
    }

    /// Spawn a controller whose `n` backends are separate OS processes
    /// (`mbds-backend`) reached over the fault-injectable socket
    /// transport, keeping `k` copies of every record.
    pub fn over_tcp(n: usize, k: usize) -> Result<Self> {
        Controller::spawned(n, k, Cluster::processes())
    }

    /// A controller over `n` simulated backends keeping `k` copies of
    /// every record: in-memory stores stepped synchronously, each round
    /// of messages charged by `cost` on a virtual [`clock`](Self::clock).
    /// Deterministic, and never a thread or a process, whatever
    /// `MBDS_TRANSPORT` says.
    pub fn simulated(n: usize, k: usize, cost: CostModel) -> Self {
        Controller::spawned(n, k, Cluster::simulated(cost)).expect("in-memory backends spawn")
    }

    /// A fresh controller at epoch 0 over `n` backends spawned into
    /// `cluster`.
    fn spawned(n: usize, k: usize, cluster: Cluster) -> Result<Self> {
        let client_id = next_client_id();
        let backends = (0..n).map(|i| cluster.spawn(i, client_id, 0)).collect::<Result<_>>()?;
        Ok(Controller::assemble(ClusterState::new(n, k), backends, cluster, 0, client_id))
    }

    /// The one constructor body: a controller at `epoch` over
    /// `backends`, with `state` as its bookkeeping and `cluster`'s
    /// shared handles.
    fn assemble(
        state: ClusterState,
        backends: Vec<Box<dyn Link>>,
        cluster: Cluster,
        epoch: u64,
        client_id: u64,
    ) -> Controller {
        let n = backends.len();
        Controller {
            state,
            backends,
            next_seq: 1,
            unflushed: false,
            epoch,
            cluster,
            degraded_cache: false,
            degraded_dirty: true,
            read_probes_by_backend: vec![0; n],
            totals: ExecTotals::default(),
            move_chunk: rebalance::DEFAULT_MOVE_CHUNK,
            retry_budget: DEFAULT_RETRY_BUDGET,
            client_id,
        }
    }

    /// Spawn a **durable** controller: `n` backends, `k` copies per
    /// record, logging every directory mutation to `dir`
    /// (`wal.log` + `snapshot.mbds`). The directory must not already
    /// hold controller state — use [`Controller::recover`] for that.
    pub fn durable(n: usize, k: usize, dir: impl AsRef<Path>) -> Result<Self> {
        Controller::durable_with(n, k, FileLog::open(dir)?)
    }

    /// [`Controller::durable`] over any [`LogStore`] — the harnesses
    /// use a shared in-memory [`crate::MemLog`].
    pub fn durable_with(n: usize, k: usize, store: impl LogStore + 'static) -> Result<Self> {
        Controller::durable_on(store, n, k, Cluster::from_env())
    }

    /// [`Controller::durable_with`] over the socket transport: the
    /// backends are separate OS processes regardless of
    /// `MBDS_TRANSPORT` (tests use this to mix transports in one
    /// process without touching the environment).
    pub fn durable_over_tcp(n: usize, k: usize, store: impl LogStore + 'static) -> Result<Self> {
        Controller::durable_on(store, n, k, Cluster::processes())
    }

    /// [`Controller::durable_with`] over simulated backends (see
    /// [`Controller::simulated`]).
    pub fn simulated_durable(
        n: usize,
        k: usize,
        cost: CostModel,
        store: impl LogStore + 'static,
    ) -> Result<Self> {
        Controller::durable_on(store, n, k, Cluster::simulated(cost))
    }

    /// Refuse a store that already holds state, then spawn the cluster
    /// and anchor its configuration: even an empty log recovers n and
    /// k from this initial snapshot.
    fn durable_on(
        store: impl LogStore + 'static,
        n: usize,
        k: usize,
        cluster: Cluster,
    ) -> Result<Self> {
        if store.has_state()? {
            return Err(Error::Internal(
                "log already holds controller state; use Controller::recover".into(),
            ));
        }
        let mut c = Controller::spawned(n, k, cluster)?;
        c.state.wal = Some(Wal::create(Box::new(store)));
        c.snapshot_now()?;
        Ok(c)
    }

    /// Rebuild a controller from the durable state in `dir`: read the
    /// snapshot, re-spawn the backends, reload their partitions, replay
    /// the post-snapshot log entries in order (re-replicating from
    /// survivors where the log says a restart happened), and continue
    /// appending where the crashed incarnation stopped.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Self> {
        Controller::recover_with(FileLog::open(dir)?)
    }

    /// [`Controller::recover`] over any [`LogStore`].
    pub fn recover_with(store: impl LogStore + 'static) -> Result<Self> {
        Controller::recover_on(store, Cluster::from_env())
    }

    /// [`Controller::recover_with`] onto simulated backends (see
    /// [`Controller::simulated`]); the backend count and replication
    /// come from the log. The replayed traffic is charged on the clock.
    pub fn simulated_recover(cost: CostModel, store: impl LogStore + 'static) -> Result<Self> {
        Controller::recover_on(store, Cluster::simulated(cost))
    }

    /// Rebuild the controller `store` describes over backends spawned
    /// into `cluster`.
    fn recover_on(store: impl LogStore + 'static, cluster: Cluster) -> Result<Self> {
        let (snapshot, entries, mut wal) = Wal::load(Box::new(store))?;
        let snapshot = snapshot.ok_or_else(|| {
            Error::Internal("no snapshot found — nothing to recover".into())
        })?;
        check_config(&snapshot)?;
        let mut c = Controller::spawned(snapshot.backends, snapshot.replication, cluster)?;
        // `c.state.wal` stays `None` through the replay so nothing re-logs.
        c.load_snapshot(&snapshot)?;
        for entry in &entries {
            c.replay(entry)?;
        }
        // A crash mid-rebalance leaves the membership goal durable
        // (`add-backend` without `add-end`, `drain-begin` without
        // `drain-end`) but the move queue in memory: re-derive the
        // remaining moves from the recovered directory. Planning is
        // state-based, so moves that committed before the crash drop
        // out and the re-plan converges to the same final placement.
        c.state.replan_rebalance();
        // Recovery starts a *new* lineage: bump past the highest epoch
        // the store has seen (line stamps or fence) and durably raise
        // the fence to match. Merely adopting the highest epoch would
        // share it with whoever stamped it — a standby promoted from
        // this store while its primary was down would write the same
        // epoch as the recovered controller (the model checker's
        // `recover-without-refence` counterexample). The bump also
        // fences out any still-running earlier incarnation on the same
        // store, making cold recovery safe even racing a promotion:
        // the higher epoch wins, the other is refused at the store.
        wal.refence(wal.epoch() + 1)?;
        c.epoch = wal.epoch();
        c.cluster.fence.store(c.epoch, Ordering::SeqCst);
        c.state.wal = Some(wal);
        Ok(c)
    }

    /// Attach a hot standby to this (durable) controller: the standby
    /// tails `store` — which must be another handle onto the same log
    /// this controller writes (a cloned [`crate::MemLog`], or a second
    /// [`FileLog`] opened on the same directory) — keeps a warm replica
    /// of the full controller state, and can
    /// [`promote`](crate::Standby::promote) itself over these same
    /// backend threads without a replay pause.
    pub fn standby(&self, store: Box<dyn LogStore>) -> Result<crate::Standby> {
        if self.state.wal.is_none() {
            return Err(Error::Internal(
                "only a durable controller can ship its log to a standby".into(),
            ));
        }
        crate::Standby::attach(self.cluster.clone(), store)
    }

    /// Build the promoted controller a standby installs at failover:
    /// fresh links to the cluster's running backends (the primary
    /// spawned them), the mirror's cluster state taken over by value,
    /// and a [`Wal`] resuming the shipped log at the fenced `epoch`.
    /// Each link carries a fresh identity; a socket link's handshake
    /// carries the promoted epoch, fencing the isolated old primary
    /// out of every reachable backend before this controller serves
    /// its first request.
    pub(crate) fn promoted(
        cluster: Cluster,
        wal: Wal,
        epoch: u64,
        mut state: ClusterState,
    ) -> Controller {
        state.wal = Some(wal);
        let client_id = next_client_id();
        let backends = (0..cluster.width()).map(|i| cluster.attach(i, client_id, epoch)).collect();
        let mut c = Controller::assemble(state, backends, cluster, epoch, client_id);
        // A backend the mirror saw dead may only have been unreachable
        // *from the partitioned primary* — if it just answered our
        // handshake, it is alive with its store intact. Restore those;
        // the genuinely unreachable stay dead (and
        // `finish_interrupted_restart` / `restart_backend` handle them
        // the heavy way).
        for i in 0..c.backends.len() {
            if c.backends[i].is_connected() && !c.state.health.is_serving(i) {
                if c.state.retired.contains(&i) {
                    // Not a partition casualty: the primary logged
                    // `drain-end` but died before stopping the backend.
                    // Finish the retirement instead of restoring an
                    // emptied backend into service.
                    c.stop_backend(i);
                } else {
                    let _ = c.restore_reconnected(i);
                }
            }
        }
        c
    }

    /// Promotion's reconciliation of the real backends with the
    /// mirror's state, before the promoted controller serves.
    ///
    /// Elastic membership: an `add-backend` record may have shipped
    /// while the primary died before spawning the worker — the shared
    /// bus is still the old width — so the missing backends are adopted
    /// before any heal touches them. A restart the primary began but
    /// never finished (`restarts`): the log (and the mirror) say the
    /// backend is alive again, but its worker was never respawned, so
    /// the restart is redone for real, exactly as cold replay would. A
    /// move chunk the primary began but never committed (`moves`): the
    /// mirror (and so the promoted directory) already routes the
    /// chunk's keys to the new placement, but the physical copy was
    /// interrupted — exactly those keys are healed for real. Finally
    /// whatever rebalance work the crashed membership change still owes
    /// is re-derived from the warm state (remaining chunks included:
    /// the group still matches the state-based plan).
    pub(crate) fn settle_promotion(
        &mut self,
        restarts: &[usize],
        moves: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)>,
    ) -> Result<()> {
        self.adopt_missing_backends(self.state.width())?;
        for &i in restarts {
            self.finish_interrupted_restart(i)?;
        }
        for (from, to, keys) in moves {
            self.finish_interrupted_move(&from, &to, &keys)?;
        }
        self.state.replan_rebalance();
        Ok(())
    }

    /// Hand this controller's cluster state to a promoting standby
    /// (the mirror is dropped, and its simulated backends with it).
    pub(crate) fn into_state(mut self) -> ClusterState {
        std::mem::replace(&mut self.state, ClusterState::new(1, 1))
    }

    /// The cost-model clock of a [`simulated`](Self::simulated)
    /// controller; `None` over worker threads or backend processes.
    pub fn clock(&self) -> Option<SimClock> {
        self.cluster.clock()
    }

    /// Total number of backends (alive or dead).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Number of backends not marked dead.
    pub fn alive_count(&self) -> usize {
        self.state.health.serving_count()
    }

    /// Copies kept per record.
    pub fn replication(&self) -> usize {
        self.state.replication
    }

    /// Install a fault plan in place of the last one, before the
    /// traffic it should disturb. Backend events count a backend's
    /// messages from its start, and a restart counts from 0 again;
    /// link events count a link's frames per direction from the link's
    /// first, and a restart gets a new link. Only the socket transport
    /// moves frames: the channel bus and simulated links ignore link
    /// events. Installing a plan moves no frame counter.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        *self.cluster.faults.lock().expect("fault plan lock") = plan.clone();
        for i in 0..self.backends.len() {
            if self.state.health.is_serving(i) {
                self.push_faults(i, &plan);
            }
        }
    }

    /// Ship `plan` to backend `i` if it keeps its own copy (a backend
    /// process does; best effort — an unreachable backend will get the
    /// plan again if it is restarted).
    fn push_faults(&mut self, i: usize, plan: &FaultPlan) {
        let seq = self.next_seq();
        let at = self.stamp();
        self.backends[i].push_faults(at, seq, plan);
    }

    /// How long the controller waits for one reply window before
    /// demoting a backend (two windows: Alive → Suspect → Dead).
    pub fn set_reply_timeout(&mut self, timeout: Duration) {
        self.cluster.reply_timeout = timeout;
    }

    /// The configured reply-window length.
    pub fn reply_timeout(&self) -> Duration {
        self.cluster.reply_timeout
    }

    /// Retransmissions attempted inside one reply window on the socket
    /// transport (ignored by the lossless channel bus).
    pub fn set_retry_budget(&mut self, budget: u32) {
        self.retry_budget = budget.min(8);
    }

    /// True when the backends are separate OS processes over TCP.
    pub fn is_tcp(&self) -> bool {
        self.cluster.is_remote()
    }

    /// Sever the link to backend `i` — a real partition: frames in
    /// both directions fail until [`heal_link`](Self::heal_link).
    /// Socket transport only.
    pub fn sever_link(&mut self, i: usize) {
        if let Some(link) = self.backends.get_mut(i) {
            link.sever();
        }
    }

    /// Heal a severed link; the next send re-dials.
    pub fn heal_link(&mut self, i: usize) {
        if let Some(link) = self.backends.get_mut(i) {
            link.heal();
        }
    }

    /// The frames the link to backend `i` has moved, `(sent, received)`:
    /// a link event at frame `n` fires on the `n`th frame in its
    /// direction. `(0, 0)` over the channel bus and simulated links,
    /// which move no frames.
    pub fn link_frames(&self, i: usize) -> (u64, u64) {
        self.backends[i].frames()
    }

    /// The health board's current verdict on backend `i`.
    pub fn backend_state(&self, i: usize) -> BackendState {
        self.state.health.state(i)
    }

    /// Re-probe a backend that went Suspect/Dead and came back: dial
    /// it, check its epoch against ours, and — if the same process
    /// answers (its store intact; a dead process cannot answer) —
    /// restore it to Alive without the full anti-entropy restart. A
    /// process that is really gone falls back to
    /// [`restart_backend`](Self::restart_backend), as does the channel
    /// transport (a worker thread's death always loses its store).
    pub fn reconnect_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.state.health.is_serving(i) && self.state.health.state(i) == BackendState::Alive {
            return Ok(());
        }
        let at = self.stamp();
        let Some(fence) = self.backends[i].reconnect(at) else {
            return self.restart_backend(i);
        };
        let epoch = at.epoch;
        if fence > epoch {
            return Err(Error::Unavailable(format!(
                "backend {i}: reconnect refused (fence epoch {fence} > controller epoch {epoch})"
            )));
        }
        self.restore_reconnected(i)
    }

    /// The light half of [`reconnect_backend`](Self::reconnect_backend):
    /// backend `i`'s process answered with its store intact, so restore
    /// it to Alive without re-replication. Logs the same restart
    /// markers a full restart would — replaying them re-runs a real
    /// (idempotent) restart, so a recovered controller sees this
    /// backend alive with its data rebuilt.
    fn restore_reconnected(&mut self, i: usize) -> Result<()> {
        let logged = self.batched(|c| {
            c.state.log_append(LogRecord::RestartBegin { backend: i })?;
            c.state.log_append(LogRecord::RestartEnd { backend: i })
        });
        self.backends[i].forget();
        self.state.health.restarted(i);
        self.degraded_dirty = true;
        logged?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Compact the log into a snapshot every `every` appends (0
    /// disables; durable controllers default to snapshot-on-demand
    /// only). No-op on a non-durable controller.
    pub fn set_snapshot_every(&mut self, every: u64) {
        if let Some(w) = self.state.wal.as_mut() {
            w.set_snapshot_every(every);
        }
    }

    /// Crash-point injection for the recovery harness: the `n`th WAL
    /// append completes durably and then fails the controller (every
    /// subsequent operation that must log also fails). No-op on a
    /// non-durable controller.
    pub fn set_wal_crash_after(&mut self, n: u64) {
        if let Some(w) = self.state.wal.as_mut() {
            w.set_crash_after(n);
        }
    }

    /// True once an armed crash point has fired — the harness's signal
    /// to drop this controller and recover from the log.
    pub fn wal_crashed(&self) -> bool {
        self.state.wal.as_ref().is_some_and(Wal::crashed)
    }

    /// WAL appends performed by this incarnation (0 when not durable).
    pub fn wal_appends(&self) -> u64 {
        self.state.wal.as_ref().map_or(0, Wal::total_appends)
    }

    /// The key allocator's high-water mark (the next key to be issued).
    pub fn key_high_water(&self) -> u64 {
        self.state.next_key
    }

    /// This controller's epoch (0 unless installed by promotion or
    /// recovered from a post-promotion log).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Directory-memory gauges: live entries, distinct replica-set
    /// groups in use, and the estimated resident bytes.
    pub fn directory_stats(&self) -> (usize, usize, u64) {
        (
            self.state.directory.len(),
            self.state.directory.groups_in_use().count(),
            self.state.directory.estimated_bytes(),
        )
    }

    /// The key-map compression picture (`.stats`): what a flat map
    /// would cost versus the interval-compressed resident bytes.
    pub fn directory_compression(&self) -> crate::directory::CompressionStats {
        self.state.directory.compression_stats()
    }

    /// Key-scoped single-backend probes sent, per backend — the
    /// scheduler's point-read load spread. Sums to
    /// [`ExecTotals::read_probes`](abdl::ExecTotals).
    pub fn read_probe_counts(&self) -> &[u64] {
        &self.read_probes_by_backend
    }

    /// A deterministic rendering of the unique-value index, for the
    /// recovery harness: a rebuilt controller must produce exactly the
    /// live controller's digest.
    pub fn unique_index_digest(&self) -> String {
        self.state.unique_index_digest()
    }

    /// A deterministic, byte-comparable rendering of the controller's
    /// full logical state (exactly the snapshot text). Two controllers
    /// with equal digests hold the same directory, allocator high-water
    /// mark, rotors, constraints, dead set and surviving records.
    pub fn state_digest(&mut self) -> Result<String> {
        Ok(self.snapshot()?.to_text())
    }

    /// Recovery step 1: rebuild state from the snapshot. All backends
    /// are freshly spawned and alive at this point; the dead set is
    /// re-killed, then records are loaded into their serving group
    /// members.
    pub(crate) fn load_snapshot(&mut self, snap: &SnapshotData) -> Result<()> {
        self.state.apply_snapshot(snap);
        for file in &snap.files {
            self.try_create_file(file)?;
        }
        for &i in &snap.dead {
            self.kill_backend(i);
        }
        self.degraded_dirty = true;
        let copies = snap.places.iter().filter_map(|(key, group, record)| {
            Some((&group[..], DbKey(*key), record.as_ref()?))
        });
        self.put_copies(copies)
    }

    /// Recovery step 2: replay one post-snapshot log entry — the
    /// bookkeeping through `ClusterState::apply_entry`, then the
    /// backends' half. A standby's mirror is fed the same way.
    pub(crate) fn replay(&mut self, entry: &LogRecord) -> Result<()> {
        self.state.apply_entry(entry);
        match entry {
            LogRecord::CreateFile { name } => self.try_create_file(name),
            LogRecord::Unique { file, attrs } => {
                self.register_unique(file, attrs.clone());
                Ok(())
            }
            LogRecord::Insert { key, group, record } => {
                self.put_copies([(&group[..], DbKey(*key), record)])
            }
            LogRecord::Exec { request } => self.execute_inner(request).map(|_| ()),
            LogRecord::Dead { backend } => {
                self.kill_backend(*backend);
                Ok(())
            }
            // Replay performs the whole restart at the begin marker; a
            // missing end marker means the crash hit mid-restart, and
            // re-running the restart is idempotent.
            LogRecord::RestartBegin { backend } => self.restart_backend(*backend),
            // Same bracket discipline for rebalance moves: the chunk is
            // (re)performed at the begin marker with exactly the keys
            // the live run bracketed — so replay commits placement in
            // the same per-key/retarget sequence the live run did, and
            // an unmatched begin from a crash mid-chunk is safely
            // redone. (The WAL is `None` during replay, so the bracket
            // re-logs nothing.)
            LogRecord::MoveBegin { from, to, keys } => {
                let keys: Vec<DbKey> = keys.iter().map(|&k| DbKey(k)).collect();
                self.move_group_inner(from, to, &keys)?;
                self.degraded_dirty = true;
                Ok(())
            }
            // A snapshot taken after the add already spawned the wider
            // cluster; only missing workers are spawned.
            LogRecord::AddBackend { backend } => self.adopt_missing_backends(*backend + 1),
            LogRecord::DrainEnd { backend } => {
                self.retire_backend(*backend);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Failure injection: kill backend `i`. With replication, its
    /// records stay answerable from the surviving replicas; without, the
    /// partition is unavailable until `restart_backend` (which can then
    /// only recover what other replicas still hold).
    pub fn kill_backend(&mut self, i: usize) {
        if i >= self.backends.len() || !self.state.health.is_serving(i) {
            return;
        }
        self.shutdown_backend(i);
        self.state.log_append_stashing(LogRecord::Dead { backend: i });
        self.maybe_snapshot();
    }

    /// The transport half of [`kill_backend`](Self::kill_backend):
    /// stop backend `i`'s worker (thread or process) and mark it dead,
    /// without logging — callers decide whether the death is recorded
    /// as a failure (`dead`) or a retirement (`drain-end`).
    fn shutdown_backend(&mut self, i: usize) {
        if i >= self.backends.len() || !self.state.health.is_serving(i) {
            return;
        }
        self.stop_backend(i);
        self.state.health.channel_closed(i);
        self.degraded_dirty = true;
    }

    /// Stop backend `i` (best effort) and wait for it to go.
    fn stop_backend(&mut self, i: usize) {
        let at = self.stamp();
        self.backends[i].stop(at);
    }

    /// Start a fresh backend in slot `i` — a new slot when `i` is the
    /// backend count — and link to it; the shared table stays current,
    /// so a standby promotes onto the replacement. The new backend
    /// counts messages from 0 and reads the cluster's fault plan, which
    /// a backend keeping its own copy is shipped.
    fn spawn_backend(&mut self, i: usize) -> Result<()> {
        let link = self.cluster.spawn(i, self.client_id, self.epoch)?;
        if i == self.backends.len() {
            self.backends.push(link);
            self.read_probes_by_backend.push(0);
        } else {
            self.backends[i] = link;
        }
        let plan = self.cluster.faults.lock().expect("fault plan lock").clone();
        if !plan.is_empty() {
            self.push_faults(i, &plan);
        }
        Ok(())
    }

    /// Recovery: respawn backend `i` with an empty store, replay the
    /// schema (files), and re-replicate every record whose replica
    /// group contains `i` from the surviving replicas (anti-entropy
    /// driven by the controller's directory). Restores full redundancy:
    /// a subsequent single-backend failure loses nothing again.
    pub fn restart_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.state.health.is_serving(i) && self.state.health.state(i) == BackendState::Alive {
            return Ok(());
        }
        // Group commit: the restart's begin/end markers (and any deaths
        // detected along the way) are buffered and synced together.
        self.batched(|c| c.restart_backend_inner(i))?;
        self.maybe_snapshot();
        Ok(())
    }

    /// Finish a restart a crashed primary began but never completed.
    /// The shipped log (and therefore the promoted health board) says
    /// backend `i` is alive, but its worker thread was never respawned:
    /// mark the channel closed so `restart_backend` actually runs, then
    /// redo the restart for real — exactly what cold replay does for an
    /// unmatched `restart-begin` marker.
    fn finish_interrupted_restart(&mut self, i: usize) -> Result<()> {
        self.state.health.channel_closed(i);
        self.degraded_dirty = true;
        self.restart_backend(i)
    }

    fn restart_backend_inner(&mut self, i: usize) -> Result<()> {
        // WAL protocol: `restart-begin` before any effect, `restart-end`
        // after re-replication completes. Recovery replays the whole
        // restart at the begin marker; an unmatched begin (crash
        // mid-restart) is safely re-run by the caller — restarting an
        // already-alive backend is a no-op.
        self.state.log_append(LogRecord::RestartBegin { backend: i })?;
        // Retire the old backend (it is usually gone already) and
        // spawn an empty one in its slot.
        self.stop_backend(i);
        self.spawn_backend(i)?;
        self.state.health.restarted(i);
        self.degraded_dirty = true;

        self.replay_schema(i, "during restart")?;
        // Anti-entropy: for each replica group holding `i`, pull its
        // keys from the group's other members, a window at a time, and
        // copy them back — only `i`'s partners are messaged.
        let dir = &self.state.directory;
        let groups: BTreeSet<Vec<usize>> =
            dir.groups_in_use().filter(|g| g.contains(&i)).map(<[usize]>::to_vec).collect();
        let restarted = [i];
        for group in groups {
            let partners: Vec<usize> = group.iter().copied().filter(|&m| m != i).collect();
            for keys in self.state.directory.keys_of_group(&group).chunks(REPLY_CACHE as usize) {
                let records = self.fetch_records(&partners, keys)?;
                self.put_copies(records.iter().map(|(key, rec)| (&restarted[..], *key, rec)))?;
                if !self.state.health.is_serving(i) {
                    return Err(Error::Unavailable(format!("backend {i} died during recovery")));
                }
            }
        }
        self.state.log_append(LogRecord::RestartEnd { backend: i })
    }

    // --- Elastic membership: online backend add / drain -------------

    /// Group moves still queued (0 = the cluster is in its goal
    /// placement).
    pub fn rebalance_pending(&self) -> usize {
        self.state.rebalancer.pending()
    }

    /// Bound the group moves piggybacked on each foreground request
    /// (floored at 1; default 1). `tests/rebalance.rs` pins it for its
    /// step-by-step move checks; the shell's `.addbackend`/`.drain`
    /// and experiment E21 leave the default.
    pub fn set_rebalance_throttle(&mut self, throttle: usize) {
        self.state.rebalancer.set_throttle(throttle);
    }

    /// Bound the records relocated per move bracket (floored at 1).
    /// Together with the throttle this caps the work a pump step can
    /// piggyback on one foreground request at
    /// O(throttle × chunk) records.
    pub fn set_move_chunk(&mut self, chunk: usize) {
        self.move_chunk = chunk.max(1);
    }

    /// Backends currently being drained, ascending.
    pub fn draining_backends(&self) -> Vec<usize> {
        self.state.draining.iter().copied().collect()
    }

    /// Add one backend to the live cluster and rebalance onto it
    /// online: the new worker (thread, or `mbds-backend` process over
    /// the socket transport) joins immediately for *new* placements,
    /// and the wrapped replica groups of the old ring are moved onto
    /// the widened ring by WAL-bracketed group moves worked off a
    /// throttled queue between foreground requests. Returns the new
    /// backend's index.
    ///
    /// Refused while another membership change is still rebalancing.
    pub fn add_backend(&mut self) -> Result<usize> {
        let i = self.state.begin_add()?;
        self.adopt_missing_backends(i + 1)?;
        self.maybe_snapshot();
        Ok(i)
    }

    /// Drain backend `i` out of the cluster online: it stops receiving
    /// new placements immediately, every replica group containing it is
    /// moved to a substitute backend by WAL-bracketed group moves
    /// worked off the throttled queue, and when the last move commits
    /// the backend is retired (`drain-end`, then shutdown). Reads keep
    /// being served — from the old placement until each move commits,
    /// from the new one after.
    ///
    /// Refused when it would leave fewer serving backends than the
    /// replication factor, or while another membership change is still
    /// rebalancing. Re-draining an already-draining backend is a no-op
    /// (recovery re-plans the remaining moves itself).
    pub fn drain_backend(&mut self, i: usize) -> Result<()> {
        if self.state.begin_drain(i)? {
            self.maybe_snapshot();
        }
        Ok(())
    }

    /// Drain the rebalance queue synchronously — the blocking endgame
    /// of [`add_backend`](Self::add_backend) /
    /// [`drain_backend`](Self::drain_backend) when the caller wants the
    /// goal placement *now* instead of amortized over foreground
    /// traffic.
    pub fn finish_rebalance(&mut self) -> Result<()> {
        while self.rebalance_step()? {}
        self.maybe_snapshot();
        Ok(())
    }

    /// Spawn backends until `target` are up, each with the schema
    /// replayed into its empty store: an online add (the cluster state
    /// was widened first), the replay of an `add-backend` record, and
    /// promotion's membership reconciliation — an `add-backend` record
    /// can ship while the primary dies before spawning the backend,
    /// leaving the shared table one slot short; the mirror's state
    /// already accounts for the backend (health board, placement ring,
    /// residency vectors — and no move can have landed data on it, the
    /// crash preceded the spawn), so only the backend itself is missing.
    fn adopt_missing_backends(&mut self, target: usize) -> Result<()> {
        while self.backends.len() < target {
            let i = self.backends.len();
            self.spawn_backend(i)?;
            self.replay_schema(i, "while joining")?;
            self.degraded_dirty = true;
        }
        Ok(())
    }

    /// Replay the schema into backend `i`'s empty store.
    fn replay_schema(&mut self, i: usize, during: &str) -> Result<()> {
        for file in self.state.files.clone() {
            if self.call(i, WireOp::CreateFile(file)).is_none() {
                return Err(Error::Unavailable(format!("backend {i} died {during}")));
            }
        }
        Ok(())
    }

    /// Finish a move chunk a crashed primary began but never committed
    /// (the standby's unmatched `move-begin`) — promotion's analogue of
    /// [`finish_interrupted_restart`](Self::finish_interrupted_restart).
    ///
    /// The standby's mirror applies the chunk at the begin marker, so
    /// the promoted directory already routes the chunk's keys to `to`
    /// while the physical copy on the real backends was interrupted
    /// partway. Redo exactly those keys under a fresh WAL bracket,
    /// pulling from the old members as extra sources — idempotent
    /// against any intermediate state the crash left behind. Chunks the
    /// crashed primary never began are *not* healed here: the group
    /// still matches the state-based plan and `replan_rebalance`
    /// requeues the rest of the move.
    fn finish_interrupted_move(
        &mut self,
        from: &[usize],
        to: &[usize],
        keys: &[u64],
    ) -> Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        let keys: Vec<DbKey> = keys.iter().map(|&k| DbKey(k)).collect();
        self.batched(|c| c.heal_move_inner(from, to, &keys))?;
        self.degraded_dirty = true;
        Ok(())
    }

    /// The forced-redo body of
    /// [`finish_interrupted_move`](Self::finish_interrupted_move): the
    /// directory already routes the chunk to `to`, but new members may
    /// hold only part of the data and abandoned members still hold
    /// stale copies. Residency and the placement commit came over warm
    /// from the mirror, so only the physical copy and delete are
    /// redone.
    fn heal_move_inner(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> Result<()> {
        self.state.log_move_begin(from, to, keys)?;
        let removed: Vec<usize> = from.iter().copied().filter(|m| !to.contains(m)).collect();
        // Any member of either group may hold the only surviving copy.
        let mut sources = [from, to].concat();
        sources.sort_unstable();
        sources.dedup();
        let moved = self.fetch_records(&sources, keys)?;
        let live = to.iter().filter(|&&m| self.state.health.is_serving(m)).count() as u64;
        self.put_copies(moved.iter().map(|(key, rec)| (to, *key, rec)))?;
        for (_, rec) in &moved {
            self.totals.move_bytes += rec.to_string().len() as u64 * live;
        }
        self.delete_keys(&removed, keys);
        // Usually a no-op (the mirror already committed the chunk);
        // kept so the bracket converges from either directory shape.
        self.state.end_move(from, to, keys, &mut self.totals)
    }

    /// Physically remove `keys` from the serving `members` a move
    /// abandons, in one round.
    fn delete_keys(&mut self, members: &[usize], keys: &[DbKey]) {
        if members.is_empty() {
            return;
        }
        let (seq, sent) = self.send_each(members, || WireOp::DeleteKeys(keys.to_vec()));
        let _ = self.drain_round(seq, &sent);
    }

    /// Fetch exactly `keys` from the serving `sources`, keeping the
    /// first copy of each key that answers — the key-scoped read under
    /// group moves, promotion heals and restarts. Backend errors
    /// propagate (a move is requeued and retried); a dead source simply
    /// contributes nothing, as with `send_round`.
    fn fetch_records(
        &mut self,
        sources: &[usize],
        keys: &[DbKey],
    ) -> Result<Vec<(DbKey, Record)>> {
        let (seq, sent) = self.send_each(sources, || WireOp::FetchKeys(keys.to_vec()));
        let mut by_key: BTreeMap<DbKey, Record> = BTreeMap::new();
        for (_, resp) in self.drain_round(seq, &sent)? {
            for (key, rec) in resp.into_records() {
                by_key.entry(key).or_insert(rec);
            }
        }
        Ok(by_key.into_iter().collect())
    }

    /// Put each record under its key on its serving targets — the one
    /// record copy behind restarts, snapshot loads, log replay, group
    /// moves and move heals. A record's copies go out under one seq, a
    /// round like an insert wave. Rounds are pipelined in windows of at
    /// most [`REPLY_CACHE`] seqs — every copy of a window is in flight
    /// before the first ack is awaited — so a retransmitted copy is
    /// answered from the backend's reply cache instead of being applied
    /// twice. A target that is dead, or dies, is skipped; a backend
    /// error is returned once its whole window has drained.
    fn put_copies<'a>(
        &mut self,
        copies: impl IntoIterator<Item = (&'a [usize], DbKey, &'a Record)>,
    ) -> Result<()> {
        let mut copies = copies.into_iter().peekable();
        while copies.peek().is_some() {
            let mut rounds = Vec::new();
            for (targets, key, rec) in copies.by_ref().take(REPLY_CACHE as usize) {
                rounds.push(self.send_each(targets, || WireOp::InsertWithKey(key, rec.clone())));
            }
            let mut first_err = None;
            for (seq, sent) in rounds {
                if let Err(e) = self.drain_round(seq, &sent) {
                    first_err.get_or_insert(e);
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// A deterministic rendering of the controller's *logical* contents
    /// — allocator high-water mark, schema, constraints and records —
    /// with all placement detail (groups, rotors, dead set, membership)
    /// stripped. Two clusters of different shapes holding the same data
    /// produce equal logical digests; this is what the elastic-vs-static
    /// acceptance check compares.
    pub fn logical_digest(&mut self) -> Result<String> {
        use std::fmt::Write as _;
        let snap = self.snapshot()?;
        let mut out = String::new();
        let _ = writeln!(out, "next-key {}", snap.next_key);
        for file in &snap.files {
            let _ = writeln!(out, "file {file}");
        }
        for (file, attrs) in &snap.uniques {
            let _ = writeln!(out, "unique {file} {}", attrs.join(" "));
        }
        for (key, _, record) in &snap.places {
            let _ = match record {
                Some(record) => writeln!(out, "{key} {record}"),
                None => writeln!(out, "{key} ?"),
            };
        }
        Ok(out)
    }

    /// Fallible file creation: sends the create through the health
    /// machine and fails only when *no* backend acknowledged it.
    /// Backends that die mid-create are marked dead; a later
    /// `restart_backend` replays the schema into them, so live stores
    /// never diverge.
    pub fn try_create_file(&mut self, name: &str) -> Result<()> {
        if !self.state.files.iter().any(|f| f == name) {
            self.state.files.push(name.to_owned());
        }
        let all: Vec<usize> = (0..self.backends.len()).collect();
        let (seq, sent) = self.send_each(&all, || WireOp::CreateFile(name.to_owned()));
        let mut acked = 0usize;
        for i in sent {
            if self.recv_reply(i, seq).is_some() {
                acked += 1;
            }
        }
        if acked == 0 {
            return Err(Error::Unavailable(format!(
                "no live backend acknowledged CREATE FILE `{name}`"
            )));
        }
        self.state.log_append(LogRecord::CreateFile { name: name.to_owned() })?;
        self.maybe_snapshot();
        Ok(())
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A death was detected mid-operation (closed channel or missed
    /// reply windows): record it durably so recovery replays the same
    /// alive set the live run saw.
    fn note_dead(&mut self, i: usize) {
        self.degraded_dirty = true;
        self.state.log_append_stashing(LogRecord::Dead { backend: i });
    }

    /// What this controller stamps on every message, and how long it
    /// waits for a reply.
    fn stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch,
            window: self.cluster.reply_timeout,
            retry_budget: self.retry_budget,
        }
    }

    /// Queue an operation to backend `i` under `seq`; an unreachable
    /// backend is given up. The message leaves when the controller next
    /// waits for a reply.
    fn send_to(&mut self, i: usize, seq: u64, op: WireOp) -> bool {
        self.totals.messages_sent += 1;
        let at = self.stamp();
        if self.backends[i].queue(at, seq, op) {
            self.unflushed = true;
            return true;
        }
        self.give_up(i);
        false
    }

    /// Backend `i` cannot be reached: mark it dead and abandon its
    /// link's window, so no seq sent on it is resent later.
    fn give_up(&mut self, i: usize) {
        self.backends[i].forget();
        self.state.health.channel_closed(i);
        self.note_dead(i);
    }

    /// Send a fresh `op()` under one new seq to each serving backend of
    /// `members`; returns the seq and the backends it reached.
    fn send_each(&mut self, members: &[usize], op: impl Fn() -> WireOp) -> (u64, Vec<usize>) {
        let seq = self.next_seq();
        let mut sent = Vec::new();
        for &m in members {
            if self.state.health.is_serving(m) && self.send_to(m, seq, op()) {
                sent.push(m);
            }
        }
        (seq, sent)
    }

    /// Send `op` to backend `i` alone and await the answer; `None` when
    /// the backend is (or goes) dead.
    fn call(&mut self, i: usize, op: WireOp) -> Option<Result<Response>> {
        let seq = self.next_seq();
        if !self.send_to(i, seq, op) {
            return None;
        }
        self.recv_reply(i, seq)
    }

    /// Await backend `i`'s reply to `seq`, one reply window at a time:
    /// a missed window demotes the backend one step and `Suspect` earns
    /// one more window. Returns `None` when the backend is (now) dead.
    fn recv_reply(&mut self, i: usize, seq: u64) -> Option<Result<Response>> {
        if std::mem::take(&mut self.unflushed) {
            // Put every link's queue on its way, so a round's (or a
            // flight's) requests reach all their backends before the
            // controller blocks on the first reply.
            for link in &mut self.backends {
                link.flush();
            }
        }
        let at = self.stamp();
        loop {
            match self.backends[i].await_reply(at, seq, &mut self.totals) {
                Window::Reply(result) => {
                    self.state.health.reply_received(i);
                    return Some(result);
                }
                Window::Missed => {
                    self.totals.reply_timeouts += 1;
                    if self.state.health.missed_reply(i) == BackendState::Suspect {
                        continue;
                    }
                    self.backends[i].forget();
                    self.note_dead(i);
                    return None;
                }
                Window::Lost => {
                    // A backend given up earlier in this flight has
                    // already been marked dead.
                    if self.state.health.is_serving(i) {
                        self.give_up(i);
                    }
                    return None;
                }
            }
        }
    }

    /// True when some record's whole replica group is dead.
    fn is_degraded(&mut self) -> bool {
        if self.degraded_dirty {
            self.degraded_cache = self.state.degraded();
            self.degraded_dirty = false;
        }
        self.degraded_cache
    }

    /// Await each of `sent`'s replies to one `seq`, in order: the one
    /// drain of every round the controller sends. A member that dies
    /// contributes nothing. The first backend error is kept until the
    /// whole round has drained — bailing early would leave stale
    /// replies to desynchronize the next round — and then returned.
    /// Otherwise the answering members and their replies.
    fn drain_round(&mut self, seq: u64, sent: &[usize]) -> Result<Vec<(usize, Response)>> {
        let mut replies = Vec::with_capacity(sent.len());
        let mut first_err = None;
        for &i in sent {
            match self.recv_reply(i, seq) {
                Some(Ok(resp)) => replies.push((i, resp)),
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                None => {}
            }
        }
        first_err.map_or(Ok(replies), Err)
    }

    /// Phase 1 of an insert: the unique check, key allocation, rotor
    /// step and the first replica wave's sends.
    fn stage_insert(&mut self, record: &Record) -> Result<StagedInsert> {
        self.state.check_unique(record)?;
        let file = record.file().map(str::to_owned).ok_or(Error::MissingFileKeyword)?;
        let key = self.state.alloc_key();
        let primary = self.state.partitioner.place_group(&file, self.state.replication)[0];
        let mut scanned = 0usize;
        let wave = self.state.next_wave(primary, &mut scanned, self.state.replication);
        let (seq, sent) = self.send_each(&wave, || WireOp::InsertWithKey(key, record.clone()));
        let msgs = wave.len() as u64;
        Ok(StagedInsert {
            key,
            file,
            seq,
            sent,
            assigned: Vec::new(),
            err: None,
            primary,
            scanned,
            msgs,
        })
    }

    /// Phase 1 of a read: its routing and sends, no reply awaited. The
    /// one plan of every controller read — flight members, solo
    /// retrieves, a mutation's pre-images and a join's halves. Prefers
    /// a single-backend probe when the unique index pins every
    /// disjunct to keys one serving backend fully covers; otherwise a
    /// round to the `route_targets` backends, or a broadcast.
    fn stage_read(&mut self, request: &Request) -> StagedRead {
        let Request::Retrieve { query, .. } = request else {
            unreachable!("only retrieves are staged as reads")
        };
        let (targets, fallback, probe) = match self.probe_plan(query) {
            Some((first, rest)) => (Some(vec![first]), rest, true),
            None => (self.state.route_targets(query), Vec::new(), false),
        };
        let unavailable = self.state.health.serving_count() == 0;
        let broadcast = targets.is_none();
        let round = targets.unwrap_or_else(|| (0..self.backends.len()).collect());
        let msgs = round.iter().filter(|&&i| self.state.health.is_serving(i)).count() as u64;
        let wire = read_wire(request);
        let (seq, sent) = self.send_each(&round, || WireOp::Exec(wire.clone().into_owned()));
        if probe {
            self.totals.read_probes += sent.len() as u64;
            for &i in &sent {
                self.read_probes_by_backend[i] += 1;
            }
        }
        // A broadcast (or any read, with zero serving backends) that
        // reaches nobody is an error, while a scoped round whose
        // targets all just died degrades to the survivors' (empty)
        // answer.
        let err = (sent.is_empty() && (broadcast || unavailable))
            .then(|| Error::Unavailable("no live backends".into()));
        // A probe that reached nobody still has its fallbacks to try.
        let lost = probe && sent.is_empty() && !fallback.is_empty();
        StagedRead {
            seq,
            sent,
            fallback,
            merged: Response::default(),
            err,
            lost,
            probe,
            msgs,
        }
    }

    /// A single-backend probe plan for a key-scoped read:
    /// `Some((first, fallbacks))` when the unique index pins every
    /// disjunct of `query` to candidate keys and at least one serving
    /// backend holds a replica of *every* candidate record — that
    /// backend alone can answer the read. `fallbacks` are the other
    /// covering backends in failover order, tried one at a time if the
    /// probed backend dies mid-flight. `None` when some disjunct is
    /// only file-scoped or no single serving backend covers all keys —
    /// the caller falls back to the `route_targets` round.
    fn probe_plan(&self, query: &abdl::Query) -> Option<(usize, Vec<usize>)> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for conj in &query.disjuncts {
            let file = conj.file()?;
            for key in self.state.unique_candidates(file, conj)? {
                groups.push(self.state.directory.get(&key)?.to_vec());
            }
        }
        // No candidate record at all: the routed round answers empty
        // without a probe (and without any message).
        let (head, rest) = groups.split_first()?;
        let mut covering: Vec<usize> = head
            .iter()
            .copied()
            .filter(|&i| self.state.health.is_serving(i) && rest.iter().all(|g| g.contains(&i)))
            .collect();
        if covering.is_empty() {
            return None;
        }
        let first = covering.remove(0);
        Some((first, covering))
    }

    /// Phase 2 of a read: merge the round's replies. A member that died
    /// marks the read `lost` — phase 3 fails a probe over, and a routed
    /// round's survivors carry the answer.
    fn collect_read(&mut self, s: &mut StagedRead) {
        match self.drain_round(s.seq, &s.sent) {
            Ok(replies) => {
                s.lost |= replies.len() < s.sent.len();
                for (_, resp) in replies {
                    s.merged.merge(resp);
                }
            }
            Err(e) => {
                s.err.get_or_insert(e);
            }
        }
    }

    /// Phase 3 of a read: if a probed backend died, re-probe its
    /// replicas one at a time (the bus is idle again, so a fresh seq
    /// per retry is safe), then dedup the merged answer and aggregate
    /// it if the request asked for that. The response carries the
    /// read's messages.
    fn finish_staged_read(&mut self, request: &Request, mut s: StagedRead) -> Result<Response> {
        while s.probe && s.lost && !s.fallback.is_empty() {
            let i = s.fallback.remove(0);
            if !self.state.health.is_serving(i) {
                continue;
            }
            s.msgs += 1;
            self.totals.read_probes += 1;
            self.totals.read_probe_failovers += 1;
            self.read_probes_by_backend[i] += 1;
            match self.call(i, WireOp::Exec(read_wire(request).into_owned())) {
                Some(Ok(resp)) => {
                    s.merged.merge(resp);
                    s.lost = false;
                }
                Some(Err(e)) => {
                    s.err.get_or_insert(e);
                    s.lost = false;
                }
                None => {} // also died; try the next replica
            }
        }
        if let Some(e) = s.err {
            return Err(e);
        }
        s.merged.dedup_by_key();
        let mut resp = match request {
            Request::Retrieve { target, by, .. } if target.has_aggregates() => {
                let mut stats = s.merged.stats;
                let groups = aggregate(s.merged.records(), target, by.as_deref())?;
                stats.records_returned = groups.len() as u64;
                let mut resp = Response::with_records(Vec::new(), stats);
                resp.groups = Some(groups);
                resp
            }
            _ => s.merged,
        };
        resp.messages_sent = s.msgs;
        Ok(resp)
    }

    /// Every record matching `query`, deduplicated across replicas,
    /// read alone through the same three phases as a flight member's
    /// read: the pre-images of a mutation and each half of a join.
    pub(crate) fn read_matching(&mut self, query: &abdl::Query) -> Result<Response> {
        let request = Request::retrieve_all(query.clone());
        let mut s = self.stage_read(&request);
        self.collect_read(&mut s);
        self.finish_staged_read(&request, s)
    }

    /// Phase 3 of an insert: write further replica waves along the
    /// placement scan until k copies are acknowledged or the ring is
    /// exhausted, then commit the insert. Each wave's copies are all
    /// sent before any reply is awaited, so a k-way write costs one
    /// round trip instead of k; a wave member that dies is substituted
    /// by the next serving backend in the following wave. A failed
    /// insert still consumed its key and rotor step: that is logged
    /// (`alloc`) so recovery agrees.
    fn finish_staged_insert(&mut self, record: &Record, mut s: StagedInsert) -> Result<Response> {
        let k = self.state.replication;
        while s.err.is_none() && s.assigned.len() < k {
            let wave = self.state.next_wave(s.primary, &mut s.scanned, k - s.assigned.len());
            if wave.is_empty() {
                break;
            }
            s.msgs += wave.len() as u64;
            let key = s.key;
            let (seq, sent) = self.send_each(&wave, || WireOp::InsertWithKey(key, record.clone()));
            match self.drain_round(seq, &sent) {
                Ok(replies) => s.assigned.extend(replies.into_iter().map(|(i, _)| i)),
                Err(e) => s.err = Some(e),
            }
        }
        if s.err.is_none() && s.assigned.is_empty() {
            s.err = Some(Error::Unavailable("no live backend accepted the insert".into()));
        }
        if let Some(e) = s.err {
            self.state.log_append(LogRecord::Alloc { key: s.key.0, file: s.file })?;
            return Err(e);
        }
        self.state.commit_insert(s.key, &s.file, s.assigned, record)?;
        let mut resp = Response::with_affected(1, Default::default());
        resp.messages_sent = s.msgs;
        Ok(resp)
    }
}

impl Kernel for Controller {
    fn create_file(&mut self, name: &str) {
        if let Err(e) = self.try_create_file(name) {
            // The trait's signature is infallible; surface the failure
            // at the caller's next fallible step instead of losing it.
            self.state.pending_error.get_or_insert(e);
        }
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.register_unique(file, attrs.clone());
        self.state.log_append_stashing(LogRecord::Unique { file: file.to_owned(), attrs });
    }

    fn reserve_key(&mut self) -> DbKey {
        let key = self.state.alloc_key();
        // Language interfaces mint entity ids through this path and
        // store them as data values; an unlogged reservation would
        // re-issue those ids after recovery.
        self.state.log_append_stashing(LogRecord::ReserveKey { key: key.0 });
        key
    }

    fn execute(&mut self, request: &Request) -> Result<Response> {
        if let Some(e) = self.state.pending_error.take() {
            return Err(e);
        }
        let resp = match request {
            Request::Insert { .. } | Request::Retrieve { .. } => self.execute_solo(request)?,
            _ => {
                self.totals.requests += 1;
                let msgs_before = self.totals.messages_sent;
                let mut resp = self.execute_inner(request)?;
                resp.messages_sent = self.totals.messages_sent - msgs_before;
                self.totals.records_examined += resp.stats.records_examined;
                resp
            }
        };
        // Piggyback up to `throttle` queued rebalance moves on this
        // foreground request — the online add/drain progresses in
        // bounded slices while traffic flows. Runs after the message
        // attribution above so move traffic never pollutes the
        // response's own counters.
        self.pump_rebalance();
        self.maybe_snapshot();
        Ok(resp)
    }

    fn execute_transaction(&mut self, txn: &Transaction) -> Result<Vec<Response>> {
        // Group commit: every WAL append the transaction produces is
        // buffered and synced once when it completes. (Effects of the
        // requests before a mid-transaction error are still applied and
        // still logged — the batch is a durability optimisation, not
        // atomicity.)
        self.batched(|c| txn.requests.iter().map(|r| c.execute(r)).collect())
    }

    fn execute_batch(&mut self, requests: &[Request]) -> Vec<Result<Response>> {
        self.schedule_batch(requests)
    }

    fn exec_totals(&self) -> ExecTotals {
        self.state.with_wal_stats(self.totals)
    }

    fn health(&self) -> KernelHealth {
        KernelHealth {
            backends: self.backends.len(),
            unavailable: self.state.health.unavailable(),
            degraded: if self.degraded_dirty {
                self.state.degraded()
            } else {
                self.degraded_cache
            },
        }
    }
}

/// The controller's data plane: how requests reach its backends.
impl Controller {
    /// Execute a flight of pairwise non-conflicting inserts and
    /// retrieves with their backend rounds pipelined: every member's
    /// sends go out before any reply is awaited, so the flight costs
    /// one round-trip latency instead of one per member. A solo insert
    /// or retrieve is a flight of one ([`execute_solo`](Self::execute_solo)).
    ///
    /// Order discipline: all three phases walk the flight in admission
    /// order. The controller-side reads (unique check, key allocation,
    /// rotor step, routing) happen serially during staging. On the
    /// channel bus the per-backend channels are FIFO, so each backend
    /// observes the members' operations in admission order. Over TCP a
    /// dropped frame is retransmitted after later members of its
    /// flight were applied, and replies are taken out of the link's
    /// retransmission window in whatever order they arrive; that is
    /// still equivalent to serial execution because the scheduler
    /// only puts pairwise-commuting members in one flight
    /// ([`Footprint::conflicts`](crate::sched::Footprint::conflicts)).
    ///
    /// Reads ride the same discipline. A read staged after an insert
    /// of the same flight routes against the directory as it stood
    /// *before* the flight's inserts commit in phase 3 — harmless,
    /// because the scheduler only admits a read next to inserts whose
    /// footprints don't conflict with it: none of the flight's new
    /// records can match the read's qualification, so missing their
    /// placements cannot change the answer.
    pub(crate) fn execute_flight(&mut self, flight: &[Request]) -> Vec<Result<Response>> {
        // Phase 1 — stage: per-member bookkeeping, then the member's
        // sends (first replica wave / planned read round), no replies
        // awaited.
        let mut staged: Vec<Staged> = Vec::with_capacity(flight.len());
        for request in flight {
            self.totals.requests += 1;
            staged.push(match request {
                Request::Insert { record } => Staged::Insert(self.stage_insert(record)),
                _ => Staged::Read(Box::new(self.stage_read(request))),
            });
        }
        // Phase 2 — collect: await every staged reply in admission
        // order (FIFO channels deliver them in exactly this order; a
        // TCP link keeps replies that overtake the awaited seq).
        // Nothing new is sent here, so no member's pending reply can
        // be mistaken for a stale one and discarded.
        for s in &mut staged {
            match s {
                // A member that died mid-flight is substituted in phase 3.
                Staged::Insert(Ok(si)) => match self.drain_round(si.seq, &si.sent) {
                    Ok(replies) => si.assigned.extend(replies.into_iter().map(|(i, _)| i)),
                    Err(e) => si.err = Some(e),
                },
                Staged::Insert(Err(_)) => {}
                Staged::Read(sr) => self.collect_read(sr),
            }
        }
        // Phase 3 — finish: with the bus idle again, run substitute
        // waves / probe failovers for members the mid-flight deaths
        // left short, then the per-member bookkeeping, all in
        // admission order.
        flight
            .iter()
            .zip(staged)
            .map(|(request, s)| {
                let resp = match (request, s) {
                    (_, Staged::Insert(Err(e))) => Err(e),
                    (Request::Insert { record }, Staged::Insert(Ok(s))) => {
                        self.finish_staged_insert(record, s)
                    }
                    (_, Staged::Read(s)) => self.finish_staged_read(request, *s),
                    _ => unreachable!("flight member and staged state disagree"),
                }?;
                self.totals.records_examined += resp.stats.records_examined;
                Ok(self.finalize(resp))
            })
            .collect()
    }

    /// Run one insert or retrieve as a flight of one.
    pub(crate) fn execute_solo(&mut self, request: &Request) -> Result<Response> {
        let mut answers = self.execute_flight(std::slice::from_ref(request));
        answers.pop().expect("a flight of one answers once")
    }

    /// Send a request to one round of backends (`None` = every serving
    /// backend, the broadcast path; `Some` = a routed subset) and merge
    /// and dedup the partial responses. Only the rounds no read plan
    /// shapes come here: a mutation, and the whole-file scans behind
    /// snapshots and constraint backfills, which ignore residency on
    /// purpose. A backend dying mid-round only removes its partial
    /// answer. An empty routed target set answers immediately with an
    /// empty response — exactly what a broadcast would have merged.
    pub(crate) fn send_round(
        &mut self,
        request: &Request,
        targets: Option<&[usize]>,
    ) -> Result<Response> {
        if targets.is_some() && self.state.health.serving_count() == 0 {
            return Err(Error::Unavailable("no live backends".into()));
        }
        let all: Vec<usize>;
        let round = match targets {
            Some(targets) => targets,
            None => {
                all = (0..self.backends.len()).collect();
                &all
            }
        };
        let (seq, sent) = self.send_each(round, || WireOp::Exec(request.clone()));
        if targets.is_none() && sent.is_empty() {
            return Err(Error::Unavailable("no live backends".into()));
        }
        let mut merged = Response::default();
        for (_, resp) in self.drain_round(seq, &sent)? {
            merged.merge(resp);
        }
        merged.dedup_by_key();
        Ok(merged)
    }

    /// Attach health metadata to an outgoing response.
    pub(crate) fn finalize(&mut self, mut resp: Response) -> Response {
        resp.degraded = self.is_degraded();
        resp.unavailable_backends = self.state.health.unavailable();
        resp
    }

    /// Copy `keys` of group `from` to the members `to` adds, remove
    /// them from the members it abandons, and commit the new placement,
    /// all between one chunk's `move-begin` and `move-end` markers.
    pub(crate) fn move_group_inner(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> Result<()> {
        self.state.log_move_begin(from, to, keys)?;
        let added: Vec<usize> = to.iter().copied().filter(|m| !from.contains(m)).collect();
        let removed: Vec<usize> = from.iter().copied().filter(|m| !to.contains(m)).collect();
        // Pull one surviving copy of each chunk record from the group's
        // serving members — key-scoped, so a chunk costs O(chunk) at
        // the backends, never a file scan — and copy it to the members
        // the move adds …
        let moved = self.fetch_records(from, keys)?;
        let live = added.iter().filter(|&&m| self.state.health.is_serving(m)).count() as u64;
        self.put_copies(moved.iter().map(|(key, rec)| (&added[..], *key, rec)))?;
        for (_, rec) in &moved {
            self.totals.move_bytes += rec.to_string().len() as u64 * live;
            self.state.resident_move(rec, &added, &removed);
        }
        // … physically remove from the members it abandons (a stale
        // copy would be resurrected by the next broadcast read) …
        self.delete_keys(&removed, keys);
        // … and only then commit the new placement: reads routed before
        // this line saw the complete old group, reads after see the
        // complete new one.
        self.state.end_move(from, to, keys, &mut self.totals)
    }

    /// Retire a drained backend: every group containing it has moved
    /// off, so shut it down.
    pub(crate) fn retire_backend(&mut self, i: usize) {
        self.shutdown_backend(i);
        self.state.retired.insert(i);
    }

    /// The full compacted state: directory, allocator, rotors,
    /// constraints, dead set, and every record that still has a live
    /// replica (gathered by broadcasting a retrieve per file).
    pub(crate) fn snapshot(&mut self) -> Result<SnapshotData> {
        // Gather surviving record data first: the broadcasts may detect
        // deaths, and the metadata below must reflect them.
        let mut data: BTreeMap<u64, Record> = BTreeMap::new();
        if self.state.health.serving_count() > 0 {
            for file in self.state.files.clone() {
                let resp = self.broadcast(&file_scan(&file))?;
                for (key, rec) in resp.into_records() {
                    if self.state.directory.contains_key(&key) {
                        data.insert(key.0, rec);
                    }
                }
            }
        }
        Ok(self.state.snapshot_data(|k, _| data.remove(&k.0)))
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        // A demoted primary (a standby promoted past our epoch) no
        // longer owns the backends: detach without stopping them — the
        // promoted controller is serving over them.
        if self.cluster.fence.load(Ordering::SeqCst) > self.epoch {
            return;
        }
        for i in 0..self.backends.len() {
            self.stop_backend(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, LinkDir, LinkFault};
    use crate::state::KeySet;
    use abdl::parse::parse_request;
    use abdl::Store;
    use abdl::Value;

    /// After a backend crashes mid-flight, the flight's later seqs on
    /// it are lost at once: the crash costs the two reply windows that
    /// detect it, not one more window per seq still awaited on it.
    #[test]
    fn a_crash_mid_flight_costs_only_the_windows_that_detect_it() {
        let mut c = Controller::with_replication(4, 2);
        c.set_reply_timeout(Duration::from_millis(100));
        c.set_fault_plan(FaultPlan::new().with(1, 20, FaultKind::Crash));
        c.create_file("f");
        let batch: Vec<Request> = (0..256)
            .map(|i| Request::Insert {
                record: Record::from_pairs([("FILE", Value::str("f"))]).with("v", Value::Int(i)),
            })
            .collect();
        let results = c.execute_batch(&batch);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert_eq!(c.exec_totals().sched_flights, 1);
        assert_eq!(c.alive_count(), 3);
        let timeouts = c.exec_totals().reply_timeouts;
        assert!(timeouts <= 2, "{timeouts} reply windows missed");
    }

    /// A restart messages only the restarted backend's replica-group
    /// partners: a crash armed at the next message of a backend that
    /// shares no group with it never fires, and the restarted cluster
    /// equals the same run over threads.
    #[test]
    fn a_restart_messages_only_the_restarted_backends_partners() {
        let run = |mut c: Controller| {
            c.create_file("f");
            for v in 0..64 {
                let record = Record::from_pairs([("FILE", Value::str("f"))]);
                c.execute(&Request::Insert { record: record.with("v", Value::Int(v)) }).unwrap();
            }
            c.kill_backend(0);
            let bystander = 4;
            let dir = &c.state.directory;
            assert!(dir.groups_in_use().all(|g| !(g.contains(&0) && g.contains(&bystander))));
            // The bystander has handled the create and its inserts;
            // crash it at its next message.
            let inserts = dir.iter().filter(|(_, g)| g.contains(&bystander)).count() as u64;
            c.set_fault_plan(FaultPlan::new().with(bystander, inserts + 2, FaultKind::Crash));
            c.restart_backend(0).unwrap();
            assert_eq!(c.alive_count(), 8, "the restart messaged backend {bystander}");
            c.set_fault_plan(FaultPlan::new());
            c.state_digest().unwrap()
        };
        let simulated = run(Controller::simulated(8, 2, CostModel::default()));
        assert_eq!(simulated, run(Controller::with_replication(8, 2)));
    }

    /// Link events need frames to fire on. The channel bus and the
    /// simulated link move none, so a plan holding only link events —
    /// a sever among them — leaves a run's digest and counters equal
    /// to a run with no plan at all.
    #[test]
    fn link_events_leave_frameless_links_untouched() {
        let run = |cluster: Cluster, plan: Option<FaultPlan>| {
            let mut c = Controller::spawned(4, 2, cluster).unwrap();
            if let Some(plan) = plan {
                c.set_fault_plan(plan);
            }
            c.create_file("f");
            for v in 0..40 {
                let record = Record::from_pairs([("FILE", Value::str("f"))]);
                c.execute(&Request::Insert { record: record.with("v", Value::Int(v)) }).unwrap();
                if v % 8 == 7 {
                    let update = format!("UPDATE ((FILE = f) and (v < {v})) (m = {v})");
                    c.execute(&parse_request(&update).unwrap()).unwrap();
                    c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
                }
            }
            c.kill_backend(1);
            c.restart_backend(1).unwrap();
            (c.state_digest().unwrap(), c.exec_totals())
        };
        let links = FaultPlan::seeded_links(0xBAD5EED, 4, 60)
            .with_link(0, LinkDir::Recv, 3, LinkFault::Drop)
            .with_link(1, LinkDir::Send, 2, LinkFault::Sever)
            .with_link(2, LinkDir::Send, 4, LinkFault::DelayMs(500));
        let fabrics: [fn() -> Cluster; 2] =
            [Cluster::threads, || Cluster::simulated(CostModel::default())];
        for fabric in fabrics {
            assert_eq!(run(fabric(), Some(links.clone())), run(fabric(), None));
        }
    }

    #[test]
    fn key_set_iterates_ascending_in_every_shape() {
        // One per stored record: the common `One` case stays inline.
        assert_eq!(std::mem::size_of::<KeySet>(), 16);
        let keys = |s: &KeySet| s.iter().map(|k| k.0).collect::<Vec<_>>();
        let mut s = KeySet::default();
        assert!(s.is_empty());
        s.insert(DbKey(7));
        s.insert(DbKey(7));
        assert_eq!(keys(&s), [7]);
        s.insert(DbKey(3));
        s.insert(DbKey(9));
        assert_eq!(keys(&s), [3, 7, 9]);
        s.remove(&DbKey(7));
        s.remove(&DbKey(9));
        assert!(matches!(s, KeySet::One(DbKey(3))), "{s:?}");
        s.remove(&DbKey(4));
        s.remove(&DbKey(3));
        assert!(s.is_empty());
        assert_eq!(keys(&s), Vec::<u64>::new());
    }

    fn insert(k: &mut impl Kernel, file: &str, key: i64, extra: &[(&str, Value)]) {
        let mut rec = Record::from_pairs([("FILE", Value::str(file))]);
        rec.set(file.to_owned(), Value::Int(key));
        for (a, v) in extra {
            rec.set((*a).to_owned(), v.clone());
        }
        k.execute(&Request::Insert { record: rec }).unwrap();
    }

    #[test]
    fn retrieve_merges_partitions() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[("bucket", Value::Int(i % 3))]);
        }
        let resp = c
            .execute(&parse_request("RETRIEVE ((FILE = f) and (bucket = 1)) (*)").unwrap())
            .unwrap();
        assert_eq!(resp.records().len(), 7);
        // Merged responses are sorted by database key.
        let keys: Vec<u64> = resp.records().iter().map(|(k, _)| k.0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn update_and_delete_report_logical_counts() {
        let mut c = Controller::new(3);
        c.create_file("f");
        for i in 0..12 {
            insert(&mut c, "f", i, &[("x", Value::Int(0))]);
        }
        // With k = 2, twelve records occupy twenty-four replica slots;
        // the affected counts must still be the logical ones.
        let resp = c.execute(&parse_request("UPDATE ((FILE = f) and (f >= 6)) (x = 1)").unwrap());
        assert_eq!(resp.unwrap().affected, 6);
        let resp = c.execute(&parse_request("DELETE ((FILE = f) and (x = 1))").unwrap()).unwrap();
        assert_eq!(resp.affected, 6);
        let rest = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(rest.records().len(), 6);
    }

    #[test]
    fn aggregates_are_globally_correct() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..10 {
            insert(&mut c, "f", i, &[("v", Value::Int(i))]);
        }
        let resp =
            c.execute(&parse_request("RETRIEVE (FILE = f) (COUNT(v), AVG(v), MAX(v))").unwrap());
        let groups = resp.unwrap().groups.unwrap();
        assert_eq!(groups[0].values[0], Value::Int(10));
        // Global AVG = 4.5; a naive per-backend merge could not produce
        // this for uneven partitions — and replicated copies must not
        // count twice.
        assert_eq!(groups[0].values[1], Value::Float(4.5));
        assert_eq!(groups[0].values[2], Value::Int(9));
    }

    #[test]
    fn unique_constraints_enforced_across_partitions() {
        let mut c = Controller::new(4);
        c.create_file("f");
        c.add_unique_constraint("f", vec!["name".into()]);
        insert(&mut c, "f", 1, &[("name", Value::str("a"))]);
        // The duplicate would land on a different backend; the global
        // check must still reject it.
        let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
        rec.set("f", Value::Int(2));
        rec.set("name", Value::str("a"));
        let err = c.execute(&Request::Insert { record: rec }).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. }));
    }

    #[test]
    fn retrieve_common_joins_across_backends() {
        let mut c = Controller::new(3);
        c.create_file("a");
        c.create_file("b");
        insert(&mut c, "a", 1, &[("j", Value::Int(7)), ("la", Value::str("left"))]);
        insert(&mut c, "b", 1, &[("j", Value::Int(7)), ("lb", Value::str("right"))]);
        insert(&mut c, "b", 2, &[("j", Value::Int(8))]);
        let resp = c
            .execute(
                &parse_request(
                    "RETRIEVE-COMMON ((FILE = a)) (j) COMMON ((FILE = b)) (j) (la, lb)",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(resp.records().len(), 1);
        assert_eq!(resp.records()[0].1.get("lb"), Some(&Value::str("right")));
    }

    #[test]
    fn results_are_identical_to_single_store() {
        let mut single = Store::new();
        let mut multi = Controller::new(5);
        single.create_file("f");
        multi.create_file("f");
        for i in 0..50 {
            insert(&mut single, "f", i, &[("m", Value::Int(i % 4))]);
            insert(&mut multi, "f", i, &[("m", Value::Int(i % 4))]);
        }
        for q in [
            "RETRIEVE ((FILE = f) and (m = 2)) (f, m)",
            "RETRIEVE ((FILE = f) and (f >= 40)) (*)",
            "RETRIEVE (FILE = f) (COUNT(f)) BY m",
        ] {
            let a = single.execute(&parse_request(q).unwrap()).unwrap();
            let b = multi.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(a.records(), b.records(), "records differ for {q}");
            assert_eq!(a.groups, b.groups, "groups differ for {q}");
        }
    }

    #[test]
    fn transactions_execute_sequentially_through_the_controller() {
        let mut c = Controller::new(3);
        c.create_file("f");
        let txn = abdl::parse::parse_transaction(
            "INSERT (<FILE, f>, <f, 1>, <x, 1>);
             INSERT (<FILE, f>, <f, 2>, <x, 1>);
             UPDATE ((FILE = f) and (x = 1)) (x = 2);
             RETRIEVE ((FILE = f) and (x = 2)) (*)",
        )
        .unwrap();
        let responses = c.execute_transaction(&txn).unwrap();
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[2].affected, 2);
        assert_eq!(responses[3].records().len(), 2);
    }

    #[test]
    fn killing_one_backend_loses_nothing_with_replication() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        c.kill_backend(2);
        assert_eq!(c.alive_count(), 3);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "replication keeps every record answerable");
        assert!(!resp.degraded, "one failure with k=2 is not degraded");
        assert_eq!(resp.unavailable_backends, vec![2]);
        // The system still accepts new work.
        insert(&mut c, "f", 100, &[]);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 21);
    }

    #[test]
    fn unreplicated_loss_is_reported_as_degraded() {
        let mut c = Controller::unreplicated(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        c.kill_backend(2);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 15, "one quarter of the records is gone");
        assert!(resp.degraded, "the partial answer must be flagged");
        assert_eq!(resp.unavailable_backends, vec![2]);
    }

    #[test]
    fn killing_a_whole_replica_pair_degrades() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        // Replica groups are (p, p+1); killing 1 and 2 removes both
        // copies of the records placed on group (1, 2).
        c.kill_backend(1);
        c.kill_backend(2);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert!(resp.degraded, "both replicas of some records are dead");
        assert_eq!(resp.unavailable_backends, vec![1, 2]);
        assert!(resp.records().len() < 20);
    }

    #[test]
    fn restart_restores_redundancy() {
        let mut c = Controller::new(4);
        c.create_file("f");
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        c.kill_backend(2);
        c.restart_backend(2).unwrap();
        assert_eq!(c.alive_count(), 4);
        let h = c.health();
        assert!(!h.degraded);
        assert!(h.unavailable.is_empty());
        // Full redundancy is back: killing the *neighbor* (which shares
        // replica pairs with 2) now loses nothing.
        c.kill_backend(3);
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "second failure after recovery loses nothing");
        assert!(!resp.degraded);
    }

    #[test]
    fn create_file_failure_is_propagated() {
        let mut c = Controller::new(2);
        c.kill_backend(0);
        c.kill_backend(1);
        assert!(matches!(c.try_create_file("f"), Err(Error::Unavailable(_))));
        // Through the infallible trait surface, the error arrives at
        // the next execute.
        c.create_file("g");
        let err = c
            .execute(&parse_request("RETRIEVE (FILE = g) (*)").unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)));
    }

    #[test]
    fn durable_controller_rebuilds_identically_from_the_log() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(4, 2, log.clone()).unwrap();
        c.try_create_file("f").unwrap();
        c.add_unique_constraint("f", vec!["name".into()]);
        for i in 0..20 {
            insert(&mut c, "f", i, &[("x", Value::Int(i % 3))]);
        }
        c.execute(&parse_request("UPDATE ((FILE = f) and (x = 0)) (x = 9)").unwrap()).unwrap();
        c.execute(&parse_request("DELETE ((FILE = f) and (x = 1))").unwrap()).unwrap();
        c.kill_backend(1);
        c.restart_backend(1).unwrap();
        c.kill_backend(3);
        let live = c.state_digest().unwrap();

        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.state_digest().unwrap(), live, "snapshot+WAL rebuild ≡ live state");
        assert_eq!(r.key_high_water(), c.key_high_water());
        assert_eq!(r.alive_count(), c.alive_count());
        for q in [
            "RETRIEVE (FILE = f) (*)",
            "RETRIEVE ((FILE = f) and (x = 9)) (f, x)",
            "RETRIEVE (FILE = f) (COUNT(f)) BY x",
        ] {
            let a = c.execute(&parse_request(q).unwrap()).unwrap();
            let b = r.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(a.records(), b.records(), "records differ for {q}");
            assert_eq!(a.groups, b.groups, "groups differ for {q}");
        }
    }

    #[test]
    fn snapshot_compaction_preserves_recovery_and_truncates_the_log() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(3, 2, log.clone()).unwrap();
        c.set_snapshot_every(7);
        c.try_create_file("f").unwrap();
        for i in 0..25 {
            insert(&mut c, "f", i, &[]);
        }
        assert!(log.log_len() < 25, "cadence must have compacted the log");
        let live = c.state_digest().unwrap();
        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.state_digest().unwrap(), live);
    }

    #[test]
    fn public_key_reservations_survive_recovery() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(2, 1, log.clone()).unwrap();
        // Language layers mint entity ids this way; the recovered
        // allocator must not re-issue them.
        let k1 = c.reserve_key();
        let k2 = c.reserve_key();
        assert_eq!(k2.0, k1.0 + 1);
        drop(c);
        let mut r = Controller::recover_with(log).unwrap();
        assert_eq!(r.reserve_key().0, k2.0 + 1);
    }

    #[test]
    fn durable_refuses_an_already_used_log_and_recover_an_empty_one() {
        let log = crate::MemLog::new();
        let c = Controller::durable_with(2, 2, log.clone()).unwrap();
        drop(c);
        assert!(matches!(Controller::durable_with(2, 2, log), Err(Error::Internal(_))));
        assert!(matches!(Controller::recover_with(crate::MemLog::new()), Err(Error::Internal(_))));
    }

    #[test]
    fn crash_fault_is_survived_and_detected() {
        let mut c = Controller::new(3);
        c.set_reply_timeout(Duration::from_millis(100));
        c.create_file("f");
        // Backend 1 crashes on its 5th message.
        c.set_fault_plan(FaultPlan::new().with(1, 5, FaultKind::Crash));
        for i in 0..20 {
            insert(&mut c, "f", i, &[]);
        }
        assert_eq!(c.alive_count(), 2, "the crash was detected");
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "no record was lost to the crash");
    }

    fn insert_req(file: &str, key: i64, extra: &[(&str, Value)]) -> Request {
        let mut rec = Record::from_pairs([("FILE", Value::str(file))]);
        rec.set(file.to_owned(), Value::Int(key));
        for (a, v) in extra {
            rec.set((*a).to_owned(), v.clone());
        }
        Request::Insert { record: rec }
    }

    #[test]
    fn batched_execution_is_equivalent_to_serial_admission_order() {
        let mut serial = Controller::new(4);
        let mut batched = Controller::new(4);
        for c in [&mut serial, &mut batched] {
            c.create_file("f");
            c.add_unique_constraint("f", vec!["f".into()]);
        }
        let requests: Vec<Request> =
            (0..16).map(|i| insert_req("f", i, &[("x", Value::Int(i % 3))])).collect();
        for r in &requests {
            serial.execute(r).unwrap();
        }
        for res in Kernel::execute_batch(&mut batched, &requests) {
            res.unwrap();
        }
        assert_eq!(batched.unique_index_digest(), serial.unique_index_digest());
        assert_eq!(batched.state_digest().unwrap(), serial.state_digest().unwrap());
        let t = batched.exec_totals();
        assert_eq!(t.batched_requests, 16);
        assert!(t.sched_flights >= 1, "non-conflicting inserts must fly together");
        assert!(t.sched_max_flight >= 2, "a flight holds more than one request");
    }

    #[test]
    fn batch_rejects_a_duplicate_claimed_mid_flight() {
        let mut c = Controller::new(3);
        c.create_file("f");
        c.add_unique_constraint("f", vec!["f".into()]);
        // Keys 0..4 commute; the re-claim of key 2 must stall behind
        // the flight, then lose its unique check once it has landed.
        let mut reqs: Vec<Request> = (0..4).map(|i| insert_req("f", i, &[])).collect();
        reqs.push(insert_req("f", 2, &[]));
        reqs.push(insert_req("f", 9, &[]));
        let results = Kernel::execute_batch(&mut c, &reqs);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                assert!(
                    matches!(r, Err(Error::DuplicateKey { .. })),
                    "the later-admitted duplicate must lose"
                );
            } else {
                assert!(r.is_ok(), "request {i} should succeed");
            }
        }
        let t = c.exec_totals();
        assert!(t.conflict_stalls >= 1, "the duplicate had to close the flight");
        let resp = c.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 5);
    }

    #[test]
    fn mixed_batch_reads_observe_exactly_the_writes_admitted_before_them() {
        let mut c = Controller::new(3);
        c.create_file("f");
        c.add_unique_constraint("f", vec!["f".into()]);
        let reqs = vec![
            insert_req("f", 1, &[]),
            insert_req("f", 2, &[]),
            parse_request("RETRIEVE (FILE = f) (*)").unwrap(),
            insert_req("f", 3, &[]),
        ];
        let results = Kernel::execute_batch(&mut c, &reqs);
        let seen = results[2].as_ref().unwrap().records().len();
        assert_eq!(seen, 2, "the read sees the two inserts admitted ahead of it, not the third");
        assert!(results[3].as_ref().is_ok());
    }

    #[test]
    fn batch_wal_appends_group_commit_under_one_sync() {
        let log = crate::MemLog::new();
        let mut c = Controller::durable_with(3, 2, log).unwrap();
        c.try_create_file("f").unwrap();
        c.add_unique_constraint("f", vec!["f".into()]);
        let before = c.exec_totals().wal_syncs;
        let reqs: Vec<Request> = (0..64).map(|i| insert_req("f", i, &[])).collect();
        for r in Kernel::execute_batch(&mut c, &reqs) {
            r.unwrap();
        }
        let t = c.exec_totals();
        assert_eq!(t.wal_syncs - before, 1, "the whole batch pays a single sync");
        assert_eq!(t.wal_max_batch, 64, "all 64 appends flushed together");
        // The same inserts one by one pay one sync each.
        let before = t.wal_syncs;
        for i in 64..128 {
            c.execute(&insert_req("f", i, &[])).unwrap();
        }
        assert_eq!(c.exec_totals().wal_syncs - before, 64);
    }
}
