//! The deterministic simulated-time twin of the controller.
//!
//! Wall-clock benchmarking of the threaded controller on a single
//! shared-memory machine cannot exhibit *disk* parallelism — all
//! backends contend for the same CPU and there are no disks. The cost
//! model recovers the quantity the MBDS claims are about: per-request
//! response time composed of bus messages, the *maximum* of the
//! backends' disk times (they run in parallel), and result merging at
//! the controller.
//!
//! ```text
//! response_time = t_broadcast
//!               + max_i (blocks_touched_i × block_time
//!                        + records_returned_i × record_time)
//!               + n_backends × msg_time            (per-backend reply)
//! ```
//!
//! Result forwarding is charged *inside* the parallel phase: each
//! backend transmits its own partial result concurrently with the
//! others (MBDS backends have private channels to the controller), so
//! growing the response size proportionally with the backends leaves
//! the per-backend phase — and the response time — invariant.
//!
//! The simulator shares the threaded controller's whole protocol
//! bookkeeping — placement, directory, unique index, residency,
//! membership, rebalance planning and the WAL — through one embedded
//! [`ClusterState`]; it keeps only its data plane: one in-memory
//! backend [`Store`] per index, the cost clock, and `deliver`, which
//! hands each message to the same backend step the worker threads and
//! backend processes run (`crate::link`: fence, [`FaultPlan`] count,
//! apply) and charges the clock, so a seeded fault schedule produces
//! bit-identical results in both kernels. It also serves as a hot
//! standby's mirror: [`crate::Standby`] replays the primary's log into
//! one and hands its state to the promoted controller.
//!
//! The parameters are calibrated to 1980s hardware orders of magnitude
//! (a ~30 ms track read, millisecond-scale bus messages); only the
//! *shape* of the curves matters for the reproduction.

use crate::controller::DEFAULT_REPLICATION;
use crate::fault::FaultPlan;
use crate::link::{Backend, Delivery, Verdict};
use crate::net::WireOp;
use crate::state::{check_config, ClusterState, DataPlane};
use crate::wal::{LogRecord, LogStore, SnapshotData, Wal};
use abdl::{
    DbKey, Error, ExecTotals, Kernel, KernelHealth, Record, Request, Response, Result, Store,
    Transaction,
};
use std::collections::HashSet;

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

/// A serial, deterministic N-backend kernel with simulated response
/// times. Implements [`Kernel`], so whole MLDS workloads run on it.
pub struct SimCluster {
    /// Placement, index, membership and log — shared with the
    /// threaded controller's code.
    state: ClusterState,
    /// One in-memory backend per index. Its message counter drives
    /// [`FaultPlan`] lookups exactly as a worker thread's does, except
    /// that a restart keeps counting.
    backends: Vec<Backend>,
    cost: CostModel,
    faults: FaultPlan,
    /// Simulated time of the last executed request (µs).
    last_response_us: f64,
    /// Accumulated simulated time (µs).
    total_us: f64,
    requests_executed: u64,
    /// Cumulative execution counters (see [`ExecTotals`]).
    totals: ExecTotals,
}

impl SimCluster {
    /// A cluster of `n` backends with the default cost model and the
    /// default replication factor (2, clamped to `n`).
    pub fn new(n: usize) -> Self {
        SimCluster::with_config(n, DEFAULT_REPLICATION.min(n), CostModel::default())
    }

    /// An unreplicated (k = 1) cluster: the paper's original MBDS
    /// layout, used by the scaling experiments whose claims are about
    /// partitioning, not redundancy.
    pub fn unreplicated(n: usize) -> Self {
        SimCluster::with_config(n, 1, CostModel::default())
    }

    /// A cluster of `n` backends with an explicit cost model and the
    /// default replication factor.
    pub fn with_cost(n: usize, cost: CostModel) -> Self {
        SimCluster::with_config(n, DEFAULT_REPLICATION.min(n), cost)
    }

    /// Full control: `n` backends, `k` copies per record, explicit cost
    /// model.
    pub fn with_config(n: usize, k: usize, cost: CostModel) -> Self {
        SimCluster {
            state: ClusterState::new(n, k),
            backends: (0..n).map(Backend::new).collect(),
            cost,
            faults: FaultPlan::new(),
            last_response_us: 0.0,
            total_us: 0.0,
            requests_executed: 0,
            totals: ExecTotals::default(),
        }
    }

    /// A **durable** simulated cluster: every directory mutation is
    /// appended to `store` exactly like the threaded controller's WAL,
    /// so crash-recovery schedules can be explored deterministically
    /// without threads.
    pub fn durable_with(
        n: usize,
        k: usize,
        cost: CostModel,
        store: impl LogStore + 'static,
    ) -> Result<Self> {
        if store.has_state()? {
            return Err(Error::Internal(
                "log already holds cluster state; use SimCluster::recover_with".into(),
            ));
        }
        let mut sim = SimCluster::with_config(n, k, cost);
        sim.state.wal = Some(Wal::create(Box::new(store)));
        sim.snapshot_now()?;
        Ok(sim)
    }

    /// Rebuild a simulated cluster from a snapshot+WAL store. The
    /// replayed traffic is not charged: the recovered cluster starts
    /// with a zeroed clock. The cost model is not part of durable state
    /// and is supplied by the caller.
    pub fn recover_with(cost: CostModel, store: impl LogStore + 'static) -> Result<Self> {
        let (snapshot, entries, wal) = Wal::load(Box::new(store))?;
        let snapshot = snapshot.ok_or_else(|| {
            Error::Internal("no snapshot found — nothing to recover".into())
        })?;
        check_config(&snapshot)?;
        let mut sim = SimCluster::with_config(snapshot.backends, snapshot.replication, cost);
        // `wal` stays `None` through the replay so nothing re-logs.
        sim.load_snapshot(&snapshot)?;
        for entry in &entries {
            sim.replay(entry)?;
        }
        // An interrupted membership change re-derives its remaining
        // moves from the rebuilt state (same as the threaded
        // controller's recovery).
        sim.state.replan_rebalance();
        sim.reset_clock();
        sim.state.wal = Some(wal);
        Ok(sim)
    }

    /// Number of backends (alive or dead).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Number of backends currently alive.
    pub fn alive_count(&self) -> usize {
        self.state.health.serving_count()
    }

    /// Copies kept per record.
    pub fn replication(&self) -> usize {
        self.state.replication
    }

    /// Install a fault plan (same semantics and message counters as the
    /// threaded controller's).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Compact the log into a snapshot every `every` appends (0
    /// disables). No-op on a non-durable cluster.
    pub fn set_snapshot_every(&mut self, every: u64) {
        if let Some(w) = self.state.wal.as_mut() {
            w.set_snapshot_every(every);
        }
    }

    /// Crash-point injection: the `n`th WAL append completes durably
    /// and then fails the cluster. No-op when not durable.
    pub fn set_wal_crash_after(&mut self, n: u64) {
        if let Some(w) = self.state.wal.as_mut() {
            w.set_crash_after(n);
        }
    }

    /// True once an armed crash point has fired.
    pub fn wal_crashed(&self) -> bool {
        self.state.wal.as_ref().is_some_and(Wal::crashed)
    }

    /// WAL appends performed by this incarnation (0 when not durable).
    pub fn wal_appends(&self) -> u64 {
        self.state.wal.as_ref().map_or(0, Wal::total_appends)
    }

    /// The key allocator's high-water mark.
    pub fn key_high_water(&self) -> u64 {
        self.state.next_key
    }

    /// A deterministic rendering of the unique-value index — the same
    /// format as `Controller::unique_index_digest`, so the two kernels
    /// (and a recovered cluster) can be compared byte-for-byte.
    pub fn unique_index_digest(&self) -> String {
        self.state.unique_index_digest()
    }

    /// The full compacted state, read straight off the stores (the
    /// simulator needs no broadcasts).
    fn snapshot_of(&self) -> SnapshotData {
        self.state.snapshot_data(|k, group| {
            group
                .iter()
                .copied()
                .filter(|&j| self.state.health.is_serving(j))
                .find_map(|j| self.backends[j].store.get(k).cloned())
        })
    }

    /// A deterministic, byte-comparable rendering of the cluster's full
    /// logical state (exactly the snapshot text).
    pub fn state_digest(&self) -> String {
        self.snapshot_of().to_text()
    }

    /// Hand the cluster state to a promoting [`crate::Standby`]: the
    /// new controller takes it over by value.
    pub(crate) fn into_state(self) -> ClusterState {
        self.state
    }

    /// Recovery step 1: the snapshot's bookkeeping, then its records
    /// loaded straight into the stores of their live group members.
    pub(crate) fn load_snapshot(&mut self, snap: &SnapshotData) -> Result<()> {
        self.state.apply_snapshot(snap);
        for file in &snap.files {
            for b in &mut self.backends {
                b.store.create_file(file.clone());
            }
        }
        let dead: HashSet<usize> = snap.dead.iter().copied().collect();
        for (key, group, record) in &snap.places {
            let Some(record) = record else { continue };
            for &i in group {
                if !dead.contains(&i) {
                    self.backends[i].store.insert_with_key(DbKey(*key), record.clone())?;
                }
            }
        }
        for &i in &snap.dead {
            self.state.health.channel_closed(i);
        }
        Ok(())
    }

    /// Recovery step 2: replay one post-snapshot log entry — the
    /// bookkeeping through `ClusterState::apply_entry`, then the
    /// stores' half. A standby's mirror is fed the same way.
    pub(crate) fn replay(&mut self, entry: &LogRecord) -> Result<()> {
        self.state.apply_entry(entry);
        match entry {
            LogRecord::CreateFile { name } => {
                self.create_file(name);
                Ok(())
            }
            LogRecord::Unique { file, attrs } => {
                self.register_unique(file, attrs.clone());
                Ok(())
            }
            LogRecord::Insert { key, group, record } => {
                for &i in group {
                    if self.state.health.is_serving(i) {
                        self.backends[i].store.insert_with_key(DbKey(*key), record.clone())?;
                    }
                }
                Ok(())
            }
            LogRecord::Exec { request } => self.execute_inner(request).map(|_| ()),
            LogRecord::Dead { backend } => {
                self.kill_backend(*backend);
                Ok(())
            }
            LogRecord::RestartBegin { backend } => self.restart_backend(*backend),
            // Same bracket discipline for rebalance moves: the chunk is
            // (re)performed at the begin marker with exactly the keys
            // the live run bracketed, keeping this mirror in lockstep
            // with the primary's per-chunk placement commits.
            LogRecord::MoveBegin { from, to, keys } => {
                let keys: Vec<DbKey> = keys.iter().map(|&k| DbKey(k)).collect();
                self.move_group_inner(from, to, &keys)
            }
            LogRecord::AddBackend { .. } => {
                self.grow_stores();
                Ok(())
            }
            LogRecord::DrainEnd { backend } => {
                self.retire_backend(*backend);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Failure injection: backend `i` is gone and its store with it
    /// (mirroring a killed worker thread).
    pub fn kill_backend(&mut self, i: usize) {
        if i >= self.backends.len() || !self.state.health.is_serving(i) {
            return;
        }
        self.state.health.channel_closed(i);
        self.state.log_append_stashing(LogRecord::Dead { backend: i });
        self.maybe_snapshot();
    }

    /// Recovery: bring backend `i` back with an empty store, replay the
    /// schema, and re-replicate its records from surviving replicas.
    /// The recovery traffic is charged in simulated time, so E13 can
    /// measure recovery cost against data volume.
    pub fn restart_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.state.health.is_serving(i) {
            return Ok(());
        }
        // Group commit: the restart's begin/end markers are buffered
        // and synced together, exactly like the threaded controller.
        self.batched(|s| s.restart_backend_inner(i))?;
        self.maybe_snapshot();
        Ok(())
    }

    fn restart_backend_inner(&mut self, i: usize) -> Result<()> {
        // Same WAL protocol as the threaded controller: begin before
        // any effect, end after re-replication; replay re-runs the
        // restart at the begin marker.
        self.state.log_append(LogRecord::RestartBegin { backend: i })?;
        let restarted = &mut self.backends[i];
        restarted.store = Store::new();
        self.state.health.restarted(i);
        for file in &self.state.files {
            restarted.handled += 1;
            self.totals.messages_sent += 1;
            restarted.store.create_file(file);
        }
        // Anti-entropy from the directory: copy each record this
        // backend should hold from any surviving replica.
        let mut copied = 0u64;
        let keys: Vec<(DbKey, Vec<usize>)> = self
            .state
            .directory
            .iter()
            .filter(|(_, group)| group.contains(&i))
            .map(|(k, g)| (k, g.to_vec()))
            .collect();
        for (key, group) in keys {
            let Some(donor) =
                group.iter().copied().find(|&j| j != i && self.state.health.is_serving(j))
            else {
                continue; // both replicas were lost; nothing to copy
            };
            let Some(rec) = self.backends[donor].store.get(key).cloned() else { continue };
            self.backends[i].handled += 1;
            self.totals.messages_sent += 1;
            self.backends[i].store.insert_with_key(key, rec)?;
            copied += 1;
        }
        // Schema replay + per-record copy messages, then the restarted
        // backend writes the copied blocks while donors read them in
        // parallel.
        let mut busy = vec![0.0; self.backends.len()];
        busy[i] = copied as f64 * self.cost.block_time_us;
        self.charge(&busy);
        self.state.log_append(LogRecord::RestartEnd { backend: i })
    }

    /// Simulated response time of the most recent request, µs.
    pub fn last_response_us(&self) -> f64 {
        self.last_response_us
    }

    /// Total simulated time across all requests, µs.
    pub fn total_us(&self) -> f64 {
        self.total_us
    }

    /// Requests executed so far.
    pub fn requests_executed(&self) -> u64 {
        self.requests_executed
    }

    /// Reset the clocks (not the data).
    pub fn reset_clock(&mut self) {
        self.last_response_us = 0.0;
        self.total_us = 0.0;
        self.requests_executed = 0;
    }

    /// Total records stored across backends (replicas counted once).
    pub fn len(&self) -> usize {
        self.state.directory.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn charge(&mut self, busy_us_per_backend: &[f64]) {
        self.charge_replies(busy_us_per_backend, self.backends.len());
    }

    /// Like [`SimCluster::charge`] but with an explicit reply count: a
    /// routed round only hears back from the backends it contacted, so
    /// scoped requests pay fewer reply messages than a broadcast.
    fn charge_replies(&mut self, busy_us_per_backend: &[f64], replies: usize) {
        let parallel = busy_us_per_backend.iter().copied().fold(0.0f64, f64::max);
        let t = self.cost.msg_time_us // broadcast on the bus
            + parallel                 // disk + result forwarding, max over backends
            + replies as f64 * self.cost.msg_time_us; // per-backend replies
        self.last_response_us = t;
        self.total_us += t;
        self.requests_executed += 1;
    }

    /// Deliver one message to backend `i` through the backends' shared
    /// step: `Crash`/`Panic` kill the backend before it executes;
    /// `DropReply` executes but the controller never hears back (and
    /// gives the backend up for dead); `DelayReplyMs` arrives late,
    /// charged on the clock. Returns the reply, or `None` when the
    /// controller gets nothing.
    fn deliver(
        &mut self,
        i: usize,
        extra_busy_us: &mut f64,
        op: WireOp,
    ) -> Option<Result<Response>> {
        self.totals.messages_sent += 1;
        let faults = &self.faults;
        match self.backends[i].step(0, 0, op, |i, n| faults.action(i, n)) {
            Verdict::Reply(result, Delivery::Now) => Some(result),
            Verdict::Reply(result, Delivery::AfterMs(ms)) => {
                *extra_busy_us += ms as f64 * 1000.0;
                Some(result)
            }
            _ => {
                self.note_dead(i);
                None
            }
        }
    }

    /// A delivery found backend `i` dead: record it durably so recovery
    /// replays the same alive set.
    fn note_dead(&mut self, i: usize) {
        self.state.health.channel_closed(i);
        self.state.log_append_stashing(LogRecord::Dead { backend: i });
    }

    // --- Elastic membership: online backend add / drain -------------
    //
    // The same WAL grammar, state-based planners and throttled queue as
    // the threaded controller (all in `ClusterState`), so crash/recovery
    // schedules through membership changes can be explored
    // deterministically without threads.

    /// Group moves still queued (0 = the cluster is in its goal
    /// placement).
    pub fn rebalance_pending(&self) -> usize {
        self.state.rebalancer.pending()
    }

    /// Bound the group moves piggybacked on each foreground request
    /// (floored at 1).
    pub fn set_rebalance_throttle(&mut self, throttle: usize) {
        self.state.rebalancer.set_throttle(throttle);
    }

    /// Backends currently being drained, ascending.
    pub fn draining_backends(&self) -> Vec<usize> {
        self.state.draining.iter().copied().collect()
    }

    /// Add one backend and rebalance onto it online — the simulated
    /// twin of [`crate::Controller::add_backend`]. Returns the new
    /// backend's index.
    pub fn add_backend(&mut self) -> Result<usize> {
        let i = self.state.begin_add()?;
        self.grow_stores();
        self.maybe_snapshot();
        Ok(i)
    }

    /// Drain backend `i` out of the cluster online — the simulated twin
    /// of [`crate::Controller::drain_backend`]. Re-draining an
    /// already-draining backend is a no-op.
    pub fn drain_backend(&mut self, i: usize) -> Result<()> {
        if self.state.begin_drain(i)? {
            self.maybe_snapshot();
        }
        Ok(())
    }

    /// Drain the rebalance queue synchronously.
    pub fn finish_rebalance(&mut self) -> Result<()> {
        while self.rebalance_step()? {}
        self.maybe_snapshot();
        Ok(())
    }

    /// Add a store per backend the cluster state has widened to; each
    /// replays the schema (message-counted, like the threaded
    /// controller's joining handshake).
    fn grow_stores(&mut self) {
        while self.backends.len() < self.state.width() {
            let i = self.backends.len();
            let mut joined = Backend::new(i);
            for file in &self.state.files {
                joined.handled += 1;
                self.totals.messages_sent += 1;
                joined.store.create_file(file);
            }
            self.backends.push(joined);
        }
    }

    /// The placement-independent projection of the cluster's contents
    /// (see [`crate::Controller::logical_digest`]): two clusters of
    /// different shapes holding the same data produce equal logical
    /// digests.
    pub fn logical_digest(&self) -> String {
        crate::controller::logical_digest_of(&self.snapshot_of())
    }
}

impl DataPlane for SimCluster {
    fn state(&mut self) -> &mut ClusterState {
        &mut self.state
    }

    fn totals(&mut self) -> &mut ExecTotals {
        &mut self.totals
    }

    /// Members run serially: the cost model already charges backend
    /// work as if concurrent members overlapped (per-backend busy times
    /// are maxed, not summed), so only the scheduler's accounting needs
    /// mirroring.
    fn execute_flight(&mut self, flight: &[Request]) -> Vec<Result<Response>> {
        flight.iter().map(|r| self.execute(r)).collect()
    }

    /// Send a request to one round of backends, mirroring the threaded
    /// controller's `send_round` exactly: an empty routed target set
    /// answers immediately with an empty response, and a backend dying
    /// mid-round only removes its partial answer.
    fn send_round(&mut self, request: &Request, targets: Option<&[usize]>) -> Result<Response> {
        if self.alive_count() == 0 {
            return Err(Error::Unavailable("no live backends".into()));
        }
        let round: Vec<usize> = match targets {
            None => (0..self.backends.len()).collect(),
            Some(t) => t.to_vec(),
        };
        let mut merged = Response::default();
        let mut busy = Vec::with_capacity(round.len());
        let mut first_err = None;
        let mut contacted = 0usize;
        for i in round {
            if !self.state.health.is_serving(i) {
                continue;
            }
            contacted += 1;
            let mut extra = 0.0;
            match self.deliver(i, &mut extra, WireOp::Exec(request.clone())) {
                Some(Ok(resp)) => {
                    busy.push(
                        resp.stats.blocks_touched as f64 * self.cost.block_time_us
                            + resp.stats.records_returned as f64 * self.cost.record_time_us
                            + extra,
                    );
                    merged.merge(resp);
                }
                Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                Some(Err(_)) => {}
                None => {} // dead mid-round; survivors carry the answer
            }
        }
        match targets {
            // Broadcast keeps the historical all-backend reply charge.
            None => self.charge(&busy),
            Some(_) => self.charge_replies(&busy, contacted),
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        merged.dedup_by_key();
        Ok(merged)
    }

    fn route(&self, query: &abdl::Query) -> Option<Vec<usize>> {
        self.state.route_targets(query)
    }

    /// The same wave-structured replica scan as the threaded
    /// controller: all outstanding copies of a wave are sent before any
    /// reply is observed. The simulator is serial, so the waves only
    /// matter for contacted-backend membership — the cost model already
    /// charges the disk phase as a max over backends.
    fn insert(&mut self, record: &Record) -> Result<Response> {
        self.state.check_unique(record)?;
        let file = record.file().ok_or(Error::MissingFileKeyword)?.to_owned();
        let key = self.state.alloc_key();
        let k = self.state.replication;
        let primary = self.state.partitioner.place_group(&file, k)[0];
        let n = self.backends.len();
        let mut assigned = Vec::new();
        let mut busy = vec![0.0; n];
        let mut scanned = 0usize;
        while assigned.len() < k && scanned < n {
            let wave = self.state.next_wave(primary, &mut scanned, k - assigned.len());
            if wave.is_empty() {
                break;
            }
            let mut first_err = None;
            for &i in &wave {
                let mut extra = 0.0;
                match self.deliver(i, &mut extra, WireOp::InsertWithKey(key, record.clone())) {
                    Some(Ok(_)) => {
                        busy[i] = self.cost.block_time_us + extra;
                        assigned.push(i);
                    }
                    // Drain the whole wave before erroring, like the
                    // threaded controller's reply loop.
                    Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                    Some(Err(_)) => {}
                    None => {} // died mid-insert; the next wave substitutes
                }
            }
            if let Some(e) = first_err {
                // Key and rotor step are consumed even though the
                // insert failed; log that so recovery agrees.
                self.state.log_append(LogRecord::Alloc { key: key.0, file })?;
                return Err(e);
            }
        }
        if assigned.is_empty() {
            self.state.log_append(LogRecord::Alloc { key: key.0, file })?;
            return Err(Error::Unavailable("no live backend accepted the insert".into()));
        }
        self.state.commit_insert(key, &file, assigned, record)?;
        self.charge(&busy);
        Ok(Response::with_affected(1, Default::default()))
    }

    fn finalize(&mut self, mut resp: Response) -> Response {
        let h = self.health();
        resp.degraded = h.degraded;
        resp.unavailable_backends = h.unavailable;
        resp
    }

    fn move_group_inner(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> Result<()> {
        self.state.log_move_begin(from, to, keys)?;
        let added: Vec<usize> = to.iter().copied().filter(|m| !from.contains(m)).collect();
        let removed: Vec<usize> = from.iter().copied().filter(|m| !to.contains(m)).collect();
        // Pull one surviving copy of each chunk record from the group's
        // alive members — key-scoped, never a file scan.
        let sources: Vec<usize> =
            from.iter().copied().filter(|&m| self.state.health.is_serving(m)).collect();
        let mut moved: Vec<(DbKey, Record)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for &m in &sources {
            if let Some(result) = self.deliver(m, &mut 0.0, WireOp::FetchKeys(keys.to_vec())) {
                for (key, rec) in result?.into_records() {
                    if seen.insert(key.0) {
                        moved.push((key, rec));
                    }
                }
            }
        }
        moved.sort_by_key(|(k, _)| k.0);
        // Copy to the members the move adds …
        let mut busy = vec![0.0; self.backends.len()];
        for (key, rec) in &moved {
            let bytes = rec.to_string().len() as u64;
            for &m in &added {
                if !self.state.health.is_serving(m) {
                    continue;
                }
                let mut extra = 0.0;
                let copy = WireOp::InsertWithKey(*key, rec.clone());
                if let Some(result) = self.deliver(m, &mut extra, copy) {
                    result?;
                }
                busy[m] += self.cost.block_time_us + extra;
                self.totals.move_bytes += bytes;
            }
            self.state.resident_move(rec, &added, &removed);
        }
        // … physically remove from the members it abandons (a stale
        // copy would be resurrected by the next broadcast read) …
        for &m in &removed {
            if !self.state.health.is_serving(m) {
                continue;
            }
            let _ = self.deliver(m, &mut 0.0, WireOp::DeleteKeys(keys.to_vec()));
        }
        self.charge(&busy);
        // … and only then commit the new placement.
        self.state.end_move(from, to, keys, &mut self.totals)
    }

    /// The store goes away without a `dead` log record — the
    /// simulated analogue of the threaded controller's shutdown.
    fn retire_backend(&mut self, i: usize) {
        if i < self.backends.len() {
            self.state.health.channel_closed(i);
            self.state.retired.insert(i);
        }
    }

    fn snapshot(&mut self) -> Result<SnapshotData> {
        Ok(self.snapshot_of())
    }
}

impl Kernel for SimCluster {
    fn create_file(&mut self, name: &str) {
        if !self.state.files.iter().any(|f| f == name) {
            self.state.files.push(name.to_owned());
        }
        for i in 0..self.backends.len() {
            if !self.state.health.is_serving(i) {
                continue;
            }
            let _ = self.deliver(i, &mut 0.0, WireOp::CreateFile(name.to_owned()));
        }
        self.state.log_append_stashing(LogRecord::CreateFile { name: name.to_owned() });
        self.maybe_snapshot();
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.register_unique(file, attrs.clone());
        self.state.log_append_stashing(LogRecord::Unique { file: file.to_owned(), attrs });
    }

    fn reserve_key(&mut self) -> DbKey {
        let key = self.state.alloc_key();
        self.state.log_append_stashing(LogRecord::ReserveKey { key: key.0 });
        key
    }

    fn execute(&mut self, request: &Request) -> Result<Response> {
        if let Some(e) = self.state.pending_error.take() {
            return Err(e);
        }
        self.totals.requests += 1;
        let msgs_before = self.totals.messages_sent;
        let mut resp = self.execute_inner(request)?;
        resp.messages_sent = self.totals.messages_sent - msgs_before;
        self.totals.records_examined += resp.stats.records_examined;
        // Piggyback up to `throttle` queued rebalance moves on this
        // foreground request, after the message attribution above so
        // move traffic never pollutes the response's own counters.
        self.pump_rebalance();
        self.maybe_snapshot();
        Ok(resp)
    }

    fn execute_transaction(&mut self, txn: &Transaction) -> Result<Vec<Response>> {
        // Group commit: one sync for the whole transaction's appends
        // (a durability optimisation, not atomicity — mirrors the
        // threaded controller).
        self.batched(|s| txn.requests.iter().map(|r| s.execute(r)).collect())
    }

    fn execute_batch(&mut self, requests: &[Request]) -> Vec<Result<Response>> {
        DataPlane::execute_batch(self, requests)
    }

    fn exec_totals(&self) -> ExecTotals {
        self.state.with_wal_stats(self.totals)
    }

    fn health(&self) -> KernelHealth {
        KernelHealth {
            backends: self.backends.len(),
            unavailable: self.state.health.unavailable(),
            degraded: self.state.degraded(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdl::parse::parse_request;
    use abdl::Value;

    fn load(cluster: &mut SimCluster, records: usize) {
        cluster.create_file("f");
        for i in 0..records {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i as i64));
            rec.set("m", Value::Int((i % 10) as i64));
            cluster.execute(&Request::Insert { record: rec }).unwrap();
        }
        cluster.reset_clock();
    }

    /// Cost model for the shape tests: realistic disk and bus, light
    /// record forwarding so the curve is dominated by the disk phase
    /// (the MBDS papers' regime of large responses is benched in E7/E8).
    fn shape_cost() -> CostModel {
        CostModel { block_time_us: 30_000.0, msg_time_us: 2_000.0, record_time_us: 10.0 }
    }

    /// The simulator's batch path mirrors the threaded controller's
    /// scheduler accounting (flights, read/mixed split, stalls) while
    /// producing exactly the serial answers.
    #[test]
    fn batch_mirrors_scheduler_accounting_and_serial_results() {
        let mut cluster = SimCluster::new(4);
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
            let mut cluster = SimCluster::with_config(n, 1, shape_cost());
            load(&mut cluster, 40_000);
            cluster.execute(&query).unwrap();
            times.push(cluster.last_response_us());
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
            let mut cluster = SimCluster::with_config(n, 1, shape_cost());
            load(&mut cluster, 1_000 * n);
            cluster.execute(&query).unwrap();
            times.push(cluster.last_response_us());
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

    /// The simulator returns exactly the same answers as a single
    /// store — simulation (and replication) only changes the clock.
    #[test]
    fn sim_results_match_single_store() {
        let mut single = Store::new();
        single.create_file("f");
        let mut sim = SimCluster::new(6);
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

    #[test]
    fn clock_accumulates_and_resets() {
        let mut cluster = SimCluster::new(2);
        load(&mut cluster, 100);
        assert_eq!(cluster.total_us(), 0.0);
        cluster.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert!(cluster.last_response_us() > 0.0);
        assert_eq!(cluster.total_us(), cluster.last_response_us());
        assert_eq!(cluster.requests_executed(), 1);
    }

    #[test]
    fn kill_and_restart_mirror_the_threaded_controller() {
        let mut sim = SimCluster::new(4);
        load(&mut sim, 20);
        sim.kill_backend(2);
        let resp = sim.execute(&parse_request("RETRIEVE (FILE = f) (*)").unwrap()).unwrap();
        assert_eq!(resp.records().len(), 20, "replication keeps every record answerable");
        assert!(!resp.degraded);
        assert_eq!(resp.unavailable_backends, vec![2]);

        let before = sim.total_us();
        sim.restart_backend(2).unwrap();
        assert!(sim.total_us() > before, "recovery costs simulated time");
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
        let mut sim = SimCluster::new(4);
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
            let mut sim = SimCluster::new(5);
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

    /// A durable simulator rebuilt from its log equals the live one:
    /// same state digest, key high-water mark and query answers.
    #[test]
    fn durable_sim_cluster_rebuilds_identically_from_the_log() {
        let log = crate::wal::MemLog::new();
        let mut sim =
            SimCluster::durable_with(4, 2, CostModel::default(), log.clone()).unwrap();
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

        let mut back = SimCluster::recover_with(CostModel::default(), log).unwrap();
        assert_eq!(back.state_digest(), sim.state_digest());
        assert_eq!(back.key_high_water(), sim.key_high_water());
        for q in ["RETRIEVE (FILE = f) (*)", "RETRIEVE (m = 1) (COUNT(f))"] {
            let want = sim.execute(&parse_request(q).unwrap()).unwrap();
            let got = back.execute(&parse_request(q).unwrap()).unwrap();
            assert_eq!(got.records(), want.records(), "query {q}");
            assert_eq!(got.groups, want.groups, "query {q}");
        }
    }

    /// Snapshots compact the sim log without changing recovery.
    #[test]
    fn sim_snapshots_compact_and_preserve_recovery() {
        let log = crate::wal::MemLog::new();
        let mut sim =
            SimCluster::durable_with(3, 2, CostModel::default(), log.clone()).unwrap();
        sim.set_snapshot_every(6);
        sim.create_file("f");
        for i in 0..20i64 {
            let mut rec = Record::from_pairs([("FILE", Value::str("f"))]);
            rec.set("f", Value::Int(i));
            sim.execute(&Request::Insert { record: rec }).unwrap();
        }
        assert!(log.log_len() < 20, "snapshots should truncate the log");
        let back = SimCluster::recover_with(CostModel::default(), log).unwrap();
        assert_eq!(back.state_digest(), sim.state_digest());
    }
}
