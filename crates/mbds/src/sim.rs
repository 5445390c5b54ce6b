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
//! The simulator mirrors the threaded controller's availability
//! machinery exactly: k-way replicated placement with dedup-by-key
//! merging, `kill_backend`/`restart_backend` (recovery is charged in
//! simulated time), degraded-mode reporting, and the same
//! [`FaultPlan`] applied on the same per-backend message counters — so
//! a seeded fault schedule produces bit-identical results in both
//! kernels.
//!
//! The parameters are calibrated to 1980s hardware orders of magnitude
//! (a ~30 ms track read, millisecond-scale bus messages); only the
//! *shape* of the curves matters for the reproduction.

use crate::controller::{PromotedParts, UniqueIndex, DEFAULT_REPLICATION};
use crate::directory::Directory;
use crate::fault::{FaultKind, FaultPlan};
use crate::placement::Partitioner;
use crate::rebalance::{self, MoveJob, Rebalancer};
use crate::wal::{LogRecord, LogStore, SnapshotData, Wal, WalStats};
use abdl::engine::aggregate;
use abdl::{
    DbKey, Error, ExecTotals, Kernel, KernelHealth, Record, RelOp, Request, Response, Result,
    Store, Transaction, Value,
};
use std::collections::{BTreeSet, HashMap, HashSet};

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
    backends: Vec<Store>,
    alive: Vec<bool>,
    partitioner: Partitioner,
    replication: usize,
    next_key: u64,
    cost: CostModel,
    unique_groups: HashMap<String, Vec<Vec<String>>>,
    files: Vec<String>,
    /// Which backends hold each record, with interned replica sets
    /// (same [`Directory`] structure as the threaded controller).
    directory: Directory,
    faults: FaultPlan,
    /// Messages each backend has processed, mirroring the threaded
    /// workers' 1-based counters (creates, inserts and execs all
    /// count); drives [`FaultPlan`] lookups.
    msg_counts: Vec<u64>,
    /// Simulated time of the last executed request (µs).
    last_response_us: f64,
    /// Accumulated simulated time (µs).
    total_us: f64,
    requests_executed: u64,
    /// Write-ahead log for durable clusters (`None` on the plain
    /// constructors and during recovery replay). Typically a
    /// [`crate::MemLog`] — the simulator's whole point is staying
    /// in-memory and deterministic.
    wal: Option<Wal>,
    /// Log failures from infallible trait methods, surfaced by the next
    /// `execute` (same convention as the threaded controller).
    pending_error: Option<Error>,
    /// Exact mirror of the threaded controller's unique-value index:
    /// `(file, group-index) → tuple of group values → keys`.
    unique_index: UniqueIndex,
    /// Per-file, per-backend resident-record counts (directory-derived,
    /// liveness-independent), driving file-scoped routing.
    resident: HashMap<String, Vec<u64>>,
    /// Route file/key-scoped requests to the backends that can hold
    /// matches (on by default; off = broadcast everything).
    scoped_routing: bool,
    /// Check uniqueness against the controller-side index (on by
    /// default; off = legacy pre-insert broadcast probe).
    unique_via_index: bool,
    /// Write replicas in send-all-then-collect waves (on by default;
    /// off = one round trip per replica). Same contacted backends in
    /// the same scan order either way.
    parallel_writes: bool,
    /// Cumulative execution counters (see [`ExecTotals`]).
    totals: ExecTotals,
    /// Backends being drained out of the cluster: they take no new
    /// placements and retire when their last group move commits.
    draining: BTreeSet<usize>,
    /// Backends retired by a completed drain (`drain-end`), as opposed
    /// to dead by failure. A promoting standby must not restore a
    /// retired backend's still-running process, and must finish the
    /// shutdown the crashed primary never got to.
    retired: BTreeSet<usize>,
    /// An online add's unwrap rebalance is still in progress.
    unwrapping: bool,
    /// Queued group moves for the in-flight membership change.
    rebalancer: Rebalancer,
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
        assert!(n > 0, "MBDS needs at least one backend");
        assert!((1..=n).contains(&k), "replication factor must be in 1..=n, got {k}");
        SimCluster {
            backends: (0..n).map(|_| Store::new()).collect(),
            alive: vec![true; n],
            partitioner: Partitioner::new(n),
            replication: k,
            next_key: 1,
            cost,
            unique_groups: HashMap::new(),
            files: Vec::new(),
            directory: Directory::new(),
            faults: FaultPlan::new(),
            msg_counts: vec![0; n],
            last_response_us: 0.0,
            total_us: 0.0,
            requests_executed: 0,
            wal: None,
            pending_error: None,
            unique_index: HashMap::new(),
            resident: HashMap::new(),
            scoped_routing: true,
            unique_via_index: true,
            parallel_writes: true,
            totals: ExecTotals::default(),
            draining: BTreeSet::new(),
            retired: BTreeSet::new(),
            unwrapping: false,
            rebalancer: Rebalancer::new(),
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
        sim.wal = Some(Wal::create(Box::new(store)));
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
        if snapshot.backends == 0 || !(1..=snapshot.backends).contains(&snapshot.replication) {
            return Err(Error::Internal(format!(
                "snapshot has invalid configuration: {} backends, replication {}",
                snapshot.backends, snapshot.replication
            )));
        }
        let mut sim = SimCluster::with_config(snapshot.backends, snapshot.replication, cost);
        // `sim.wal` stays `None` through the replay so nothing re-logs.
        sim.apply_snapshot(&snapshot)?;
        for entry in &entries {
            sim.apply_entry(entry)?;
        }
        // An interrupted membership change re-derives its remaining
        // moves from the rebuilt state (same as the threaded
        // controller's recovery).
        sim.replan_rebalance();
        sim.reset_clock();
        sim.wal = Some(wal);
        Ok(sim)
    }

    /// Number of backends (alive or dead).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Number of backends currently alive.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Copies kept per record.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Install a fault plan (same semantics and message counters as the
    /// threaded controller's).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Compact the log into a snapshot every `every` appends (0
    /// disables). No-op on a non-durable cluster.
    pub fn set_snapshot_every(&mut self, every: u64) {
        if let Some(w) = self.wal.as_mut() {
            w.set_snapshot_every(every);
        }
    }

    /// Crash-point injection: the `n`th WAL append completes durably
    /// and then fails the cluster. No-op when not durable.
    pub fn set_wal_crash_after(&mut self, n: u64) {
        if let Some(w) = self.wal.as_mut() {
            w.set_crash_after(n);
        }
    }

    /// True once an armed crash point has fired.
    pub fn wal_crashed(&self) -> bool {
        self.wal.as_ref().is_some_and(Wal::crashed)
    }

    /// WAL appends performed by this incarnation (0 when not durable).
    pub fn wal_appends(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::total_appends)
    }

    /// The key allocator's high-water mark.
    pub fn key_high_water(&self) -> u64 {
        self.next_key
    }

    /// Toggle scoped routing (on by default). Off = every request is
    /// broadcast to all live backends, the pre-router behaviour.
    pub fn set_scoped_routing(&mut self, on: bool) {
        self.scoped_routing = on;
    }

    /// Toggle index-based unique checks (on by default). Off = the
    /// legacy full-cluster retrieve probe before every INSERT.
    pub fn set_unique_via_index(&mut self, on: bool) {
        self.unique_via_index = on;
    }

    /// Toggle wave-style replica writes (on by default). The simulator
    /// is serial either way; the toggle mirrors the threaded
    /// controller's contacted-backend membership exactly.
    pub fn set_parallel_writes(&mut self, on: bool) {
        self.parallel_writes = on;
    }

    /// A deterministic rendering of the unique-value index — the same
    /// format as `Controller::unique_index_digest`, so the two kernels
    /// (and a recovered cluster) can be compared byte-for-byte.
    pub fn unique_index_digest(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for ((file, gi), by_tuple) in &self.unique_index {
            for (tuple, keys) in by_tuple {
                let vals: Vec<String> = tuple.iter().map(ToString::to_string).collect();
                let ks: Vec<String> = keys.iter().map(|k| k.0.to_string()).collect();
                lines.push(format!("{file}#{gi} [{}] {}", vals.join(","), ks.join(",")));
            }
        }
        lines.sort();
        lines.join("\n")
    }

    /// The index tuple of `record` under a constraint group: one value
    /// per attribute, NULL standing in for absent ones.
    fn group_tuple(record: &Record, group: &[String]) -> Box<[Value]> {
        group.iter().map(|a| record.get_or_null(a).clone()).collect()
    }

    /// Index every constraint-group tuple of a newly stored record.
    fn index_insert(&mut self, key: DbKey, record: &Record) {
        let Some(file) = record.file().map(str::to_owned) else { return };
        let Some(groups) = self.unique_groups.get(&file) else { return };
        for (gi, group) in groups.iter().enumerate() {
            let tuple = SimCluster::group_tuple(record, group);
            self.unique_index
                .entry((file.clone(), gi))
                .or_default()
                .entry(tuple)
                .or_default()
                .insert(key);
        }
    }

    /// Drop a deleted record's tuples from the index (tolerates missing
    /// entries).
    fn index_remove(&mut self, key: DbKey, record: &Record) {
        let Some(file) = record.file().map(str::to_owned) else { return };
        let Some(groups) = self.unique_groups.get(&file) else { return };
        for (gi, group) in groups.iter().enumerate() {
            let tuple = SimCluster::group_tuple(record, group);
            if let Some(by_tuple) = self.unique_index.get_mut(&(file.clone(), gi)) {
                if let Some(keys) = by_tuple.get_mut(&tuple) {
                    keys.remove(&key);
                    if keys.is_empty() {
                        by_tuple.remove(&tuple);
                    }
                }
            }
        }
    }

    /// Move a record's tuples when an UPDATE changes a constraint-group
    /// attribute. `record` is the pre-image.
    fn index_update(&mut self, key: DbKey, record: &Record, attr: &str, value: &Value) {
        let Some(file) = record.file().map(str::to_owned) else { return };
        let Some(groups) = self.unique_groups.get(&file).cloned() else { return };
        let mut updated = record.clone();
        updated.set(attr.to_owned(), value.clone());
        for (gi, group) in groups.iter().enumerate() {
            if !group.iter().any(|a| a == attr) {
                continue;
            }
            let old_t = SimCluster::group_tuple(record, group);
            let new_t = SimCluster::group_tuple(&updated, group);
            if old_t == new_t {
                continue;
            }
            let by_tuple = self.unique_index.entry((file.clone(), gi)).or_default();
            if let Some(keys) = by_tuple.get_mut(&old_t) {
                keys.remove(&key);
                if keys.is_empty() {
                    by_tuple.remove(&old_t);
                }
            }
            by_tuple.entry(new_t).or_default().insert(key);
        }
    }

    /// Count a newly placed record against its group members' per-file
    /// residency.
    fn resident_add(&mut self, file: &str, members: &[usize]) {
        let n = self.backends.len();
        let counts = self.resident.entry(file.to_owned()).or_insert_with(|| vec![0; n]);
        for &i in members {
            counts[i] += 1;
        }
    }

    /// Un-count a deleted record.
    fn resident_remove(&mut self, file: &str, members: &[usize]) {
        if let Some(counts) = self.resident.get_mut(file) {
            for &i in members {
                counts[i] = counts[i].saturating_sub(1);
            }
        }
    }

    /// Register a constraint group, backfilling the index from existing
    /// records when the file already holds data. Shared by the live
    /// path and WAL replay (same gate as the threaded controller).
    fn register_unique(&mut self, file: &str, attrs: Vec<String>) {
        let groups = self.unique_groups.entry(file.to_owned()).or_default();
        // Idempotent, mirroring the threaded controller.
        if groups.contains(&attrs) {
            return;
        }
        groups.push(attrs);
        let gi = groups.len() - 1;
        let populated =
            self.resident.get(file).is_some_and(|counts| counts.iter().any(|&c| c > 0));
        if !populated {
            return;
        }
        let query = abdl::Query::conjunction(vec![abdl::Predicate::eq(
            abdl::FILE_ATTR,
            abdl::Value::str(file),
        )]);
        if let Ok(resp) = self.broadcast(&Request::retrieve_all(query)) {
            let group = self.unique_groups[file][gi].clone();
            for (key, rec) in resp.into_records() {
                let tuple = SimCluster::group_tuple(&rec, &group);
                self.unique_index
                    .entry((file.to_owned(), gi))
                    .or_default()
                    .entry(tuple)
                    .or_default()
                    .insert(key);
            }
        }
    }

    /// Open a WAL group-commit batch (no-op when not durable).
    fn wal_begin_batch(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            w.begin_batch();
        }
    }

    /// Close a WAL batch, flushing its buffered appends with one sync.
    fn wal_commit_batch(&mut self) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.commit_batch(),
            None => Ok(()),
        }
    }

    fn log_append(&mut self, rec: LogRecord) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.append(&rec),
            None => Ok(()),
        }
    }

    fn log_append_stashing(&mut self, rec: LogRecord) {
        if let Err(e) = self.log_append(rec) {
            self.pending_error.get_or_insert(e);
        }
    }

    fn maybe_snapshot(&mut self) {
        if self.wal.as_ref().is_some_and(Wal::needs_snapshot) {
            if let Err(e) = self.snapshot_now() {
                self.pending_error.get_or_insert(e);
            }
        }
    }

    /// Write a compacted snapshot now and truncate the log. No-op when
    /// not durable.
    pub fn snapshot_now(&mut self) -> Result<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let text = self.snapshot_data().to_text();
        self.wal.as_mut().expect("wal present").install_snapshot(&text)
    }

    /// The full compacted state, read straight off the stores (the
    /// simulator needs no broadcasts). Deterministic rendering — also
    /// the state digest.
    pub fn snapshot_data(&self) -> SnapshotData {
        let mut places: Vec<(u64, Vec<usize>, Option<Record>)> = self
            .directory
            .iter()
            .map(|(k, group)| {
                let rec = group
                    .iter()
                    .copied()
                    .filter(|&j| self.alive[j])
                    .find_map(|j| self.backends[j].get(k).cloned());
                (k.0, group.to_vec(), rec)
            })
            .collect();
        places.sort_by_key(|(k, _, _)| *k);
        let mut uniques: Vec<(String, Vec<String>)> = self
            .unique_groups
            .iter()
            .flat_map(|(f, groups)| groups.iter().map(|g| (f.clone(), g.clone())))
            .collect();
        uniques.sort();
        SnapshotData {
            backends: self.backends.len(),
            replication: self.replication,
            next_key: self.next_key,
            dead: (0..self.alive.len()).filter(|&i| !self.alive[i]).collect(),
            rotors: self.partitioner.rotors(),
            files: self.files.clone(),
            uniques,
            places,
            draining: self.draining.iter().copied().collect(),
            unwrap: self.unwrapping,
        }
    }

    /// A deterministic, byte-comparable rendering of the cluster's full
    /// logical state (exactly the snapshot text).
    pub fn state_digest(&self) -> String {
        self.snapshot_data().to_text()
    }

    /// Hand the mirrored state to a promoting [`crate::Standby`]: every
    /// piece of controller bookkeeping the new primary needs, cloned
    /// out of the serial twin.
    pub(crate) fn promoted_parts(&self) -> PromotedParts {
        PromotedParts {
            partitioner: self.partitioner.clone(),
            replication: self.replication,
            next_key: self.next_key,
            unique_groups: self.unique_groups.clone(),
            files: self.files.clone(),
            directory: self.directory.clone(),
            unique_index: self.unique_index.clone(),
            resident: self.resident.clone(),
            dead: (0..self.alive.len()).filter(|&i| !self.alive[i]).collect(),
            draining: self.draining.clone(),
            retired: self.retired.clone(),
            unwrapping: self.unwrapping,
        }
    }

    pub(crate) fn apply_snapshot(&mut self, snap: &SnapshotData) -> Result<()> {
        self.next_key = snap.next_key;
        for file in &snap.files {
            if !self.files.iter().any(|f| f == file) {
                self.files.push(file.clone());
            }
            for b in &mut self.backends {
                b.create_file(file.clone());
            }
        }
        for (file, v) in &snap.rotors {
            self.partitioner.set_rotor(file, *v);
        }
        for (file, attrs) in &snap.uniques {
            self.unique_groups.entry(file.clone()).or_default().push(attrs.clone());
        }
        let dead: HashSet<usize> = snap.dead.iter().copied().collect();
        for (key, group, record) in &snap.places {
            self.directory.insert(DbKey(*key), group.clone());
            // Records without surviving data keep their directory entry
            // but cannot be indexed or counted — no backend holds them.
            let Some(record) = record else { continue };
            if let Some(file) = record.file().map(str::to_owned) {
                self.resident_add(&file, group);
            }
            self.index_insert(DbKey(*key), record);
            for &i in group {
                if !dead.contains(&i) {
                    self.backends[i].insert_with_key(DbKey(*key), record.clone())?;
                }
            }
        }
        for &i in &snap.dead {
            self.alive[i] = false;
        }
        self.draining = snap.draining.iter().copied().collect();
        self.unwrapping = snap.unwrap;
        Ok(())
    }

    pub(crate) fn apply_entry(&mut self, entry: &LogRecord) -> Result<()> {
        match entry {
            LogRecord::CreateFile { name } => {
                self.create_file(name);
                Ok(())
            }
            LogRecord::Unique { file, attrs } => {
                self.register_unique(file, attrs.clone());
                Ok(())
            }
            LogRecord::ReserveKey { key } => {
                self.next_key = self.next_key.max(key + 1);
                Ok(())
            }
            LogRecord::Alloc { key, file } => {
                self.next_key = self.next_key.max(key + 1);
                self.partitioner.advance(file);
                Ok(())
            }
            LogRecord::Insert { key, group, record } => {
                self.next_key = self.next_key.max(key + 1);
                if let Some(file) = record.file() {
                    let file = file.to_owned();
                    self.partitioner.advance(&file);
                    self.resident_add(&file, group);
                }
                self.directory.insert(DbKey(*key), group.clone());
                self.index_insert(DbKey(*key), record);
                for &i in group {
                    if self.alive[i] {
                        self.backends[i].insert_with_key(DbKey(*key), record.clone())?;
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
            LogRecord::RestartEnd { .. } => Ok(()),
            // Same bracket discipline for rebalance moves: the chunk is
            // (re)performed at the begin marker with exactly the keys
            // the live run bracketed, keeping this mirror in lockstep
            // with the primary's per-chunk placement commits.
            LogRecord::MoveBegin { from, to, keys } => {
                let (from, to) = (from.clone(), to.clone());
                let keys: Vec<DbKey> = keys.iter().map(|&k| DbKey(k)).collect();
                self.move_group_inner(&from, &to, &keys)
            }
            LogRecord::MoveEnd { .. } => Ok(()),
            LogRecord::AddBackend { backend } => {
                // A snapshot taken after the add already has the wider
                // cluster; only grow past the current width.
                if *backend + 1 > self.backends.len() {
                    self.grow_cluster(*backend + 1);
                }
                self.unwrapping = true;
                Ok(())
            }
            LogRecord::AddEnd { .. } => {
                self.unwrapping = false;
                Ok(())
            }
            LogRecord::DrainBegin { backend } => {
                self.draining.insert(*backend);
                Ok(())
            }
            LogRecord::DrainEnd { backend } => {
                self.draining.remove(backend);
                self.retire_backend(*backend);
                Ok(())
            }
        }
    }

    /// Failure injection: backend `i` is gone and its store with it
    /// (mirroring a killed worker thread).
    pub fn kill_backend(&mut self, i: usize) {
        if i >= self.alive.len() || !self.alive[i] {
            return;
        }
        self.alive[i] = false;
        self.log_append_stashing(LogRecord::Dead { backend: i });
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
        if self.alive[i] {
            return Ok(());
        }
        // Group commit: the restart's begin/end markers are buffered
        // and synced together, exactly like the threaded controller.
        self.wal_begin_batch();
        let result = self.restart_backend_inner(i);
        let flush = self.wal_commit_batch();
        result?;
        flush?;
        self.maybe_snapshot();
        Ok(())
    }

    fn restart_backend_inner(&mut self, i: usize) -> Result<()> {
        // Same WAL protocol as the threaded controller: begin before
        // any effect, end after re-replication; replay re-runs the
        // restart at the begin marker.
        self.log_append(LogRecord::RestartBegin { backend: i })?;
        self.backends[i] = Store::new();
        self.alive[i] = true;
        for file in &self.files {
            self.msg_counts[i] += 1;
            self.totals.messages_sent += 1;
            self.backends[i].create_file(file);
        }
        // Anti-entropy from the directory: copy each record this
        // backend should hold from any surviving replica.
        let mut copied = 0u64;
        let keys: Vec<(DbKey, Vec<usize>)> = self
            .directory
            .iter()
            .filter(|(_, group)| group.contains(&i))
            .map(|(k, g)| (k, g.to_vec()))
            .collect();
        for (key, group) in keys {
            let Some(donor) = group.iter().copied().find(|&j| j != i && self.alive[j]) else {
                continue; // both replicas were lost; nothing to copy
            };
            let Some(rec) = self.backends[donor].get(key).cloned() else { continue };
            self.msg_counts[i] += 1;
            self.totals.messages_sent += 1;
            self.backends[i].insert_with_key(key, rec)?;
            copied += 1;
        }
        // Schema replay + per-record copy messages, then the restarted
        // backend writes the copied blocks while donors read them in
        // parallel.
        let mut busy = vec![0.0; self.backends.len()];
        busy[i] = copied as f64 * self.cost.block_time_us;
        self.charge(&busy);
        self.log_append(LogRecord::RestartEnd { backend: i })
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
        self.directory.len()
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

    /// Deliver one message to backend `i`, mirroring the threaded
    /// fault semantics: `Crash`/`Panic` kill the backend before it
    /// executes; `DropReply` executes but the controller never hears
    /// back (and gives the backend up for dead); `DelayReplyMs` arrives
    /// late, charged on the clock. Returns the reply, or `None` when
    /// the controller gets nothing.
    fn deliver<F: FnOnce(&mut Store) -> Result<Response>>(
        &mut self,
        i: usize,
        extra_busy_us: &mut f64,
        op: F,
    ) -> Option<Result<Response>> {
        self.msg_counts[i] += 1;
        self.totals.messages_sent += 1;
        let fault = self.faults.action(i, self.msg_counts[i]);
        match fault {
            Some(FaultKind::Crash) | Some(FaultKind::Panic) => {
                self.alive[i] = false;
                self.log_append_stashing(LogRecord::Dead { backend: i });
                return None;
            }
            _ => {}
        }
        let result = op(&mut self.backends[i]);
        match fault {
            Some(FaultKind::DropReply) => {
                self.alive[i] = false;
                self.log_append_stashing(LogRecord::Dead { backend: i });
                None
            }
            Some(FaultKind::DelayReplyMs(ms)) => {
                *extra_busy_us += ms as f64 * 1000.0;
                Some(result)
            }
            _ => Some(result),
        }
    }

    fn broadcast(&mut self, request: &Request) -> Result<Response> {
        self.send_round(request, None)
    }

    /// Send a request to one round of backends (`None` = every live
    /// backend, the broadcast path; `Some` = a routed subset), mirroring
    /// the threaded controller's `send_round` exactly: an empty routed
    /// target set answers immediately with an empty response, and a
    /// backend dying mid-round only removes its partial answer.
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
            if !self.alive[i] {
                continue;
            }
            contacted += 1;
            let mut extra = 0.0;
            match self.deliver(i, &mut extra, |b| b.execute(request)) {
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

    /// The backends worth contacting for `query` — same logic as the
    /// threaded controller's router: per disjunct, either the replica
    /// groups of the keys a fully pinned unique group names, or the
    /// backends the residency counts say hold the disjunct's file.
    /// `None` means the query cannot be scoped and must broadcast.
    fn route_targets(&self, query: &abdl::Query) -> Option<Vec<usize>> {
        if !self.scoped_routing {
            return None;
        }
        let mut targets = BTreeSet::new();
        for conj in &query.disjuncts {
            let file = conj.file()?;
            if let Some(keys) = self.unique_candidates(file, conj) {
                for k in keys {
                    if let Some(group) = self.directory.get(&k) {
                        targets.extend(group.iter().copied());
                    }
                }
            } else if let Some(counts) = self.resident.get(file) {
                targets.extend(
                    counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, _)| i),
                );
            }
            // A file nobody holds contributes no targets.
        }
        Some(targets.into_iter().collect())
    }

    /// Key-scoped fast path: a conjunction pinning every attribute of a
    /// unique group with equality predicates can only match the keys
    /// the index lists for that tuple.
    fn unique_candidates(&self, file: &str, conj: &abdl::Conjunction) -> Option<Vec<DbKey>> {
        let groups = self.unique_groups.get(file)?;
        for (gi, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let tuple: Option<Vec<Value>> = group
                .iter()
                .map(|a| {
                    conj.predicates
                        .iter()
                        .find(|p| p.attr == *a && p.op == RelOp::Eq)
                        .map(|p| p.value.clone())
                })
                .collect();
            let Some(tuple) = tuple else { continue };
            let keys = self
                .unique_index
                .get(&(file.to_owned(), gi))
                .and_then(|m| m.get(tuple.as_slice()))
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            return Some(keys);
        }
        None
    }

    fn finalize(&self, mut resp: Response) -> Response {
        let h = self.health();
        resp.degraded = h.degraded;
        resp.unavailable_backends = h.unavailable;
        resp
    }

    /// The records currently matching `query`, deduplicated across
    /// replicas — the *logical* affected set of a mutation, with the
    /// pre-images the index maintenance needs.
    fn matching_records(
        &mut self,
        query: &abdl::Query,
        targets: Option<&[usize]>,
    ) -> Result<Vec<(DbKey, Record)>> {
        let resp = self.send_round(&Request::retrieve_all(query.clone()), targets)?;
        Ok(resp.into_records())
    }

    fn check_unique(&mut self, record: &Record) -> Result<()> {
        let Some(file) = record.file() else {
            return Err(Error::MissingFileKeyword);
        };
        let Some(groups) = self.unique_groups.get(file).cloned() else { return Ok(()) };
        if self.unique_via_index {
            // One map lookup replaces the full-cluster retrieve probe,
            // same as the threaded controller.
            let file = file.to_owned();
            for (gi, group) in groups.iter().enumerate() {
                if !group.iter().all(|a| record.get(a).is_some()) {
                    continue;
                }
                let tuple = SimCluster::group_tuple(record, group);
                let hit = self
                    .unique_index
                    .get(&(file.clone(), gi))
                    .and_then(|m| m.get(&tuple))
                    .is_some_and(|keys| !keys.is_empty());
                if hit {
                    return Err(Error::DuplicateKey { file, attrs: group.clone() });
                }
            }
            return Ok(());
        }
        // Legacy pre-insert broadcast probe (the E15 ablation baseline).
        for group in groups {
            if !group.iter().all(|a| record.get(a).is_some()) {
                continue;
            }
            let query = abdl::Query::conjunction(
                std::iter::once(abdl::Predicate::eq(abdl::FILE_ATTR, abdl::Value::str(file)))
                    .chain(group.iter().map(|a| {
                        abdl::Predicate::eq(a.clone(), record.get(a).expect("present").clone())
                    }))
                    .collect(),
            );
            let hits = self.broadcast(&Request::retrieve_all(query))?;
            if !hits.records().is_empty() {
                return Err(Error::DuplicateKey { file: file.to_owned(), attrs: group });
            }
        }
        Ok(())
    }

    /// Allocate a key for an internal insert; the insert's `Insert`
    /// (or `Alloc`) WAL entry carries it, so no separate log entry.
    fn alloc_key(&mut self) -> DbKey {
        let key = DbKey(self.next_key);
        self.next_key += 1;
        key
    }

    fn insert(&mut self, record: &Record) -> Result<Response> {
        self.check_unique(record)?;
        let file = record.file().ok_or(Error::MissingFileKeyword)?.to_owned();
        let key = self.alloc_key();
        // Same wave-structured scan as the threaded controller: with
        // parallel writes on, all outstanding copies of a wave are sent
        // before any reply is observed. The simulator is serial, so the
        // waves only matter for contacted-backend membership — the cost
        // model already charges the disk phase as a max over backends.
        let group = self.partitioner.place_group(&file, self.replication);
        let primary = group[0];
        let n = self.backends.len();
        let mut assigned = Vec::new();
        let mut busy = vec![0.0; n];
        let mut scanned = 0usize;
        while assigned.len() < self.replication && scanned < n {
            let want = if self.parallel_writes { self.replication - assigned.len() } else { 1 };
            let mut wave = Vec::new();
            while wave.len() < want && scanned < n {
                let i = (primary + scanned) % n;
                scanned += 1;
                // Draining backends take no new placements.
                if self.alive[i] && !self.draining.contains(&i) {
                    wave.push(i);
                }
            }
            if wave.is_empty() {
                break;
            }
            let mut first_err = None;
            for &i in &wave {
                let mut extra = 0.0;
                let rec = record.clone();
                match self.deliver(i, &mut extra, move |b| {
                    b.insert_with_key(key, rec)
                        .map(|()| Response::with_affected(1, Default::default()))
                }) {
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
                self.log_append(LogRecord::Alloc { key: key.0, file })?;
                return Err(e);
            }
        }
        if assigned.is_empty() {
            self.log_append(LogRecord::Alloc { key: key.0, file })?;
            return Err(Error::Unavailable("no live backend accepted the insert".into()));
        }
        self.directory.insert(key, assigned.clone());
        self.resident_add(&file, &assigned);
        self.index_insert(key, record);
        self.log_append(LogRecord::Insert { key: key.0, group: assigned, record: record.clone() })?;
        self.charge(&busy);
        Ok(Response::with_affected(1, Default::default()))
    }

    // --- Elastic membership: online backend add / drain -------------
    //
    // A full mirror of the threaded controller's `mbds::rebalance`
    // integration: same WAL grammar, same state-based planners, same
    // throttled queue — so crash/recovery schedules through membership
    // changes can be explored deterministically without threads.

    /// True when no membership change is in flight.
    fn rebalance_idle(&self) -> bool {
        self.rebalancer.is_idle() && !self.unwrapping && self.draining.is_empty()
    }

    /// Group moves still queued (0 = the cluster is in its goal
    /// placement).
    pub fn rebalance_pending(&self) -> usize {
        self.rebalancer.pending()
    }

    /// Bound the group moves piggybacked on each foreground request
    /// (floored at 1).
    pub fn set_rebalance_throttle(&mut self, throttle: usize) {
        self.rebalancer.set_throttle(throttle);
    }

    /// Backends currently being drained, ascending.
    pub fn draining_backends(&self) -> Vec<usize> {
        self.draining.iter().copied().collect()
    }

    /// Add one backend and rebalance onto it online — the simulated
    /// twin of [`crate::Controller::add_backend`]. Returns the new
    /// backend's index.
    pub fn add_backend(&mut self) -> Result<usize> {
        if !self.rebalance_idle() {
            return Err(Error::Unavailable(
                "a rebalance is already in progress; finish it before another membership change"
                    .into(),
            ));
        }
        let i = self.backends.len();
        // Durable goal first (the `restart-begin` discipline): a crash
        // anywhere past this append recovers into the widened cluster
        // and re-plans the remaining moves.
        self.log_append(LogRecord::AddBackend { backend: i })?;
        self.grow_cluster(i + 1);
        self.unwrapping = true;
        self.replan_add(i);
        self.maybe_snapshot();
        Ok(i)
    }

    /// Drain backend `i` out of the cluster online — the simulated twin
    /// of [`crate::Controller::drain_backend`]. Re-draining an
    /// already-draining backend is a no-op.
    pub fn drain_backend(&mut self, i: usize) -> Result<()> {
        if i >= self.backends.len() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.draining.contains(&i) {
            return Ok(());
        }
        if !self.alive[i] {
            return Err(Error::Unavailable(format!("backend {i} is not serving")));
        }
        if !self.rebalance_idle() {
            return Err(Error::Unavailable(
                "a rebalance is already in progress; finish it before another membership change"
                    .into(),
            ));
        }
        if self.alive_count() <= self.replication {
            return Err(Error::Unavailable(format!(
                "draining backend {i} would leave fewer serving backends than replication {}",
                self.replication
            )));
        }
        self.log_append(LogRecord::DrainBegin { backend: i })?;
        self.draining.insert(i);
        self.replan_drain(i);
        self.maybe_snapshot();
        Ok(())
    }

    /// Perform one queued rebalance job (one move *chunk*, or a finish
    /// marker). `Ok(true)` = a job ran; `Ok(false)` = the queue is
    /// empty. A move with chunks still to go — and any failed job —
    /// goes back to the *front* so a finish marker can never overtake
    /// the moves it commits.
    pub fn rebalance_step(&mut self) -> Result<bool> {
        let Some(job) = self.rebalancer.pop() else { return Ok(false) };
        let result = match &job {
            MoveJob::Move { from, to } => {
                let (from, to) = (from.clone(), to.clone());
                self.move_group(&from, &to).map(|done| !done)
            }
            MoveJob::FinishAdd { backend } => self.finish_add(*backend).map(|()| false),
            MoveJob::FinishDrain { backend } => self.finish_drain(*backend).map(|()| false),
        };
        match result {
            Ok(more_chunks) => {
                if more_chunks {
                    self.rebalancer.requeue(job);
                }
                Ok(true)
            }
            Err(e) => {
                self.rebalancer.requeue(job);
                Err(e)
            }
        }
    }

    /// Drain the rebalance queue synchronously.
    pub fn finish_rebalance(&mut self) -> Result<()> {
        while self.rebalance_step()? {}
        self.maybe_snapshot();
        Ok(())
    }

    /// Work off up to `throttle` queued jobs behind a foreground
    /// request; an error is stashed for the next `execute` (the job
    /// stays queued).
    fn pump_rebalance(&mut self) {
        for _ in 0..self.rebalancer.throttle() {
            match self.rebalance_step() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    self.pending_error.get_or_insert(e);
                    break;
                }
            }
        }
    }

    /// Grow every per-backend structure until the cluster is `new_n`
    /// wide; the new store replays the schema (message-counted, like
    /// the threaded controller's joining handshake).
    fn grow_cluster(&mut self, new_n: usize) {
        while self.backends.len() < new_n {
            let i = self.backends.len();
            self.backends.push(Store::new());
            self.alive.push(true);
            self.msg_counts.push(0);
            self.partitioner.grow(self.backends.len());
            for counts in self.resident.values_mut() {
                counts.push(0);
            }
            for file in self.files.clone() {
                self.msg_counts[i] += 1;
                self.totals.messages_sent += 1;
                self.backends[i].create_file(file);
            }
        }
    }

    /// Queue the unwrap moves for the add of backend `added` plus the
    /// `add-end` marker (see [`rebalance::plan_unwrap`]).
    fn replan_add(&mut self, added: usize) {
        let new_n = self.backends.len();
        let moves = rebalance::plan_unwrap(
            self.directory.groups_in_use().map(|g| g.to_vec()),
            added,
            new_n,
        );
        for (from, to) in moves {
            self.rebalancer.push(MoveJob::Move { from, to });
        }
        self.rebalancer.push(MoveJob::FinishAdd { backend: new_n - 1 });
    }

    /// Queue the moves that vacate draining backend `i` plus the
    /// `drain-end` marker (see [`rebalance::plan_drain`]).
    fn replan_drain(&mut self, i: usize) {
        let n = self.backends.len();
        let alive = &self.alive;
        let draining = &self.draining;
        let moves = rebalance::plan_drain(
            self.directory.groups_in_use().map(|g| g.to_vec()),
            i,
            n,
            |b| alive[b] && !draining.contains(&b),
        );
        for (from, to) in moves {
            self.rebalancer.push(MoveJob::Move { from, to });
        }
        self.rebalancer.push(MoveJob::FinishDrain { backend: i });
    }

    /// Re-derive the whole rebalance queue from durable state — called
    /// after recovery replay. Moves that committed before the crash no
    /// longer match the planners' predicates and drop out.
    pub(crate) fn replan_rebalance(&mut self) {
        self.rebalancer.clear();
        let n = self.backends.len();
        if self.unwrapping && n > 1 {
            self.replan_add(n - 1);
        }
        let draining: Vec<usize> = self.draining.iter().copied().collect();
        for i in draining {
            self.replan_drain(i);
        }
    }

    /// Relocate one *chunk* (up to
    /// [`rebalance::DEFAULT_MOVE_CHUNK`]) of replica group `from` to
    /// `to` under a `move-begin` … `move-end` WAL bracket (one group
    /// commit). Idempotent: a `from` group nothing points at is a
    /// silent no-op. Returns `Ok(true)` when the group is fully
    /// vacated, `Ok(false)` when more chunks remain.
    fn move_group(&mut self, from: &[usize], to: &[usize]) -> Result<bool> {
        let mut keys = self.directory.keys_of_group(from);
        if keys.is_empty() {
            return Ok(true);
        }
        let done = keys.len() <= rebalance::DEFAULT_MOVE_CHUNK;
        keys.truncate(rebalance::DEFAULT_MOVE_CHUNK);
        self.wal_begin_batch();
        let result = self.move_group_inner(from, to, &keys);
        let flush = self.wal_commit_batch();
        result?;
        flush?;
        Ok(done)
    }

    fn move_group_inner(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> Result<()> {
        self.log_append(LogRecord::MoveBegin {
            from: from.to_vec(),
            to: to.to_vec(),
            keys: keys.iter().map(|k| k.0).collect(),
        })?;
        let added: Vec<usize> = to.iter().copied().filter(|m| !from.contains(m)).collect();
        let removed: Vec<usize> = from.iter().copied().filter(|m| !to.contains(m)).collect();
        // Pull one surviving copy of each chunk record from the group's
        // alive members — key-scoped, never a file scan.
        let sources: Vec<usize> = from.iter().copied().filter(|&m| self.alive[m]).collect();
        let mut moved: Vec<(DbKey, Record)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for &m in &sources {
            let wanted = keys.to_vec();
            let mut extra = 0.0;
            if let Some(result) = self.deliver(m, &mut extra, move |b| {
                let records: Vec<(DbKey, Record)> = wanted
                    .iter()
                    .filter_map(|&k| b.record_by_key(k).map(|r| (k, r.clone())))
                    .collect();
                Ok(Response::with_records(records, Default::default()))
            }) {
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
                if !self.alive[m] {
                    continue;
                }
                let mut extra = 0.0;
                let (key, rec) = (*key, rec.clone());
                if let Some(result) = self.deliver(m, &mut extra, move |b| {
                    b.insert_with_key(key, rec)
                        .map(|()| Response::with_affected(1, Default::default()))
                }) {
                    result?;
                }
                busy[m] += self.cost.block_time_us + extra;
                self.totals.move_bytes += bytes;
            }
            if let Some(file) = rec.file().map(str::to_owned) {
                self.resident_add(&file, &added);
                self.resident_remove(&file, &removed);
            }
        }
        // … physically remove from the members it abandons (a stale
        // copy would be resurrected by the next broadcast read) …
        for &m in &removed {
            if !self.alive[m] {
                continue;
            }
            let mut extra = 0.0;
            let keys = keys.to_vec();
            let _ = self.deliver(m, &mut extra, move |b| {
                let gone = keys.iter().filter(|&&k| b.remove_by_key(k).is_some()).count();
                Ok(Response::with_affected(gone, Default::default()))
            });
        }
        self.charge(&busy);
        // … and only then commit the new placement: per-key rebinds
        // while the group still holds keys outside the chunk, a
        // whole-group retarget when this chunk empties it (the same
        // commit rule as the threaded controller, so every redo path
        // converges on byte-identical directory state).
        let live_in_chunk =
            keys.iter().filter(|k| self.directory.get(k).is_some_and(|g| g == from)).count();
        let remaining = self.directory.group_live_entries(from) > live_in_chunk as u64;
        if remaining {
            for key in keys {
                self.directory.insert(*key, to.to_vec());
            }
        } else if self.directory.retarget(from, to.to_vec()) > 0 {
            self.totals.groups_moved += 1;
        }
        self.log_append(LogRecord::MoveEnd { from: from.to_vec(), to: to.to_vec() })
    }

    /// Commit an online add: every unwrap move is done.
    fn finish_add(&mut self, backend: usize) -> Result<()> {
        self.log_append(LogRecord::AddEnd { backend })?;
        self.unwrapping = false;
        Ok(())
    }

    /// Retire a drained backend: every group containing it has moved
    /// off. `drain-end` (not `dead`) records the retirement.
    fn finish_drain(&mut self, backend: usize) -> Result<()> {
        self.log_append(LogRecord::DrainEnd { backend })?;
        self.draining.remove(&backend);
        self.retire_backend(backend);
        Ok(())
    }

    /// The simulated analogue of the threaded controller's
    /// `shutdown_backend`: the store goes away without a `dead` log
    /// record — callers decide how the death is recorded.
    fn retire_backend(&mut self, i: usize) {
        if i < self.alive.len() {
            self.alive[i] = false;
            self.retired.insert(i);
        }
    }

    /// The placement-independent projection of the cluster's contents
    /// (see [`crate::Controller::logical_digest`]): two clusters of
    /// different shapes holding the same data produce equal logical
    /// digests.
    pub fn logical_digest(&self) -> String {
        crate::controller::logical_digest_of(&self.snapshot_data())
    }
}

impl Kernel for SimCluster {
    fn create_file(&mut self, name: &str) {
        if !self.files.iter().any(|f| f == name) {
            self.files.push(name.to_owned());
        }
        for i in 0..self.backends.len() {
            if !self.alive[i] {
                continue;
            }
            let name = name.to_owned();
            let mut extra = 0.0;
            let _ = self.deliver(i, &mut extra, move |b| {
                b.create_file(name);
                Ok(Response::default())
            });
        }
        self.log_append_stashing(LogRecord::CreateFile { name: name.to_owned() });
        self.maybe_snapshot();
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        self.register_unique(file, attrs.clone());
        self.log_append_stashing(LogRecord::Unique { file: file.to_owned(), attrs });
    }

    fn reserve_key(&mut self) -> DbKey {
        let key = self.alloc_key();
        self.log_append_stashing(LogRecord::ReserveKey { key: key.0 });
        key
    }

    fn execute(&mut self, request: &Request) -> Result<Response> {
        if let Some(e) = self.pending_error.take() {
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
        self.wal_begin_batch();
        let result: Result<Vec<Response>> = txn.requests.iter().map(|r| self.execute(r)).collect();
        let flush = self.wal_commit_batch();
        let out = result?;
        flush?;
        Ok(out)
    }

    fn execute_batch(&mut self, requests: &[Request]) -> Vec<Result<Response>> {
        // Mirror of the threaded controller's conflict scheduler: the
        // simulator walks the same footprint algebra and counts the
        // same flights/stalls, but executes members serially — the
        // cost model already charges backend work as if concurrent
        // members overlapped (per-backend busy times are maxed, not
        // summed), so only the accounting needs mirroring here.
        if requests.len() < 2 {
            return requests.iter().map(|r| self.execute(r)).collect();
        }
        self.totals.batched_requests += requests.len() as u64;
        self.wal_begin_batch();
        let mut results = Vec::with_capacity(requests.len());
        // An in-flight group move is a standing broadcast-write
        // conflict: while the rebalance queue is non-empty the
        // scheduler refuses to stage flights at all, mirroring the
        // threaded controller's stall accounting.
        let rebalancing = !self.rebalancer.is_idle();
        if rebalancing {
            self.totals.rebalance_stalls += requests.len() as u64;
        }
        let mut i = 0;
        while i < requests.len() {
            let mut flight_fps: Vec<crate::sched::Footprint> = Vec::new();
            let mut j = i;
            while !rebalancing && j < requests.len() {
                let flyable = matches!(
                    requests[j],
                    Request::Insert { .. } | Request::Retrieve { .. }
                );
                if !flyable {
                    break;
                }
                let fp = crate::sched::Footprint::of(&requests[j], &self.unique_groups);
                if fp.broadcast && fp.write {
                    break;
                }
                if flight_fps.iter().any(|f| f.conflicts(&fp)) {
                    self.totals.conflict_stalls += 1;
                    break;
                }
                flight_fps.push(fp);
                j += 1;
            }
            if j - i >= 2 {
                let reads = requests[i..j]
                    .iter()
                    .filter(|r| matches!(r, Request::Retrieve { .. }))
                    .count();
                self.totals.sched_flights += 1;
                if reads == j - i {
                    self.totals.sched_read_flights += 1;
                } else if reads > 0 {
                    self.totals.sched_mixed_flights += 1;
                }
                self.totals.sched_max_flight =
                    self.totals.sched_max_flight.max((j - i) as u64);
            }
            for r in &requests[i..j.max(i + 1)] {
                results.push(self.execute(r));
            }
            i = j.max(i + 1);
        }
        if let Err(e) = self.wal_commit_batch() {
            for (req, result) in requests.iter().zip(results.iter_mut()) {
                let mutating = matches!(
                    req,
                    Request::Insert { .. } | Request::Delete { .. } | Request::Update { .. }
                );
                if mutating && result.is_ok() {
                    *result = Err(e.clone());
                }
            }
            self.pending_error.get_or_insert(e);
        }
        self.maybe_snapshot();
        results
    }

    fn exec_totals(&self) -> ExecTotals {
        let mut totals = self.totals;
        if let Some(wal) = &self.wal {
            let WalStats { appends, batches, syncs, snapshot_installs, max_batch } = wal.stats();
            totals.wal_appends = appends;
            totals.wal_batches = batches;
            totals.wal_syncs = syncs;
            totals.wal_snapshots = snapshot_installs;
            totals.wal_max_batch = max_batch;
        }
        totals
    }

    fn health(&self) -> KernelHealth {
        let unavailable: Vec<usize> =
            (0..self.alive.len()).filter(|&i| !self.alive[i]).collect();
        let degraded = self
            .directory
            .groups_in_use()
            .any(|group| group.iter().all(|&r| !self.alive[r]));
        KernelHealth { backends: self.backends.len(), unavailable, degraded }
    }
}

impl SimCluster {
    /// The request dispatcher behind [`Kernel::execute`], shared with
    /// WAL replay.
    fn execute_inner(&mut self, request: &Request) -> Result<Response> {
        match request {
            Request::Insert { record } => {
                let resp = self.insert(record)?;
                Ok(self.finalize(resp))
            }
            Request::Delete { query } => {
                // Logical affected set *before* the round mutates it;
                // the pre-images feed the index/residency bookkeeping.
                let targets = self.route_targets(query);
                let matched = self.matching_records(query, targets.as_deref())?;
                let resp = self.send_round(request, targets.as_deref())?;
                for (k, rec) in &matched {
                    if let Some(group) = self.directory.remove(k) {
                        if let Some(file) = rec.file().map(str::to_owned) {
                            self.resident_remove(&file, &group);
                        }
                    }
                    self.index_remove(*k, rec);
                }
                self.log_append(LogRecord::Exec { request: request.clone() })?;
                let out = Response::with_affected(matched.len(), resp.stats);
                Ok(self.finalize(out))
            }
            Request::Update { query, modifier } => {
                let targets = self.route_targets(query);
                let matched = self.matching_records(query, targets.as_deref())?;
                let resp = self.send_round(request, targets.as_deref())?;
                for (k, rec) in &matched {
                    self.index_update(*k, rec, &modifier.attr, &modifier.value);
                }
                self.log_append(LogRecord::Exec { request: request.clone() })?;
                let out = Response::with_affected(matched.len(), resp.stats);
                Ok(self.finalize(out))
            }
            Request::Retrieve { query, target, by } if target.has_aggregates() => {
                let targets = self.route_targets(query);
                let rows =
                    self.send_round(&Request::retrieve_all(query.clone()), targets.as_deref())?;
                let mut stats = rows.stats;
                let groups = aggregate(rows.records(), target, by.as_deref())?;
                stats.records_returned = groups.len() as u64;
                let mut resp = Response::with_records(Vec::new(), stats);
                resp.groups = Some(groups);
                Ok(self.finalize(resp))
            }
            Request::RetrieveCommon { left, left_attr, right, right_attr, target } => {
                // Matching halves may live on different backends; join
                // at the controller over the merged partials (same
                // scratch-store technique as the threaded controller).
                // Each half routes independently.
                let lt = self.route_targets(left);
                let l = self.send_round(&Request::retrieve_all(left.clone()), lt.as_deref())?;
                let rt = self.route_targets(right);
                let r = self.send_round(&Request::retrieve_all(right.clone()), rt.as_deref())?;
                let mut joiner = Store::new();
                for (key, rec) in l.records() {
                    let mut rec = rec.clone();
                    rec.set(abdl::FILE_ATTR, abdl::Value::str("__mbds_left"));
                    joiner.insert_with_key(DbKey(key.0 * 2), rec)?;
                }
                for (key, rec) in r.records() {
                    let mut rec = rec.clone();
                    rec.set(abdl::FILE_ATTR, abdl::Value::str("__mbds_right"));
                    joiner.insert_with_key(DbKey(key.0 * 2 + 1), rec)?;
                }
                let mut stats = l.stats;
                stats += r.stats;
                let joined = joiner.execute(&Request::RetrieveCommon {
                    left: abdl::Query::conjunction(vec![abdl::Predicate::eq(
                        abdl::FILE_ATTR,
                        "__mbds_left",
                    )]),
                    left_attr: left_attr.clone(),
                    right: abdl::Query::conjunction(vec![abdl::Predicate::eq(
                        abdl::FILE_ATTR,
                        "__mbds_right",
                    )]),
                    right_attr: right_attr.clone(),
                    target: target.clone(),
                })?;
                let mut out = joined;
                out.stats += stats;
                Ok(self.finalize(out))
            }
            other => {
                let targets = match other {
                    Request::Retrieve { query, .. } => self.route_targets(query),
                    _ => None,
                };
                let resp = self.send_round(other, targets.as_deref())?;
                Ok(self.finalize(resp))
            }
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
        let results = cluster.execute_batch(&batch);
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
