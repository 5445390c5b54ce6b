//! The controller's cluster state, and the protocol steps written on
//! top of it.
//!
//! Every [`Controller`] — over worker threads, backend processes or
//! simulated backends, and the standby's warm mirror — tracks the same
//! protocol bookkeeping: the placement ring and key allocator, the
//! directory of replica groups, the unique-value index, per-file
//! residency counts, membership (the [`HealthBoard`], drains,
//! retirements, an online add's unwrap flag and the queued group moves)
//! and the write-ahead log. [`ClusterState`] owns all of it and holds
//! every rule that only reads or writes it: how a record is indexed,
//! which backends a query routes to, how a move chunk commits its
//! placement, what a log entry does to the directory. A promoting
//! standby hands its mirror's state to the new controller by value.
//!
//! The few protocol steps that need the backends as well (a
//! backfilling unique constraint, a rebalance step and its chunked
//! group move, the solo path of deletes, updates and joins, and the
//! batch scheduler that forms flights) are a second `impl Controller`
//! block at the end of this module.

use crate::controller::Controller;
use crate::directory::Directory;
use crate::health::HealthBoard;
use crate::net::REPLY_CACHE;
use crate::placement::Partitioner;
use crate::rebalance::{self, MoveJob, Rebalancer};
use crate::sched::Footprint;
use crate::wal::{LogRecord, SnapshotData, Wal, WalStats};
use abdl::{
    DbKey, Error, ExecTotals, Kernel, Record, RelOp, Request, Response, Result, Store, Value,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The unique index: per `(file, constraint group)`, every stored value
/// tuple → the keys holding it. One entry per stored record, so both
/// halves are kept to 16 bytes: the tuple is a boxed slice (no spare
/// capacity word) and [`KeySet`] boxes its rare `Many` case.
pub(crate) type UniqueIndex = HashMap<(String, usize), BTreeMap<Box<[Value]>, KeySet>>;

/// The keys stored under one unique-index tuple. Almost always exactly
/// one — the constraint forbids more — so that case lives inline
/// instead of in a per-tuple tree node; `Many` only arises when a
/// constraint is declared over existing duplicates or an UPDATE
/// creates one. Iterates in ascending key order either way.
#[derive(Debug, Clone, Default)]
pub(crate) enum KeySet {
    #[default]
    Empty,
    One(DbKey),
    // Boxed on purpose: the extra allocation lands on the rare case and
    // keeps every `KeySet` (one per stored record) at 16 bytes.
    #[allow(clippy::box_collection)]
    Many(Box<BTreeSet<DbKey>>),
}

impl KeySet {
    pub(crate) fn insert(&mut self, key: DbKey) {
        match self {
            KeySet::Empty => *self = KeySet::One(key),
            KeySet::One(k) if *k == key => {}
            KeySet::One(k) => *self = KeySet::Many(Box::new(BTreeSet::from([*k, key]))),
            KeySet::Many(keys) => {
                keys.insert(key);
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &DbKey) {
        match self {
            KeySet::One(k) if k == key => *self = KeySet::Empty,
            KeySet::Many(keys) => {
                keys.remove(key);
                if keys.len() == 1 {
                    *self = KeySet::One(*keys.first().expect("one key"));
                }
            }
            _ => {}
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, KeySet::Empty)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &DbKey> {
        let (one, many) = match self {
            KeySet::Empty => (None, None),
            KeySet::One(k) => (Some(k), None),
            KeySet::Many(keys) => (None, Some(keys.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// A retrieve of every record of `file` — the scan behind snapshots
/// and constraint backfills.
pub(crate) fn file_scan(file: &str) -> Request {
    Request::retrieve_all(abdl::Query::conjunction(vec![abdl::Predicate::eq(
        abdl::FILE_ATTR,
        abdl::Value::str(file),
    )]))
}

/// Refuse a snapshot whose backend count or replication factor no
/// cluster could have written.
pub(crate) fn check_config(snap: &SnapshotData) -> Result<()> {
    if snap.backends == 0 || !(1..=snap.backends).contains(&snap.replication) {
        return Err(Error::Internal(format!(
            "snapshot has invalid configuration: {} backends, replication {}",
            snap.backends, snap.replication
        )));
    }
    Ok(())
}

/// Everything an MBDS kernel knows about its cluster apart from the
/// backends' contents. See the module docs.
pub(crate) struct ClusterState {
    /// Round-robin placement ring; its width is the cluster's.
    pub(crate) partitioner: Partitioner,
    /// Copies kept per record.
    pub(crate) replication: usize,
    /// The key allocator's high-water mark (the next key to issue).
    pub(crate) next_key: u64,
    /// `DUPLICATES ARE NOT ALLOWED` groups per file, enforced *globally*
    /// (a per-backend check would only see its own partition).
    pub(crate) unique_groups: HashMap<String, Vec<Vec<String>>>,
    /// Files created so far, in creation order; replayed into restarted
    /// and joining backends.
    pub(crate) files: Vec<String>,
    /// Which backends hold each record — the recovery, routing and
    /// degraded-mode source of truth, with interned replica sets.
    pub(crate) directory: Directory,
    /// Exact unique-value index. Every insert flows through the
    /// kernel, so it is authoritative and replaces a pre-insert
    /// broadcast probe; snapshot + WAL replay rebuild it.
    pub(crate) unique_index: UniqueIndex,
    /// Per-file, per-backend record counts derived from the directory,
    /// driving file-scoped routing. May over-count records whose data
    /// was lost (safe: an extra target only costs a message).
    pub(crate) resident: HashMap<String, Vec<u64>>,
    /// Per-backend health (Alive → Suspect → Dead).
    pub(crate) health: HealthBoard,
    /// Backends being drained: no new placements, still serving reads
    /// until their last group move commits.
    pub(crate) draining: BTreeSet<usize>,
    /// Backends retired by a completed drain (`drain-end`), as opposed
    /// to dead by failure. A promoting standby must not restore a
    /// retired backend's still-running process.
    pub(crate) retired: BTreeSet<usize>,
    /// True between `add-backend` and `add-end`: an online add's unwrap
    /// rebalance has not finished.
    pub(crate) unwrapping: bool,
    /// The throttled queue of pending group moves.
    pub(crate) rebalancer: Rebalancer,
    /// Remaining key list of the group currently being moved, scanned
    /// once and drained chunk by chunk ([`ClusterState::next_move_chunk`]).
    /// Purely an in-memory cache: it is never persisted, and recovery
    /// and retry paths rescan instead.
    pub(crate) move_cursor: Option<(Vec<usize>, Vec<DbKey>)>,
    /// Write-ahead log of a durable kernel (`None` on the in-memory
    /// constructors, during recovery replay and in a standby mirror —
    /// replayed operations must not be re-logged).
    pub(crate) wal: Option<Wal>,
    /// A failure from an infallible call site (the `Kernel` trait's
    /// `create_file`, a logged death, a background move), surfaced by
    /// the next `execute`.
    pub(crate) pending_error: Option<Error>,
}

impl ClusterState {
    /// An empty cluster of `n` backends keeping `k` copies per record.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        assert!(n > 0, "MBDS needs at least one backend");
        assert!((1..=n).contains(&k), "replication factor must be in 1..=n, got {k}");
        ClusterState {
            partitioner: Partitioner::new(n),
            replication: k,
            next_key: 1,
            unique_groups: HashMap::new(),
            files: Vec::new(),
            directory: Directory::new(),
            unique_index: HashMap::new(),
            resident: HashMap::new(),
            health: HealthBoard::new(n),
            draining: BTreeSet::new(),
            retired: BTreeSet::new(),
            unwrapping: false,
            rebalancer: Rebalancer::new(),
            move_cursor: None,
            wal: None,
            pending_error: None,
        }
    }

    /// Backends in the cluster (serving or not).
    pub(crate) fn width(&self) -> usize {
        self.partitioner.backends()
    }

    /// Widen every per-backend structure to `new_n` members; the new
    /// backends start alive and empty.
    pub(crate) fn grow(&mut self, new_n: usize) {
        while self.width() < new_n {
            self.partitioner.grow(self.width() + 1);
            self.health.grow();
            for counts in self.resident.values_mut() {
                counts.push(0);
            }
        }
    }

    /// True when some record's whole replica group is out of service.
    /// Interned groups make this O(distinct replica sets).
    pub(crate) fn degraded(&self) -> bool {
        let out = |r: &usize| !self.health.is_serving(*r);
        self.directory.groups_in_use().any(|group| group.iter().all(out))
    }

    /// A deterministic rendering of the unique-value index: two kernels
    /// (or a kernel and its recovered twin) holding the same index
    /// render byte-identical digests.
    pub(crate) fn unique_index_digest(&self) -> String {
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
    /// per attribute, NULL standing in for absent ones — exactly the
    /// values an equality probe would compare against.
    fn group_tuple(record: &Record, group: &[String]) -> Box<[Value]> {
        group.iter().map(|a| record.get_or_null(a).clone()).collect()
    }

    /// Index every constraint-group tuple of a newly stored record.
    fn index_insert(&mut self, key: DbKey, record: &Record) {
        let Some(file) = record.file() else { return };
        let Some(groups) = self.unique_groups.get(file) else { return };
        for (gi, group) in groups.iter().enumerate() {
            let tuple = ClusterState::group_tuple(record, group);
            self.unique_index
                .entry((file.to_owned(), gi))
                .or_default()
                .entry(tuple)
                .or_default()
                .insert(key);
        }
    }

    /// Drop a deleted record's tuples from the index (tolerates missing
    /// entries, so replay and live deletion are both safe).
    fn index_remove(&mut self, key: DbKey, record: &Record) {
        let Some(file) = record.file() else { return };
        let Some(groups) = self.unique_groups.get(file) else { return };
        for (gi, group) in groups.iter().enumerate() {
            let tuple = ClusterState::group_tuple(record, group);
            if let Some(by_tuple) = self.unique_index.get_mut(&(file.to_owned(), gi)) {
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
    /// attribute. `record` is the pre-image; duplicates created this
    /// way (the kernel does not re-check uniqueness on UPDATE) simply
    /// list several keys under one tuple.
    fn index_update(&mut self, key: DbKey, record: &Record, attr: &str, value: &Value) {
        let Some(file) = record.file() else { return };
        let Some(groups) = self.unique_groups.get(file) else { return };
        let mut updated = record.clone();
        updated.set(attr.to_owned(), value.clone());
        for (gi, group) in groups.iter().enumerate() {
            if !group.iter().any(|a| a == attr) {
                continue;
            }
            let old_t = ClusterState::group_tuple(record, group);
            let new_t = ClusterState::group_tuple(&updated, group);
            if old_t == new_t {
                continue;
            }
            let by_tuple = self.unique_index.entry((file.to_owned(), gi)).or_default();
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
        let n = self.width();
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

    /// Re-count one moved record: its copies left `removed` for `added`.
    pub(crate) fn resident_move(&mut self, record: &Record, added: &[usize], removed: &[usize]) {
        if let Some(file) = record.file() {
            self.resident_add(file, added);
            self.resident_remove(file, removed);
        }
    }

    /// The backends worth contacting for `query`: the union, over its
    /// disjuncts, of either (a) the replica groups of the keys a fully
    /// pinned unique group names (key-scoped), or (b) the backends the
    /// residency counts say hold records of the disjunct's file. `None`
    /// means some disjunct names no file and the caller must broadcast.
    pub(crate) fn route_targets(&self, query: &abdl::Query) -> Option<Vec<usize>> {
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

    /// Key-scoped fast path: when a conjunction pins every attribute of
    /// some `DUPLICATES ARE NOT ALLOWED` group with an equality
    /// predicate, the unique index names the only keys that can match
    /// (further predicates can only narrow the answer, never widen it).
    pub(crate) fn unique_candidates(
        &self,
        file: &str,
        conj: &abdl::Conjunction,
    ) -> Option<Vec<DbKey>> {
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

    /// Refuse an insert whose fully present constraint-group tuple the
    /// index already holds. Every insert flows through the kernel, so
    /// the index is exact: one map lookup replaces a full-cluster
    /// retrieve probe (and, unlike the probe, still sees records whose
    /// replicas are all currently down).
    pub(crate) fn check_unique(&self, record: &Record) -> Result<()> {
        let Some(file) = record.file() else {
            return Err(Error::MissingFileKeyword);
        };
        let Some(groups) = self.unique_groups.get(file) else { return Ok(()) };
        for (gi, group) in groups.iter().enumerate() {
            if !group.iter().all(|a| record.get(a).is_some()) {
                continue;
            }
            let tuple = ClusterState::group_tuple(record, group);
            let hit = self
                .unique_index
                .get(&(file.to_owned(), gi))
                .and_then(|m| m.get(&tuple))
                .is_some_and(|keys| !keys.is_empty());
            if hit {
                return Err(Error::DuplicateKey { file: file.to_owned(), attrs: group.clone() });
            }
        }
        Ok(())
    }

    /// Allocate a key for an internal insert. Unlike the public
    /// `reserve_key`, this is *not* logged on its own — the insert's
    /// `Insert` (or `Alloc`) WAL entry carries the key.
    pub(crate) fn alloc_key(&mut self) -> DbKey {
        let key = DbKey(self.next_key);
        self.next_key += 1;
        key
    }

    /// The next wave of an insert's replica scan: up to `want` backends
    /// along the ring from `primary`, skipping those out of service or
    /// draining (their groups are being vacated). `scanned` is the scan
    /// cursor, so a substitute wave continues where the last stopped.
    pub(crate) fn next_wave(
        &self,
        primary: usize,
        scanned: &mut usize,
        want: usize,
    ) -> Vec<usize> {
        let n = self.width();
        let mut wave = Vec::with_capacity(want);
        while wave.len() < want && *scanned < n {
            let i = (primary + *scanned) % n;
            *scanned += 1;
            if self.health.is_serving(i) && !self.draining.contains(&i) {
                wave.push(i);
            }
        }
        wave
    }

    /// Commit an insert the backends in `group` acknowledged: directory,
    /// residency and index, then the `insert` log record.
    pub(crate) fn commit_insert(
        &mut self,
        key: DbKey,
        file: &str,
        group: Vec<usize>,
        record: &Record,
    ) -> Result<()> {
        self.directory.insert(key, group.clone());
        self.resident_add(file, &group);
        self.index_insert(key, record);
        self.log_append(LogRecord::Insert { key: key.0, group, record: record.clone() })
    }

    /// Record a constraint group (idempotent: re-registering an
    /// existing group — WAL replay of a doubly-logged constraint, a
    /// repeated `.spawn` seed — must not add a second copy for every
    /// insert to check). Returns the new group's index when the file
    /// already holds records the caller must backfill into the index.
    fn add_unique_group(&mut self, file: &str, attrs: Vec<String>) -> Option<usize> {
        let groups = self.unique_groups.entry(file.to_owned()).or_default();
        if groups.contains(&attrs) {
            return None;
        }
        groups.push(attrs);
        let gi = groups.len() - 1;
        let populated =
            self.resident.get(file).is_some_and(|counts| counts.iter().any(|&c| c > 0));
        populated.then_some(gi)
    }

    /// Index the existing records of `file` under its group `gi`.
    fn backfill_unique(&mut self, file: &str, gi: usize, records: Vec<(DbKey, Record)>) {
        let group = self.unique_groups[file][gi].clone();
        let by_tuple = self.unique_index.entry((file.to_owned(), gi)).or_default();
        for (key, rec) in records {
            by_tuple.entry(ClusterState::group_tuple(&rec, &group)).or_default().insert(key);
        }
    }

    // --- Write-ahead log ---------------------------------------------

    /// Append `rec` if the kernel is durable. During recovery replay
    /// (and in a standby mirror) `wal` is `None`, so nothing re-logs.
    pub(crate) fn log_append(&mut self, rec: LogRecord) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.append(&rec),
            None => Ok(()),
        }
    }

    /// Like [`ClusterState::log_append`] for infallible call sites: the
    /// failure is stashed and surfaced by the next `execute`.
    pub(crate) fn log_append_stashing(&mut self, rec: LogRecord) {
        if let Err(e) = self.log_append(rec) {
            self.pending_error.get_or_insert(e);
        }
    }

    /// Open a WAL group-commit batch (no-op when not durable).
    pub(crate) fn wal_begin_batch(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            w.begin_batch();
        }
    }

    /// Close a WAL batch, flushing its buffered appends with one sync.
    pub(crate) fn wal_commit_batch(&mut self) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.commit_batch(),
            None => Ok(()),
        }
    }

    /// Close an `execute_batch` group commit. If the batch's log
    /// records never reached the store (a promotion fenced this kernel
    /// mid-batch, or the sync failed), acknowledging the writes anyway
    /// would hand the sessions a success the promoted lineage has never
    /// heard of — the model checker's `ack-despite-failed-flush`
    /// counterexample is exactly that: write → backend-write →
    /// wal-append → promote-fence → flush, and the acked write is not
    /// durable. So every mutating result is retracted (reads saw
    /// committed state and stand) and the error is stashed.
    pub(crate) fn commit_batch_results(
        &mut self,
        requests: &[Request],
        results: &mut [Result<Response>],
    ) {
        let Err(e) = self.wal_commit_batch() else { return };
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

    /// `totals` with the WAL's counters filled in.
    pub(crate) fn with_wal_stats(&self, mut totals: ExecTotals) -> ExecTotals {
        if let Some(wal) = self.wal.as_ref() {
            let WalStats { appends, batches, syncs, snapshot_installs, max_batch } = wal.stats();
            totals.wal_appends = appends;
            totals.wal_batches = batches;
            totals.wal_syncs = syncs;
            totals.wal_snapshots = snapshot_installs;
            totals.wal_max_batch = max_batch;
        }
        totals
    }

    /// The compacted state with each record's data supplied by
    /// `record_of(key, group)` (`None` = no surviving copy). The
    /// rendering is deterministic — it doubles as the state digest.
    pub(crate) fn snapshot_data(
        &self,
        mut record_of: impl FnMut(DbKey, &[usize]) -> Option<Record>,
    ) -> SnapshotData {
        let mut places: Vec<(u64, Vec<usize>, Option<Record>)> = self
            .directory
            .iter()
            .map(|(k, group)| (k.0, group.to_vec(), record_of(k, group)))
            .collect();
        places.sort_by_key(|(k, _, _)| *k);
        let mut uniques: Vec<(String, Vec<String>)> = self
            .unique_groups
            .iter()
            .flat_map(|(f, groups)| groups.iter().map(|g| (f.clone(), g.clone())))
            .collect();
        uniques.sort();
        SnapshotData {
            backends: self.width(),
            replication: self.replication,
            next_key: self.next_key,
            dead: self.health.unavailable(),
            draining: self.draining.iter().copied().collect(),
            unwrap: self.unwrapping,
            rotors: self.partitioner.rotors(),
            files: self.files.clone(),
            uniques,
            places,
        }
    }

    /// Recovery step 1, bookkeeping half: rebuild placement, index,
    /// residency and membership from a snapshot. Records whose data did
    /// not survive keep their directory entry but are neither indexed
    /// nor counted — no backend holds them, so routing never needs to
    /// reach them either. The kernel loads the data and marks the dead.
    pub(crate) fn apply_snapshot(&mut self, snap: &SnapshotData) {
        self.next_key = snap.next_key;
        for file in &snap.files {
            if !self.files.contains(file) {
                self.files.push(file.clone());
            }
        }
        for (file, v) in &snap.rotors {
            self.partitioner.set_rotor(file, *v);
        }
        for (file, attrs) in &snap.uniques {
            self.unique_groups.entry(file.clone()).or_default().push(attrs.clone());
        }
        for (key, group, record) in &snap.places {
            self.directory.insert(DbKey(*key), group.clone());
            let Some(record) = record else { continue };
            if let Some(file) = record.file() {
                self.resident_add(file, group);
            }
            self.index_insert(DbKey(*key), record);
        }
        self.draining = snap.draining.iter().copied().collect();
        self.unwrapping = snap.unwrap;
    }

    /// Recovery step 2, bookkeeping half: what one post-snapshot log
    /// entry does to the allocator, ring, directory, index and
    /// membership flags. The kernel's replay performs the rest.
    pub(crate) fn apply_entry(&mut self, entry: &LogRecord) {
        match entry {
            LogRecord::ReserveKey { key } => self.next_key = self.next_key.max(key + 1),
            LogRecord::Alloc { key, file } => {
                self.next_key = self.next_key.max(key + 1);
                self.partitioner.advance(file);
            }
            LogRecord::Insert { key, group, record } => {
                self.next_key = self.next_key.max(key + 1);
                // The live insert consumed exactly one rotation.
                if let Some(file) = record.file() {
                    self.partitioner.advance(file);
                    self.resident_add(file, group);
                }
                self.directory.insert(DbKey(*key), group.clone());
                self.index_insert(DbKey(*key), record);
            }
            // A snapshot taken after the add already has the wider
            // cluster; `grow` only widens.
            LogRecord::AddBackend { backend } => {
                self.grow(*backend + 1);
                self.unwrapping = true;
            }
            LogRecord::AddEnd { .. } => self.unwrapping = false,
            LogRecord::DrainBegin { backend } => {
                self.draining.insert(*backend);
            }
            LogRecord::DrainEnd { backend } => {
                self.draining.remove(backend);
            }
            _ => {}
        }
    }

    // --- Elastic membership: online backend add / drain -------------

    /// True when no membership change is in flight.
    fn rebalance_idle(&self) -> bool {
        self.rebalancer.is_idle() && !self.unwrapping && self.draining.is_empty()
    }

    fn ensure_idle(&self) -> Result<()> {
        if self.rebalance_idle() {
            return Ok(());
        }
        Err(Error::Unavailable(
            "a rebalance is already in progress; finish it before another membership change"
                .into(),
        ))
    }

    /// The bookkeeping of an online add: refused while another change
    /// is rebalancing; otherwise logs the durable goal first (the
    /// `restart-begin` discipline — a crash anywhere past this append
    /// recovers into the widened cluster and re-plans the remaining
    /// moves), widens the ring and queues the unwrap moves. Returns the
    /// new backend's index; the kernel brings the backend itself up.
    pub(crate) fn begin_add(&mut self) -> Result<usize> {
        self.ensure_idle()?;
        let i = self.width();
        self.log_append(LogRecord::AddBackend { backend: i })?;
        self.grow(i + 1);
        self.unwrapping = true;
        self.replan_add(i);
        Ok(i)
    }

    /// The bookkeeping of an online drain of backend `i`: refused when
    /// it would leave fewer serving backends than the replication
    /// factor, or while another change is rebalancing. Logs
    /// `drain-begin` and queues the moves that vacate `i`. `Ok(false)`
    /// when `i` is already draining (recovery re-plans the remaining
    /// moves itself).
    pub(crate) fn begin_drain(&mut self, i: usize) -> Result<bool> {
        if i >= self.width() {
            return Err(Error::Internal(format!("no such backend {i}")));
        }
        if self.draining.contains(&i) {
            return Ok(false);
        }
        if !self.health.is_serving(i) {
            return Err(Error::Unavailable(format!("backend {i} is not serving")));
        }
        self.ensure_idle()?;
        if self.health.serving_count() <= self.replication {
            return Err(Error::Unavailable(format!(
                "draining backend {i} would leave fewer serving backends than replication {}",
                self.replication
            )));
        }
        self.log_append(LogRecord::DrainBegin { backend: i })?;
        self.draining.insert(i);
        self.replan_drain(i);
        Ok(true)
    }

    /// Queue the unwrap moves for the add of backend `added` plus the
    /// `add-end` marker. Pure in the directory state — see
    /// [`rebalance::plan_unwrap`].
    fn replan_add(&mut self, added: usize) {
        let new_n = self.width();
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
    /// `drain-end` marker. Pure in the directory state — see
    /// [`rebalance::plan_drain`].
    fn replan_drain(&mut self, i: usize) {
        let n = self.width();
        let health = &self.health;
        let draining = &self.draining;
        let moves = rebalance::plan_drain(
            self.directory.groups_in_use().map(|g| g.to_vec()),
            i,
            n,
            |b| health.is_serving(b) && !draining.contains(&b),
        );
        for (from, to) in moves {
            self.rebalancer.push(MoveJob::Move { from, to });
        }
        self.rebalancer.push(MoveJob::FinishDrain { backend: i });
    }

    /// Re-derive the whole rebalance queue from durable state — called
    /// after recovery replay and after standby promotion. Moves that
    /// committed before the crash no longer match the planners'
    /// predicates and drop out; the rest are re-queued.
    pub(crate) fn replan_rebalance(&mut self) {
        self.rebalancer.clear();
        let n = self.width();
        if self.unwrapping && n > 1 {
            self.replan_add(n - 1);
        }
        let draining: Vec<usize> = self.draining.iter().copied().collect();
        for i in draining {
            self.replan_drain(i);
        }
    }

    /// The keys of the next chunk (up to `chunk` records) of group
    /// `from` to move; empty once the group is vacated. The group's key
    /// list is scanned once and cursored across chunks — rescanning the
    /// whole directory per chunk would put an O(keys) walk behind every
    /// foreground request. Keys the cursor hands back are re-validated
    /// against the live directory (a foreground delete may have unbound
    /// them since the scan).
    pub(crate) fn next_move_chunk(&mut self, from: &[usize], chunk: usize) -> Vec<DbKey> {
        let mut pending = match self.move_cursor.take() {
            Some((group, pending)) if group == from => pending,
            _ => self.directory.keys_of_group(from),
        };
        let mut keys = Vec::with_capacity(chunk.min(pending.len()));
        let mut consumed = 0;
        for key in &pending {
            if keys.len() == chunk {
                break;
            }
            consumed += 1;
            if self.directory.get(key).is_some_and(|g| g == from) {
                keys.push(*key);
            }
        }
        pending.drain(..consumed);
        if !pending.is_empty() {
            self.move_cursor = Some((from.to_vec(), pending));
        }
        keys
    }

    /// Log the `move-begin` marker of a chunk: the durable promise that
    /// exactly `keys` move from `from` to `to`.
    pub(crate) fn log_move_begin(
        &mut self,
        from: &[usize],
        to: &[usize],
        keys: &[DbKey],
    ) -> Result<()> {
        self.log_append(LogRecord::MoveBegin {
            from: from.to_vec(),
            to: to.to_vec(),
            keys: keys.iter().map(|k| k.0).collect(),
        })
    }

    /// Close a chunk's bracket: commit its placement (counting a
    /// whole-group retarget in `totals`), then log `move-end`.
    pub(crate) fn end_move(
        &mut self,
        from: &[usize],
        to: &[usize],
        keys: &[DbKey],
        totals: &mut ExecTotals,
    ) -> Result<()> {
        if self.commit_chunk_placement(from, to, keys) {
            totals.groups_moved += 1;
        }
        self.log_append(LogRecord::MoveEnd { from: from.to_vec(), to: to.to_vec() })
    }

    /// Commit a chunk's placement switch: per-key rebinds while the
    /// group still holds keys outside the chunk, a whole-group retarget
    /// when this chunk empties it (returns true then). Every redo path —
    /// live move, cold replay, the standby mirror, promotion heal —
    /// commits through here, so they all converge on byte-identical
    /// directory state.
    fn commit_chunk_placement(&mut self, from: &[usize], to: &[usize], keys: &[DbKey]) -> bool {
        // "Does the group hold keys beyond this chunk?" via the interned
        // refcounts — O(chunk), where comparing key lists would rescan
        // the whole directory on every bracket.
        let live_in_chunk =
            keys.iter().filter(|k| self.directory.get(k).is_some_and(|g| g == from)).count();
        let remaining = self.directory.group_live_entries(from) > live_in_chunk as u64;
        if remaining {
            for key in keys {
                self.directory.insert(*key, to.to_vec());
            }
            false
        } else {
            self.directory.retarget(from, to.to_vec()) > 0
        }
    }

    /// Commit an online add: every unwrap move is done.
    fn finish_add(&mut self, backend: usize) -> Result<()> {
        self.log_append(LogRecord::AddEnd { backend })?;
        self.unwrapping = false;
        Ok(())
    }

    /// Retire a drained backend's membership: every group containing
    /// it has moved off. `drain-end` (not `dead`) records the
    /// retirement — the store it leaves holds no current replica.
    fn finish_drain(&mut self, backend: usize) -> Result<()> {
        self.log_append(LogRecord::DrainEnd { backend })?;
        self.draining.remove(&backend);
        Ok(())
    }
}

/// The protocol steps that span the cluster state and the backends: a
/// backfilling unique constraint, a rebalance step and its chunked
/// group move, the solo path of deletes, updates and joins, and the
/// batch scheduler that forms flights.
impl Controller {
    /// Run `op` inside one WAL group-commit batch: an operation's
    /// markers (and any deaths detected along the way) sync together.
    /// A crash point landing inside the batch still flushes durably
    /// through the crashing append, so the per-append sweep holds.
    pub(crate) fn batched<T>(&mut self, op: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.state.wal_begin_batch();
        let result = op(self);
        let flush = self.state.wal_commit_batch();
        let out = result?;
        flush?;
        Ok(out)
    }

    /// The conflict-scheduled batch path behind `Kernel::execute_batch`:
    /// one request from each of several concurrent sessions, admitted
    /// together.
    ///
    /// The scheduler walks the batch in admission order, classifying
    /// each request's [`Footprint`] and greedily forming *flights* of
    /// consecutive non-conflicting inserts and retrieves, which
    /// `execute_flight` runs together — read-only flights (reads always
    /// commute, broadcast scans included) and mixed read/insert flights
    /// (key-/file-disjoint footprints) alike. A conflicting request
    /// closes the flight (a `conflict_stalls` tick) and waits for it to
    /// drain; a flight also closes at [`REPLY_CACHE`] members, because a
    /// backend answers a retransmitted seq from its reply cache only
    /// within that distance of the newest one, and a flight's seqs span
    /// its length. A request left alone runs through `execute`: an
    /// insert or retrieve as a flight of one, a delete, update or join
    /// through its dependent controller-side rounds. Because flight
    /// members pairwise commute, the result is always equivalent to
    /// executing the batch serially in admission order
    /// (`tests/concurrent_equivalence.rs`).
    ///
    /// An in-flight group move is a standing broadcast-write conflict:
    /// while the rebalance queue is non-empty no flight of two or more
    /// forms (each member runs as a flight of one, and its own
    /// `execute` pumps the queue after it), so no staged read can
    /// overlap a directory retarget.
    ///
    /// The whole batch runs inside one WAL group-commit batch: every
    /// session's appends are buffered and flushed with a single sync —
    /// cross-session group commit. As with `execute_transaction`, the
    /// batch is a durability optimisation, not atomicity: each request
    /// keeps its own result, and a flush failure is stashed for the
    /// next `execute` to surface.
    pub(crate) fn schedule_batch(&mut self, requests: &[Request]) -> Vec<Result<Response>> {
        if requests.len() < 2 {
            return requests.iter().map(|r| self.execute(r)).collect();
        }
        self.totals.batched_requests += requests.len() as u64;
        self.state.wal_begin_batch();
        let mut results = Vec::with_capacity(requests.len());
        let rebalancing = !self.state.rebalancer.is_idle();
        if rebalancing {
            self.totals.rebalance_stalls += requests.len() as u64;
        }
        let mut i = 0;
        while i < requests.len() {
            let mut flight_fps: Vec<Footprint> = Vec::new();
            let mut j = i;
            while !rebalancing && j < requests.len() && j - i < REPLY_CACHE as usize {
                if !matches!(requests[j], Request::Insert { .. } | Request::Retrieve { .. }) {
                    break;
                }
                let fp = Footprint::of(&requests[j], &self.state.unique_groups);
                // A broadcast *write* cannot be staged at all; a
                // broadcast read can ride a read-only flight (read
                // pairs always commute; any write next to it is a
                // footprint conflict and closes the flight).
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
                let flight = &requests[i..j];
                let reads =
                    flight.iter().filter(|r| matches!(r, Request::Retrieve { .. })).count();
                let t = &mut self.totals;
                t.sched_flights += 1;
                if reads == flight.len() {
                    t.sched_read_flights += 1;
                } else if reads > 0 {
                    t.sched_mixed_flights += 1;
                }
                t.sched_max_flight = t.sched_max_flight.max(flight.len() as u64);
                results.extend(self.execute_flight(flight));
                i = j;
            } else {
                results.push(self.execute(&requests[i]));
                i += 1;
            }
        }
        self.state.commit_batch_results(requests, &mut results);
        self.maybe_snapshot();
        results
    }

    /// Broadcast a request to every serving backend.
    pub(crate) fn broadcast(&mut self, request: &Request) -> Result<Response> {
        self.send_round(request, None)
    }

    /// Register a constraint group, backfilling the index from existing
    /// records when the file already holds data (constraints are
    /// usually declared before loading, so the backfill broadcast is
    /// rare). Shared by the live path and WAL replay.
    pub(crate) fn register_unique(&mut self, file: &str, attrs: Vec<String>) {
        if let Some(gi) = self.state.add_unique_group(file, attrs) {
            if let Ok(resp) = self.broadcast(&file_scan(file)) {
                self.state.backfill_unique(file, gi, resp.into_records());
            }
        }
    }

    /// Write a compacted snapshot now and truncate the log. No-op when
    /// not durable.
    pub(crate) fn snapshot_now(&mut self) -> Result<()> {
        if self.state.wal.is_none() {
            return Ok(());
        }
        let text = self.snapshot()?.to_text();
        self.state.wal.as_mut().expect("wal present").install_snapshot(&text)
    }

    /// Compact if the snapshot cadence says so. Called only at
    /// top-level operation boundaries — never between a begin/end
    /// marker pair, which would truncate the begin entry while freezing
    /// the pre-operation state.
    pub(crate) fn maybe_snapshot(&mut self) {
        if self.state.wal.as_ref().is_some_and(Wal::needs_snapshot) {
            if let Err(e) = self.snapshot_now() {
                self.state.pending_error.get_or_insert(e);
            }
        }
    }

    /// Relocate one *chunk* (`move_chunk` records) of replica group `from` to `to`: the unit of online
    /// rebalance. WAL-bracketed (`move-begin` … `move-end` in one group
    /// commit) and idempotent — replaying the bracket against any
    /// intermediate state converges to the same placement, and a `from`
    /// group nothing points at is a silent no-op. Returns `Ok(true)`
    /// when the group is fully vacated, `Ok(false)` when more chunks
    /// remain (the caller requeues the move at the *front* of the
    /// queue).
    ///
    /// Reads are never served from a half-moved chunk: the directory
    /// commit is the *last* effect before the end marker, so routing
    /// answers from the old (complete) placement during the copy and
    /// from the new (complete) placement after — per key for mid-group
    /// chunks, per group for the final one.
    fn move_group(&mut self, from: &[usize], to: &[usize]) -> Result<bool> {
        let keys = self.state.next_move_chunk(from, self.move_chunk);
        if keys.is_empty() {
            return Ok(true);
        }
        if let Err(e) = self.batched(|k| k.move_group_inner(from, to, &keys)) {
            // The retry rescans, so the chunk that failed is not lost.
            self.state.move_cursor = None;
            return Err(e);
        }
        self.degraded_dirty = true;
        // Foreground inserts may have bound fresh keys to the group
        // after the scan; the refcount check catches them (the next
        // step rescans), where trusting the cursor would strand them.
        let state = &self.state;
        Ok(state.move_cursor.is_none() && state.directory.group_live_entries(from) == 0)
    }

    /// Perform one queued rebalance job (one move *chunk*, or a finish
    /// marker). `Ok(true)` = a job ran; `Ok(false)` = the queue is
    /// empty. A move with chunks still to go — and any failed job —
    /// goes back to the *front* of the queue, so a `FinishAdd` /
    /// `FinishDrain` marker can never overtake the moves it commits.
    /// Planning is state-based, so retrying a failed job later is
    /// always safe.
    pub(crate) fn rebalance_step(&mut self) -> Result<bool> {
        let Some(job) = self.state.rebalancer.pop() else { return Ok(false) };
        let result = match &job {
            MoveJob::Move { from, to } => self.move_group(from, to).map(|done| !done),
            MoveJob::FinishAdd { backend } => self.state.finish_add(*backend).map(|()| false),
            MoveJob::FinishDrain { backend } => self.state.finish_drain(*backend).map(|()| {
                self.retire_backend(*backend);
                false
            }),
        };
        match result {
            Ok(more_chunks) => {
                if more_chunks {
                    self.state.rebalancer.requeue(job);
                }
                Ok(true)
            }
            Err(e) => {
                self.state.rebalancer.requeue(job);
                Err(e)
            }
        }
    }

    /// Work off up to `throttle` queued jobs behind a foreground
    /// request; an error is stashed for the next `execute` (the job
    /// stays queued).
    pub(crate) fn pump_rebalance(&mut self) {
        for _ in 0..self.state.rebalancer.throttle() {
            match self.rebalance_step() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    self.state.pending_error.get_or_insert(e);
                    break;
                }
            }
        }
    }

    /// The solo path behind `Kernel::execute` for the requests that run
    /// dependent controller-side rounds — deletes, updates and joins —
    /// shared with WAL replay (which must not re-trigger pending-error
    /// surfacing or snapshot compaction). Any other request, such as
    /// one a parsed `exec` log entry names, runs as a flight of one.
    pub(crate) fn execute_inner(&mut self, request: &Request) -> Result<Response> {
        match request {
            Request::Delete { query } | Request::Update { query, .. } => {
                // Logical affected set: matching records, deduplicated
                // across replicas, *before* the round mutates them (the
                // pre-images also feed the index/residency bookkeeping).
                let matched = self.read_matching(query)?.into_records();
                let targets = self.state.route_targets(query);
                let resp = self.send_round(request, targets.as_deref())?;
                let state = &mut self.state;
                if let Request::Update { modifier, .. } = request {
                    for (k, rec) in &matched {
                        state.index_update(*k, rec, &modifier.attr, &modifier.value);
                    }
                } else {
                    for (k, rec) in &matched {
                        if let Some(group) = state.directory.remove(k) {
                            if let Some(file) = rec.file() {
                                state.resident_remove(file, &group);
                            }
                        }
                        state.index_remove(*k, rec);
                    }
                    self.degraded_dirty = true;
                }
                self.state.log_append(LogRecord::Exec { request: request.clone() })?;
                let out = Response::with_affected(matched.len(), resp.stats);
                Ok(self.finalize(out))
            }
            Request::RetrieveCommon { left, left_attr, right, right_attr, target } => {
                // Matching halves may live on different backends; join
                // at the controller over the merged partials. Each half
                // is planned independently.
                let l = self.read_matching(left)?;
                let r = self.read_matching(right)?;
                // Tag halves into scratch files (a record matching both
                // qualifications must appear on both sides, so the keys
                // are remapped disjointly).
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
            other => self.execute_solo(other),
        }
    }
}
