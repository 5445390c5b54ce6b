//! An in-tree explicit-state model checker for the MBDS protocols.
//!
//! Three bounded models share one checker. Each is a configuration
//! implementing [`Model`]: it states its state, actions, violations
//! and bounds, its `initial`/`enabled`/`apply`, its mutation table and
//! the coverage facts its search must reach. One breadth-first
//! [`check`] exhausts any of them into one [`CheckReport`], carrying a
//! shortest [`Counterexample`] when an invariant fails:
//!
//! | model | configuration | protocol it abstracts |
//! |---|---|---|
//! | `failover` | [`ModelConfig`] | the epoch-fenced primary/standby failover (below) |
//! | `flight` | [`flight::FlightConfig`] | overlapped read flights against replicated write waves |
//! | `rebalance` | [`rebalance::RebalanceConfig`] | one WAL-bracketed live group move under crash, recovery and promotion |
//!
//! `mbds-model --sweep` and E19 run every model's shipped protocol,
//! which must hold and reach its coverage facts, and every mutation in
//! its catalogue, which must be caught.
//!
//! # The failover model
//!
//! The crash sweeps (`tests/crash_recovery.rs`), the failover sweep
//! (`tests/failover.rs`) and the partition harness
//! (`tests/net_partition.rs`) *sample* the protocol's interleaving
//! space; this module *exhausts* it, up to a bounded depth, over an
//! abstracted primary/standby/backend/log state machine. Every action
//! of the real protocol that can interleave is a small-step transition
//! on a hashable [`State`]:
//!
//! | model action | real code path it abstracts |
//! |---|---|
//! | [`Action::ClientWrite`] | a session submits a request to whichever controller it is connected to (`MldsService` → `Kernel::execute_batch`) |
//! | [`Action::BackendWrite`] | the controller stages the write at the backends; each backend's fence rejects stale epochs (`Controller::execute_flight`, the envelope epoch check in `spawn_backend` / the remote fence in `mbds-backend`) |
//! | [`Action::WalAppend`] | the write's log record is buffered into the open group-commit batch (`Wal::append` with `batch_depth > 0`) |
//! | [`Action::GroupCommitFlush`] | the outermost `commit_batch` flushes the buffer with one sync; the store's fence is checked *atomically* with the append (`LogStore::append_lines_fenced`), and only a successful flush acknowledges the batch to the sessions |
//! | [`Action::SnapshotInstall`] | `Controller::snapshot_now` compacts the log (`LogStore::install_snapshot_fenced`), bumping the store generation |
//! | [`Action::Crash`] | the controller dies; its in-memory buffers (admitted requests, staged writes, the open batch) are lost |
//! | [`Action::Recover`] | `Controller::recover` replays snapshot+log and **fences out every earlier incarnation** by bumping the epoch past everything the store has seen (`Wal::refence`) |
//! | [`Action::ShipSend`] / [`Action::ShipDeliver`] | the standby's `LogCursor` polls the store and applies one shipped record to the mirror (`Standby::poll`); over TCP the poll is a `RemoteLog` pull |
//! | [`Action::ShipDrop`] / [`Action::ShipDup`] | a lost or duplicated pull reply on the ship link (a `FaultPlan` link event: drop/duplicate); a delayed reply is an in-flight message that other actions simply overtake |
//! | [`Action::ShipResync`] | the cursor notices a snapshot-install generation bump and rebuilds the mirror from the snapshot (`CursorUpdate::Snapshot`) |
//! | [`Action::PromoteFence`] | `Standby::promote`, first half: the final poll consumes every whole durable record, then the store's fence epoch is raised past everything the log has seen |
//! | [`Action::PromoteInstall`] | `Standby::promote`, second half: every backend's fence is raised (shared `AtomicU64` in-process, the `Hello` epoch over TCP) and the warm mirror becomes the serving controller |
//!
//! A breadth-first search over all interleavings (with a visited set
//! over the hashed states) machine-checks two invariants at every
//! state:
//!
//! 1. **Exclusive epoch writer** — no two controllers ever both
//!    perform a fenced write (a WAL append or a backend apply) in the
//!    same epoch, no acceptor ever accepts a write whose epoch its
//!    fence already excludes, and no acceptor's accepted epochs ever
//!    regress. Split brain is any of the three.
//! 2. **Acknowledged writes survive** — every write acknowledged to a
//!    client (group commit flushed) is durable in the store at every
//!    subsequent state, and is part of the promoted controller's state
//!    on every crash+promotion path.
//!
//! On a violation the checker reconstructs and returns the **full
//! action trace** from the initial state. Intentionally broken
//! protocol [`Mutation`]s re-open the historical windows the real code
//! closed — each mutation's counterexample is pinned by
//! `tests/model_check.rs`, and each has a transcribed deterministic
//! regression test against the real `Controller`/`Standby` stack.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// The name every catalogue gives the protocol as shipped.
const SHIPPED: &str = "none";

/// A coverage fact of model `M`: its name, and whether a state
/// witnesses it.
pub type Fact<M> = (&'static str, fn(&M, &<M as Model>::State) -> bool);

/// One bounded protocol model. A configuration implements it by
/// stating its state machine (`initial`, `enabled` and `apply`, where
/// an `Err` is an invariant violation), its search bounds, its
/// mutation table and the coverage facts its search must reach;
/// [`check`] does the rest.
pub trait Model: Copy + fmt::Debug + 'static {
    /// One abstract protocol state, hashed into the visited set.
    type State: Clone + Eq + Hash + 'static;
    /// One small-step action; a counterexample prints one per line.
    type Action: Copy + Eq + fmt::Debug + fmt::Display;
    /// Why a transition or a state is inconsistent.
    type Violation: Clone + fmt::Debug + fmt::Display;
    /// The protocol variant; `Default` is the protocol as shipped.
    type Mutation: Copy + Eq + Default + fmt::Debug;

    /// The model's name in reports.
    const NAME: &'static str;
    /// Every intentionally broken variant, with the name `mbds-model
    /// --mutation` takes for it; each must produce a counterexample.
    /// The shipped protocol is not listed (its name is `none`).
    const MUTATIONS: &'static [(Self::Mutation, &'static str)];
    /// Facts that some state the shipped protocol's search visits must
    /// witness, each with its name, so that "no violation" is not
    /// vacuous.
    const COVERAGE: &'static [Fact<Self>] = &[];

    /// The CI configuration, with the shipped protocol.
    fn small() -> Self;
    /// The protocol variant this configuration checks.
    fn mutation(&self) -> Self::Mutation;
    /// This configuration with `mutation` in place of its own.
    fn mutated(self, mutation: Self::Mutation) -> Self;
    /// The depth bound (actions along any path) and the state cap (0 =
    /// none). Unbounded by default: the frontier simply drains.
    fn bounds(&self) -> (u32, usize) {
        (u32::MAX, 0)
    }
    /// The state the search starts from.
    fn initial(&self) -> Self::State;
    /// Every action enabled in `state`, in the order the search takes
    /// them.
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;
    /// `state` after `action`, or the invariant the step breaks.
    fn apply(&self, state: &Self::State, action: Self::Action)
        -> Result<Self::State, Self::Violation>;
    /// Which of the model's numbered invariants `violation` breaks.
    fn invariant(_violation: &Self::Violation) -> u8 {
        1
    }

    /// `small()` with `mutation` applied.
    fn with_mutation(mutation: Self::Mutation) -> Self {
        Self::small().mutated(mutation)
    }

    /// The catalogue name of this configuration's mutation.
    fn mutation_name(&self) -> &'static str {
        let mutation = self.mutation();
        Self::MUTATIONS
            .iter()
            .find(|(m, _)| *m == mutation)
            .map_or(SHIPPED, |&(_, name)| name)
    }

    /// This configuration with the mutation called `name` (`none` is
    /// the shipped protocol), or `None` if the catalogue lacks it.
    fn named(self, name: &str) -> Option<Self> {
        let mutation = if name == SHIPPED {
            Some(Self::Mutation::default())
        } else {
            Self::MUTATIONS.iter().find(|(_, n)| *n == name).map(|&(m, _)| m)
        };
        mutation.map(|m| self.mutated(m))
    }
}

/// What a failed check returns: the violated invariant and the
/// shortest action trace (BFS order) from the initial state to it.
#[derive(Debug, Clone)]
pub struct Counterexample<M: Model> {
    /// What broke.
    pub violation: M::Violation,
    /// Every action from the initial state to the violating one.
    pub trace: Vec<M::Action>,
}

impl<M: Model> Counterexample<M> {
    /// The trace rendered one action per line, violation last — the
    /// artifact CI uploads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, action) in self.trace.iter().enumerate() {
            out.push_str(&format!("{:>3}. {action}\n", i + 1));
        }
        out.push_str(&format!("  ⇒ VIOLATION: {}\n", self.violation));
        out
    }

    /// Which of the model's numbered invariants the trace breaks.
    pub fn invariant(&self) -> u8 {
        M::invariant(&self.violation)
    }
}

/// What one exhaustive check explored.
#[derive(Debug, Clone)]
pub struct CheckReport<M: Model> {
    /// The configuration checked.
    pub config: M,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (successor computations).
    pub transitions: u64,
    /// Deepest level reached (within the depth bound).
    pub max_depth: u32,
    /// Peak BFS frontier length.
    pub frontier_peak: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// True when the depth bound pruned unexplored successors (the
    /// search was exhaustive *up to the bound* either way).
    pub depth_pruned: bool,
    /// Each of the model's coverage facts, and whether some visited
    /// state witnessed it.
    pub coverage: Vec<(&'static str, bool)>,
    /// The first violation found (BFS ⇒ a shortest trace), if any.
    pub counterexample: Option<Counterexample<M>>,
}

impl<M: Model> CheckReport<M> {
    /// Whether some visited state witnessed the coverage fact `fact`.
    pub fn reached(&self, fact: &str) -> bool {
        self.coverage.iter().any(|&(name, hit)| hit && name == fact)
    }

    /// True when the run met its expectation: the shipped protocol
    /// holds and reaches every coverage fact, a mutation is caught.
    pub fn as_expected(&self) -> bool {
        if self.config.mutation() == M::Mutation::default() {
            self.counterexample.is_none() && self.coverage.iter().all(|&(_, hit)| hit)
        } else {
            self.counterexample.is_some()
        }
    }

    /// One summary line for logs and experiment tables.
    pub fn summary(&self) -> String {
        let coverage: String = self
            .coverage
            .iter()
            .map(|&(fact, hit)| format!(" {fact}={}", if hit { "reached" } else { "UNREACHED" }))
            .collect();
        format!(
            "model={} mutation={} states={} transitions={} depth={}{coverage} elapsed={:?} verdict={}",
            M::NAME,
            self.config.mutation_name(),
            self.states,
            self.transitions,
            self.max_depth,
            self.elapsed,
            match &self.counterexample {
                None => "no violation".to_owned(),
                Some(ce) => format!("VIOLATION ({}) at depth {}", ce.violation, ce.trace.len()),
            }
        )
    }
}

/// Exhaustive breadth-first check of `cfg` within its bounds: the
/// exploration statistics, the coverage facts reached and, when an
/// invariant fails, the shortest violating action trace.
pub fn check<M: Model>(cfg: &M) -> CheckReport<M> {
    let start = Instant::now();
    let (depth, max_states) = cfg.bounds();
    let mut reached = vec![false; M::COVERAGE.len()];
    let run = explore(
        cfg.initial(),
        depth,
        max_states,
        |s| cfg.enabled(s),
        |s, a| cfg.apply(s, a),
        |next| {
            for (hit, (_, fact)) in reached.iter_mut().zip(M::COVERAGE) {
                *hit |= fact(cfg, next);
            }
        },
    );
    CheckReport {
        config: *cfg,
        states: run.states,
        transitions: run.transitions,
        max_depth: run.max_depth,
        frontier_peak: run.frontier_peak,
        elapsed: start.elapsed(),
        depth_pruned: run.depth_pruned,
        coverage: M::COVERAGE.iter().map(|&(fact, _)| fact).zip(reached).collect(),
        counterexample: run.violation.map(|(violation, trace)| Counterexample { violation, trace }),
    }
}

/// What one [`explore`] run found.
pub(crate) struct Exploration<A, V> {
    /// Distinct states visited.
    pub(crate) states: usize,
    /// Transitions taken (successor computations).
    pub(crate) transitions: u64,
    /// Deepest level reached.
    pub(crate) max_depth: u32,
    /// Peak frontier length.
    pub(crate) frontier_peak: usize,
    /// True when the depth bound pruned unexplored successors.
    pub(crate) depth_pruned: bool,
    /// The first violation, with the shortest action trace reaching it
    /// from the initial state (BFS order).
    pub(crate) violation: Option<(V, Vec<A>)>,
}

/// The breadth-first search behind every checker in this module: from
/// `initial`, take each action `enabled` lists, `apply` it (an `Err` is
/// a violation and ends the search), hand every successor to `visit`
/// (coverage flags), and queue the successors not seen before. States
/// at `depth` are not expanded; the search also stops once `max_states`
/// distinct states are known (0 = no limit). Each visited state keeps
/// only its parent id and the action that produced it, so the shortest
/// trace is rebuilt without keeping parent states alive.
pub(crate) fn explore<S, A, V>(
    initial: S,
    depth: u32,
    max_states: usize,
    enabled: impl Fn(&S) -> Vec<A>,
    apply: impl Fn(&S, A) -> Result<S, V>,
    mut visit: impl FnMut(&S),
) -> Exploration<A, V>
where
    S: Clone + Eq + std::hash::Hash,
    A: Copy,
{
    // id → (parent id, action that produced it).
    let mut meta: Vec<(u32, Option<A>)> = vec![(0, None)];
    let mut visited: HashMap<S, u32> = HashMap::new();
    visited.insert(initial.clone(), 0);
    let mut frontier: VecDeque<(S, u32, u32)> = VecDeque::from([(initial, 0, 0)]);
    let mut out = Exploration {
        states: 1,
        transitions: 0,
        max_depth: 0,
        frontier_peak: 1,
        depth_pruned: false,
        violation: None,
    };
    while let Some((state, id, level)) = frontier.pop_front() {
        if level >= depth {
            out.depth_pruned = true;
            continue;
        }
        for action in enabled(&state) {
            out.transitions += 1;
            let next = match apply(&state, action) {
                Ok(next) => next,
                Err(violation) => {
                    let mut trace = Vec::new();
                    let mut at = id;
                    while let (parent, Some(step)) = meta[at as usize] {
                        trace.push(step);
                        at = parent;
                    }
                    trace.reverse();
                    trace.push(action);
                    out.states = visited.len();
                    out.max_depth = out.max_depth.max(level + 1);
                    out.violation = Some((violation, trace));
                    return out;
                }
            };
            visit(&next);
            if let MapEntry::Vacant(slot) = visited.entry(next) {
                let next_id = meta.len() as u32;
                meta.push((id, Some(action)));
                let state = slot.key().clone();
                slot.insert(next_id);
                out.max_depth = out.max_depth.max(level + 1);
                frontier.push_back((state, next_id, level + 1));
                out.frontier_peak = out.frontier_peak.max(frontier.len());
            }
        }
        if max_states > 0 && visited.len() >= max_states {
            break;
        }
    }
    out.states = visited.len();
    out
}

// ===========================================================================
// Failover model: the epoch-fenced primary/standby protocol.
// ===========================================================================

/// A client write, identified by issue order. At most
/// [`ModelConfig::writes`] ≤ 16 exist, so sets of writes are `u16`
/// bitmasks.
pub type WriteId = u8;

/// A controller slot: 0 is the initial primary, 1 is the controller a
/// standby promotion installs.
pub type CtrlId = u8;

type Mask = u16;

fn bit(w: WriteId) -> Mask {
    1 << w
}

/// An intentionally broken protocol variant. [`Mutation::None`] is the
/// protocol as shipped; every other variant re-opens a window the real
/// implementation closes, and must produce a counterexample trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The protocol as implemented (both invariants must hold).
    #[default]
    None,
    /// `execute_batch` acknowledges its writes even when the
    /// group-commit flush was refused by the fence — the pre-fix
    /// behaviour of the controller's batch path (the flush failure was
    /// stashed while the per-request results stayed `Ok`).
    AckDespiteFailedFlush,
    /// The flush checks the fence and lands the batch as two separate
    /// steps — the check-then-act race `LogStore::append_lines_fenced`
    /// exists to close. A promotion between the two steps lets a
    /// demoted primary's records into the new lineage's log.
    RacyFlushFence,
    /// Promotion installs the new controller without raising the store
    /// or backend fences: the demoted primary keeps writing.
    SkipFenceRaiseOnPromote,
    /// Promotion raises the fence but reuses the highest epoch it saw
    /// instead of bumping past it: two controllers share an epoch.
    PromoteWithoutEpochBump,
    /// Cold recovery adopts the store's fence epoch instead of
    /// fencing out its own predecessor — the pre-fix behaviour of
    /// `Controller::recover`: a recovered zombie and a promoted
    /// standby both write the same epoch.
    RecoverWithoutRefence,
    /// Promotion installs the standby's shipped prefix without the
    /// final poll of the durable store — acknowledged writes that
    /// shipped late are missing from the promoted state (the
    /// async-replication caveat a remote standby must respect).
    PromoteSkipsFinalPoll,
}

/// Bounds and protocol variant for one exhaustive check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Backend count (each with its own fence).
    pub backends: u8,
    /// Client writes available to issue (≤ 16).
    pub writes: u8,
    /// BFS depth bound (actions along any explored path).
    pub depth: u32,
    /// Controller crashes allowed along any path.
    pub max_crashes: u8,
    /// Snapshot installs allowed along any path.
    pub max_snapshots: u8,
    /// Safety valve: stop exploring past this many distinct states
    /// (0 = unbounded). The CI config never hits it.
    pub max_states: usize,
    /// The protocol variant to check.
    pub mutation: Mutation,
}

/// One small-step protocol action (see the module table for the real
/// code path each abstracts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// A client submits the next write to controller `to`.
    ClientWrite {
        /// The controller the session is connected to.
        to: CtrlId,
    },
    /// Controller `c` applies its oldest admitted write at the
    /// backends (each backend's fence may reject it).
    BackendWrite {
        /// The writing controller.
        c: CtrlId,
    },
    /// Controller `c` buffers its oldest backend-applied write into
    /// the open group-commit batch.
    WalAppend {
        /// The writing controller.
        c: CtrlId,
    },
    /// Controller `c` flushes the open batch durably (fence-checked
    /// atomically at the store) and acknowledges it.
    GroupCommitFlush {
        /// The flushing controller.
        c: CtrlId,
    },
    /// [`Mutation::RacyFlushFence`] only: the separated fence check.
    FlushCheck {
        /// The flushing controller.
        c: CtrlId,
    },
    /// [`Mutation::RacyFlushFence`] only: the separated landing.
    FlushLand {
        /// The flushing controller.
        c: CtrlId,
    },
    /// Controller `c` compacts the log into a snapshot.
    SnapshotInstall {
        /// The compacting controller.
        c: CtrlId,
    },
    /// Controller `c` crashes, losing all in-memory buffers.
    Crash {
        /// The crashing controller.
        c: CtrlId,
    },
    /// Controller `c` cold-recovers from the store.
    Recover {
        /// The recovering controller.
        c: CtrlId,
    },
    /// The ship link picks up the next durable log record.
    ShipSend,
    /// The in-flight ship message reaches the standby and is applied
    /// (stale messages are ignored by the cursor's sequence check).
    ShipDeliver,
    /// The in-flight ship message is delivered *and stays in flight*
    /// — a duplicated frame; the copy must be ignored later.
    ShipDup,
    /// The in-flight ship message is lost; the pull protocol re-sends.
    ShipDrop,
    /// The standby notices a snapshot-install generation bump and
    /// rebuilds its mirror from the snapshot.
    ShipResync,
    /// Promotion, first half: final poll + store fence raise.
    PromoteFence,
    /// Promotion, second half: backend fence raise + controller
    /// install.
    PromoteInstall,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::ClientWrite { to } => write!(f, "client-write → ctrl{to}"),
            Action::BackendWrite { c } => write!(f, "ctrl{c}: backend-write"),
            Action::WalAppend { c } => write!(f, "ctrl{c}: wal-append"),
            Action::GroupCommitFlush { c } => write!(f, "ctrl{c}: group-commit-flush"),
            Action::FlushCheck { c } => write!(f, "ctrl{c}: flush-fence-check"),
            Action::FlushLand { c } => write!(f, "ctrl{c}: flush-land"),
            Action::SnapshotInstall { c } => write!(f, "ctrl{c}: snapshot-install"),
            Action::Crash { c } => write!(f, "ctrl{c}: crash"),
            Action::Recover { c } => write!(f, "ctrl{c}: recover"),
            Action::ShipSend => write!(f, "ship: send"),
            Action::ShipDeliver => write!(f, "ship: deliver"),
            Action::ShipDup => write!(f, "ship: deliver+duplicate"),
            Action::ShipDrop => write!(f, "ship: drop"),
            Action::ShipResync => write!(f, "ship: snapshot-resync"),
            Action::PromoteFence => write!(f, "standby: promote (poll + fence raise)"),
            Action::PromoteInstall => write!(f, "standby: promote (install controller)"),
        }
    }
}

/// Why a state is inconsistent. The first two variants are invariant
/// 1 (exclusive epoch writer / no split brain); the last two are
/// invariant 2 (acknowledged writes survive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Two distinct controllers both performed a fenced write stamped
    /// with the same epoch.
    EpochSharedByTwoWriters {
        /// The shared epoch.
        epoch: u8,
    },
    /// An acceptor (the store, or backend `acceptor`) accepted a write
    /// whose epoch its fence already excluded, or an epoch below one
    /// it had already accepted.
    FencedWriteAccepted {
        /// `u8::MAX` for the store, else the backend index.
        acceptor: u8,
        /// The stale epoch that landed.
        epoch: u8,
        /// The fence (or highest accepted epoch) that should have
        /// excluded it.
        fence: u8,
    },
    /// An acknowledged write is no longer durable in the store.
    AckedWriteNotDurable {
        /// The lost write.
        w: WriteId,
    },
    /// A crash+promotion path installed a controller missing an
    /// acknowledged write.
    AckedWriteLostAtPromotion {
        /// The lost write.
        w: WriteId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::EpochSharedByTwoWriters { epoch } => {
                write!(f, "invariant 1: two controllers both wrote in epoch {epoch}")
            }
            Violation::FencedWriteAccepted { acceptor, epoch, fence } => {
                let who = if *acceptor == u8::MAX {
                    "the log store".to_owned()
                } else {
                    format!("backend {acceptor}")
                };
                write!(f, "invariant 1: {who} accepted epoch {epoch} past fence/high-water {fence}")
            }
            Violation::AckedWriteNotDurable { w } => {
                write!(f, "invariant 2: acknowledged write {w} is not durable in the store")
            }
            Violation::AckedWriteLostAtPromotion { w } => {
                write!(f, "invariant 2: acknowledged write {w} missing from the promoted controller")
            }
        }
    }
}

/// One controller slot's abstract state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Ctrl {
    /// False for slot 1 before a promotion installs it.
    live: bool,
    crashed: bool,
    epoch: u8,
    /// Admitted client writes, not yet at the backends.
    inbox: Vec<WriteId>,
    /// Backend-applied writes, not yet in the WAL batch.
    staged: Vec<WriteId>,
    /// The open group-commit batch.
    batch: Vec<WriteId>,
    /// [`Mutation::RacyFlushFence`]: the fence check passed, the
    /// landing has not happened yet.
    flush_checked: bool,
    /// Writes the controller's state contains (what a client reading
    /// through it would see); the promoted controller starts from the
    /// standby's view.
    view: Mask,
}

impl Ctrl {
    fn fresh(live: bool) -> Ctrl {
        Ctrl {
            live,
            crashed: false,
            epoch: 0,
            inbox: Vec::new(),
            staged: Vec::new(),
            batch: Vec::new(),
            flush_checked: false,
            view: 0,
        }
    }

    fn active(&self) -> bool {
        self.live && !self.crashed
    }
}

/// One durable log entry: which write, stamped with whose epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LogEntryS {
    w: WriteId,
    epoch: u8,
    writer: CtrlId,
}

/// The shared durable store (`LogStore`): fence, snapshot, log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StoreS {
    fence: u8,
    generation: u8,
    /// Writes compacted into the snapshot.
    snap: Mask,
    log: Vec<LogEntryS>,
    /// Highest epoch ever accepted (monotonicity check).
    max_epoch: u8,
}

impl StoreS {
    fn durable(&self) -> Mask {
        self.log.iter().fold(self.snap, |m, e| m | bit(e.w))
    }
}

/// One backend's fence (contents are rebuilt from the log, so only
/// the fencing state matters to the invariants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BackendS {
    fence: u8,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum StandbyPhase {
    Tailing,
    /// PromoteFence done: the fence is up, the controller install is
    /// still pending (the window [`Mutation::SkipFenceRaiseOnPromote`]
    /// attacks). `acked` snapshots the acknowledged set at the fence
    /// point — writes acknowledged *after* it belong to a superseding
    /// lineage (a cold recovery that re-fenced past this promotion)
    /// and stay covered by the durability half of invariant 2.
    Fenced { epoch: u8, view: Mask, acked: Mask },
    Promoted,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StandbyS {
    generation: u8,
    /// Log records applied to the mirror (within `generation`).
    shipped: u8,
    mirror: Mask,
    phase: StandbyPhase,
}

/// A ship-link message in flight: one log record, tagged with the
/// store generation and log index it was read at (the cursor's
/// sequence check in miniature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShipMsg {
    generation: u8,
    idx: u8,
    w: WriteId,
}

/// One abstract protocol state — hashable, so BFS dedupes on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    ctrls: [Ctrl; 2],
    store: StoreS,
    backends: Vec<BackendS>,
    standby: StandbyS,
    inflight: Option<ShipMsg>,
    /// Writes acknowledged to clients.
    acked: Mask,
    next_write: u8,
    crashes: u8,
    snapshots: u8,
    /// Which controller has written in which epoch — the exclusive
    /// epoch writer ledger (sorted, deduped; tiny).
    claims: Vec<(u8, CtrlId)>,
}

impl State {
    /// Record that `writer` performed a fenced write in `epoch`.
    fn claim(&mut self, epoch: u8, writer: CtrlId) -> Result<(), Violation> {
        match self.claims.binary_search(&(epoch, writer)) {
            Ok(_) => Ok(()),
            Err(pos) => {
                if self.claims.iter().any(|&(e, w)| e == epoch && w != writer) {
                    return Err(Violation::EpochSharedByTwoWriters { epoch });
                }
                self.claims.insert(pos, (epoch, writer));
                Ok(())
            }
        }
    }
}

impl Model for ModelConfig {
    type State = State;
    type Action = Action;
    type Violation = Violation;
    type Mutation = Mutation;

    const NAME: &'static str = "failover";
    const MUTATIONS: &'static [(Mutation, &'static str)] = &[
        (Mutation::AckDespiteFailedFlush, "ack-despite-failed-flush"),
        (Mutation::RacyFlushFence, "racy-flush-fence"),
        (Mutation::SkipFenceRaiseOnPromote, "skip-fence-raise"),
        (Mutation::PromoteWithoutEpochBump, "promote-without-epoch-bump"),
        (Mutation::RecoverWithoutRefence, "recover-without-refence"),
        (Mutation::PromoteSkipsFinalPoll, "promote-skips-final-poll"),
    ];

    /// The CI configuration named by the roadmap: 1 primary, 1
    /// standby, 2 backends, 4 pending writes, depth 13 — exhausted in
    /// seconds, > 10⁴ distinct states.
    fn small() -> ModelConfig {
        ModelConfig {
            backends: 2,
            writes: 4,
            depth: 13,
            max_crashes: 1,
            max_snapshots: 1,
            max_states: 0,
            mutation: Mutation::None,
        }
    }

    fn mutation(&self) -> Mutation {
        self.mutation
    }

    fn mutated(self, mutation: Mutation) -> ModelConfig {
        ModelConfig { mutation, ..self }
    }

    fn bounds(&self) -> (u32, usize) {
        (self.depth, self.max_states)
    }

    fn initial(&self) -> State {
        State {
            ctrls: [Ctrl::fresh(true), Ctrl::fresh(false)],
            store: StoreS { fence: 0, generation: 0, snap: 0, log: Vec::new(), max_epoch: 0 },
            backends: vec![BackendS { fence: 0 }; self.backends as usize],
            standby: StandbyS {
                generation: 0,
                shipped: 0,
                mirror: 0,
                phase: StandbyPhase::Tailing,
            },
            inflight: None,
            acked: 0,
            next_write: 0,
            crashes: 0,
            snapshots: 0,
            claims: Vec::new(),
        }
    }

    fn enabled(&self, s: &State) -> Vec<Action> {
        let mut out = Vec::with_capacity(16);
        for c in 0..2u8 {
            let ctrl = &s.ctrls[c as usize];
            if ctrl.active() {
                if s.next_write < self.writes {
                    out.push(Action::ClientWrite { to: c });
                }
                if !ctrl.inbox.is_empty() {
                    out.push(Action::BackendWrite { c });
                }
                if !ctrl.staged.is_empty() {
                    out.push(Action::WalAppend { c });
                }
                if !ctrl.batch.is_empty() {
                    if self.mutation == Mutation::RacyFlushFence {
                        if ctrl.flush_checked {
                            out.push(Action::FlushLand { c });
                        } else {
                            out.push(Action::FlushCheck { c });
                        }
                    } else {
                        out.push(Action::GroupCommitFlush { c });
                    }
                }
                if s.snapshots < self.max_snapshots
                    && !s.store.log.is_empty()
                    && s.store.fence <= ctrl.epoch
                {
                    out.push(Action::SnapshotInstall { c });
                }
                if s.crashes < self.max_crashes {
                    out.push(Action::Crash { c });
                }
            }
            if ctrl.live && ctrl.crashed {
                out.push(Action::Recover { c });
            }
        }
        match &s.standby.phase {
            StandbyPhase::Tailing => {
                if s.standby.generation != s.store.generation {
                    out.push(Action::ShipResync);
                } else if s.inflight.is_none()
                    && (s.standby.shipped as usize) < s.store.log.len()
                {
                    out.push(Action::ShipSend);
                }
                if s.inflight.is_some() {
                    out.push(Action::ShipDeliver);
                    out.push(Action::ShipDup);
                    out.push(Action::ShipDrop);
                }
                if !s.ctrls[1].live {
                    out.push(Action::PromoteFence);
                }
            }
            StandbyPhase::Fenced { .. } => out.push(Action::PromoteInstall),
            StandbyPhase::Promoted => {}
        }
        out
    }

    /// Apply `a` to a copy of `s`; `Err` is an invariant violation at
    /// this transition or in the state it reaches.
    fn apply(&self, s: &State, a: Action) -> Result<State, Violation> {
        let mut n = s.clone();
        match a {
            Action::ClientWrite { to } => {
                n.ctrls[to as usize].inbox.push(n.next_write);
                n.next_write += 1;
            }
            Action::BackendWrite { c } => {
                let epoch = n.ctrls[c as usize].epoch;
                let w = n.ctrls[c as usize].inbox.remove(0);
                let mut accepted = false;
                for b in 0..n.backends.len() {
                    if n.backends[b].fence > epoch {
                        continue; // fenced out: the backend rejects the envelope
                    }
                    n.claim(epoch, c)?;
                    accepted = true;
                }
                if accepted {
                    n.ctrls[c as usize].staged.push(w);
                    n.ctrls[c as usize].view |= bit(w);
                }
                // No backend accepted: the write fails, the client sees an
                // error, nothing to track.
            }
            Action::WalAppend { c } => {
                let w = n.ctrls[c as usize].staged.remove(0);
                n.ctrls[c as usize].batch.push(w);
            }
            Action::GroupCommitFlush { c } => {
                let epoch = n.ctrls[c as usize].epoch;
                let batch = std::mem::take(&mut n.ctrls[c as usize].batch);
                if n.store.fence > epoch {
                    // Atomic fence refusal: the batch is lost, the client
                    // sees an error — unless the mutation acks anyway.
                    if self.mutation == Mutation::AckDespiteFailedFlush {
                        for w in batch {
                            n.acked |= bit(w);
                        }
                    }
                } else {
                    land_batch(&mut n, c, epoch, &batch)?;
                }
            }
            Action::FlushCheck { c } => {
                let epoch = n.ctrls[c as usize].epoch;
                if n.store.fence > epoch {
                    n.ctrls[c as usize].batch.clear();
                } else {
                    n.ctrls[c as usize].flush_checked = true;
                }
            }
            Action::FlushLand { c } => {
                let epoch = n.ctrls[c as usize].epoch;
                let batch = std::mem::take(&mut n.ctrls[c as usize].batch);
                n.ctrls[c as usize].flush_checked = false;
                if n.store.fence > epoch {
                    // The race: the fence rose between check and land, but
                    // the landing is unconditional — the stale records
                    // reach the store.
                    return Err(Violation::FencedWriteAccepted {
                        acceptor: u8::MAX,
                        epoch,
                        fence: n.store.fence,
                    });
                }
                land_batch(&mut n, c, epoch, &batch)?;
            }
            Action::SnapshotInstall { c } => {
                debug_assert!(n.store.fence <= n.ctrls[c as usize].epoch);
                n.store.snap = n.store.durable();
                n.store.log.clear();
                n.store.generation += 1;
                n.snapshots += 1;
            }
            Action::Crash { c } => {
                let ctrl = &mut n.ctrls[c as usize];
                ctrl.crashed = true;
                ctrl.inbox.clear();
                ctrl.staged.clear();
                ctrl.batch.clear();
                ctrl.flush_checked = false;
                n.crashes += 1;
            }
            Action::Recover { c } => {
                let seen = n.store.max_epoch.max(n.store.fence);
                let epoch = if self.mutation == Mutation::RecoverWithoutRefence {
                    seen
                } else {
                    // The fix the checker forced: every incarnation gets a
                    // fresh epoch and fences out its predecessors.
                    let e = seen + 1;
                    n.store.fence = n.store.fence.max(e);
                    e
                };
                let ctrl = &mut n.ctrls[c as usize];
                ctrl.crashed = false;
                ctrl.epoch = epoch;
                ctrl.view = n.store.durable();
            }
            Action::ShipSend => {
                let idx = n.standby.shipped;
                let entry = n.store.log[idx as usize];
                n.inflight =
                    Some(ShipMsg { generation: n.store.generation, idx, w: entry.w });
            }
            Action::ShipDeliver | Action::ShipDup => {
                let msg = n.inflight.expect("enabled only with an in-flight message");
                if a == Action::ShipDeliver {
                    n.inflight = None;
                }
                // The cursor's generation + sequence check: stale or
                // duplicated messages are ignored.
                if msg.generation == n.store.generation
                    && msg.generation == n.standby.generation
                    && msg.idx == n.standby.shipped
                {
                    n.standby.mirror |= bit(msg.w);
                    n.standby.shipped += 1;
                }
            }
            Action::ShipDrop => {
                n.inflight = None;
            }
            Action::ShipResync => {
                n.standby.generation = n.store.generation;
                n.standby.shipped = 0;
                n.standby.mirror = n.store.snap;
            }
            Action::PromoteFence => {
                let view = if self.mutation == Mutation::PromoteSkipsFinalPoll {
                    n.standby.mirror
                } else {
                    // The final poll: promote consumes every whole durable
                    // record before the fence rises.
                    n.store.durable()
                };
                let seen = n.store.max_epoch.max(n.store.fence);
                let epoch = if self.mutation == Mutation::PromoteWithoutEpochBump {
                    seen
                } else {
                    seen + 1
                };
                if self.mutation != Mutation::SkipFenceRaiseOnPromote {
                    n.store.fence = n.store.fence.max(epoch);
                }
                n.standby.phase = StandbyPhase::Fenced { epoch, view, acked: n.acked };
            }
            Action::PromoteInstall => {
                let StandbyPhase::Fenced { epoch, view, acked } = n.standby.phase else {
                    unreachable!("enabled only in the fenced phase");
                };
                // Invariant 2, promotion half: every write acknowledged at
                // the fence point must be part of the promoted
                // controller's state.
                let lost = acked & !view;
                if lost != 0 {
                    return Err(Violation::AckedWriteLostAtPromotion {
                        w: lost.trailing_zeros() as u8,
                    });
                }
                if self.mutation != Mutation::SkipFenceRaiseOnPromote {
                    for b in &mut n.backends {
                        b.fence = b.fence.max(epoch);
                    }
                }
                let ctrl = &mut n.ctrls[1];
                *ctrl = Ctrl::fresh(true);
                ctrl.epoch = epoch;
                ctrl.view = view;
                n.standby.phase = StandbyPhase::Promoted;
            }
        }
        // Invariant 2, durability half, checked at every state: an
        // acknowledged write stays durable in the store.
        let lost = n.acked & !n.store.durable();
        if lost != 0 {
            return Err(Violation::AckedWriteNotDurable { w: lost.trailing_zeros() as u8 });
        }
        Ok(n)
    }

    /// The first two violations are invariant 1 (exclusive epoch
    /// writer), the last two invariant 2 (acknowledged writes survive).
    fn invariant(violation: &Violation) -> u8 {
        match violation {
            Violation::EpochSharedByTwoWriters { .. }
            | Violation::FencedWriteAccepted { .. } => 1,
            Violation::AckedWriteNotDurable { .. }
            | Violation::AckedWriteLostAtPromotion { .. } => 2,
        }
    }
}

/// Land a flushed batch in the store: the fence has been checked (or
/// deliberately not, under the racy mutation) — what remains is the
/// monotonicity check, the writer ledger, and the acknowledgement.
fn land_batch(n: &mut State, c: CtrlId, epoch: u8, batch: &[WriteId]) -> Result<(), Violation> {
    for &w in batch {
        if epoch < n.store.max_epoch {
            return Err(Violation::FencedWriteAccepted {
                acceptor: u8::MAX,
                epoch,
                fence: n.store.max_epoch,
            });
        }
        n.claim(epoch, c)?;
        n.store.log.push(LogEntryS { w, epoch, writer: c });
        n.store.max_epoch = n.store.max_epoch.max(epoch);
        // Ack strictly after the durable append — the discipline
        // `execute_batch` enforces since the checker forced it.
        n.acked |= bit(w);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mutation: Mutation, depth: u32) -> CheckReport<ModelConfig> {
        check(&ModelConfig {
            depth,
            ..ModelConfig::with_mutation(mutation)
        })
    }

    #[test]
    fn shallow_run_has_no_violation_and_dedupes_states() {
        let report = quick(Mutation::None, 8);
        assert!(report.counterexample.is_none(), "{}", report.summary());
        assert!(report.states > 500, "too few states: {}", report.summary());
        assert!(report.transitions > report.states as u64, "BFS must revisit states");
    }

    #[test]
    fn every_mutation_is_caught_at_shallow_depth() {
        for &(mutation, name) in ModelConfig::MUTATIONS {
            let report = quick(mutation, 12);
            let ce = report
                .counterexample
                .unwrap_or_else(|| panic!("{name} produced no counterexample"));
            assert!(!ce.trace.is_empty());
            let expected = match mutation {
                Mutation::AckDespiteFailedFlush | Mutation::PromoteSkipsFinalPoll => 2,
                _ => 1,
            };
            assert_eq!(ce.invariant(), expected, "{name}: wrong invariant: {}", ce.violation);
        }
    }

    #[test]
    fn counterexample_renders_the_full_trace() {
        let report = quick(Mutation::SkipFenceRaiseOnPromote, 12);
        let ce = report.counterexample.expect("counterexample");
        let text = ce.render();
        assert!(text.contains("VIOLATION"));
        assert!(text.lines().count() == ce.trace.len() + 1);
    }

    #[test]
    fn bfs_finds_a_shortest_trace() {
        // The ack-despite-failed-flush window needs at least: write →
        // backend-write → wal-append → promote(fence) → flush. BFS
        // must find it at exactly that depth, not deeper.
        let report = quick(Mutation::AckDespiteFailedFlush, 12);
        let ce = report.counterexample.expect("counterexample");
        assert!(
            ce.trace.len() <= 6,
            "expected a minimal trace, got {} actions:\n{}",
            ce.trace.len(),
            ce.render()
        );
    }

    /// A toy model for [`explore`] itself: a counter mod 10 that steps
    /// by 1 or 3, where reaching `bad` is a violation.
    fn toy(depth: u32, max_states: usize, bad: u8) -> Exploration<u8, u8> {
        explore(
            0u8,
            depth,
            max_states,
            |_| vec![1u8, 3],
            |s, step| {
                let next = (s + step) % 10;
                if next == bad {
                    Err(next)
                } else {
                    Ok(next)
                }
            },
            |_| {},
        )
    }

    #[test]
    fn explore_finds_the_shortest_trace_and_honours_both_prunings() {
        // 7 = 1 + 3 + 3: three steps, none shorter; BFS returns the
        // first three-step path in action order.
        let run = toy(10, 0, 7);
        let (bad, trace) = run.violation.expect("7 is reachable");
        assert_eq!(bad, 7);
        assert_eq!(trace, vec![1, 3, 3]);
        assert_eq!(run.max_depth, 3);

        // Depth-bounded below the violation: nothing found, and the
        // search says it pruned.
        let run = toy(2, 0, 7);
        assert!(run.violation.is_none());
        assert!(run.depth_pruned);
        assert_eq!(run.states, 6, "levels 0..=2 are {{0}}, {{1, 3}}, {{2, 4, 6}}");
        assert_eq!(run.max_depth, 2);

        // Unbounded and violation-free: every residue is visited and
        // nothing is pruned.
        let run = toy(u32::MAX, 0, 10);
        assert!(run.violation.is_none() && !run.depth_pruned);
        assert_eq!(run.states, 10);
        assert_eq!(run.transitions, 20);

        // The state cap is checked after each expansion: 0 yields
        // {1, 3} (3 states), 1 yields {2, 4} (5 ≥ 4), and the search
        // stops there.
        let run = toy(u32::MAX, 4, 10);
        assert!(run.violation.is_none());
        assert_eq!(run.states, 5);
    }

    /// Every name in `M`'s catalogue, and `none`, selects its mutation
    /// and is the name reported back; an unknown name selects nothing.
    pub(super) fn names_round_trip<M: Model>() {
        let shipped = (M::Mutation::default(), SHIPPED);
        for &(mutation, name) in M::MUTATIONS.iter().chain([shipped].iter()) {
            let cfg = M::small().named(name).expect(name);
            assert_eq!(cfg.mutation(), mutation, "{name}");
            assert_eq!(cfg.mutation_name(), name);
        }
        assert!(M::small().named("no-such-mutation").is_none());
    }

    #[test]
    fn mutation_names_round_trip() {
        names_round_trip::<ModelConfig>();
    }

    #[test]
    fn mutation_names_are_unique_across_the_three_catalogues() {
        let names: Vec<&str> = (ModelConfig::MUTATIONS.iter().map(|m| m.1))
            .chain(flight::FlightConfig::MUTATIONS.iter().map(|m| m.1))
            .chain(rebalance::RebalanceConfig::MUTATIONS.iter().map(|m| m.1))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a --mutation name must pick one model: {names:?}");
        assert!(!names.contains(&SHIPPED));
    }
}

// ===========================================================================
// Flight scheduling model: overlapped reads vs. write waves.
// ===========================================================================

/// Bounded model check of the *flight scheduler* (`Controller::
/// execute_batch` + the staged read/insert pipeline): two reader
/// sessions and one writer batch interleaving at the stores.
///
/// The abstraction keeps exactly what the torn-batch argument depends
/// on and nothing else:
///
/// - `writes` records `r_0 .. r_{W-1}`, each replicated on two of
///   `backends` stores (record `w` lives on backends `w % B` and
///   `(w+1) % B`, the same round-robin-with-replication placement the
///   directory produces).
/// - One writer batch deletes the records in admission order. Each
///   delete is **two wave envelopes** — one per replica — modelled as
///   independent actions, because that is precisely where a torn
///   observation can come from: a reader that union-merges across
///   backends between the two envelope applications resurrects the
///   half-deleted record.
/// - Two reader sessions admitted at position `read_after` (after the
///   first `read_after` writes, before the rest). Each reader probes
///   every backend with an independent envelope action and
///   union-merges what the probes returned, exactly like a staged
///   broadcast read.
///
/// The protocol rule under test is the scheduler's conflict stall:
/// a read stages only after every envelope of every *earlier-admitted*
/// conflicting write has drained, and *later-admitted* writes stage
/// only after the read's probes all returned. Within those fences the
/// two readers overlap freely — the checker reports that overlap as
/// reachable, which is the liveness half of the story (the fences do
/// not accidentally serialise read against read).
///
/// Invariant (checked whenever a reader completes): the set of records
/// the reader observed as deleted is **exactly the admission prefix**
/// `{r_0 .. r_{read_after-1}}` — never a half-applied write (torn
/// batch), never a write admitted after the read.
pub mod flight {
    use super::{Fact, Model};
    use std::fmt;

    /// Protocol mutations: each deletes one fence the real scheduler
    /// enforces, and each must produce a counterexample.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum FlightMutation {
        /// The shipped protocol, unmodified.
        #[default]
        None,
        /// Readers stage without waiting for earlier-admitted
        /// conflicting writes to drain — probes interleave with the
        /// per-replica delete waves.
        OverlapConflictingRead,
        /// Writes admitted *after* the readers stage their waves
        /// before the readers' probes have all returned.
        ReorderAheadOfWrites,
    }

    /// Checker configuration. `small()` exhausts in well under a
    /// second and is what CI pins.
    #[derive(Clone, Copy, Debug)]
    pub struct FlightConfig {
        /// Number of backend stores (each record lives on two).
        pub backends: u8,
        /// Writer batch size; records are deleted in admission order.
        pub writes: u8,
        /// Readers are admitted after this many writes.
        pub read_after: u8,
        /// Number of overlapping reader sessions.
        pub readers: u8,
        /// Protocol mutation under test.
        pub mutation: FlightMutation,
    }

    /// One atomic step of the interleaving.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FlightAction {
        /// Apply write `w`'s delete envelope at replica `replica`
        /// (0 = primary copy, 1 = secondary copy).
        WriteWave {
            /// Which write of the batch.
            w: u8,
            /// Which of its two replicas (0 = primary, 1 = secondary).
            replica: u8,
        },
        /// Reader `reader`'s probe envelope returns from `backend`.
        Probe {
            /// Which reader session.
            reader: u8,
            /// Which backend the probe envelope returned from.
            backend: u8,
        },
    }

    impl fmt::Display for FlightAction {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                FlightAction::WriteWave { w, replica } => {
                    write!(f, "write-wave(r{w} replica {replica})")
                }
                FlightAction::Probe { reader, backend } => {
                    write!(f, "probe(reader {reader} <- backend {backend})")
                }
            }
        }
    }

    /// The invariant violation a counterexample demonstrates.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TornRead {
        /// Which reader observed the tear.
        pub reader: u8,
        /// Records the reader observed as deleted.
        pub observed_deleted: Vec<u8>,
        /// The admission prefix it should have observed.
        pub expected_deleted: Vec<u8>,
    }

    impl fmt::Display for TornRead {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "reader {} observed deleted set {:?}, expected exact admission prefix {:?}",
                self.reader, self.observed_deleted, self.expected_deleted
            )
        }
    }

    /// Reader-session state: which backends have returned, and the
    /// union-merged set of records observed present.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Reader {
        /// Bitmask of backends whose probe envelope has returned.
        probed: u8,
        /// Bitmask of records seen present on some probed backend.
        seen: u8,
    }

    /// One abstract scheduler state — hashable, so BFS dedupes on it.
    #[derive(Clone, Hash, PartialEq, Eq)]
    pub struct State {
        /// `present[w]` = bitmask over {replica 0, replica 1} of the
        /// copies of record `w` still present at their stores.
        present: Vec<u8>,
        /// `waves[w]` = bitmask of write `w`'s envelopes applied.
        waves: Vec<u8>,
        readers: Vec<Reader>,
    }

    impl State {
        /// Backend hosting `replica` of record `w`.
        fn backend_of(w: u8, replica: u8, cfg: &FlightConfig) -> u8 {
            (w + replica) % cfg.backends
        }

        fn all_probed(&self, reader: usize, cfg: &FlightConfig) -> bool {
            self.readers[reader].probed == (1u8 << cfg.backends) - 1
        }

        fn readers_done(&self, cfg: &FlightConfig) -> bool {
            (0..self.readers.len()).all(|k| self.all_probed(k, cfg))
        }

        /// Every envelope of every write admitted before the readers
        /// has been applied.
        fn prefix_drained(&self, cfg: &FlightConfig) -> bool {
            self.waves[..cfg.read_after as usize].iter().all(|&m| m == 0b11)
        }
    }

    /// True in a state where two distinct readers are both mid-probe:
    /// each has at least one envelope back and at least one pending.
    fn readers_overlap(cfg: &FlightConfig, state: &State) -> bool {
        let full = (1u8 << cfg.backends) - 1;
        state
            .readers
            .iter()
            .filter(|r| r.probed != 0 && r.probed != full)
            .count()
            >= 2
    }

    /// The state space is tiny (thousands of states for `small()`),
    /// so the search has no depth bound — the frontier simply drains.
    impl Model for FlightConfig {
        type State = State;
        type Action = FlightAction;
        type Violation = TornRead;
        type Mutation = FlightMutation;

        const NAME: &'static str = "flight";
        const MUTATIONS: &'static [(FlightMutation, &'static str)] = &[
            (FlightMutation::OverlapConflictingRead, "overlap-conflicting-read"),
            (FlightMutation::ReorderAheadOfWrites, "reorder-ahead-of-writes"),
        ];
        /// The fences must not serialise read against read.
        const COVERAGE: &'static [Fact<FlightConfig>] = &[("read-read-overlap", readers_overlap)];

        /// The CI configuration: exhausts in microseconds.
        fn small() -> FlightConfig {
            FlightConfig {
                backends: 3,
                writes: 3,
                read_after: 1,
                readers: 2,
                mutation: FlightMutation::None,
            }
        }

        fn mutation(&self) -> FlightMutation {
            self.mutation
        }

        fn mutated(self, mutation: FlightMutation) -> FlightConfig {
            FlightConfig { mutation, ..self }
        }

        fn initial(&self) -> State {
            State {
                present: vec![0b11; self.writes as usize],
                waves: vec![0; self.writes as usize],
                readers: vec![Reader { probed: 0, seen: 0 }; self.readers as usize],
            }
        }

        fn enabled(&self, state: &State) -> Vec<FlightAction> {
            let mut actions = Vec::new();
            for w in 0..self.writes {
                for replica in 0..2u8 {
                    if state.waves[w as usize] & (1 << replica) != 0 {
                        continue;
                    }
                    // Fence 2: writes admitted after the readers hold
                    // their waves until every probe has returned.
                    if w >= self.read_after
                        && !state.readers_done(self)
                        && self.mutation != FlightMutation::ReorderAheadOfWrites
                    {
                        continue;
                    }
                    actions.push(FlightAction::WriteWave { w, replica });
                }
            }
            // Fence 1: probes stage only once the earlier-admitted
            // conflicting writes have fully drained.
            let may_probe = state.prefix_drained(self)
                || self.mutation == FlightMutation::OverlapConflictingRead;
            if may_probe {
                for reader in 0..self.readers {
                    for backend in 0..self.backends {
                        if state.readers[reader as usize].probed & (1 << backend) == 0 {
                            actions.push(FlightAction::Probe { reader, backend });
                        }
                    }
                }
            }
            actions
        }

        /// Apply `action`; returns the torn-read violation if the
        /// acting reader completed with a non-prefix deleted set.
        fn apply(&self, state: &State, action: FlightAction) -> Result<State, TornRead> {
            let mut next = state.clone();
            match action {
                FlightAction::WriteWave { w, replica } => {
                    next.waves[w as usize] |= 1 << replica;
                    next.present[w as usize] &= !(1 << replica);
                }
                FlightAction::Probe { reader, backend } => {
                    let r = &mut next.readers[reader as usize];
                    r.probed |= 1 << backend;
                    for w in 0..self.writes {
                        for replica in 0..2u8 {
                            if State::backend_of(w, replica, self) == backend
                                && state.present[w as usize] & (1 << replica) != 0
                            {
                                r.seen |= 1 << w;
                            }
                        }
                    }
                    if next.all_probed(reader as usize, self) {
                        let observed: Vec<u8> = (0..self.writes)
                            .filter(|&w| next.readers[reader as usize].seen & (1 << w) == 0)
                            .collect();
                        let expected: Vec<u8> = (0..self.read_after).collect();
                        if observed != expected {
                            return Err(TornRead {
                                reader,
                                observed_deleted: observed,
                                expected_deleted: expected,
                            });
                        }
                    }
                }
            }
            Ok(next)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::{check, tests::names_round_trip};
        use super::*;

        #[test]
        fn shipped_protocol_has_no_torn_reads_and_reads_overlap() {
            let report = check(&FlightConfig::small());
            assert!(report.counterexample.is_none(), "{}", report.summary());
            assert!(
                report.reached("read-read-overlap"),
                "fences must not serialise read vs read"
            );
            assert!(report.states > 50, "{}", report.summary());
        }

        #[test]
        fn overlapping_a_conflicting_read_yields_a_torn_prefix() {
            let report =
                check(&FlightConfig::with_mutation(FlightMutation::OverlapConflictingRead));
            let ce = report.counterexample.expect("mutation must be caught");
            // The tear is a *missing* prefix delete: a probe raced the
            // two delete envelopes and resurrected the record.
            assert!(
                ce.violation.observed_deleted != ce.violation.expected_deleted,
                "{}",
                ce.render()
            );
            assert!(!ce.trace.is_empty());
        }

        #[test]
        fn reordering_later_writes_ahead_of_probes_is_caught() {
            let report = check(&FlightConfig::with_mutation(FlightMutation::ReorderAheadOfWrites));
            let ce = report.counterexample.expect("mutation must be caught");
            // The reader saw a delete from a write admitted after it.
            assert!(
                ce.violation
                    .observed_deleted
                    .iter()
                    .any(|w| *w >= report.config.read_after),
                "{}",
                ce.render()
            );
        }

        #[test]
        fn flight_mutation_names_round_trip() {
            names_round_trip::<FlightConfig>();
        }
    }
}

/// An explicit-state model of one WAL-bracketed live group move
/// (`mbds::rebalance`), exhaustively interleaved with foreground
/// reads, a crash, and recovery or standby promotion.
///
/// The crash-point sweep in `tests/rebalance.rs` *samples* the move
/// protocol's failure space; this module *exhausts* it over a small
/// abstraction. One interned directory group of
/// [`RebalanceConfig::records`] records moves from its old member set
/// to a new one:
///
/// | model action | real code path it abstracts |
/// |---|---|
/// | [`RebalanceAction::MoveBegin`] | `move_group` logs the durable `MoveBegin {from, to, keys}` marker — the chunk's exact keys — before any copy is sent (`Controller::move_group_inner`) |
/// | [`RebalanceAction::ChunkCopy`] | one record of the bracketed chunk lands durably on the new members (the windowed `put_copies` behind `move_group_inner` and `heal_move_inner`) |
/// | [`RebalanceAction::MoveCommit`] | the old copies are deleted, the directory commits the chunk's placement (per-key rebinds, or the whole-group retarget when the chunk empties it), and `MoveEnd` is logged — the single atomic step at which reads switch placement |
/// | [`RebalanceAction::Read`] | a foreground scoped read routes through the directory and observes the group's record set |
/// | [`RebalanceAction::Crash`] | the primary dies mid-chunk; the begin marker and the copies already landed are durable, the directory and move queue are not |
/// | [`RebalanceAction::Recover`] | `Controller::recover` replays the log; an unmatched `MoveBegin` re-runs exactly the bracketed keys idempotently at the marker (`replay`), and `replan_rebalance` re-derives the group's remaining chunks |
/// | [`RebalanceAction::Promote`] | `Standby::promote` — the mirror applied the chunk at `MoveBegin`, so promotion heals the bracketed keys with a fresh bracket before serving (`finish_interrupted_move` / `heal_move_inner`) |
///
/// Two invariants are machine-checked at every state:
///
/// 1. **No read observes a half-moved group** — every read sees the
///    group's complete record set: old placement until the commit
///    point, new placement after, never a partial copy set.
/// 2. **Every committed move survives crash and promotion** — once
///    `MoveEnd` is durable, recovery and promotion both land on the
///    new placement with all records present.
///
/// Both seeded [`RebalanceMutation`]s re-open windows the shipped
/// protocol closes, and each must be killed with a shortest
/// counterexample trace (BFS order).
pub mod rebalance {
    use super::{Fact, Model};
    use std::fmt;

    /// Protocol mutations: each deletes one guard the real move
    /// protocol enforces, and each must produce a counterexample.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum RebalanceMutation {
        /// The shipped protocol, unmodified.
        #[default]
        None,
        /// The directory retargets the group at `MoveBegin` instead of
        /// at the commit point — reads route to the new members while
        /// the copies are still landing.
        ServeFromNewBeforeCommit,
        /// Recovery treats an unmatched `MoveBegin` as already
        /// committed: it retargets the directory without re-running
        /// the copy redo (`finish_interrupted_move` skipped).
        SkipMoveEndOnRecovery,
    }

    /// Checker configuration. `small()` exhausts in microseconds and
    /// is what CI pins.
    #[derive(Clone, Copy, Debug)]
    pub struct RebalanceConfig {
        /// Records in the moving group (copied one per chunk step).
        pub records: u8,
        /// Crash budget; each crash may be followed by either a
        /// primary recovery or a standby promotion.
        pub max_crashes: u8,
        /// Protocol mutation under test.
        pub mutation: RebalanceMutation,
    }

    /// One atomic step of the interleaving.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RebalanceAction {
        /// The durable `MoveBegin` marker is logged; copying starts.
        MoveBegin,
        /// Record `r` of the group lands durably on the new members.
        ChunkCopy {
            /// Which record of the group.
            r: u8,
        },
        /// Old copies deleted, directory retargeted, `MoveEnd` logged.
        MoveCommit,
        /// A foreground read routes through the directory and observes
        /// the group's record set at the placement it names.
        Read,
        /// The primary dies; in-memory routing and the move queue are
        /// lost, durable markers and landed copies are not.
        Crash,
        /// The primary restarts and replays the log, re-running an
        /// unmatched move at its begin marker.
        Recover,
        /// The standby (whose mirror applied the whole move at
        /// `MoveBegin`) takes over, healing partial copies before it
        /// serves.
        Promote,
    }

    impl fmt::Display for RebalanceAction {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RebalanceAction::MoveBegin => write!(f, "move-begin"),
                RebalanceAction::ChunkCopy { r } => write!(f, "chunk-copy(record {r})"),
                RebalanceAction::MoveCommit => write!(f, "move-commit"),
                RebalanceAction::Read => write!(f, "read"),
                RebalanceAction::Crash => write!(f, "crash"),
                RebalanceAction::Recover => write!(f, "recover"),
                RebalanceAction::Promote => write!(f, "promote"),
            }
        }
    }

    /// The invariant violation a counterexample demonstrates.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum MoveViolation {
        /// A read observed a partial record set for the group.
        HalfMovedRead {
            /// Records the read observed.
            observed: u8,
            /// Records the group holds.
            expected: u8,
        },
        /// After recovery or promotion a committed move had regressed:
        /// the directory or the record set no longer reflect it.
        CommittedMoveLost {
            /// Records present at the placement being served.
            present: u8,
            /// Records the group holds.
            expected: u8,
        },
    }

    impl fmt::Display for MoveViolation {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                MoveViolation::HalfMovedRead { observed, expected } => write!(
                    f,
                    "a read observed {observed} of the group's {expected} records — a half-moved group"
                ),
                MoveViolation::CommittedMoveLost { present, expected } => write!(
                    f,
                    "a committed move regressed: {present} of {expected} records at the served placement"
                ),
            }
        }
    }

    /// Where the move stands, from the serving controller's view.
    #[derive(Clone, Copy, Hash, PartialEq, Eq)]
    enum Phase {
        /// No bracket open.
        Idle,
        /// `MoveBegin` durable; chunk copies in flight.
        Copying,
        /// The commit point passed (or recovery declared it so).
        Done,
    }

    /// One abstract move state — hashable, so BFS dedupes on it.
    #[derive(Clone, Hash, PartialEq, Eq)]
    pub struct State {
        phase: Phase,
        /// Bitmask of records durably landed on the new members.
        copied: u8,
        /// True while the old members still hold the whole group
        /// (copies are deleted only at the commit point).
        old_present: bool,
        /// In-memory directory routing: false = old placement.
        dir_new: bool,
        /// `MoveBegin` durable in the log.
        begun: bool,
        /// `MoveEnd` durable in the log — the move is committed.
        committed: bool,
        /// The primary is down; only `Recover`/`Promote` are enabled.
        crashed: bool,
        crashes: u8,
    }

    impl State {
        fn all(cfg: &RebalanceConfig) -> u8 {
            (1u8 << cfg.records) - 1
        }
    }

    /// The post-crash redo both recovery paths share: given the
    /// durable markers, land on a consistent serving state (or refuse
    /// to, under a mutation).
    fn redo(next: &mut State, promoted: bool, cfg: &RebalanceConfig) {
        next.crashed = false;
        if next.committed {
            // Replaying a committed move converges on the new
            // placement (the redo at the begin marker is idempotent).
            next.dir_new = true;
            next.phase = Phase::Done;
        } else if next.begun {
            if cfg.mutation == RebalanceMutation::SkipMoveEndOnRecovery {
                // Mutated recovery declares the unmatched bracket
                // committed without re-running the copies.
                next.dir_new = true;
                next.phase = Phase::Done;
            } else if promoted {
                // The standby's mirror applied the whole move at
                // `MoveBegin`; promotion heals the partial copies with
                // a fresh bracket before serving (`heal_move_inner`).
                next.copied = State::all(cfg);
                next.old_present = false;
                next.dir_new = true;
                next.committed = true;
                next.phase = Phase::Done;
            } else {
                // Cold replay re-runs the move at the begin marker;
                // already-landed copies are overwritten idempotently.
                next.dir_new = false;
                next.phase = Phase::Copying;
            }
        } else {
            next.dir_new = false;
            next.phase = Phase::Idle;
        }
    }

    /// The state space is tiny (hundreds of states for `small()`), so
    /// the search has no depth bound — the frontier simply drains.
    impl Model for RebalanceConfig {
        type State = State;
        type Action = RebalanceAction;
        type Violation = MoveViolation;
        type Mutation = RebalanceMutation;

        const NAME: &'static str = "rebalance";
        const MUTATIONS: &'static [(RebalanceMutation, &'static str)] = &[
            (RebalanceMutation::ServeFromNewBeforeCommit, "serve-from-new-before-commit"),
            (RebalanceMutation::SkipMoveEndOnRecovery, "skip-move-end-on-recovery"),
        ];
        /// A crash strictly inside a bracket (the window the redo and
        /// heal paths exist for), and one after the commit point (so
        /// "committed moves survive" is exercised, not vacuous).
        const COVERAGE: &'static [Fact<RebalanceConfig>] = &[
            ("mid-move-crash", |_, s| s.crashed && s.begun && !s.committed),
            ("post-commit-crash", |_, s| s.crashed && s.committed),
        ];

        /// The CI configuration: exhausts in microseconds.
        fn small() -> RebalanceConfig {
            RebalanceConfig { records: 3, max_crashes: 2, mutation: RebalanceMutation::None }
        }

        fn mutation(&self) -> RebalanceMutation {
            self.mutation
        }

        fn mutated(self, mutation: RebalanceMutation) -> RebalanceConfig {
            RebalanceConfig { mutation, ..self }
        }

        fn initial(&self) -> State {
            State {
                phase: Phase::Idle,
                copied: 0,
                old_present: true,
                dir_new: false,
                begun: false,
                committed: false,
                crashed: false,
                crashes: 0,
            }
        }

        fn enabled(&self, state: &State) -> Vec<RebalanceAction> {
            let mut actions = Vec::new();
            if state.crashed {
                actions.push(RebalanceAction::Recover);
                actions.push(RebalanceAction::Promote);
                return actions;
            }
            match state.phase {
                Phase::Idle if !state.begun => actions.push(RebalanceAction::MoveBegin),
                Phase::Copying => {
                    for r in 0..self.records {
                        if state.copied & (1 << r) == 0 {
                            actions.push(RebalanceAction::ChunkCopy { r });
                        }
                    }
                    if state.copied == State::all(self) {
                        actions.push(RebalanceAction::MoveCommit);
                    }
                }
                _ => {}
            }
            actions.push(RebalanceAction::Read);
            if state.crashes < self.max_crashes {
                actions.push(RebalanceAction::Crash);
            }
            actions
        }

        /// Apply `action`; returns the violation if a read observed a
        /// partial group or a committed move regressed across recovery.
        fn apply(&self, state: &State, action: RebalanceAction) -> Result<State, MoveViolation> {
            let mut next = state.clone();
            let all = State::all(self);
            match action {
                RebalanceAction::MoveBegin => {
                    next.begun = true;
                    next.phase = Phase::Copying;
                    if self.mutation == RebalanceMutation::ServeFromNewBeforeCommit {
                        next.dir_new = true;
                    }
                }
                RebalanceAction::ChunkCopy { r } => {
                    next.copied |= 1 << r;
                }
                RebalanceAction::MoveCommit => {
                    // The single atomic step (w.r.t. foreground traffic):
                    // delete the old copies, retarget, log `MoveEnd`.
                    next.old_present = false;
                    next.dir_new = true;
                    next.committed = true;
                    next.phase = Phase::Done;
                }
                RebalanceAction::Read => {
                    let observed = if state.dir_new {
                        state.copied.count_ones() as u8
                    } else if state.old_present {
                        self.records
                    } else {
                        0
                    };
                    if observed != self.records {
                        return Err(MoveViolation::HalfMovedRead {
                            observed,
                            expected: self.records,
                        });
                    }
                }
                RebalanceAction::Crash => {
                    next.crashed = true;
                    next.crashes += 1;
                }
                RebalanceAction::Recover => {
                    redo(&mut next, false, self);
                }
                RebalanceAction::Promote => {
                    redo(&mut next, true, self);
                }
            }
            // Invariant 2, checked whenever a controller starts serving:
            // a committed move must still be whole at the new placement.
            if matches!(action, RebalanceAction::Recover | RebalanceAction::Promote)
                && state.committed
                && !(next.dir_new && next.copied == all)
            {
                return Err(MoveViolation::CommittedMoveLost {
                    present: next.copied.count_ones() as u8,
                    expected: self.records,
                });
            }
            Ok(next)
        }

        fn invariant(violation: &MoveViolation) -> u8 {
            match violation {
                MoveViolation::HalfMovedRead { .. } => 1,
                MoveViolation::CommittedMoveLost { .. } => 2,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::{check, tests::names_round_trip};
        use super::*;

        #[test]
        fn shipped_move_protocol_holds_both_invariants() {
            let report = check(&RebalanceConfig::small());
            assert!(report.counterexample.is_none(), "{}", report.summary());
            assert!(
                report.reached("mid-move-crash"),
                "a crash inside the bracket must be explored: {}",
                report.summary()
            );
            assert!(
                report.reached("post-commit-crash"),
                "a crash after the commit point must be explored: {}",
                report.summary()
            );
            assert!(report.states > 30, "{}", report.summary());
        }

        #[test]
        fn serving_from_the_new_placement_before_commit_is_caught() {
            let report = check(&RebalanceConfig::with_mutation(
                RebalanceMutation::ServeFromNewBeforeCommit,
            ));
            let ce = report.counterexample.expect("mutation must be caught");
            // Shortest counterexample: retarget at move-begin, read
            // before any chunk lands — two steps.
            assert_eq!(ce.trace.len(), 2, "{}", ce.render());
            assert!(
                matches!(ce.violation, MoveViolation::HalfMovedRead { observed, .. } if observed < report.config.records),
                "{}",
                ce.render()
            );
        }

        #[test]
        fn skipping_the_move_redo_on_recovery_is_caught() {
            let report = check(&RebalanceConfig::with_mutation(
                RebalanceMutation::SkipMoveEndOnRecovery,
            ));
            let ce = report.counterexample.expect("mutation must be caught");
            // The trace must pass through a crash: the mutation only
            // fires on the recovery path.
            assert!(
                ce.trace.contains(&RebalanceAction::Crash),
                "{}",
                ce.render()
            );
            assert!(
                matches!(ce.violation, MoveViolation::HalfMovedRead { .. }),
                "{}",
                ce.render()
            );
        }

        #[test]
        fn rebalance_mutation_names_round_trip() {
            names_round_trip::<RebalanceConfig>();
        }
    }
}
