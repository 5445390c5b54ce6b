//! One backend, one link.
//!
//! A backend is the same thing however it is reached: a private
//! [`Store`] partition, a count of the messages it has handled (which
//! drives the [`FaultPlan`]), and an epoch fence. [`Backend::step`] is
//! its whole per-message discipline — refuse below the fence, count,
//! consult the fault plan, apply — and every backend runs it: the
//! worker thread behind the channel bus, the `mbds-backend` process
//! behind a socket ([`crate::net`]), and the in-memory backend behind
//! a simulated link ([`crate::sim`]).
//!
//! The controller reaches each backend through one [`Link`]: queue an
//! operation under a seq, flush, await one reply window, forget the
//! window, stop the backend, push a fault plan, sever, heal, reconnect.
//! Three links implement it. The channel link feeds a worker thread and
//! adds nothing to a message but its envelope. The socket link keeps a
//! retransmission window of the frames it sent, re-dials a dropped
//! connection, and splits each reply window into backoff sub-waits. The
//! simulated link steps its backend as each message is queued and
//! charges a virtual clock. All three answer a wait with the same
//! three outcomes ([`Window`]): a reply, a missed window, or a lost
//! link; a wait on a seq the link was told to forget never blocks. The
//! controller's health discipline (Alive → Suspect → Dead) is written
//! once, over those outcomes.
//!
//! A [`Cluster`] is the handle a primary, its standby and the
//! controller the standby promotes all share: the fence, the fault
//! plan, the reply window, and where each backend lives. It spawns
//! backends and attaches links to running ones, so no controller code
//! names its transport.

use crate::fault::{FaultKind, FaultPlan};
use crate::net::{self, kind, Frame, TcpLink, WireOp, WireReply};
use crate::sim::{self, CostModel, SimClock, SimLink};
use abdl::engine::ExecStats;
use abdl::{DbKey, Error, ExecTotals, Record, Response, Result, Store};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a freshly spawned backend process may take to answer its
/// first handshake.
const HANDSHAKE: Duration = Duration::from_millis(3000);

// ---------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------

/// One backend: its private partition and its message counter.
pub(crate) struct Backend {
    pub(crate) index: usize,
    pub(crate) store: Store,
    /// Messages handled so far (storage operations only: not
    /// shutdowns, refused messages or transport probes), 1-based
    /// position of the next [`FaultPlan`] lookup minus one.
    pub(crate) handled: u64,
}

/// How a computed reply leaves the backend.
pub(crate) enum Delivery {
    Now,
    /// After this many milliseconds (a `DelayReplyMs` fault).
    AfterMs(u64),
    /// Never: the operation ran, its reply is lost (a `DropReply`
    /// fault).
    Never,
}

/// What [`Backend::step`] decided for one message.
pub(crate) enum Verdict {
    /// Answer with this result. A message below the fence is answered
    /// with the refusal.
    Reply(Result<Response>, Delivery),
    /// An accepted shutdown: stop serving.
    Shutdown,
    /// A shutdown from a fenced-out controller, ignored — a demoted
    /// primary being dropped cannot take the cluster down.
    Ignore,
    /// An injected crash: stop without replying; the operation never
    /// ran.
    Crash,
    /// An injected panic, otherwise like a crash.
    Panic,
}

impl Backend {
    /// Backend `index` with an empty store.
    pub(crate) fn new(index: usize) -> Self {
        Backend { index, store: Store::new(), handled: 0 }
    }

    /// Handle one message stamped with `epoch` while the backend's
    /// fence is `fence`: refuse it below the fence, count it, ask
    /// `fault` for the plan's action on this backend's `handled`-th
    /// message, and apply it unless that action kills the backend
    /// first.
    pub(crate) fn step(
        &mut self,
        epoch: u64,
        fence: u64,
        op: WireOp,
        fault: impl FnOnce(usize, u64) -> Option<FaultKind>,
    ) -> Verdict {
        if epoch < fence {
            if matches!(op, WireOp::Shutdown) {
                return Verdict::Ignore;
            }
            let refusal =
                format!("backend {}: request fenced (epoch {epoch} < fence {fence})", self.index);
            return Verdict::Reply(Err(Error::Unavailable(refusal)), Delivery::Now);
        }
        if matches!(op, WireOp::Shutdown) {
            return Verdict::Shutdown;
        }
        self.handled += 1;
        let fault = fault(self.index, self.handled);
        let result = match fault {
            Some(FaultKind::Crash) => return Verdict::Crash,
            Some(FaultKind::Panic) => return Verdict::Panic,
            _ => apply(&mut self.store, op),
        };
        let delivery = match fault {
            Some(FaultKind::DropReply) => Delivery::Never,
            Some(FaultKind::DelayReplyMs(ms)) => Delivery::AfterMs(ms),
            _ => Delivery::Now,
        };
        Verdict::Reply(result, delivery)
    }
}

/// Apply one storage operation to `store`.
pub(crate) fn apply(store: &mut Store, op: WireOp) -> Result<Response> {
    match op {
        WireOp::CreateFile(name) => {
            store.create_file(name);
            Ok(Response::default())
        }
        WireOp::InsertWithKey(key, record) => store
            .insert_with_key(key, record)
            .map(|()| Response::with_affected(1, Default::default())),
        WireOp::Exec(request) => store.execute(&request),
        WireOp::DeleteKeys(keys) => {
            let removed = keys.iter().filter(|&&k| store.remove_by_key(k).is_some()).count();
            Ok(Response::with_affected(removed, Default::default()))
        }
        WireOp::FetchKeys(keys) => {
            let records: Vec<(DbKey, Record)> = keys
                .iter()
                .filter_map(|&k| store.record_by_key(k).map(|r| (k, r.clone())))
                .collect();
            let stats = ExecStats { records_returned: records.len() as u64, ..Default::default() };
            Ok(Response::with_records(records, stats))
        }
        op => Err(Error::Internal(format!("backend: {op:?} is not a storage operation"))),
    }
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

/// What every link call needs from its controller.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// The controller's epoch, stamped on every message.
    pub(crate) epoch: u64,
    /// One reply window; also the re-dial timeout.
    pub(crate) window: Duration,
    /// Retransmissions a lossy link may attempt inside one window.
    pub(crate) retry_budget: u32,
}

/// The outcome of awaiting one reply window.
pub(crate) enum Window {
    /// The backend answered.
    Reply(Result<Response>),
    /// The window passed without an answer.
    Missed,
    /// The backend cannot be reached, or the seq was abandoned when
    /// the link was given up earlier.
    Lost,
}

/// The controller's connection to one backend. The provided methods
/// describe a link with no network between the two: nothing to flush,
/// forget or sever, a backend reading the shared fault plan, and one
/// that stops answering is gone with its store.
pub(crate) trait Link: Send {
    /// Queue `op` under `seq`. False when the backend cannot be
    /// reached.
    fn queue(&mut self, at: Stamp, seq: u64, op: WireOp) -> bool;
    /// Await the reply to `seq` for one reply window. Replies to other
    /// queued seqs that arrive meanwhile are kept for their own wait.
    fn await_reply(&mut self, at: Stamp, seq: u64, totals: &mut ExecTotals) -> Window;
    /// Stop the backend and wait (briefly) for it to go.
    fn stop(&mut self, at: Stamp);
    /// Put everything queued on its way.
    fn flush(&mut self) {}
    /// Forget every outstanding seq: nothing sent so far is resent.
    fn forget(&mut self) {}
    /// Install `plan` on a backend that keeps its own copy (best
    /// effort).
    fn push_faults(&mut self, _at: Stamp, _seq: u64, _plan: &FaultPlan) {}
    /// Cut the link: every message in both directions fails until
    /// [`heal`](Self::heal).
    fn sever(&mut self) {}
    /// Undo [`sever`](Self::sever); the next send re-dials.
    fn heal(&mut self) {}
    /// Reach a backend that stopped answering again. `Some(fence)`
    /// when the same backend answered with its store intact; `None`
    /// when only a restart can bring it back.
    fn reconnect(&mut self, _at: Stamp) -> Option<u64> {
        None
    }
    /// True when the backend has answered this link's handshake — a
    /// backend a predecessor controller merely lost sight of.
    fn is_connected(&self) -> bool {
        false
    }
}

// --- Channel bus -------------------------------------------------------

/// One message on the channel bus. The reply sender rides in the
/// envelope (rather than being fixed at spawn) so a promoted standby
/// can address the same backend threads over fresh reply channels —
/// stale replies queued for the demoted controller can never reach the
/// new one.
struct Envelope {
    seq: u64,
    epoch: u64,
    reply: Sender<Reply>,
    op: WireOp,
}

struct Reply {
    seq: u64,
    result: Result<Response>,
}

/// A link to a worker thread in this process.
struct ChannelLink {
    tx: Sender<Envelope>,
    rx: Receiver<Reply>,
    reply_tx: Sender<Reply>,
    /// The worker, when this controller spawned it.
    join: Option<JoinHandle<()>>,
    /// The highest seq queued so far.
    queued: u64,
    /// The highest seq queued when the link was last told to forget: a
    /// seq up to it is lost unless its reply had arrived by then. (The
    /// link keeps a reply sender of its own, so its receiver never
    /// disconnects, even after the worker is gone.)
    forgotten: u64,
    /// Replies that had arrived when the link was told to forget.
    arrived: BTreeMap<u64, Result<Response>>,
}

impl ChannelLink {
    fn new(tx: Sender<Envelope>, join: Option<JoinHandle<()>>) -> Self {
        let (reply_tx, rx) = channel();
        ChannelLink { tx, rx, reply_tx, join, queued: 0, forgotten: 0, arrived: BTreeMap::new() }
    }
}

impl Link for ChannelLink {
    fn queue(&mut self, at: Stamp, seq: u64, op: WireOp) -> bool {
        self.queued = self.queued.max(seq);
        let reply = self.reply_tx.clone();
        self.tx.send(Envelope { seq, epoch: at.epoch, reply, op }).is_ok()
    }

    /// Stale replies (from earlier rounds that timed out) are
    /// discarded; a forgotten seq is answered at once.
    fn await_reply(&mut self, at: Stamp, seq: u64, _: &mut ExecTotals) -> Window {
        if seq <= self.forgotten {
            return self.arrived.remove(&seq).map_or(Window::Lost, Window::Reply);
        }
        loop {
            match self.rx.recv_timeout(at.window) {
                Ok(reply) if reply.seq == seq => return Window::Reply(reply.result),
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => return Window::Missed,
                Err(RecvTimeoutError::Disconnected) => return Window::Lost,
            }
        }
    }

    /// A reply already delivered is kept — a backend given up on a
    /// failed send answered everything it handled before it died —
    /// but none arriving later is accepted, as over TCP.
    fn forget(&mut self) {
        self.forgotten = self.queued;
        while let Ok(reply) = self.rx.try_recv() {
            self.arrived.insert(reply.seq, reply.result);
        }
    }

    fn stop(&mut self, at: Stamp) {
        self.queue(at, 0, WireOp::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Start worker thread `index`, serving the bus until shutdown or an
/// injected crash. It reads the shared fence and fault plan on every
/// message.
fn spawn_thread(
    index: usize,
    fence: Arc<AtomicU64>,
    faults: Arc<Mutex<FaultPlan>>,
) -> (Sender<Envelope>, JoinHandle<()>) {
    let (tx, rx) = channel::<Envelope>();
    let join = std::thread::Builder::new()
        .name(format!("mbds-backend-{index}"))
        .spawn(move || {
            let mut backend = Backend::new(index);
            while let Ok(env) = rx.recv() {
                let fault = |i, n| faults.lock().ok().and_then(|p| p.action(i, n));
                match backend.step(env.epoch, fence.load(Ordering::SeqCst), env.op, fault) {
                    Verdict::Reply(_, Delivery::Never) | Verdict::Ignore => {}
                    Verdict::Reply(result, delivery) => {
                        if let Delivery::AfterMs(ms) = delivery {
                            std::thread::sleep(Duration::from_millis(ms));
                        }
                        let _ = env.reply.send(Reply { seq: env.seq, result });
                    }
                    Verdict::Shutdown | Verdict::Crash => return,
                    Verdict::Panic => panic!(
                        "injected fault: backend {index} panics at message {}",
                        backend.handled
                    ),
                }
            }
        })
        .expect("spawn backend thread");
    (tx, join)
}

// --- Socket transport --------------------------------------------------

/// Every frame sent on one socket link whose reply has not been taken
/// yet, plus replies that overtook the seq being awaited.
#[derive(Default)]
struct RetransmitWindow {
    /// Sent frames keyed by seq; an entry leaves when its reply is
    /// taken. A retry resends all of them in seq order.
    unacked: BTreeMap<u64, Frame>,
    /// Replies to seqs still in `unacked` that arrived while an
    /// earlier seq was being awaited (a flight's collect phase awaits
    /// in admission order; a retransmission can answer out of it).
    early: BTreeMap<u64, Frame>,
}

/// A link to a backend process over the fault-injectable socket
/// transport.
struct SocketLink {
    index: usize,
    tcp: TcpLink,
    window: RetransmitWindow,
    procs: Arc<Processes>,
}

impl SocketLink {
    /// An unconnected link to backend process `i` at `addr`, judging
    /// its frames by `cluster`'s fault plan.
    fn new(
        cluster: &Cluster,
        procs: &Arc<Processes>,
        i: usize,
        addr: SocketAddr,
        client_id: u64,
    ) -> SocketLink {
        let tcp = TcpLink::new(i, addr, client_id, Arc::clone(&cluster.faults));
        let procs = Arc::clone(procs);
        SocketLink { index: i, tcp, window: RetransmitWindow::default(), procs }
    }

    /// One reply window. The window is split into `retry_budget + 1`
    /// sub-waits with doubling lengths (1, 2, 4, … shares of the
    /// window); each expiry retransmits the link's whole window of
    /// unanswered frames — idempotent request ids make that safe — and
    /// counts into `retries`/`backoff_ms`, so the health board only
    /// sees losses the retry budget could not hide. A reply to another
    /// seq still in the window is kept for its own wait; anything else
    /// is stale.
    fn await_window(&mut self, at: Stamp, seq: u64, totals: &mut ExecTotals) -> Window {
        let shares = (1u32 << (at.retry_budget + 1)).saturating_sub(1).max(1);
        let mut sub = (at.window / shares).max(Duration::from_millis(1));
        let deadline = Instant::now() + at.window;
        let mut attempt = 0u32;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Window::Missed;
            }
            let wait = sub.min(left);
            match self.tcp.recv(wait) {
                Ok(Some(frame)) => {
                    if frame.kind != kind::REPLY_OK && frame.kind != kind::REPLY_ERR {
                        continue; // probe ack
                    }
                    if frame.seq == seq {
                        self.window.unacked.remove(&seq);
                        return Window::Reply(decode_reply(&frame));
                    }
                    if self.window.unacked.contains_key(&frame.seq) {
                        self.window.early.insert(frame.seq, frame);
                    }
                    // Otherwise a stale round or a duplicate: dropped.
                }
                Ok(None) => {
                    if attempt >= at.retry_budget {
                        return Window::Missed;
                    }
                    attempt += 1;
                    totals.retries += 1;
                    totals.backoff_ms += wait.as_millis() as u64;
                    if !self.retransmit(at) {
                        return Window::Lost;
                    }
                    sub = sub.saturating_mul(2);
                }
                Err(_) => {
                    // Connection lost mid-wait: re-dial once and resend.
                    if self.tcp.connect(at.epoch, wait.max(Duration::from_millis(20))).is_err() {
                        return Window::Lost;
                    }
                    totals.retries += 1;
                    if !self.retransmit(at) {
                        return Window::Lost;
                    }
                }
            }
        }
    }

    /// Queue the whole window of unanswered frames, in seq order,
    /// re-dialing once if the connection is gone; the wait that
    /// follows writes them as one burst. Frames whose replies were
    /// lost are answered from the backend's reply cache; frames that
    /// never arrived are applied now — possibly after later members of
    /// their flight, which is safe because a flight's members pairwise
    /// commute.
    fn retransmit(&mut self, at: Stamp) -> bool {
        let tcp = &mut self.tcp;
        self.window.unacked.values().all(|frame| queue_redialing(tcp, frame, at))
    }
}

impl Link for SocketLink {
    /// The frame joins the retransmission window; it is written with
    /// the rest of the link's queue at the next flush. Re-dialing a
    /// dropped connection is part of the transport's manners — only a
    /// failed re-dial loses the backend.
    fn queue(&mut self, at: Stamp, seq: u64, op: WireOp) -> bool {
        let frame = op.into_frame(seq, at.epoch);
        if queue_redialing(&mut self.tcp, &frame, at) {
            self.window.unacked.insert(seq, frame);
            return true;
        }
        false
    }

    /// A failed write drops the connection; its frames are all in the
    /// retransmission window, and the wait for a reply re-dials and
    /// resends them.
    fn flush(&mut self) {
        let _ = self.tcp.flush();
    }

    /// A reply that arrived early is taken without touching the
    /// socket; a seq whose window was forgotten is lost at once.
    fn await_reply(&mut self, at: Stamp, seq: u64, totals: &mut ExecTotals) -> Window {
        if !self.window.unacked.contains_key(&seq) {
            return Window::Lost;
        }
        if let Some(frame) = self.window.early.remove(&seq) {
            self.window.unacked.remove(&seq);
            return Window::Reply(decode_reply(&frame));
        }
        self.await_window(at, seq, totals)
    }

    fn forget(&mut self) {
        self.window.unacked.clear();
        self.window.early.clear();
    }

    fn stop(&mut self, at: Stamp) {
        let _ = self.tcp.send(&WireOp::Shutdown.into_frame(0, at.epoch));
        self.procs.reap(self.index);
    }

    /// The plan is shipped and its ack awaited for one window, on the
    /// control path the handshake takes: no frame counter moves, so
    /// installing a plan never shifts where its own link events fire.
    fn push_faults(&mut self, at: Stamp, seq: u64, plan: &FaultPlan) {
        if !self.tcp.is_connected() && self.tcp.connect(at.epoch, at.window).is_err() {
            return;
        }
        let frame = WireOp::SetFaults(plan.clone()).into_frame(seq, at.epoch);
        let _ = self.tcp.exchange(&frame, kind::REPLY_OK, at.window);
    }

    fn sever(&mut self) {
        self.tcp.sever();
    }

    fn heal(&mut self) {
        self.tcp.heal();
    }

    /// A dead process cannot answer the handshake, so an answer means
    /// the same process with its store intact.
    fn reconnect(&mut self, at: Stamp) -> Option<u64> {
        self.tcp.connect(at.epoch, at.window).ok()
    }

    fn is_connected(&self) -> bool {
        self.tcp.is_connected()
    }
}

/// Queue `frame` on `tcp`, re-dialing once if the connection is gone.
fn queue_redialing(tcp: &mut TcpLink, frame: &Frame, at: Stamp) -> bool {
    match tcp.queue(frame) {
        Ok(()) => true,
        Err(_) => tcp.connect(at.epoch, at.window).is_ok() && tcp.queue(frame).is_ok(),
    }
}

/// The operation result a backend's reply frame carries.
fn decode_reply(frame: &Frame) -> Result<Response> {
    match WireReply::from_frame(frame) {
        Ok(WireReply::Ok(resp)) => Ok(resp),
        Ok(WireReply::Err(e)) => Err(e),
        _ => Err(Error::Internal("wire: undecodable reply frame".into())),
    }
}

// ---------------------------------------------------------------------
// The cluster handle
// ---------------------------------------------------------------------

/// The handles every controller of one cluster shares — a primary, its
/// standby and the controller the standby promotes: the fence, the
/// fault plan, the reply window (a copy per controller), and where
/// each backend lives.
#[derive(Clone)]
pub(crate) struct Cluster {
    /// The cluster fence: messages stamped below it are refused.
    pub(crate) fence: Arc<AtomicU64>,
    /// The fault plan. Worker threads and simulated backends read its
    /// backend events on every message, and backend processes are
    /// shipped a copy; every socket link judges its frames by its link
    /// events.
    pub(crate) faults: Arc<Mutex<FaultPlan>>,
    /// How long a controller waits for one reply window.
    pub(crate) reply_timeout: Duration,
    fabric: Arc<Fabric>,
}

/// Where the backends of one cluster live.
enum Fabric {
    /// Worker threads in this process: backend `i`'s command sender,
    /// kept current across restarts, so a standby attached before a
    /// restart still promotes onto the replacement.
    Threads(Mutex<Vec<Sender<Envelope>>>),
    /// `mbds-backend` processes reached over TCP.
    Processes(Arc<Processes>),
    /// In-memory backends, each stepped as a message is queued, and
    /// the virtual clock their links charge.
    Sim(Mutex<Vec<sim::Slot>>, SimClock),
}

/// The table of a socket-transport cluster: where the backend
/// processes listen (kept current across restarts) and their OS child
/// handles (holding them keeps the backends' stdin pipes open — each
/// backend's watchdog exits when every holder is gone).
struct Processes {
    addrs: Mutex<Vec<SocketAddr>>,
    children: Mutex<Vec<Option<Child>>>,
}

impl Processes {
    /// Wait (briefly) for backend process `i` to exit, then make sure
    /// of it.
    fn reap(&self, i: usize) {
        let child = self.children.lock().expect("net children lock")[i].take();
        if let Some(mut child) = child {
            for _ in 0..50 {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Cluster {
    fn new(fabric: Fabric) -> Cluster {
        Cluster {
            fence: Arc::default(),
            faults: Arc::default(),
            reply_timeout: Duration::from_millis(1000),
            fabric: Arc::new(fabric),
        }
    }

    /// An empty cluster of worker threads on the channel bus.
    pub(crate) fn threads() -> Cluster {
        Cluster::new(Fabric::Threads(Mutex::default()))
    }

    /// An empty cluster of backend processes over TCP.
    pub(crate) fn processes() -> Cluster {
        Cluster::new(Fabric::Processes(Arc::new(Processes {
            addrs: Mutex::default(),
            children: Mutex::default(),
        })))
    }

    /// An empty cluster of in-memory backends charging `cost` on a
    /// virtual clock.
    pub(crate) fn simulated(cost: CostModel) -> Cluster {
        Cluster::new(Fabric::Sim(Mutex::default(), SimClock::new(cost)))
    }

    /// Processes when the `MBDS_TRANSPORT=tcp` environment variable is
    /// set, threads otherwise.
    pub(crate) fn from_env() -> Cluster {
        if std::env::var("MBDS_TRANSPORT").as_deref() == Ok("tcp") {
            Cluster::processes()
        } else {
            Cluster::threads()
        }
    }

    /// True when the backends are separate OS processes.
    pub(crate) fn is_remote(&self) -> bool {
        matches!(*self.fabric, Fabric::Processes(_))
    }

    /// The virtual clock of a simulated cluster.
    pub(crate) fn clock(&self) -> Option<SimClock> {
        match &*self.fabric {
            Fabric::Sim(_, clock) => Some(clock.clone()),
            _ => None,
        }
    }

    /// Backend slots spawned so far.
    pub(crate) fn width(&self) -> usize {
        match &*self.fabric {
            Fabric::Threads(bus) => bus.lock().expect("bus lock").len(),
            Fabric::Processes(procs) => procs.addrs.lock().expect("net addrs lock").len(),
            Fabric::Sim(slots, _) => slots.lock().expect("sim slots lock").len(),
        }
    }

    /// Start a fresh backend (empty store, message counter at 0) in
    /// slot `i` — a new slot when `i` is the width, a replacement for a
    /// stopped backend otherwise — and link to it as `client_id` at
    /// `epoch`.
    pub(crate) fn spawn(&self, i: usize, client_id: u64, epoch: u64) -> Result<Box<dyn Link>> {
        match &*self.fabric {
            Fabric::Threads(bus) => {
                let (tx, join) = spawn_thread(i, Arc::clone(&self.fence), Arc::clone(&self.faults));
                put(&mut bus.lock().expect("bus lock"), i, tx.clone());
                Ok(Box::new(ChannelLink::new(tx, Some(join))))
            }
            Fabric::Processes(procs) => {
                let bp = net::spawn_backend_process(i)?;
                let mut link = SocketLink::new(self, procs, i, bp.addr, client_id);
                link.tcp.connect(epoch, HANDSHAKE).map_err(|e| {
                    Error::Internal(format!(
                        "backend {i} at {} refused the handshake: {e:?}",
                        bp.addr
                    ))
                })?;
                put(&mut procs.addrs.lock().expect("net addrs lock"), i, bp.addr);
                let mut children = procs.children.lock().expect("net children lock");
                if let Some(Some(mut old)) = put(&mut children, i, Some(bp.child)) {
                    let _ = old.kill();
                    let _ = old.wait();
                }
                Ok(Box::new(link))
            }
            Fabric::Sim(slots, clock) => {
                let slot = Arc::new(Mutex::new(Some(Backend::new(i))));
                put(&mut slots.lock().expect("sim slots lock"), i, Arc::clone(&slot));
                Ok(Box::new(SimLink::new(slot, self, clock.clone())))
            }
        }
    }

    /// A fresh link to the running backend `i`, for a controller that
    /// did not spawn it. A socket link dials at once: its handshake
    /// carries `epoch`, raising the backend's fence before the new
    /// controller sends anything. An unreachable backend stays
    /// unconnected; the first send re-dials.
    pub(crate) fn attach(&self, i: usize, client_id: u64, epoch: u64) -> Box<dyn Link> {
        match &*self.fabric {
            Fabric::Threads(bus) => {
                Box::new(ChannelLink::new(bus.lock().expect("bus lock")[i].clone(), None))
            }
            Fabric::Processes(procs) => {
                let addr = procs.addrs.lock().expect("net addrs lock")[i];
                let mut link = SocketLink::new(self, procs, i, addr, client_id);
                let _ = link.tcp.connect(epoch, self.reply_timeout);
                Box::new(link)
            }
            Fabric::Sim(slots, clock) => {
                let slot = Arc::clone(&slots.lock().expect("sim slots lock")[i]);
                Box::new(SimLink::new(slot, self, clock.clone()))
            }
        }
    }
}

/// Store `item` in slot `i` of `slots` (appending when `i` is the
/// length), returning what it replaced.
fn put<T>(slots: &mut Vec<T>, i: usize, item: T) -> Option<T> {
    if i == slots.len() {
        slots.push(item);
        None
    } else {
        Some(std::mem::replace(&mut slots[i], item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The fence refusal is written once, so the channel bus and the
    /// socket transport refuse a below-fence message in the same words.
    #[test]
    fn both_links_refuse_a_below_fence_op_alike() {
        let at = Stamp { epoch: 0, window: Duration::from_millis(2000), retry_budget: 0 };
        let mut totals = ExecTotals::default();
        let refusal = |link: &mut dyn Link, totals: &mut ExecTotals| {
            assert!(link.queue(at, 1, WireOp::CreateFile("f".into())));
            link.flush();
            match link.await_reply(at, 1, totals) {
                Window::Reply(Err(Error::Unavailable(text))) => text,
                Window::Reply(other) => panic!("expected a fence refusal, got {other:?}"),
                _ => panic!("expected a fence refusal, got no reply"),
            }
        };

        let threads = Cluster::threads();
        threads.fence.store(5, Ordering::SeqCst);
        let mut chan = threads.spawn(0, 1, 5).unwrap();
        let over_chan = refusal(chan.as_mut(), &mut totals);

        // A backend server on a loopback port in this process, serving
        // one connection until it hangs up; the handshake at epoch 5
        // raises its fence.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            net::serve_conn(stream, &Mutex::new(net::ServerState::new(0)));
        });
        let procs = Cluster::processes();
        if let Fabric::Processes(p) = &*procs.fabric {
            p.addrs.lock().unwrap().push(addr);
            p.children.lock().unwrap().push(None);
        }
        let mut sock = procs.attach(0, 1, 5);
        assert!(sock.is_connected());
        let over_socket = refusal(sock.as_mut(), &mut totals);

        assert_eq!(over_chan, "backend 0: request fenced (epoch 0 < fence 5)");
        assert_eq!(over_socket, over_chan);
        chan.stop(Stamp { epoch: 5, ..at });
        drop(sock);
        server.join().unwrap();
    }
}
