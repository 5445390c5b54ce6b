//! Deterministic, seeded fault injection for the multi-backend kernel.
//!
//! A [`FaultPlan`] is one fixed list of events for the whole bus:
//!
//! * a **backend event** fires when a given backend processes its N-th
//!   message: drop the reply, delay it, crash the backend silently, or
//!   panic inside it. Every backend — worker thread, backend process,
//!   simulated backend — consults the plan in the one backend step
//!   (`crate::link`), on its own counter, which a restart resets to 0;
//! * a **link event** fires on the N-th frame one link moves in one
//!   [`LinkDir`]: drop, delay, duplicate, reorder or sever it. The
//!   socket transport's links (`TcpLink`, and the standby's
//!   `RemoteLog`) pass every frame through a `LinkJudge`, the one place
//!   a link fault takes effect. The channel bus and the simulated link
//!   move no frames and ignore link events.
//!
//! Each backend's messages and each link's frames arrive in the
//! deterministic controller's program order, so the same plan produces
//! bit-identical failure sequences on every run — which is what makes
//! availability experiments (E13) and failure regression tests
//! reproducible.

use crate::net::Take;
use abdl::prng::Prng;
use abdl::Result;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What happens when a backend fault event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Execute the request but never send the reply (the controller
    /// sees a reply-window timeout and demotes the backend).
    DropReply,
    /// Reply only after this many milliseconds (may or may not exceed
    /// the controller's patience).
    DelayReplyMs(u64),
    /// Exit the worker loop without replying: the channel closes and
    /// the backend is immediately dead.
    Crash,
    /// Panic inside the worker (poisoning nothing — each backend owns
    /// its store privately); observable as a closed channel.
    Panic,
}

/// One scheduled backend fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Backend the fault fires on.
    pub backend: usize,
    /// Fires when the backend processes its `at_request`-th message
    /// (1-based, counting every message: creates, inserts, execs).
    pub at_request: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Which direction of a link a link fault applies to, from the
/// client's (controller's or standby's) point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Frames the client sends toward the backend (or log shipper).
    Send,
    /// Frames coming back to the client.
    Recv,
}

/// What a link fault does to the frame it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The frame vanishes (the retry path must recover it).
    Drop,
    /// The frame is delivered only after this many milliseconds.
    DelayMs(u64),
    /// The frame is delivered twice (idempotency must absorb it).
    Duplicate,
    /// The frame is held and delivered *after* the next frame on the
    /// same link and direction.
    Reorder,
    /// The link is severed: every later frame in both directions fails
    /// until the link is healed — a real partition.
    Sever,
}

/// One scheduled link fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// Link (backend index) the fault fires on.
    pub link: usize,
    /// Direction it applies to.
    pub dir: LinkDir,
    /// Fires on the `at_frame`-th frame in that direction (1-based).
    pub at_frame: u64,
    /// What happens.
    pub kind: LinkFault,
}

/// A deterministic schedule of backend and link faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    links: Vec<LinkEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a backend event: backend `backend` faults with `kind` when
    /// it processes its `at_request`-th message.
    pub fn with(mut self, backend: usize, at_request: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { backend, at_request, kind });
        self
    }

    /// Add a link event: link `link`, direction `dir`, firing on that
    /// direction's `at_frame`-th frame.
    pub fn with_link(mut self, link: usize, dir: LinkDir, at_frame: u64, kind: LinkFault) -> Self {
        self.links.push(LinkEvent { link, dir, at_frame, kind });
        self
    }

    /// A seeded random plan over `backends` backends: each backend
    /// independently has a ~1-in-3 chance of one fault somewhere in its
    /// first `horizon` messages. Equal seeds yield equal plans.
    pub fn seeded(seed: u64, backends: usize, horizon: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for backend in 0..backends {
            if !rng.chance(1, 3) {
                continue;
            }
            let at_request = 1 + rng.next_u64() % horizon.max(1);
            let kind = match rng.index(4) {
                0 => FaultKind::DropReply,
                1 => FaultKind::DelayReplyMs(1 + rng.next_u64() % 20),
                2 => FaultKind::Crash,
                _ => FaultKind::Panic,
            };
            plan = plan.with(backend, at_request, kind);
        }
        plan
    }

    /// A seeded lossy-but-recoverable plan over `links` links: each
    /// direction of each link independently has a ~1-in-2 chance of one
    /// drop/delay/duplicate/reorder somewhere in its first `horizon`
    /// frames. Severs are deliberately excluded — a seeded plan must
    /// stay inside the retry budget so the workload converges; real
    /// partitions are scheduled explicitly with
    /// [`with_link`](Self::with_link).
    pub fn seeded_links(seed: u64, links: usize, horizon: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for link in 0..links {
            for dir in [LinkDir::Send, LinkDir::Recv] {
                if !rng.chance(1, 2) {
                    continue;
                }
                let at_frame = 2 + rng.next_u64() % horizon.max(1);
                let kind = match rng.index(4) {
                    0 => LinkFault::Drop,
                    1 => LinkFault::DelayMs(1 + rng.next_u64() % 10),
                    2 => LinkFault::Duplicate,
                    _ => LinkFault::Reorder,
                };
                plan = plan.with_link(link, dir, at_frame, kind);
            }
        }
        plan
    }

    /// The scheduled backend events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The scheduled link events.
    pub fn link_events(&self) -> &[LinkEvent] {
        &self.links
    }

    /// True when no events of either kind are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.links.is_empty()
    }

    /// The fault (if any) that fires when `backend` processes its
    /// `request_no`-th message.
    pub fn action(&self, backend: usize, request_no: u64) -> Option<FaultKind> {
        self.events
            .iter()
            .find(|e| e.backend == backend && e.at_request == request_no)
            .map(|e| e.kind)
    }

    /// The fault (if any) firing on `link`'s `frame_no`-th frame in
    /// direction `dir`.
    pub fn link_action(&self, link: usize, dir: LinkDir, frame_no: u64) -> Option<LinkFault> {
        self.links
            .iter()
            .find(|e| e.link == link && e.dir == dir && e.at_frame == frame_no)
            .map(|e| e.kind)
    }

    /// Append the plan's wire form to a frame body, in 8-byte words:
    /// each event list as a count and its events, each event's kind as
    /// a tag and one argument.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let mut words = vec![self.events.len() as u64];
        for e in &self.events {
            let (tag, arg) = match e.kind {
                FaultKind::DropReply => (0, 0),
                FaultKind::DelayReplyMs(ms) => (1, ms),
                FaultKind::Crash => (2, 0),
                FaultKind::Panic => (3, 0),
            };
            words.extend([e.backend as u64, e.at_request, tag, arg]);
        }
        words.push(self.links.len() as u64);
        for e in &self.links {
            let (tag, arg) = match e.kind {
                LinkFault::Drop => (0, 0),
                LinkFault::DelayMs(ms) => (1, ms),
                LinkFault::Duplicate => (2, 0),
                LinkFault::Reorder => (3, 0),
                LinkFault::Sever => (4, 0),
            };
            words.extend([e.link as u64, e.dir as u64, e.at_frame, tag, arg]);
        }
        out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    }

    /// Read a plan written by [`encode`](Self::encode); a truncated or
    /// malformed body is an error.
    pub(crate) fn decode(t: &mut Take<'_>) -> Result<FaultPlan> {
        let mut plan = FaultPlan::new();
        for _ in 0..t.u64()? {
            let (backend, at) = (t.u64()? as usize, t.u64()?);
            let kind = match (t.u64()?, t.u64()?) {
                (0, _) => FaultKind::DropReply,
                (1, ms) => FaultKind::DelayReplyMs(ms),
                (2, _) => FaultKind::Crash,
                (3, _) => FaultKind::Panic,
                (tag, _) => return Err(Take::bad(&format!("fault tag {tag}"))),
            };
            plan = plan.with(backend, at, kind);
        }
        for _ in 0..t.u64()? {
            let (link, dir, at) = (t.u64()? as usize, t.u64()?, t.u64()?);
            let dir = match dir {
                0 => LinkDir::Send,
                1 => LinkDir::Recv,
                d => return Err(Take::bad(&format!("link direction {d}"))),
            };
            let kind = match (t.u64()?, t.u64()?) {
                (0, _) => LinkFault::Drop,
                (1, ms) => LinkFault::DelayMs(ms),
                (2, _) => LinkFault::Duplicate,
                (3, _) => LinkFault::Reorder,
                (4, _) => LinkFault::Sever,
                (tag, _) => return Err(Take::bad(&format!("link fault tag {tag}"))),
            };
            plan = plan.with_link(link, dir, at, kind);
        }
        Ok(plan)
    }
}

/// The judge of one link's frames. It counts the frames moving in each
/// direction, looks each one up in the shared plan, and decides what
/// its fault does: which items to deliver and in what order. It holds
/// the item a `Reorder` keeps back and the severed flag. `S` is what
/// the link sends, `R` what it receives.
#[derive(Debug)]
pub(crate) struct LinkJudge<S, R> {
    link: usize,
    plan: Arc<Mutex<FaultPlan>>,
    /// Frames judged so far, indexed by [`LinkDir`].
    frames: [u64; 2],
    /// The item a `Reorder` holds back in each direction, delivered
    /// after the next one.
    held: (Option<S>, Option<R>),
    severed: bool,
}

impl<S: Clone, R: Clone> LinkJudge<S, R> {
    /// The judge of link `link` under `plan`, with both counters at 0.
    pub(crate) fn new(link: usize, plan: Arc<Mutex<FaultPlan>>) -> Self {
        LinkJudge { link, plan, frames: [0; 2], held: (None, None), severed: false }
    }

    /// Judge the next frame sent, handing `deliver` every item that
    /// goes out now, in order. False when the link is severed — before
    /// or by this frame, which is then lost.
    pub(crate) fn send(&mut self, item: S, deliver: impl FnMut(S)) -> bool {
        let fault = self.next(LinkDir::Send);
        let open = judge(fault, &mut self.held.0, item, deliver);
        if !open {
            self.sever();
        }
        open
    }

    /// Judge the next frame received, as [`send`](Self::send) does.
    pub(crate) fn recv(&mut self, item: R, deliver: impl FnMut(R)) -> bool {
        let fault = self.next(LinkDir::Recv);
        let open = judge(fault, &mut self.held.1, item, deliver);
        if !open {
            self.sever();
        }
        open
    }

    /// Count the next frame moving in `dir` and look up its fault. A
    /// severed link fails every frame, uncounted.
    fn next(&mut self, dir: LinkDir) -> Option<LinkFault> {
        if self.severed {
            return Some(LinkFault::Sever);
        }
        self.frames[dir as usize] += 1;
        let frame_no = self.frames[dir as usize];
        self.plan.lock().expect("fault plan lock").link_action(self.link, dir, frame_no)
    }

    /// Sever the link: held items are lost, and every later frame
    /// fails until [`heal`](Self::heal).
    pub(crate) fn sever(&mut self) {
        self.severed = true;
        self.held = (None, None);
    }

    /// Undo [`sever`](Self::sever).
    pub(crate) fn heal(&mut self) {
        self.severed = false;
    }

    /// True while the link is severed.
    pub(crate) fn is_severed(&self) -> bool {
        self.severed
    }

    /// Frames judged so far: `(sent, received)`.
    pub(crate) fn frames(&self) -> (u64, u64) {
        (self.frames[LinkDir::Send as usize], self.frames[LinkDir::Recv as usize])
    }
}

/// What `fault` does to `item`: the one place a link fault is decided.
/// A delivered item releases the one held back by an earlier
/// `Reorder` right after it; a dropped or held one releases nothing.
/// False when the fault severs the link.
fn judge<T: Clone>(
    fault: Option<LinkFault>,
    held: &mut Option<T>,
    item: T,
    mut deliver: impl FnMut(T),
) -> bool {
    match fault {
        None => deliver(item),
        Some(LinkFault::Drop) => return true,
        Some(LinkFault::DelayMs(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            deliver(item);
        }
        Some(LinkFault::Duplicate) => {
            deliver(item.clone());
            deliver(item);
        }
        Some(LinkFault::Reorder) => {
            *held = Some(item);
            return true;
        }
        Some(LinkFault::Sever) => return false,
    }
    if let Some(held) = held.take() {
        deliver(held);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The generators draw exactly these schedules. The link seeds are
    /// the lossy-network tests' own (`tests/net_partition.rs`), so a
    /// change to the draw would silently move every fault they place.
    /// Seeded link plans never sever: they must stay recoverable.
    #[test]
    fn seeded_plans_are_reproducible() {
        use LinkDir::{Recv, Send};
        use LinkFault::*;
        let backend = |b, at, kind| FaultEvent { backend: b, at_request: at, kind };
        assert_eq!(
            FaultPlan::seeded(99, 8, 50).events(),
            [backend(1, 28, FaultKind::Panic), backend(4, 46, FaultKind::Crash)]
        );
        let link = |link, dir, at_frame, kind| LinkEvent { link, dir, at_frame, kind };
        let pinned = [
            (
                0xBAD5EED,
                60,
                vec![
                    link(0, Send, 41, Duplicate),
                    link(0, Recv, 16, DelayMs(1)),
                    link(1, Send, 32, Duplicate),
                    link(1, Recv, 34, Reorder),
                    link(2, Recv, 60, Duplicate),
                    link(3, Send, 40, Drop),
                    link(3, Recv, 20, Reorder),
                ],
            ),
            (
                0x5EED5,
                40,
                vec![
                    link(0, Send, 28, Reorder),
                    link(2, Send, 25, Drop),
                    link(2, Recv, 6, DelayMs(8)),
                ],
            ),
            (
                0xC0B1,
                300,
                vec![
                    link(0, Send, 100, Drop),
                    link(0, Recv, 93, Duplicate),
                    link(1, Send, 92, Reorder),
                    link(1, Recv, 300, Duplicate),
                    link(2, Send, 45, Reorder),
                    link(3, Send, 297, Duplicate),
                ],
            ),
        ];
        for (seed, horizon, want) in pinned {
            let plan = FaultPlan::seeded_links(seed, 4, horizon);
            assert_eq!(plan.link_events(), want, "seed {seed:#x}");
            assert!(plan.events().is_empty());
        }
        for seed in 0..64 {
            let plan = FaultPlan::seeded_links(seed, 6, 40);
            assert!(plan.link_events().iter().all(|e| e.kind != Sever), "seed {seed}");
        }
    }

    /// One plan answers both lookups, each from its own events.
    #[test]
    fn lookup_matches_events() {
        let plan = FaultPlan::new()
            .with(2, 5, FaultKind::Crash)
            .with(0, 1, FaultKind::DropReply)
            .with_link(1, LinkDir::Send, 4, LinkFault::Drop)
            .with_link(1, LinkDir::Recv, 4, LinkFault::Duplicate)
            .with_link(2, LinkDir::Send, 5, LinkFault::Sever);
        assert_eq!(plan.action(2, 5), Some(FaultKind::Crash));
        assert_eq!(plan.action(2, 4), None);
        assert_eq!(plan.action(0, 1), Some(FaultKind::DropReply));
        assert_eq!(plan.action(1, 1), None);
        assert_eq!(plan.action(1, 4), None, "a link event is no backend event");
        assert_eq!(plan.link_action(1, LinkDir::Send, 4), Some(LinkFault::Drop));
        assert_eq!(plan.link_action(1, LinkDir::Recv, 4), Some(LinkFault::Duplicate));
        assert_eq!(plan.link_action(1, LinkDir::Send, 5), None);
        assert_eq!(plan.link_action(0, LinkDir::Send, 4), None);
        assert_eq!(plan.link_action(2, LinkDir::Send, 5), Some(LinkFault::Sever));
        assert_eq!(plan.link_action(2, LinkDir::Recv, 5), None);
        assert_eq!(plan.link_action(0, LinkDir::Send, 1), None, "a backend event is no link event");
        assert!(!plan.is_empty());
        let links_only = FaultPlan::new().with_link(0, LinkDir::Recv, 1, LinkFault::Drop);
        assert!(links_only.events().is_empty() && !links_only.is_empty());
    }

    /// The judge, kind by kind and direction by direction: items 1..=4
    /// pass one link with the fault on the 2nd frame in one direction,
    /// while the same items pass the other direction untouched.
    #[test]
    fn the_judge_delivers_per_fault_kind_and_direction() {
        let table: [(LinkFault, &[u32], bool); 5] = [
            (LinkFault::Drop, &[1, 3, 4], true),
            (LinkFault::DelayMs(5), &[1, 2, 3, 4], true),
            (LinkFault::Duplicate, &[1, 2, 2, 3, 4], true),
            (LinkFault::Reorder, &[1, 3, 2, 4], true),
            (LinkFault::Sever, &[1], false),
        ];
        for (fault, want, open) in table {
            for dir in [LinkDir::Send, LinkDir::Recv] {
                let plan = FaultPlan::new().with_link(3, dir, 2, fault);
                let mut judge = LinkJudge::<u32, u32>::new(3, Arc::new(Mutex::new(plan)));
                let (mut sent, mut got) = (Vec::new(), Vec::new());
                let start = Instant::now();
                for item in 1..=4 {
                    judge.send(item, |i| sent.push(i));
                    judge.recv(item, |i| got.push(i));
                }
                let (faulty, clean) = match dir {
                    LinkDir::Send => (&sent, &got),
                    LinkDir::Recv => (&got, &sent),
                };
                assert_eq!(faulty, want, "{fault:?} on {dir:?}");
                // A sever cuts both directions from its frame on.
                let untouched: &[u32] = match (open, dir) {
                    (true, _) => &[1, 2, 3, 4],
                    (false, LinkDir::Send) => &[1],
                    (false, LinkDir::Recv) => &[1, 2],
                };
                assert_eq!(clean, untouched, "{fault:?} on {dir:?}: the other direction");
                assert_eq!(judge.is_severed(), !open, "{fault:?} on {dir:?}");
                if let LinkFault::DelayMs(ms) = fault {
                    assert!(start.elapsed() >= Duration::from_millis(ms));
                }
            }
        }
        // Another link's events never touch this one.
        let plan = FaultPlan::new().with_link(0, LinkDir::Send, 1, LinkFault::Drop);
        let mut judge = LinkJudge::<u32, u32>::new(1, Arc::new(Mutex::new(plan)));
        let mut sent = Vec::new();
        assert!(judge.send(7, |i| sent.push(i)));
        assert_eq!(sent, [7]);
    }
}
