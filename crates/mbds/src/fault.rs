//! Deterministic, seeded fault injection for the multi-backend kernel.
//!
//! A [`FaultPlan`] is a fixed list of events, each firing when a given
//! backend processes its N-th message: drop the reply, delay it, crash
//! the backend silently, or panic inside it. Every backend — worker
//! thread, backend process, simulated backend — consults the plan in
//! the one backend step (`crate::link`), on its own counter, which a
//! restart resets to 0. Because each
//! backend's message stream is a FIFO fed by a deterministic
//! controller, the same plan produces bit-identical failure sequences
//! on every run — which is what makes availability experiments (E13)
//! and failure regression tests reproducible.

use abdl::prng::Prng;

/// What happens when a fault event fires.
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

/// One scheduled fault.
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

/// A deterministic schedule of backend faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an event: backend `backend` faults with `kind` when it
    /// processes its `at_request`-th message.
    pub fn with(mut self, backend: usize, at_request: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { backend, at_request, kind });
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
            plan.events.push(FaultEvent { backend, at_request, kind });
        }
        plan
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The fault (if any) that fires when `backend` processes its
    /// `request_no`-th message.
    pub fn action(&self, backend: usize, request_no: u64) -> Option<FaultKind> {
        self.events
            .iter()
            .find(|e| e.backend == backend && e.at_request == request_no)
            .map(|e| e.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(99, 8, 50);
        let b = FaultPlan::seeded(99, 8, 50);
        assert_eq!(a, b);
        // Different seeds should (for these values) differ.
        let c = FaultPlan::seeded(100, 8, 50);
        assert_ne!(a, c);
    }

    #[test]
    fn lookup_matches_events() {
        let plan = FaultPlan::new()
            .with(2, 5, FaultKind::Crash)
            .with(0, 1, FaultKind::DropReply);
        assert_eq!(plan.action(2, 5), Some(FaultKind::Crash));
        assert_eq!(plan.action(2, 4), None);
        assert_eq!(plan.action(0, 1), Some(FaultKind::DropReply));
        assert_eq!(plan.action(1, 1), None);
    }
}
