//! The MLDS benchmark: three closed-loop workloads driven only through
//! the system's public API, each checked against an oracle, with an
//! optional traced run that attributes time to the layers from outside
//! (see `trace`).
//!
//! * `lang_university` — the four language interfaces over one
//!   in-process 4-backend controller, checked against a single-site
//!   run of the same statements. Its traced run adds the front-door
//!   phase (`sessions`): two sessions through the sharded service over
//!   a durable controller whose WAL is a file log (one fsync per group
//!   commit), checked by serial replay of the admission log and by
//!   recovery;
//! * `batch_1m` / `batch_tcp` — 64-request `execute_batch` calls on a
//!   1 000 000-row in-process cluster and a 20 000-row TCP cluster,
//!   checked request by request against the generator.

pub mod batch;
pub mod lang;
pub mod report;
pub mod sessions;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub use report::Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["lang_university", "batch_1m", "batch_tcp"];

/// Every run measures at least this many ops, so the p99 has at least
/// ten samples beyond it.
pub const MIN_OPS: u64 = 1_000;

/// The longest the front-door phase of a traced `lang_university` run
/// measures.
const FRONT_DOOR_SECONDS: f64 = 10.0;

/// Set-up repetitions per run for workloads whose set-up is cheap
/// enough to repeat; `setup_s` is their median.
pub(crate) const SETUP_REPEATS: usize = 3;

/// How one run stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Measure for this long (and at least [`MIN_OPS`] ops).
    Seconds(f64),
    /// Run exactly this many ops (the equivalence tests).
    Ops(u64),
}

impl Stop {
    /// Alternation period of a traced run: recording flips on and off
    /// every block, so traced and untraced throughput see the same
    /// state. Op-count runs are short, so they flip faster.
    pub(crate) fn trace_block(self) -> Duration {
        match self {
            Stop::Seconds(_) => Duration::from_millis(200),
            Stop::Ops(_) => Duration::from_millis(10),
        }
    }
}

/// The measured phase of a single-client loop: stop rule, latency
/// samples, and (in a traced run) on/off alternation with per-state
/// op counts and wall time.
pub(crate) struct Meter {
    stop: Stop,
    trace: bool,
    start: Instant,
    phase_start: Instant,
    on: bool,
    /// Ops completed, untraced `[0]` and traced `[1]`.
    ops: [u64; 2],
    /// Wall seconds spent, untraced `[0]` and traced `[1]`.
    secs: [f64; 2],
    /// Latency of every untraced op, in µs.
    lat_us: Vec<f64>,
    /// Completion time of every untraced op, in seconds since start.
    end_s: Vec<f64>,
}

impl Meter {
    pub(crate) fn new(stop: Stop, trace: bool) -> Self {
        let now = Instant::now();
        trace::set_enabled(false);
        Meter {
            stop,
            trace,
            start: now,
            phase_start: now,
            on: false,
            ops: [0; 2],
            secs: [0.0; 2],
            lat_us: Vec::new(),
            end_s: Vec::new(),
        }
    }

    /// True while another op should run; call once before each op.
    pub(crate) fn more(&mut self) -> bool {
        let now = Instant::now();
        let done = self.ops[0] + self.ops[1];
        let more = match self.stop {
            Stop::Ops(n) => done < n,
            Stop::Seconds(s) => now.duration_since(self.start).as_secs_f64() < s || done < MIN_OPS,
        };
        if !more || (self.trace && now.duration_since(self.phase_start) >= self.stop.trace_block())
        {
            self.secs[self.on as usize] += now.duration_since(self.phase_start).as_secs_f64();
            self.phase_start = now;
            if self.trace && more {
                self.on = !self.on;
            }
        }
        trace::set_enabled(more && self.on);
        if more && self.on {
            trace::new_op();
        }
        more
    }

    /// Record one completed op.
    pub(crate) fn done(&mut self, latency: Duration) {
        self.ops[self.on as usize] += 1;
        if !self.on {
            self.lat_us.push(latency.as_secs_f64() * 1e6);
            self.end_s.push(self.start.elapsed().as_secs_f64());
        }
    }

    pub(crate) fn total_ops(&self) -> u64 {
        self.ops[0] + self.ops[1]
    }

    /// Fill the throughput / latency metrics and, in a traced run,
    /// `trace.overhead_ratio`. An untraced run reports its
    /// [`report::Summary`]; a traced run reports throughput per state
    /// only (its end-to-end figures are not printed).
    pub(crate) fn report(&self, out: &mut Outcome, unit: &str) {
        if self.trace {
            let untraced = report::ratio(self.ops[0] as f64, self.secs[0]);
            let traced = report::ratio(self.ops[1] as f64, self.secs[1]);
            out.set("throughput_ops_s", untraced);
            out.set("trace.overhead_ratio", report::ratio(traced, untraced));
            out.note(format!(
                "traced {traced:.1} ops/s ({} ops in {:.2} s) vs untraced {untraced:.1} ops/s ({} ops in {:.2} s), \
                 one op = one {unit}",
                self.ops[1], self.secs[1], self.ops[0], self.secs[0]
            ));
        } else {
            let samples: Vec<(f64, f64)> = self
                .end_s
                .iter()
                .copied()
                .zip(self.lat_us.iter().copied())
                .collect();
            report::summarize(&samples, self.secs[0]).record(out, unit);
        }
        record_peak_rss(out);
    }
}

/// Set `peak_rss_mb` from the process's high-water mark. Read right
/// after the measured phase, before any oracle state is built, so the
/// figure is the system under test's (plus the benchmark's own op log),
/// not the oracle's.
pub(crate) fn record_peak_rss(out: &mut Outcome) {
    let mb = report::peak_rss_mb();
    out.set("peak_rss_mb", mb);
    out.note(format!(
        "peak RSS {mb:.1} MB after the measured phase (this process only; available parallelism {})",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
}

/// A scratch directory under `.bench_out/`, unique to this invocation
/// and removed (with its contents) when dropped. The name joins the
/// process id, the creation time in nanoseconds and a per-process
/// counter, and the directory is created exclusively, so back-to-back
/// or parallel runs never share one.
pub(crate) struct WorkDir(PathBuf);

impl WorkDir {
    pub(crate) fn new(what: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let root = Path::new(".bench_out");
        std::fs::create_dir_all(root)?;
        loop {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = root.join(format!("{what}-{}-{nanos}-{n}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(WorkDir(dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A stratified draw: every `cards.len()` draws return each card exactly
/// once, in a seeded order. Workloads draw their op kinds from decks so
/// every run holds the same mix and a run's cost does not hinge on how
/// many heavy ops its seed happened to draw.
pub(crate) struct Deck<T: Copy> {
    cards: Vec<T>,
    hand: Vec<T>,
}

impl<T: Copy> Deck<T> {
    pub(crate) fn new(cards: &[T]) -> Self {
        Deck {
            cards: cards.to_vec(),
            hand: Vec::new(),
        }
    }

    pub(crate) fn draw(&mut self, rng: &mut mlds::abdl::prng::Prng) -> T {
        if self.hand.is_empty() {
            self.hand = self.cards.clone();
            for i in (1..self.hand.len()).rev() {
                let j = rng.index(i + 1);
                self.hand.swap(i, j);
            }
        }
        self.hand.pop().expect("refilled above")
    }
}

/// Fail the run on any reply timeout or retry: the benchmark's links
/// are clean (in-process channels or loopback TCP), so either means the
/// measurement is not the one it claims to be.
pub(crate) fn clean_bus(d: &mlds::abdl::ExecTotals) -> Result<(), String> {
    if d.retries > 0 || d.reply_timeouts > 0 {
        return Err(format!(
            "{} retries and {} reply timeouts on a clean link",
            d.retries, d.reply_timeouts
        ));
    }
    Ok(())
}

/// Confine the calling thread — and so every thread and child process
/// it starts afterwards — to the first CPU it may run on; returns that
/// CPU. Linux only.
pub(crate) fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 8)
        .find(|&i| mask[i / 8] >> (i % 8) & 1 == 1)
        .ok_or("no CPU in this process's affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Time one closure, in seconds.
pub(crate) fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Run `workload` and return its outcome, or an error message for a
/// run that could not complete (which must exit nonzero).
///
/// The run is pinned to one CPU first. Every workload hands work
/// between threads (client, service, backends) or processes (TCP
/// backends); on a shared virtual machine, a wake-up on another vCPU
/// costs a hypervisor round trip whose latency the host's other tenants
/// set, and on one CPU it is a plain context switch.
pub fn run(workload: &str, seed: u64, stop: Stop, trace: bool) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let cpu = pin_to_one_cpu()?;
    let mut out = match workload {
        "lang_university" => {
            let mut out = lang::run(&lang::Config::full(), seed, stop, trace)?;
            if trace {
                // The service and WAL layers are timed in a second phase
                // of the traced run (see `sessions`). Its two recoveries
                // replay all it logged, so it measures at most
                // FRONT_DOOR_SECONDS to keep the run inside its time limit.
                let front = match stop {
                    Stop::Seconds(s) => Stop::Seconds(s.min(FRONT_DOOR_SECONDS)),
                    ops => ops,
                };
                out.absorb(
                    "front door",
                    sessions::run(&sessions::Config::full(), seed, front, true)?,
                );
            }
            out
        }
        "batch_1m" => batch::run(&batch::Config::in_process(1_000_000), seed, stop, trace)?,
        _ => batch::run(&batch::Config::tcp(20_000), seed, stop, trace)?,
    };
    out.note(format!(
        "pinned to CPU {cpu}: this process, its threads and any backend processes"
    ));
    Ok(out)
}

/// Where a traced run writes its spans when it ends.
pub(crate) fn spans_path(workload: &str) -> PathBuf {
    Path::new(".bench_out").join(format!("spans-{workload}.tsv"))
}
