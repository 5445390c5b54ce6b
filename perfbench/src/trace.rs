//! Outside-in tracing: in-memory spans plus the two timing wrappers the
//! traced run hands to the system under test.
//!
//! A span has a name, a start, an end, a parent span id and an op id;
//! every span opened while an op is current on its thread carries that
//! op's id. Spans nest per thread (a thread-local stack supplies the
//! parent), stay in memory while the run measures, and are written out
//! once it ends. A layer's self time is its span minus the part of the
//! span its children cover; the language interfaces' `kms_us` is the
//! statement span's self time.
//!
//! The wrappers change no behaviour: [`TracedKernel`] forwards every
//! [`Kernel`] method (including `health` and `exec_totals`, which the
//! trait would otherwise default), and [`TracedLog`] forwards every
//! [`LogStore`] method (including the fenced variants, which
//! `MemLog`/`RemoteLog` override to stay atomic).

use mlds::abdl::engine::KernelHealth;
use mlds::abdl::{DbKey, ExecTotals, Kernel, Request, Response, Result as AbdlResult, Transaction};
use mlds::mbds::{Controller, LogStore};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload: requests in a kernel call, lines in a log append.
    pub n: u64,
    /// Payload: records examined by a kernel call, bytes of an append.
    pub x: u64,
    /// Payload: records returned by a kernel call.
    pub y: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off. While off, [`open`] returns a span
/// that records nothing, so a wrapper costs one flag load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start a new op on this thread; spans opened until the next call
/// share its id.
pub fn new_op() -> u64 {
    let op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    OP.with(|c| c.set(op));
    op
}

/// An open span; close it with [`Open::close`] or [`Open::close_with`].
/// `id == 0` marks a span opened while recording was off.
#[must_use]
pub struct Open {
    id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

/// Open a span named `name` under this thread's innermost open span.
pub fn open(name: &'static str) -> Open {
    if !enabled() {
        return Open {
            id: 0,
            parent: 0,
            op: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let op = OP.with(Cell::get);
    Open {
        id,
        parent,
        op,
        name,
        start_ns: now_ns(),
    }
}

impl Open {
    pub fn close(self) {
        self.close_with(0, 0, 0);
    }

    pub fn close_with(self, n: u64, x: u64, y: u64) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans must close innermost-first");
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            n,
            x,
            y,
        };
        SPANS.lock().expect("span buffer").push(span);
    }
}

/// Time `f` as a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let s = open(name);
    let out = f();
    s.close();
    out
}

/// Take every closed span recorded so far, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer"))
}

/// Write spans as tab-separated lines (`id parent op name start_ns
/// end_ns n x y`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns\tn\tx\ty")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.n, s.x, s.y
        )?;
    }
    out.flush()
}

/// Per-name aggregates over a span set: count, total time and payload
/// sums.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub n: u64,
    pub x: u64,
    pub y: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    fn add(&mut self, s: &Span) {
        self.count += 1;
        self.total_ns += s.ns();
        self.n += s.n;
        self.x += s.x;
        self.y += s.y;
    }
}

/// Aggregate spans by name.
pub fn aggregate(spans: &[Span]) -> std::collections::BTreeMap<&'static str, Agg> {
    let mut out: std::collections::BTreeMap<&'static str, Agg> = Default::default();
    for s in spans {
        out.entry(s.name).or_default().add(s);
    }
    out
}

/// Sum of the durations (and payloads) of the spans named
/// `child_prefix…` whose *parent* is named `parent` — what a layer
/// spent in one kind of child.
pub fn children_of(spans: &[Span], parent: &str, child_prefix: &str) -> Agg {
    let parents: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    let mut a = Agg::default();
    for s in spans
        .iter()
        .filter(|s| s.name.starts_with(child_prefix) && parents.contains(&s.parent))
    {
        a.add(s);
    }
    a
}

/// A [`Kernel`] that times every call it forwards. Span names:
/// `kernel.execute`, `kernel.batch`, `kernel.txn`, `kernel.reserve_key`,
/// `kernel.create_file`, `kernel.unique`, `kernel.health`; every call
/// span carries (requests, records examined, records returned).
pub struct TracedKernel<K> {
    inner: K,
}

impl<K: Kernel> TracedKernel<K> {
    pub fn new(inner: K) -> Self {
        TracedKernel { inner }
    }
}

fn response_load(r: &Response) -> (u64, u64) {
    (r.stats.records_examined, r.stats.records_returned)
}

impl<K: Kernel> Kernel for TracedKernel<K> {
    fn create_file(&mut self, name: &str) {
        timed("kernel.create_file", || self.inner.create_file(name))
    }

    fn add_unique_constraint(&mut self, file: &str, attrs: Vec<String>) {
        timed("kernel.unique", || {
            self.inner.add_unique_constraint(file, attrs)
        })
    }

    fn reserve_key(&mut self) -> DbKey {
        timed("kernel.reserve_key", || self.inner.reserve_key())
    }

    fn execute(&mut self, request: &Request) -> AbdlResult<Response> {
        let s = open("kernel.execute");
        let out = self.inner.execute(request);
        let (x, y) = out.as_ref().map(response_load).unwrap_or_default();
        s.close_with(1, x, y);
        out
    }

    fn execute_transaction(&mut self, txn: &Transaction) -> AbdlResult<Vec<Response>> {
        let s = open("kernel.txn");
        let out = self.inner.execute_transaction(txn);
        let (x, y) = out.as_ref().map_or((0, 0), |rs| {
            rs.iter()
                .map(response_load)
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        });
        s.close_with(txn.requests.len() as u64, x, y);
        out
    }

    fn execute_batch(&mut self, requests: &[Request]) -> Vec<AbdlResult<Response>> {
        let s = open("kernel.batch");
        let out = self.inner.execute_batch(requests);
        let (x, y) = out
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(response_load)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        s.close_with(requests.len() as u64, x, y);
        out
    }

    fn health(&self) -> KernelHealth {
        timed("kernel.health", || self.inner.health())
    }

    fn exec_totals(&self) -> ExecTotals {
        self.inner.exec_totals()
    }
}

/// Access to the controller under a (possibly traced) kernel, for the
/// controller-only reads the benchmark makes: digests, counters,
/// directory gauges.
pub trait AsController {
    fn controller(&mut self) -> &mut Controller;
}

impl AsController for Controller {
    fn controller(&mut self) -> &mut Controller {
        self
    }
}

impl AsController for TracedKernel<Controller> {
    fn controller(&mut self) -> &mut Controller {
        &mut self.inner
    }
}

/// A [`LogStore`] that times every append (`wal.append`, payload:
/// lines, bytes), snapshot install (`wal.snapshot`) and log read
/// (`wal.read`), and forwards every other method unchanged.
pub struct TracedLog<L> {
    inner: L,
}

impl<L: LogStore> TracedLog<L> {
    pub fn new(inner: L) -> Self {
        TracedLog { inner }
    }
}

fn line_bytes(lines: &[String]) -> u64 {
    lines.iter().map(|l| l.len() as u64 + 1).sum()
}

impl<L: LogStore> LogStore for TracedLog<L> {
    fn append_line(&mut self, line: &str) -> AbdlResult<()> {
        let s = open("wal.append");
        let out = self.inner.append_line(line);
        s.close_with(1, line.len() as u64 + 1, 0);
        out
    }

    fn append_lines(&mut self, lines: &[String]) -> AbdlResult<()> {
        let s = open("wal.append");
        let out = self.inner.append_lines(lines);
        s.close_with(lines.len() as u64, line_bytes(lines), 0);
        out
    }

    fn append_line_fenced(&mut self, line: &str, epoch: u64) -> AbdlResult<()> {
        let s = open("wal.append");
        let out = self.inner.append_line_fenced(line, epoch);
        s.close_with(1, line.len() as u64 + 1, 0);
        out
    }

    fn append_lines_fenced(&mut self, lines: &[String], epoch: u64) -> AbdlResult<()> {
        let s = open("wal.append");
        let out = self.inner.append_lines_fenced(lines, epoch);
        s.close_with(lines.len() as u64, line_bytes(lines), 0);
        out
    }

    fn install_snapshot_fenced(&mut self, text: &str, epoch: u64) -> AbdlResult<()> {
        let s = open("wal.snapshot");
        let out = self.inner.install_snapshot_fenced(text, epoch);
        s.close_with(1, text.len() as u64, 0);
        out
    }

    fn log_lines(&self) -> AbdlResult<Vec<String>> {
        timed("wal.read", || self.inner.log_lines())
    }

    fn read_snapshot(&self) -> AbdlResult<Option<String>> {
        timed("wal.read", || self.inner.read_snapshot())
    }

    fn install_snapshot(&mut self, text: &str) -> AbdlResult<()> {
        let s = open("wal.snapshot");
        let out = self.inner.install_snapshot(text);
        s.close_with(1, text.len() as u64, 0);
        out
    }

    fn has_state(&self) -> AbdlResult<bool> {
        self.inner.has_state()
    }

    fn drop_torn_tail(&mut self, keep: usize) -> AbdlResult<()> {
        self.inner.drop_torn_tail(keep)
    }

    fn fence_epoch(&self) -> AbdlResult<u64> {
        self.inner.fence_epoch()
    }

    fn set_fence_epoch(&mut self, epoch: u64) -> AbdlResult<()> {
        self.inner.set_fence_epoch(epoch)
    }

    fn generation(&self) -> AbdlResult<u64> {
        self.inner.generation()
    }
}
