//! Result assembly: percentiles from raw samples, peak RSS, the metric
//! name lists, and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A layer a
/// workload does not cross reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codasyl.stmt_us", "us"),
    ("codasyl.parse_us", "us"),
    ("codasyl.kernel_us", "us"),
    ("codasyl.kms_us", "us"),
    ("codasyl.requests_per_stmt", "count"),
    ("codasyl.examined_per_returned", "ratio"),
    ("daplex.stmt_us", "us"),
    ("daplex.parse_us", "us"),
    ("daplex.kernel_us", "us"),
    ("daplex.kms_us", "us"),
    ("daplex.requests_per_stmt", "count"),
    ("daplex.examined_per_returned", "ratio"),
    ("sql.stmt_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.kernel_us", "us"),
    ("sql.kms_us", "us"),
    ("sql.requests_per_stmt", "count"),
    ("sql.examined_per_returned", "ratio"),
    ("dli.stmt_us", "us"),
    ("dli.parse_us", "us"),
    ("dli.kernel_us", "us"),
    ("dli.kms_us", "us"),
    ("dli.requests_per_stmt", "count"),
    ("dli.examined_per_returned", "ratio"),
    ("transform.ms", "ms"),
    ("kernel.messages_per_request", "count"),
    ("store.examined_per_request", "count"),
    ("abdl.parse_us", "us"),
    ("service.batch_size", "count"),
    ("service.exec_us", "us"),
    ("service.wait_us", "us"),
    ("wal.append_us", "us"),
    ("wal.syncs_per_write", "count"),
    ("wal.records_per_batch", "count"),
    ("wal.bytes_per_write", "B"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.read_s", "s"),
    ("wal.replay_s", "s"),
    ("recovery_s", "s"),
    ("sched.flights_per_batch", "count"),
    ("sched.max_flight", "count"),
    ("sched.conflict_stalls_per_batch", "count"),
    ("sched.probes_per_read", "count"),
    ("controller.point_batch_us", "us"),
    ("controller.scan_batch_us", "us"),
    ("directory.bytes_per_entry", "B"),
    ("setup.rows_per_s", "rows/s"),
    ("net.messages_per_request", "count"),
    ("net.us_per_message", "us"),
    ("net.retries", "count"),
    ("net.reply_timeouts", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Nearest-rank percentile of raw samples (`q` in 0..=100). Sorting a
/// copy keeps the caller's order intact.
pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (VmHWM), in MB. Child processes
/// (TCP backends) are not included.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Equal wall-time windows a measured phase is cut into.
pub(crate) const WINDOWS: usize = 10;

/// The end-to-end figures of one measured phase. The phase is cut into
/// [`WINDOWS`] equal wall-time windows; each window gets its throughput
/// and its nearest-rank p50 and p99 over its raw latency samples, and
/// the reported figure is the median over the windows. A stall from
/// outside the process (a shared host's other tenants) then moves the
/// windows it lands in, not the figure: over the whole phase, a run
/// with 1 % of its ops stalled reads its p99 from the stalls. The
/// whole-phase figures are kept for the notes.
#[derive(Debug, Clone)]
pub(crate) struct Summary {
    throughput: f64,
    p50: f64,
    p99: f64,
    secs: f64,
    windows: Vec<Window>,
    whole: Window,
}

/// One window's (or the whole phase's) figures.
#[derive(Debug, Clone, Copy)]
struct Window {
    rate: f64,
    p50: f64,
    p99: f64,
    samples: usize,
}

impl Window {
    fn of(lat: &[f64], secs: f64) -> Window {
        Window {
            rate: ratio(lat.len() as f64, secs),
            p50: percentile(lat, 50.0),
            p99: percentile(lat, 99.0),
            samples: lat.len(),
        }
    }
}

/// Summarize a phase of `total_s` seconds from its ops' (completion
/// time since the phase started, latency in µs) samples.
pub(crate) fn summarize(samples: &[(f64, f64)], total_s: f64) -> Summary {
    let w = total_s / WINDOWS as f64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(end, lat) in samples {
        per[((end / w) as usize).min(WINDOWS - 1)].push(lat);
    }
    let windows: Vec<Window> = per.iter().map(|lat| Window::of(lat, w)).collect();
    // An empty window has a rate (0) but no percentiles.
    let filled: Vec<&Window> = windows.iter().filter(|x| x.samples > 0).collect();
    let lat: Vec<f64> = samples.iter().map(|&(_, l)| l).collect();
    Summary {
        throughput: median(&windows.iter().map(|x| x.rate).collect::<Vec<_>>()),
        p50: median(&filled.iter().map(|x| x.p50).collect::<Vec<_>>()),
        p99: median(&filled.iter().map(|x| x.p99).collect::<Vec<_>>()),
        secs: total_s,
        windows,
        whole: Window::of(&lat, total_s),
    }
}

impl Summary {
    pub(crate) fn record(&self, out: &mut Outcome, unit: &str) {
        out.set("throughput_ops_s", self.throughput);
        out.set("latency_p50_us", self.p50);
        out.set("latency_p99_us", self.p99);
        let col = |f: fn(&Window) -> f64| -> Vec<f64> { self.windows.iter().map(f).collect() };
        let counts: Vec<usize> = self.windows.iter().map(|x| x.samples).collect();
        out.note(format!(
            "{} ops of one {unit} in {:.2} s; {WINDOWS} windows of {:.2} s with {counts:?} samples",
            self.whole.samples,
            self.secs,
            self.secs / WINDOWS as f64
        ));
        out.note(format!(
            "median over windows: throughput {:.1} ops/s, latency p50 {:.1} us, p99 {:.1} us",
            self.throughput, self.p50, self.p99
        ));
        out.note(format!(
            "whole phase: throughput {:.1} ops/s, latency p50 {:.1} us (n = {}), p99 {:.1} us (n = {})",
            self.whole.rate, self.whole.p50, self.whole.samples, self.whole.p99, self.whole.samples
        ));
        out.note(format!("per window ops/s {:.1?}", col(|x| x.rate)));
        out.note(format!("per window p50 us {:.1?}", col(|x| x.p50)));
        out.note(format!("per window p99 us {:.1?}", col(|x| x.p99)));
    }
}

/// Ratio that reads 0 when the denominator is 0 (a layer the workload
/// never crossed).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output matched its oracle (and no op failed).
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// FNV-1a digest of every op's checked answer, in op order.
    pub answer_digest: u64,
    /// FNV-1a digest of the final state: the controller's logical
    /// digest, or (where concurrent clients interleave database keys)
    /// the sorted rows.
    pub state_digest: u64,
}

impl Outcome {
    pub(crate) fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fold in a second phase of the same run: its ops count toward
    /// `attempted` / `failed`, its notes follow under `label`, and its
    /// metrics fill only the names this outcome has not set.
    pub fn absorb(&mut self, label: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        for n in other.notes {
            self.notes.push(format!("{label}: {n}"));
        }
        for (k, v) in other.metrics {
            self.metrics.entry(k).or_insert(v);
        }
    }

    /// Print the notes, then the result line: every metric of the
    /// selected list (0 for a per-layer metric the workload never
    /// crossed).
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self.metrics.get(*name).copied().unwrap_or(0.0);
            if i > 0 {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Incremental FNV-1a, for answer and state digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub(crate) fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn of(text: &str) -> u64 {
        let mut h = Fnv::default();
        h.add(text.as_bytes());
        h.0
    }
}
