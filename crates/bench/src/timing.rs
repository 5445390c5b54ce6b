//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds offline, so the Criterion dependency was
//! replaced with this self-contained runner: each `[[bench]]` target is
//! a plain `fn main()` (the manifests set `harness = false`) that calls
//! [`bench`] per case. The runner warms the case up, then adaptively
//! picks an iteration count that fills a fixed measurement window and
//! reports mean ns/iter. It is deliberately simple — no outlier
//! rejection or statistics — but stable enough for the relative
//! comparisons (indexed vs scan, 1 vs N backends, one-step vs
//! per-transaction) the experiment write-ups rely on.

use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(250);

/// Time `f` and print `label: <mean> ns/iter (<iters> iters)`.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the measured work.
pub fn bench<T>(label: &str, mut f: impl FnMut() -> T) {
    // Warm-up: run until the warm-up window elapses, counting runs to
    // estimate a batch size for the measurement phase.
    let start = Instant::now();
    let mut warm_iters = 0u64;
    while start.elapsed() < WARMUP || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
        if warm_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = WARMUP.as_nanos().max(1) / u128::from(warm_iters.max(1));
    let target = (MEASURE.as_nanos() / per_iter.max(1)).clamp(1, 10_000_000) as u64;

    let start = Instant::now();
    for _ in 0..target {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() / u128::from(target);
    println!("{label}: {ns} ns/iter ({target} iters)");
}

/// Print a group header so related cases read as a block.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}
