//! Kernel-equivalence: the multi-backend kernel (the controller over
//! threads, processes or simulated backends) must be observationally
//! identical to the single store for any request stream. Complements the per-crate unit
//! tests with a randomized sweep.

use mlds::abdl::{Kernel, Record, Request, Store, Value};
use mlds::mbds::{Controller, CostModel};

/// A controller over `n` simulated backends (k = 2, clamped to `n`).
fn simulated(n: usize) -> Controller {
    Controller::simulated(n, 2.min(n), CostModel::default())
}

/// A deterministic pseudo-random request stream (no external RNG needed;
/// a simple LCG keeps the test reproducible).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_workload(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = Lcg(seed);
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let kind = rng.below(10);
        let file = if rng.below(2) == 0 { "alpha" } else { "beta" };
        let v = rng.below(20) as i64;
        let req = match kind {
            0..=4 => Request::Insert {
                record: Record::from_pairs([("FILE", Value::str(file))])
                    .with(file.to_owned(), Value::Int(i as i64))
                    .with("v", Value::Int(v))
                    .with("w", Value::Int((v * 7) % 13)),
            },
            5 | 6 => mlds::abdl::parse::parse_request(&format!(
                "RETRIEVE ((FILE = {file}) and (v >= {v})) (*)"
            ))
            .unwrap(),
            7 => mlds::abdl::parse::parse_request(&format!(
                "UPDATE ((FILE = {file}) and (v = {v})) (w = {})",
                rng.below(13)
            ))
            .unwrap(),
            8 => mlds::abdl::parse::parse_request(&format!(
                "DELETE ((FILE = {file}) and (w = {}))",
                rng.below(13)
            ))
            .unwrap(),
            _ => mlds::abdl::parse::parse_request(&format!(
                "RETRIEVE (FILE = {file}) (COUNT(v), AVG(v), MIN(w), MAX(w)) BY w"
            ))
            .unwrap(),
        };
        out.push(req);
    }
    out
}

fn observe<K: Kernel>(kernel: &mut K, workload: &[Request]) -> Vec<String> {
    let mut log = Vec::with_capacity(workload.len());
    kernel.create_file("alpha");
    kernel.create_file("beta");
    for req in workload {
        match kernel.execute(req) {
            Ok(resp) => {
                // Observe record payloads without database keys: key
                // assignment order differs between kernels (controller
                // keys interleave with placement), so compare contents.
                let mut rows: Vec<String> =
                    resp.records().iter().map(|(_, r)| r.to_string()).collect();
                rows.sort();
                log.push(format!(
                    "ok affected={} rows={:?} groups={:?}",
                    resp.affected, rows, resp.groups
                ));
            }
            Err(e) => log.push(format!("err {e}")),
        }
    }
    log
}

#[test]
fn controller_matches_store_on_random_workloads() {
    for seed in [1u64, 42, 1987] {
        let workload = random_workload(seed, 150);
        let mut single = Store::new();
        let a = observe(&mut single, &workload);
        let mut multi = Controller::new(3);
        let b = observe(&mut multi, &workload);
        assert_eq!(a, b, "controller diverged from single store (seed {seed})");
    }
}

#[test]
fn sim_cluster_matches_store_on_random_workloads() {
    for seed in [7u64, 99, 2026] {
        let workload = random_workload(seed, 150);
        let mut single = Store::new();
        let a = observe(&mut single, &workload);
        let mut sim = simulated(5);
        let b = observe(&mut sim, &workload);
        assert_eq!(a, b, "sim cluster diverged from single store (seed {seed})");
    }
}

#[test]
fn backend_count_does_not_change_results() {
    let workload = random_workload(1234, 120);
    let mut base = simulated(1);
    let a = observe(&mut base, &workload);
    for n in [2usize, 3, 8, 16] {
        let mut sim = simulated(n);
        let b = observe(&mut sim, &workload);
        assert_eq!(a, b, "results changed with {n} backends");
    }
}
