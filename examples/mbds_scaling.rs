//! The MBDS performance claims (§I.B.2), printed as response-time
//! tables from a controller over simulated backends — experiments E7/E8 in
//! miniature (the full sweeps live in the `mlds-bench` experiment
//! harness).
//!
//! ```sh
//! cargo run --release --example mbds_scaling
//! ```

use mlds::abdl::{Kernel, Record, Request, Value};
use mlds::mbds::{Controller, CostModel};

const DB_SIZE: usize = 40_000;
const SELECT: i64 = 4_000;

/// An unreplicated controller over `n` simulated backends, loaded with
/// `records` records, its clock reset.
fn loaded(n: usize, records: usize) -> Controller {
    let mut cluster = Controller::simulated(n, 1, CostModel::default());
    cluster.create_file("f");
    for i in 0..records {
        let rec = Record::from_pairs([("FILE", Value::str("f"))])
            .with("f", Value::Int(i as i64))
            .with("payload", Value::Int((i * 37 % 1000) as i64));
        cluster.execute(&Request::Insert { record: rec }).unwrap();
    }
    cluster.clock().unwrap().reset();
    cluster
}

fn retrieval(limit: i64) -> Request {
    mlds::abdl::parse::parse_request(&format!("RETRIEVE ((FILE = f) and (f < {limit})) (*)"))
        .unwrap()
}

fn main() {
    println!("Claim 1 — fixed database ({DB_SIZE} records), growing backends:");
    println!("{:>9} {:>18} {:>9} {:>11}", "backends", "response (ms)", "speedup", "ideal");
    let mut base = None;
    for n in [1usize, 2, 4, 6, 8, 12, 16] {
        let mut cluster = loaded(n, DB_SIZE);
        cluster.execute(&retrieval(SELECT)).unwrap();
        let ms = cluster.clock().unwrap().last_response_us() / 1000.0;
        let base_ms = *base.get_or_insert(ms);
        println!("{n:>9} {ms:>18.1} {:>8.2}x {:>10}x", base_ms / ms, n);
    }

    println!("\nClaim 2 — database grows with the backends ({} records each):", DB_SIZE / 8);
    println!("{:>9} {:>10} {:>18} {:>10}", "backends", "records", "response (ms)", "ratio");
    let mut base = None;
    for n in [1usize, 2, 4, 6, 8, 12, 16] {
        let per_backend = DB_SIZE / 8;
        let mut cluster = loaded(n, per_backend * n);
        cluster.execute(&retrieval((SELECT / 8) * n as i64)).unwrap();
        let ms = cluster.clock().unwrap().last_response_us() / 1000.0;
        let base_ms = *base.get_or_insert(ms);
        println!("{n:>9} {:>10} {ms:>18.1} {:>10.3}", per_backend * n, ms / base_ms);
    }

    println!(
        "\n(Deterministic cost model: 30 ms/block disk, 2 ms bus message, 0.2 ms/record merge; \
         the threaded controller is benchmarked separately by `cargo bench`.)"
    );
}
