//! The experiment harness binary: regenerates every table and figure of
//! the thesis (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! paper-vs-measured).
//!
//! ```sh
//! cargo run --release -p mlds-bench --bin experiments          # all
//! cargo run --release -p mlds-bench --bin experiments -- e7 e8 # subset
//! ```

use mlds_bench::{run_experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in selected {
        let Some((_, desc)) = EXPERIMENTS.iter().find(|(eid, _)| *eid == id) else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(eid, _)| *eid).collect();
            eprintln!("unknown experiment `{id}`; known: {}", known.join(", "));
            std::process::exit(1);
        };
        println!("============================================================");
        println!("{} — {desc}", id.to_uppercase());
        println!("============================================================");
        match run_experiment(id) {
            Some(out) => println!("{out}"),
            None => eprintln!("experiment `{id}` failed to run"),
        }
    }
}
