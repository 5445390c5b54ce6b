//! `mbds-model` — offline driver for the explicit-state model checker
//! (`mbds::model`): the failover, flight and rebalance models.
//!
//! CI runs the bounded configurations through `tests/model_check.rs`
//! and `--sweep`; the sizing flags exist for deeper failover sweeps on
//! a workstation:
//!
//! ```sh
//! # the failover model's CI configuration, exhaustively:
//! cargo run --release -p mlds-core --bin mbds-model
//! # deeper / wider:
//! cargo run --release -p mlds-core --bin mbds-model -- --depth 16 --writes 5
//! # one intentionally broken protocol variant of any model (prints its counterexample):
//! cargo run --release -p mlds-core --bin mbds-model -- --mutation skip-fence-raise
//! # the full verification matrix (every protocol must hold, every mutation must fail):
//! cargo run --release -p mlds-core --bin mbds-model -- --sweep
//! ```
//!
//! `--mutation NAME` finds NAME in whichever model's catalogue holds
//! it; `none` and the sizing flags mean the failover model. Exit status
//! is 0 when every run meets its expectation (the shipped protocol
//! holds and reaches its coverage facts, a mutation is caught) and 1
//! otherwise. `--trace-out PATH` writes the runs that missed, each
//! tagged with its model and mutation, for CI to upload as an
//! artifact; it is left empty when none missed.

use mbds::model::flight::FlightConfig;
use mbds::model::rebalance::RebalanceConfig;
use mbds::model::{check, Model, ModelConfig};
use std::process::ExitCode;

fn usage() -> ! {
    let names: Vec<&str> = (ModelConfig::MUTATIONS.iter().map(|m| m.1))
        .chain(FlightConfig::MUTATIONS.iter().map(|m| m.1))
        .chain(RebalanceConfig::MUTATIONS.iter().map(|m| m.1))
        .collect();
    eprintln!(
        "usage: mbds-model [--depth N] [--writes N] [--backends N] [--crashes N] \
         [--snapshots N] [--max-states N] [--mutation NAME] [--sweep] [--trace-out PATH]\n\
         mutations: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

/// Check `cfg` and print its summary line, and its counterexample when
/// `show_trace`. A run that misses its expectation is reported and
/// logged onto `missed`, tagged with its model and mutation.
fn run<M: Model>(cfg: M, show_trace: bool, missed: &mut String) {
    let report = check(&cfg);
    println!("{}", report.summary());
    let trace = report.counterexample.as_ref().map_or(String::new(), |ce| ce.render());
    if report.as_expected() {
        if show_trace {
            print!("{trace}");
        }
        return;
    }
    let record = format!(
        "model={} mutation={}: missed its expectation\n{}\n{trace}",
        M::NAME,
        cfg.mutation_name(),
        report.summary()
    );
    eprint!("FAIL: {record}");
    missed.push_str(&record);
}

/// Run `base` with the mutation called `name`, if its catalogue holds it.
fn run_named<M: Model>(base: M, name: &str, missed: &mut String) -> bool {
    base.named(name).map(|cfg| run(cfg, true, missed)).is_some()
}

/// Run `base`, the shipped protocol, and every mutation in its catalogue.
fn run_catalogue<M: Model>(base: M, missed: &mut String) {
    run(base, false, missed);
    for &(mutation, _) in M::MUTATIONS {
        run(base.mutated(mutation), false, missed);
    }
}

fn main() -> ExitCode {
    let mut cfg = ModelConfig::small();
    let mut mutation: Option<String> = None;
    let mut sweep = false;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> u32 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--depth" => cfg.depth = num(&mut args),
            "--writes" => cfg.writes = num(&mut args).min(16) as u8,
            "--backends" => cfg.backends = num(&mut args).min(8) as u8,
            "--crashes" => cfg.max_crashes = num(&mut args) as u8,
            "--snapshots" => cfg.max_snapshots = num(&mut args) as u8,
            "--max-states" => cfg.max_states = num(&mut args) as usize,
            "--mutation" => mutation = Some(args.next().unwrap_or_else(|| usage())),
            "--sweep" => sweep = true,
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let mut missed = String::new();
    match mutation.as_deref() {
        _ if sweep => {
            run_catalogue(cfg, &mut missed);
            run_catalogue(FlightConfig::small(), &mut missed);
            run_catalogue(RebalanceConfig::small(), &mut missed);
        }
        None => run(cfg, true, &mut missed),
        Some(name) => {
            let found = run_named(cfg, name, &mut missed)
                || run_named(FlightConfig::small(), name, &mut missed)
                || run_named(RebalanceConfig::small(), name, &mut missed);
            if !found {
                eprintln!("unknown mutation `{name}`");
                usage();
            }
        }
    }
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, &missed) {
            eprintln!("could not write {path}: {e}");
        }
    }
    if missed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
