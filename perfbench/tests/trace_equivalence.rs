//! Tracing is observation only: for every workload (and the front-door
//! phase of `lang_university`'s traced run), a traced run and an
//! untraced run of the same seed and op count give identical answers
//! and identical final state. Also pins `BENCHMARK.json` to the names
//! the benchmark prints.
//!
//! The span buffer and the recording flag are process-wide, so the
//! tests take one lock and run one at a time.

use perfbench::{batch, lang, report, sessions, Outcome, Stop};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn same(untraced: Outcome, traced: Outcome) {
    for (which, o) in [("untraced", &untraced), ("traced", &traced)] {
        assert!(
            o.correct && o.failed == 0,
            "{which} run failed its oracle: {:#?}",
            o.notes
        );
    }
    assert_eq!(
        untraced.attempted, traced.attempted,
        "both runs execute the same ops"
    );
    assert_eq!(
        untraced.answer_digest, traced.answer_digest,
        "answers differ under tracing"
    );
    assert_eq!(
        untraced.state_digest, traced.state_digest,
        "final state differs under tracing"
    );
    assert!(
        traced
            .metrics
            .get("trace.overhead_ratio")
            .is_some_and(|r| *r > 0.0),
        "the traced run alternated recording on and off: {:#?}",
        traced.notes
    );
}

#[test]
fn lang_university_tracing_preserves_answers_and_state() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = lang::Config::small();
    let a = lang::run(&cfg, 7, Stop::Ops(400), false).unwrap();
    let b = lang::run(&cfg, 7, Stop::Ops(400), true).unwrap();
    assert!(
        b.metrics.get("codasyl.stmt_us").is_some_and(|v| *v > 0.0),
        "{:#?}",
        b.notes
    );
    same(a, b);
}

/// The front-door phase of `lang_university`'s traced run.
#[test]
fn front_door_tracing_preserves_answers_and_state() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = sessions::Config::small();
    let a = sessions::run(&cfg, 7, Stop::Ops(600), false).unwrap();
    let b = sessions::run(&cfg, 7, Stop::Ops(600), true).unwrap();
    same(a, b);
}

#[test]
fn batch_in_process_tracing_preserves_answers_and_state() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = batch::Config::in_process(20_000);
    let a = batch::run(&cfg, 7, Stop::Ops(200), false).unwrap();
    let b = batch::run(&cfg, 7, Stop::Ops(200), true).unwrap();
    // The scheduler's counts are exact for a single client.
    for m in [
        "sched.flights_per_batch",
        "sched.max_flight",
        "sched.conflict_stalls_per_batch",
        "sched.probes_per_read",
    ] {
        assert_eq!(
            a.metrics.get(m),
            b.metrics.get(m),
            "{m} differs between runs"
        );
    }
    same(a, b);
}

#[test]
fn batch_tcp_tracing_preserves_answers_and_state() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = batch::Config::tcp(2_000);
    cfg.setup_repeats = 1;
    let a = batch::run(&cfg, 7, Stop::Ops(100), false).unwrap();
    let b = batch::run(&cfg, 7, Stop::Ops(100), true).unwrap();
    assert_eq!(b.metrics.get("net.retries"), Some(&0.0));
    assert_eq!(b.metrics.get("net.reply_timeouts"), Some(&0.0));
    same(a, b);
}

#[test]
fn benchmark_json_names_what_the_benchmark_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = perfbench::WORKLOADS
        .iter()
        .copied()
        .chain(report::END_TO_END.iter().map(|(n, _)| *n))
        .chain(report::PER_LAYER.iter().map(|(n, _)| *n))
        .collect();
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks `{name}`"
        );
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json lists names the benchmark does not print"
    );
    for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json gives `{name}` another unit than `{unit}`"
        );
    }
}
