//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced). Exits nonzero on a
//! bad argument, a run that could not complete, or any output that
//! failed its oracle.

use perfbench::Stop;

fn main() {
    // Each workload chooses its transport explicitly.
    std::env::remove_var("MBDS_TRANSPORT");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    println!(
        "workload {workload}, seed {seed}, {seconds} s, trace {}",
        trace as u8
    );
    match perfbench::run(&workload, seed, Stop::Seconds(seconds), trace) {
        Ok(out) => {
            out.print(trace);
            if !out.correct || out.failed > 0 {
                eprintln!(
                    "perfbench: {} of {} ops failed their oracle",
                    out.failed, out.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    std::process::exit(2);
}
