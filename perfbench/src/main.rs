//! The Lynx regression benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_hotkey --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets up and drives one workload (see `rigs.rs`) and prints a
//! human-readable report followed, on the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (the modelled server in simulated time,
//! the simulator in host time); with `--trace 1` they are the per-layer
//! ones of a traced run. A run whose ledger does not balance exits
//! non-zero without a result.

mod alloc;
mod calib;
mod capacity;
mod gen;
mod loads;
mod report;
mod rigs;
mod stats;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Environment variables that would change what a run simulates: the
/// scheduler and thread-count overrides `Sim::new`/`SimConfig` read, and
/// the short-run knobs of the figure harnesses.
fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            k == lynx_sim::ENV_SCHED
                || k == lynx_sim::ENV_THREADS
                || (k.starts_with("LYNX_") && k.ends_with("SMOKE"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bad = forbidden_env();
    if !bad.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", bad.join(", "));
        return ExitCode::from(2);
    }
    let Some(spec) = rigs::Spec::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match report::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
