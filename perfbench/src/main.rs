//! The repository benchmark's measuring program.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload against the simulator's public API, checks its
//! outputs, and prints human-readable lines followed by one JSON result
//! line. `perfbench/run.py` builds this program, adds the peak resident
//! memory it measures from outside, and is the command to run.
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` half the measuring time runs untraced and half traced (for
//! the tracing overhead), the per-layer metrics are reported, and the spans
//! are written to `perfbench/out/spans-<workload>.json`.

mod apps;
mod churn;
mod harness;
mod paper;
mod repl;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use harness::{Outcome, RunCfg};

const WORKLOADS: [&str; 4] = ["paper-apps", "serve-fleet", "repl-cluster", "gc-churn"];

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be in 1..=120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = match workload.as_str() {
        "paper-apps" => apps::run(&cfg),
        "serve-fleet" => serve::run(&cfg),
        "repl-cluster" => repl::run(&cfg),
        "gc-churn" => churn::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    if cfg.trace {
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}.json"));
        match trace::write_file(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                trace::span_count(),
                path.display()
            ),
            Err(e) => {
                out.check("span file written", false);
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    out.print(&workload, &cfg);
    ExitCode::SUCCESS
}
