//! `amcbench`: the repository benchmark.
//!
//! ```text
//! amcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run record line, then, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! Scratch files (WAL directories, server logs, records, traces) go under
//! `.amcbench/` in the working directory. See `amcbench/README.md`.

mod check;
mod live;
mod ops;
mod replay;
mod report;
mod run;
mod sched;
mod server;
mod spec;

use std::process::ExitCode;

struct Args {
    workload: spec::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = spec::workload(&name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: not a number: {v:?}"))
    };
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: amcbench serve <deployment.toml>");
            return ExitCode::from(2);
        };
        return match server::serve(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("amcbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amcbench: {e}");
            eprintln!("usage: amcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("amcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
