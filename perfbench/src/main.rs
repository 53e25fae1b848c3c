//! The stc benchmark: four seeded closed-loop workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --stc <path>
//! ```
//!
//! Prints one run record (seed, host, sample counts) and, as the last line,
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/run.py` builds the binaries and supplies `--stc`.

mod host;
mod library;
mod metrics;
mod rng;
mod serve;
mod speed;
mod stats;

use metrics::Outcome;
use stc::pipeline::Json;
use std::process::{Command, ExitCode};

/// Set-up is repeated this many times per run (in fresh processes) and
/// reported as the median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    stc: String,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        stc: String::new(),
        setup_probe: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--stc" => args.stc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Times the set-up of a library workload in `SETUPS - 1` fresh processes
/// (the suite and generated machines are built once per process).  Each
/// probe prints its set-up time at the reference speed and its wall time.
fn probe_setups(args: &Args) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (1..SETUPS)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", &args.workload])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let mut times = text.split_whitespace().map(str::parse::<f64>);
            match (times.next(), times.next()) {
                (Some(Ok(setup_s)), Some(Ok(wall))) => Ok((setup_s, wall)),
                _ => Err("set-up probe printed no time".to_string()),
            }
        })
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.workload == "serve_mixed" {
        return serve::run(&args.stc, args.seed, args.seconds, args.traced, SETUPS);
    }
    let mut setups = if args.traced {
        Vec::new()
    } else {
        probe_setups(args)?
    };
    let (workload, wall, setup_s) = speed::timed(|| library::set_up(&args.workload));
    let workload = workload.ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    setups.push((setup_s, wall));
    let mut outcome = library::run(&workload, args.seed, args.seconds, args.traced);
    if !args.traced {
        let (setup_s, wall): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
        outcome.metrics.set("setup_s", stats::median(&setup_s));
        outcome.wall("setup_s", stats::median(&wall));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let (workload, wall, setup_s) = speed::timed(|| library::set_up(&args.workload));
        if workload.is_none() {
            return ExitCode::from(2);
        }
        println!("{setup_s} {wall}");
        return ExitCode::SUCCESS;
    }
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut record = vec![
        ("workload".to_string(), Json::String(args.workload.clone())),
        ("seed".into(), Json::from_u64(args.seed)),
        ("seconds".into(), Json::Number(args.seconds)),
        ("trace".into(), Json::Bool(args.traced)),
        ("host".into(), host::host_json()),
    ];
    let line = outcome.result_line(args.traced);
    record.extend(outcome.details);
    println!(
        "{}",
        Json::Object(vec![("run".into(), Json::Object(record))]).to_compact()
    );
    println!("{line}");
    ExitCode::SUCCESS
}
