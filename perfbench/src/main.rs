//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! perfbench --workload fem_square|graph_square|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics, traced runs
//! (`--trace 1`) the per-layer ones; both check every product and end
//! with one JSON result line. See `README.md` beside this crate.

mod check;
mod layers;
mod reference;
mod report;
mod serve;
mod squares;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload fem_square|graph_square|serve_mixed --seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected a value in (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Write the traced run's spans next to the executable, inside the
/// build directory.
pub fn write_spans(tr: &trace::Tracer, args: &Args) {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-spans")))
        .unwrap_or_else(|| "perfbench-spans".into());
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::new(args.trace);
    let res = match args.workload.as_str() {
        "fem_square" => squares::run(&squares::FEM, &args, &mut rep),
        "graph_square" => squares::run(&squares::GRAPH, &args, &mut rep),
        "serve_mixed" => serve::run(&args, &mut rep),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    if let Err(e) = res {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if rep.finish() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fem_square --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fem_square", 7, 10.0, true)
        );
        assert!(args("--workload fem_square --seed 7 --seconds 10").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
    }
}
