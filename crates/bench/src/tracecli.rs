//! `spgemm trace`: run one SpGEMM with full telemetry on the virtual
//! device and print what the paper's analyses are built from — phase ×
//! kernel × stream tables, per-stream utilization, hash probe-length
//! histograms, per-group row populations and peak-memory attribution —
//! plus machine-readable exports (`--jsonl`, `--chrome-trace`).
//!
//! ```text
//! spgemm trace --dataset QCD --tiny
//! spgemm trace --dataset Protein --algorithm cusparse --jsonl run.jsonl --check
//! spgemm trace --matrix m.mtx --chrome-trace trace.json
//! ```
//!
//! The run is fully deterministic: identical arguments produce
//! byte-identical exports.

use crate::runargs::RunArgs;
use baselines::Algorithm;
use sparse::Scalar;
use vgpu::{Gpu, Phase, SimTime};

/// Parsed command line of the trace subcommand.
struct Args {
    run: RunArgs,
    jsonl: Option<String>,
    chrome_trace: Option<String>,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: spgemm trace (--dataset NAME | --matrix FILE.mtx) \
         [--algorithm proposal|cusparse|cusp|bhsparse] [--precision f32|f64] \
         [--device p100|v100|vega64] [--tiny] \
         [--estimator exact|sampled[:K]] [--policy hash|adaptive] \
         [--jsonl OUT.jsonl] [--chrome-trace OUT.json] [--check]\n\
         or:    spgemm trace --per-job [--jobs N] [--workers N] [--seed S] \
         [--dim N] [--patterns N] [--faults] [--precision f32|f64]\n\
         --per-job runs the seeded engine driver with job tracing and\n\
         prints a per-job stage table (queue-wait, plan cache, symbolic,\n\
         numeric, batched retries) plus p50/p90/p99 per stage.\n\
         datasets: {}",
        matgen::standard_datasets()
            .iter()
            .chain(matgen::large_datasets().iter())
            .map(|d| d.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args { run: RunArgs::new(usage), jsonl: None, chrome_trace: None, check: false };
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        if args.run.parse_flag(&flag, &mut it) {
            continue;
        }
        match flag.as_str() {
            "--jsonl" => args.jsonl = Some(it.next().unwrap_or_else(|| usage())),
            "--chrome-trace" => args.chrome_trace = Some(it.next().unwrap_or_else(|| usage())),
            "--check" => args.check = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    args.run.validate();
    args
}

/// Scaled ASCII bar for histogram rendering.
fn bar(count: u64, max: u64, width: usize) -> String {
    let n = if max == 0 { 0 } else { (count as usize * width).div_ceil(max as usize) };
    "#".repeat(n)
}

fn print_histogram(name: &str, h: &obs::Log2Histogram) {
    let nz = h.nonzero_buckets();
    if nz.is_empty() {
        return;
    }
    println!(
        "  {name}: n={} sum={} min={} max={} mean={:.2}",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.mean()
    );
    let peak = nz.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for (lower, count) in nz {
        println!("    >= {lower:>10}  {count:>10}  {}", bar(count, peak, 40));
    }
}

/// Execute the traced run and print every table. Returns the process
/// exit code (non-zero when `--check` finds invalid output).
pub fn run_trace(argv: &[String]) -> i32 {
    if argv.iter().any(|a| a == "--per-job") {
        return run_per_job(argv);
    }
    let args = parse_args(argv);
    if args.run.precision == "f64" {
        run::<f64>(&args)
    } else {
        run::<f32>(&args)
    }
}

/// Nearest-rank percentile over a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// `trace --per-job`: the seeded driver with job tracing, rendered as a
/// per-job stage table. Queue-wait and latency are wall-clock (vary run
/// to run); symbolic/numeric are simulated device time (deterministic).
fn run_per_job(argv: &[String]) -> i32 {
    let mut cfg = engine::DriverConfig { trace: true, ..engine::DriverConfig::default() };
    let mut precision = "f64".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--per-job" => {}
            "--jobs" => cfg.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--dim" => cfg.dim = value().parse().unwrap_or_else(|_| usage()),
            "--patterns" => cfg.patterns = value().parse().unwrap_or_else(|_| usage()),
            "--faults" => cfg.faults = true,
            "--precision" => precision = value().to_ascii_lowercase(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}' in --per-job mode");
                usage()
            }
        }
    }
    if cfg.jobs == 0 || cfg.dim < 2 {
        eprintln!("--jobs must be > 0 and --dim at least 2");
        usage();
    }
    match precision.as_str() {
        "f64" => per_job_report(&engine::run_driver::<f64>(&cfg), &cfg),
        "f32" => per_job_report(&engine::run_driver::<f32>(&cfg), &cfg),
        _ => {
            eprintln!("precision must be f32 or f64");
            usage()
        }
    }
}

fn per_job_report<T: Scalar>(rep: &engine::DriverReport<T>, cfg: &engine::DriverConfig) -> i32 {
    println!(
        "== per-job stages (seed {}, {} jobs, {} workers, faults {}) ==",
        cfg.seed,
        cfg.jobs,
        cfg.workers,
        if cfg.faults { "on" } else { "off" }
    );
    println!(
        "  {:>3} {:>8} {:>7} {:>14} {:>12} {:>12} {:>12} {:>8}",
        "job",
        "route",
        "cache",
        "queue-wait us",
        "latency us",
        "symbolic us",
        "numeric us",
        "retries"
    );
    for (i, r) in rep.records.iter().enumerate() {
        let route = match r.route {
            Some(engine::Route::Direct) => "direct",
            Some(engine::Route::Batched) => "batched",
            None => "failed",
        };
        let cache = match r.cache {
            Some(engine::CacheOutcome::Hit) => "hit",
            Some(engine::CacheOutcome::Miss) => "miss",
            Some(engine::CacheOutcome::Bypass) => "bypass",
            None => "-",
        };
        println!(
            "  {i:>3} {route:>8} {cache:>7} {:>14} {:>12} {:>12.1} {:>12.1} {:>8}",
            r.queue_wait_us, r.latency_us, r.symbolic_us, r.numeric_us, r.retries
        );
    }
    let stages: [(&str, Vec<f64>); 4] = [
        ("queue-wait us", rep.records.iter().map(|r| r.queue_wait_us as f64).collect()),
        ("latency us", rep.records.iter().map(|r| r.latency_us as f64).collect()),
        ("symbolic us", rep.records.iter().map(|r| r.symbolic_us).collect()),
        ("numeric us", rep.records.iter().map(|r| r.numeric_us).collect()),
    ];
    println!("\n  {:14} {:>12} {:>12} {:>12}", "stage", "p50", "p90", "p99");
    for (name, mut v) in stages {
        v.sort_by(f64::total_cmp);
        println!(
            "  {name:14} {:>12.1} {:>12.1} {:>12.1}",
            percentile(&v, 50.0),
            percentile(&v, 90.0),
            percentile(&v, 99.0)
        );
    }
    let retries: u32 = rep.records.iter().map(|r| r.retries).sum();
    println!(
        "\n  batched retries: {retries} total; {} of {} jobs failed",
        rep.failures,
        rep.records.len()
    );
    if let Some(t) = &rep.flight_trigger {
        println!("  flight trig  : {t}");
    }
    if rep.failures > 0 {
        1
    } else {
        0
    }
}

fn run<T: Scalar>(args: &Args) -> i32 {
    let run = &args.run;
    let a = run.load::<T>();
    if a.rows() != a.cols() {
        eprintln!("matrix must be square to compute A^2 ({}x{})", a.rows(), a.cols());
        return 1;
    }
    let mut gpu = Gpu::new(run.device_config());
    gpu.enable_telemetry();
    let (c, report) = match run.algorithm.run_with_opts::<T>(&mut gpu, &a, &a, &run.opts()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{} failed: {e}", run.algorithm.name());
            return 1;
        }
    };

    println!("== run ==");
    println!("device      : {}", gpu.config().name);
    println!("algorithm   : {} ({})", run.algorithm.name(), report.precision);
    if run.algorithm == Algorithm::Proposal {
        println!("planner     : {} estimator, {} policy", run.estimator, run.policy);
    }
    println!("matrix      : {} rows, {} nnz", a.rows(), a.nnz());
    println!("output nnz  : {}", c.nnz());
    println!("kernel time : {}", report.total_time);
    println!("performance : {:.3} GFLOPS", report.gflops());
    println!("peak memory : {:.1} MB", report.peak_mem_bytes as f64 / (1 << 20) as f64);
    println!("hash probes : {}", report.hash_probes);

    println!("\n== phases ==");
    for (phase, t) in &report.phase_times {
        if *phase != Phase::Other && t.secs() > 0.0 {
            println!(
                "  {:10} {:>14}  {:5.1}%",
                phase.label(),
                t.to_string(),
                100.0 * report.phase_fraction(*phase)
            );
        }
    }

    println!("\n== kernels (phase x kernel x stream) ==");
    println!(
        "  {:10} {:24} {:>6} {:>8} {:>8} {:>14}",
        "phase", "kernel", "stream", "launches", "blocks", "time"
    );
    for k in gpu.profiler().kernel_table() {
        println!(
            "  {:10} {:24} {:>6} {:>8} {:>8} {:>14}",
            k.phase.label(),
            k.name,
            k.stream,
            k.launches,
            k.blocks,
            k.time.to_string()
        );
    }

    println!("\n== streams ==");
    let wall = match gpu.profiler().wall_span() {
        Some((t0, t1)) => t1 - t0,
        None => SimTime::ZERO,
    };
    println!("  {:>6} {:>8} {:>14} {:>6}", "stream", "kernels", "busy", "util");
    for s in gpu.profiler().stream_utilization() {
        println!(
            "  {:>6} {:>8} {:>14} {:>5.1}%",
            s.stream,
            s.kernels,
            s.busy.to_string(),
            100.0 * s.utilization(wall)
        );
    }

    let summary = gpu.telemetry_summary().expect("telemetry enabled");
    println!("\n== group populations ==");
    println!("  {:24} {:>10}", "group", "rows");
    for (name, v) in &summary.counters {
        if name.ends_with(".rows") {
            println!("  {:24} {:>10}", name.trim_end_matches(".rows"), v);
        }
    }

    println!("\n== histograms ==");
    for (name, h) in &summary.hists {
        if name.ends_with(".probe_len") || name.ends_with(".row_metric") {
            print_histogram(name, h);
        }
    }

    println!("\n== peak memory attribution ==");
    let peak_holders: Vec<(String, u64)> = gpu.memory().peak_breakdown().to_vec();
    for (tag, bytes) in &peak_holders {
        println!(
            "  {:24} {:>14} B  {:5.1}%",
            tag,
            bytes,
            100.0 * *bytes as f64 / report.peak_mem_bytes.max(1) as f64
        );
    }
    if let Some(t) = gpu.telemetry_mut() {
        for (tag, bytes) in &peak_holders {
            t.emit(obs::Event::new("peak_holder").str("tag", tag).u64("bytes", *bytes));
        }
    }

    // Exports (deterministic: identical runs produce identical bytes).
    let mut ok = true;
    let jsonl = gpu.telemetry().expect("telemetry enabled").to_jsonl();
    let chrome = gpu.profiler().chrome_trace();
    if args.check {
        for (what, text) in [("jsonl", &jsonl), ("chrome-trace", &chrome)] {
            let result = if what == "jsonl" {
                jsonl.lines().try_for_each(obs::json::validate)
            } else {
                obs::json::validate(text)
            };
            match result {
                Ok(()) => println!("check {what}: ok"),
                Err(pos) => {
                    eprintln!("check {what}: INVALID JSON at byte {pos}");
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = &args.jsonl {
        std::fs::write(path, &jsonl).expect("write jsonl");
        println!("jsonl       : {path} ({} events)", jsonl.lines().count());
    }
    if let Some(path) = &args.chrome_trace {
        std::fs::write(path, &chrome).expect("write chrome trace");
        println!("chrome trace: {path} (open at chrome://tracing or ui.perfetto.dev)");
    }
    if ok {
        0
    } else {
        1
    }
}
