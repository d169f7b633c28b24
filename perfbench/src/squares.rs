//! `fem_square` and `graph_square`: one seeded matrix squared again and
//! again on the host backend (one thread) and on the sim backend.
//!
//! The two inputs sit at opposite ends of the compression ratio
//! (intermediate products per output non-zero): the banded FEM-class
//! matrix has long rows that share columns (~25x, hash accumulation
//! dominates), the uniform Economics-class matrix has short rows that
//! barely share any (~1.1x, output assembly dominates).

use crate::check::{bitwise_eq, matches_reference, SimExact};
use crate::layers::{put_sim_exact, Input, Layers};
use crate::reference::RefClock;
use crate::report::{peak_rss_mib, Report, MIB};
use crate::serve::{closed_loop, put_engine_layers, JobKind};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::Args;
use engine::EngineConfig;
use nsparse_core::{
    estimate_memory, Backend, Executor, HostParallelExecutor, Options, SimExecutor,
};
use sparse::spgemm_ref::{spgemm_gustavson, total_intermediate_products};
use sparse::Csr;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vgpu::{DeviceConfig, Gpu};

pub struct Square {
    make: fn(u64) -> Csr<f64>,
    /// Nominal time of the reference kernel on this input: its typical
    /// time in the calibration runs, rounded. Wall metrics are
    /// reported at the speed where the reference takes this long.
    reference_ms: f64,
}

/// Protein class: 3000 rows, 119.3 nnz/row (max 204), bandwidth 300.
pub const FEM: Square = Square {
    make: |seed| matgen::generators::banded(3000, 119.3, 204, 300, seed),
    reference_ms: 110.0,
};

/// Economics class: 206,500 rows, 6.2 nnz/row (max 44), uniform columns.
pub const GRAPH: Square = Square {
    make: |seed| matgen::generators::random_uniform(206_500, 6.2, 44, seed),
    reference_ms: 390.0,
};

/// Timed set-ups per untraced run, after the one that makes the
/// fixture; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Host multiplies per sim multiply in the untraced loop.
const HOST_PER_SIM: usize = 2;
/// Samples the untraced loop takes at least, however long they take.
const MIN_HOST: usize = 10;
const MIN_SIM: usize = 5;
/// Layer rounds the traced run takes at least.
const MIN_ROUNDS: usize = 3;

fn es(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Fixture {
    a: Arc<Csr<f64>>,
    /// The sim product, checked against Gustavson and the host product.
    reference: Csr<f64>,
    exact: SimExact,
    products: u64,
}

impl Fixture {
    fn input(&self) -> Input<'_> {
        Input { key: 0, a: &self.a, reference: &self.reference, products: self.products }
    }
}

/// Generate the input, compute the references and warm both backends up.
fn setup(sq: &Square, seed: u64, rep: &mut Report) -> Result<Fixture, String> {
    let a = (sq.make)(seed);
    let opts = Options::default();
    let gus = spgemm_gustavson(&a, &a).map_err(es)?;
    let mut gpu = Gpu::new(DeviceConfig::p100());
    let sim = SimExecutor::new(&mut gpu).multiply(&a, &a, &opts).map_err(es)?;
    rep.op(matches_reference(&sim.matrix, &gus, "sim product vs gustavson"));
    let exact = SimExact::of(&sim.report, "sim reference")?;
    let host = HostParallelExecutor::new(1).multiply(&a, &a, &opts).map_err(es)?;
    rep.op(bitwise_eq(&host.matrix, &sim.matrix, "host product vs sim product"));
    Ok(Fixture {
        a: Arc::new(a),
        reference: sim.matrix,
        exact,
        products: sim.report.intermediate_products,
    })
}

pub fn run(sq: &Square, args: &Args, rep: &mut Report) -> Result<(), String> {
    let fx = setup(sq, args.seed, rep)?;
    if args.trace {
        return traced(&fx, args, rep);
    }
    let mut clock = RefClock::new(&[(&fx.a, &fx.reference)], sq.reference_ms);
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let f = setup(sq, args.seed, rep)?;
        let s = t.elapsed().as_secs_f64();
        if fx.a != f.a {
            rep.error("the input differs between set-ups of one seed".into());
        }
        if let Err(e) = fx.exact.same(&f.exact, "sim reference across set-ups") {
            rep.error(e);
        }
        drop(f);
        raw.push(s);
        scaled.push(s * clock.tick());
    }
    rep.put(
        "setup_s",
        median(&scaled),
        format!(
            "median of {SETUP_REPS} set-ups (generate, gustavson + sim references, host warm-up) {}: raw median {:.6} s",
            clock.describe(0),
            median(&raw)
        ),
    );
    untraced(&fx, args, clock, rep)
}

/// Wall samples, raw and at reference speed, both in ms.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

fn untraced(
    fx: &Fixture,
    args: &Args,
    mut clock: RefClock,
    rep: &mut Report,
) -> Result<(), String> {
    let a = &*fx.a;
    let opts = Options::default();
    let mut host = HostParallelExecutor::new(1);
    let (mut hs, mut ss) = (Samples::default(), Samples::default());
    let first = clock.factors.len();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || hs.raw.len() < MIN_HOST
        || ss.raw.len() < MIN_SIM
    {
        let mut round = Vec::with_capacity(HOST_PER_SIM);
        for _ in 0..HOST_PER_SIM {
            let t = Instant::now();
            let run = host.multiply(black_box(a), black_box(a), &opts);
            round.push(t.elapsed().as_secs_f64() * 1e3);
            rep.op(run
                .map_err(es)
                .and_then(|r| bitwise_eq(&r.matrix, &fx.reference, "host multiply")));
        }
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut sim = SimExecutor::new(&mut gpu);
        let t = Instant::now();
        let run = sim.multiply(black_box(a), black_box(a), &opts);
        let sim_ms = t.elapsed().as_secs_f64() * 1e3;
        rep.op(run.map_err(es).and_then(|r| {
            bitwise_eq(&r.matrix, &fx.reference, "sim multiply")?;
            fx.exact.same(&SimExact::of(&r.report, "sim multiply")?, "sim multiply vs warm-up")
        }));
        let f = clock.tick();
        hs.scaled.extend(round.iter().map(|ms| ms * f));
        hs.raw.extend(round);
        ss.raw.push(sim_ms);
        ss.scaled.push(sim_ms * f);
    }
    clock.flush(rep);
    let (nh, ns) = (hs.raw.len(), ss.raw.len());
    let base = clock.describe(first);
    let time = |rep: &mut Report, name, s: &Samples, what: String| {
        let raw = median(&s.raw);
        rep.put(name, median(&s.scaled), format!("{what} {base}: raw {raw:.6} ms"));
    };
    let host_s = hs.scaled.iter().sum::<f64>() / 1e3;
    let raw_host_s = hs.raw.iter().sum::<f64>() / 1e3;
    rep.put("peak_rss_mb", peak_rss_mib()?, "VmHWM");
    time(rep, "multiply_ms_p50", &hs, format!("host:1, median of {nh}"));
    let mprod = |s: f64| fx.products as f64 * nh as f64 / s / 1e6;
    rep.put(
        "mprod_per_s",
        mprod(host_s),
        format!(
            "{} products x {nh} multiplies / {host_s:.3} s host wall {base}: raw {:.6} Mprod/s",
            fx.products,
            mprod(raw_host_s)
        ),
    );
    time(rep, "sim_multiply_ms_p50", &ss, format!("host wall per sim multiply, median of {ns}"));
    rep.put("sim_kernel_us", fx.exact.total_us(), "exact, simulated P100");
    rep.put(
        "sim_peak_mem_mb",
        fx.exact.peak_mem_bytes as f64 / MIB,
        "exact, simulated device peak",
    );
    // Each host multiply is one job of a single closed-loop client.
    rep.put(
        "jobs_per_s",
        nh as f64 / host_s,
        format!(
            "host:1 multiplies per second, {nh} jobs {base}: raw {:.6}",
            nh as f64 / raw_host_s
        ),
    );
    time(rep, "job_latency_ms_p50", &hs, format!("host:1 multiply, median of {nh}"));
    // The tail rule, but never below the median: with under twenty
    // samples no percentile above it has ten samples beyond it.
    let (raw_tail, scaled_tail) = (tail(&hs.raw), tail(&hs.scaled));
    match (raw_tail, scaled_tail) {
        (Some(r), Some(t)) if t.pct >= 50.0 => rep.put(
            "job_latency_ms_p99",
            t.value,
            format!(
                "p{:.1} of {nh}: highest percentile with {} beyond {base}: raw {:.6} ms",
                t.pct, t.beyond, r.value
            ),
        ),
        _ => time(
            rep,
            "job_latency_ms_p99",
            &hs,
            format!("median: {nh} samples leave no percentile above it with ten beyond"),
        ),
    }
    Ok(())
}

fn traced(fx: &Fixture, args: &Args, rep: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut layers = Layers::new();
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed().as_secs_f64() < args.seconds || rounds < MIN_ROUNDS {
        layers.round(&mut tr, rep, &fx.input());
        rounds += 1;
    }
    // Half the forecast splits the multiply into batches.
    let a = &*fx.a;
    let forecast = estimate_memory(a, a).map_err(es)?.upper_bound();
    layers.batched_pair(&mut tr, rep, &fx.input(), forecast / 2);
    layers.report(&tr, rep);
    put_sim_exact(&[&fx.exact], rep);

    // The engine on this input: the top half of the rows twice (a cache
    // miss, then a hit) and the whole square once, over a budget that
    // admits the half and sends the whole to the batched route.
    let half = 0..a.rows() / 2;
    let half_ref = fx.reference.try_slice_rows(half.clone()).map_err(es)?;
    let top = a.try_slice_rows(half.clone()).map_err(es)?;
    let half_forecast = estimate_memory(&top, a).map_err(es)?.upper_bound();
    let half_products = total_intermediate_products(&top, a).map_err(es)?;
    let budget = half_forecast / 2 + forecast / 2;
    if !(half_forecast <= budget && budget < forecast) {
        return Err(format!("no budget between forecasts {half_forecast} and {forecast} B"));
    }
    let kinds = [
        JobKind { a: &fx.a, rows: Some(half), reference: &half_ref, products: half_products },
        JobKind { a: &fx.a, rows: None, reference: &fx.reference, products: fx.products },
    ];
    let cfg = EngineConfig {
        workers: 2,
        backend: Backend::Sim,
        budget_bytes: Some(budget),
        cache_capacity: 8,
        ..EngineConfig::default()
    };
    let jobs = [0, 0, 1];
    let r = closed_loop(
        &kinds,
        cfg,
        1,
        &mut |k| jobs.get(k as usize).copied(),
        &|_, _| true,
        None,
        Some(&mut tr),
        rep,
    );
    put_engine_layers(&r, rep);
    crate::write_spans(&tr, args);
    Ok(())
}
