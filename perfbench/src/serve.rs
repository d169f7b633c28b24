//! `serve_mixed`: a closed loop against one `Engine` (sim backend, one
//! worker, plan cache of eight) fed by one generator thread that keeps
//! two jobs in flight, so one job always waits in the queue. Fifteen of
//! every sixteen jobs square one of twelve small patterns — more than
//! the cache holds, so some miss; every sixteenth squares a large
//! pattern whose forecast exceeds the budget and takes the batched
//! route.
//!
//! One worker keeps the process at one busy thread, like the squares:
//! with two, every core another process takes from the machine slowed
//! the loop by a different amount than any reference could follow. The
//! untraced loop runs in one-second windows; between windows it drains
//! and the reference kernel (`reference.rs`) runs on the 13 patterns,
//! and each window's wall figures are reported at reference speed.

use crate::check::{bitwise_eq, matches_reference, SimExact};
use crate::layers::{put_sim_exact, Input, Layers};
use crate::reference::RefClock;
use crate::report::{peak_rss_mib, Report, MIB};
use crate::stats::{median, valid_percentile, Ratio};
use crate::trace::Tracer;
use crate::Args;
use engine::{CacheOutcome, Engine, EngineConfig, EngineStats, JobSpec, Route};
use matgen::generators::{random_uniform, Rng64};
use nsparse_core::{estimate_memory, Backend, Executor, Options, SimExecutor};
use sparse::spgemm_ref::spgemm_gustavson;
use sparse::Csr;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vgpu::{DeviceConfig, Gpu};

const SMALL_PATTERNS: usize = 12;
const SMALL_ROWS: usize = 1024;
const BIG_ROWS: usize = 8192;
const NNZ_PER_ROW: f64 = 12.0;
const MAX_NNZ_PER_ROW: usize = 48;
/// Every `BIG_EVERY`-th job squares the large pattern.
const BIG_EVERY: u64 = 16;
const WORKERS: usize = 1;
const CACHE_CAPACITY: usize = 8;
const IN_FLIGHT: usize = 2;
/// Jobs the untraced loop completes at least, so that the p99 has ten
/// samples beyond it.
const MIN_JOBS: usize = 1000;
const WARMUP_JOBS: u64 = 2 * BIG_EVERY;
const SETUP_REPS: usize = 5;
/// Batched/direct pairs the traced run times on the large pattern.
const BATCHED_PAIRS: usize = 5;
/// No loop runs past this, whatever its sample minimum.
const HARD_STOP: Duration = Duration::from_secs(120);
/// Wall time of one untraced loop window between reference runs.
const WINDOW: Duration = Duration::from_secs(1);
/// Nominal time of one reference run over the 13 patterns. Wall metrics
/// are reported at the speed where the reference takes this long, the
/// speed the squares report at: in back-to-back runs on the calibration
/// machine this run took 38.0 ms while `fem_square`'s took 69.7 ms
/// against its nominal 110 ms.
const REFERENCE_MS: f64 = 60.0;

fn es(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A squared input with its set-up reference.
pub struct Pattern {
    pub a: Arc<Csr<f64>>,
    /// The standalone sim product, checked against Gustavson.
    pub reference: Csr<f64>,
    pub exact: SimExact,
    pub products: u64,
    pub forecast: u64,
}

impl Pattern {
    fn new(a: Csr<f64>, rep: &mut Report, what: &str) -> Result<Pattern, String> {
        let gus = spgemm_gustavson(&a, &a).map_err(es)?;
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let run = SimExecutor::new(&mut gpu).multiply(&a, &a, &Options::default()).map_err(es)?;
        rep.op(matches_reference(&run.matrix, &gus, what));
        let exact = SimExact::of(&run.report, what)?;
        let forecast = estimate_memory(&a, &a).map_err(es)?.upper_bound();
        Ok(Pattern {
            a: Arc::new(a),
            reference: run.matrix,
            exact,
            products: run.report.intermediate_products,
            forecast,
        })
    }

    fn input(&self, key: usize) -> Input<'_> {
        Input { key, a: &self.a, reference: &self.reference, products: self.products }
    }
}

/// Twelve small patterns, then the large one; budget between them.
struct Fixture {
    patterns: Vec<Pattern>,
    budget: u64,
    seed: u64,
}

impl Fixture {
    /// Pattern index of job `k`: the job mix, a pure function of the seed.
    fn mix(&self) -> impl FnMut(u64) -> usize {
        let mut rng = Rng64::new(self.seed ^ 0x5e7e_d0b5);
        move |k| {
            if k % BIG_EVERY == BIG_EVERY - 1 {
                SMALL_PATTERNS
            } else {
                rng.below(SMALL_PATTERNS)
            }
        }
    }

    fn kinds(&self) -> Vec<JobKind<'_>> {
        self.patterns
            .iter()
            .map(|p| JobKind { a: &p.a, rows: None, reference: &p.reference, products: p.products })
            .collect()
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            workers: WORKERS,
            backend: Backend::Sim,
            budget_bytes: Some(self.budget),
            cache_capacity: CACHE_CAPACITY,
            ..EngineConfig::default()
        }
    }
}

fn setup(seed: u64, rep: &mut Report) -> Result<Fixture, String> {
    let mut rng = Rng64::new(seed);
    let mut patterns = Vec::with_capacity(SMALL_PATTERNS + 1);
    for i in 0..=SMALL_PATTERNS {
        let rows = if i == SMALL_PATTERNS { BIG_ROWS } else { SMALL_ROWS };
        let a = random_uniform::<f64>(rows, NNZ_PER_ROW, MAX_NNZ_PER_ROW, rng.next_u64());
        patterns.push(Pattern::new(a, rep, &format!("pattern {i}"))?);
    }
    // Two small jobs fit at once; the large one never fits whole.
    let big = patterns[SMALL_PATTERNS].forecast;
    let budget = big / 2;
    let small_max = patterns[..SMALL_PATTERNS].iter().map(|p| p.forecast).max().unwrap_or(0);
    if 2 * small_max > budget {
        return Err(format!("budget {budget} B cannot hold two small jobs of up to {small_max} B"));
    }
    let fx = Fixture { patterns, budget, seed };
    // Warm-up: a throwaway engine runs the first jobs of the mix.
    let mut mix = fx.mix();
    let jobs: Vec<usize> = (0..WARMUP_JOBS).map(&mut mix).collect();
    closed_loop(
        &fx.kinds(),
        fx.engine_config(),
        IN_FLIGHT,
        &mut |k| jobs.get(k as usize).copied(),
        &|_, _| true,
        None,
        None,
        rep,
    );
    Ok(fx)
}

/// A job the closed loop can submit: `A` (rows `rows` of it, when set)
/// times `A`, and the product it must return.
pub struct JobKind<'a> {
    pub a: &'a Arc<Csr<f64>>,
    pub rows: Option<Range<usize>>,
    pub reference: &'a Csr<f64>,
    pub products: u64,
}

/// One engine job as the loop saw it.
struct JobSample {
    /// The loop window it completed in.
    window: usize,
    latency_ms: f64,
    queue_wait_ms: f64,
    exec_ms: f64,
    route: Route,
    cache: CacheOutcome,
    products: u64,
}

pub struct LoopResult {
    jobs: Vec<JobSample>,
    /// Wall time of each window, the pauses between them left out.
    windows_s: Vec<f64>,
    stats: EngineStats,
}

/// Drive one engine in a closed loop: keep `in_flight` jobs submitted,
/// wait for the oldest, check it against its kind's reference.
/// `next(k)` names the kind of job `k` (`None` ends the loop);
/// `more(elapsed, completed)` says whether to keep submitting. With
/// `pause = Some((window, between))` the loop stops submitting once a
/// window has lasted `window`, waits for the jobs in flight, and calls
/// `between` while the engine idles before it opens the next.
pub fn closed_loop(
    kinds: &[JobKind],
    cfg: EngineConfig,
    in_flight: usize,
    next: &mut dyn FnMut(u64) -> Option<usize>,
    more: &dyn Fn(Duration, usize) -> bool,
    mut pause: Option<(Duration, &mut dyn FnMut())>,
    mut tr: Option<&mut Tracer>,
    rep: &mut Report,
) -> LoopResult {
    let mut eng = Engine::<f64>::new(cfg);
    let mut pending = VecDeque::new();
    let mut jobs = Vec::new();
    let mut windows_s = Vec::new();
    let mut k = 0u64;
    let start = Instant::now();
    let mut window_start = start;
    loop {
        let open = pause.as_ref().map_or(true, |(w, _)| window_start.elapsed() < *w);
        let go_on = |done| start.elapsed() < HARD_STOP && more(start.elapsed(), done);
        while open && pending.len() < in_flight && go_on(jobs.len()) {
            let Some(p) = next(k) else { break };
            k += 1;
            let kind = &kinds[p];
            let mut spec = JobSpec::new(Arc::clone(kind.a), Arc::clone(kind.a));
            if let Some(rows) = &kind.rows {
                spec = spec.with_rows(rows.clone());
            }
            let submitted = Instant::now();
            pending.push_back((p, submitted, eng.submit(spec)));
        }
        let Some((p, submitted, ticket)) = pending.pop_front() else {
            windows_s.push(window_start.elapsed().as_secs_f64());
            match pause.as_mut() {
                Some((_, between)) if !open && go_on(jobs.len()) => {
                    between();
                    window_start = Instant::now();
                    continue;
                }
                _ => break,
            }
        };
        let out = ticket.wait();
        let done = Instant::now();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                rep.op(Err(format!("engine job of kind {p}: {e}")));
                continue;
            }
        };
        let (qw, lat) = (out.queue_wait.as_secs_f64(), out.latency.as_secs_f64());
        if let Some(tr) = tr.as_deref_mut() {
            tr.next_op();
            let s = tr.at_ns(submitted);
            let root = tr.record("engine.job", s, tr.at_ns(done), None);
            tr.record("engine.queue_wait", s, s + qw * 1e9, Some(root));
            tr.record("engine.exec", s + qw * 1e9, s + (qw + lat) * 1e9, Some(root));
        }
        rep.op(bitwise_eq(&out.matrix, kinds[p].reference, &format!("engine job of kind {p}")));
        jobs.push(JobSample {
            window: windows_s.len(),
            latency_ms: (qw + lat) * 1e3,
            queue_wait_ms: qw * 1e3,
            exec_ms: lat * 1e3,
            route: out.route,
            cache: out.cache,
            products: kinds[p].products,
        });
    }
    let stats = eng.shutdown();
    if !stats.budget_drained {
        rep.error(format!("engine budget not drained at shutdown (peak {} B)", stats.budget_peak));
    }
    if !stats.conserved() || stats.completed != jobs.len() as u64 {
        rep.error(format!("engine outcomes not conserved: {stats:?}"));
    }
    LoopResult { jobs, windows_s, stats }
}

fn exec_ms(r: &LoopResult, keep: impl Fn(&JobSample) -> bool) -> (f64, usize) {
    let v: Vec<f64> = r.jobs.iter().filter(|j| keep(j)).map(|j| j.exec_ms).collect();
    (median(&v), v.len())
}

/// The engine's per-layer metrics of one loop.
pub fn put_engine_layers(r: &LoopResult, rep: &mut Report) {
    let qw: Vec<f64> = r.jobs.iter().map(|j| j.queue_wait_ms).collect();
    rep.put("engine.queue_wait_ms_p50", median(&qw), format!("median of {} jobs", qw.len()));
    let direct = |c: CacheOutcome| move |j: &JobSample| j.route == Route::Direct && j.cache == c;
    for (name, (v, n)) in [
        ("engine.exec_ms_p50.hit", exec_ms(r, direct(CacheOutcome::Hit))),
        ("engine.exec_ms_p50.miss", exec_ms(r, direct(CacheOutcome::Miss))),
        ("engine.exec_ms_p50.batched", exec_ms(r, |j| j.route == Route::Batched)),
    ] {
        rep.put(name, v, format!("median of {n} jobs"));
    }
    let c = &r.stats.cache;
    let ratio = Ratio::new(c.hits as f64, (c.hits + c.misses) as f64);
    rep.put("engine.cache_hit_ratio", ratio.value(), ratio.describe("hits", "lookups"));
    let n = r.stats.jobs;
    rep.put("engine.symbolic_runs", r.stats.symbolic_runs as f64, format!("of {n} jobs"));
    rep.put("engine.batched_jobs", r.stats.batched as f64, format!("of {n} jobs"));
    rep.put("engine.queued_jobs", r.stats.queued as f64, format!("of {n} jobs"));
    rep.put(
        "engine.budget_peak_mb",
        r.stats.budget_peak as f64 / MIB,
        format!("of a {:.3} MiB budget", r.stats.budget_capacity as f64 / MIB),
    );
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let fx = setup(args.seed, rep)?;
    if args.trace {
        return traced(&fx, args, rep);
    }
    let inputs: Vec<_> = fx.patterns.iter().map(|p| (&*p.a, &p.reference)).collect();
    let mut clock = RefClock::new(&inputs, REFERENCE_MS);
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let f = setup(args.seed, rep)?;
        let s = t.elapsed().as_secs_f64();
        same_fixture(&fx, &f, rep);
        drop(f);
        raw.push(s);
        scaled.push(s * clock.tick());
    }
    rep.put(
        "setup_s",
        median(&scaled),
        format!(
            "median of {SETUP_REPS} set-ups (13 patterns, references, {WARMUP_JOBS} warm-up jobs) {}: raw median {:.6} s",
            clock.describe(0),
            median(&raw)
        ),
    );
    untraced(&fx, args, clock, rep)
}

fn same_fixture(a: &Fixture, b: &Fixture, rep: &mut Report) {
    for (i, (p, q)) in a.patterns.iter().zip(&b.patterns).enumerate() {
        if p.a != q.a {
            rep.error(format!("pattern {i} differs between set-ups of one seed"));
        }
        if let Err(e) = p.exact.same(&q.exact, &format!("pattern {i} reference")) {
            rep.error(e);
        }
    }
}

fn untraced(
    fx: &Fixture,
    args: &Args,
    mut clock: RefClock,
    rep: &mut Report,
) -> Result<(), String> {
    let mut mix = fx.mix();
    let secs = args.seconds;
    let first = clock.factors.len();
    let r = closed_loop(
        &fx.kinds(),
        fx.engine_config(),
        IN_FLIGHT,
        &mut |k| Some(mix(k)),
        &|t, done| t.as_secs_f64() < secs || done < MIN_JOBS,
        Some((WINDOW, &mut || {
            clock.tick();
        })),
        None,
        rep,
    );
    clock.tick();
    clock.flush(rep);
    let f = &clock.factors[first..];
    if f.len() != r.windows_s.len() {
        return Err(format!("{} reference factors for {} windows", f.len(), r.windows_s.len()));
    }
    let base = clock.describe(first);
    let n = r.jobs.len();
    let raw_wall: f64 = r.windows_s.iter().sum();
    let wall: f64 = r.windows_s.iter().zip(f).map(|(s, f)| s * f).sum();
    let scaled = |v: fn(&JobSample) -> f64, keep: &dyn Fn(&JobSample) -> bool| -> Samples {
        let jobs = r.jobs.iter().filter(|j| keep(j));
        Samples {
            raw: jobs.clone().map(v).collect(),
            scaled: jobs.map(|j| v(j) * f[j.window]).collect(),
        }
    };
    let latency = scaled(|j| j.latency_ms, &|_| true);
    rep.put("peak_rss_mb", peak_rss_mib()?, "VmHWM");
    rep.put(
        "jobs_per_s",
        n as f64 / wall,
        format!(
            "{n} jobs in {} windows, {IN_FLIGHT} in flight, {base}: raw {:.6} 1/s over {raw_wall:.3} s",
            r.windows_s.len(),
            n as f64 / raw_wall
        ),
    );
    rep.put(
        "job_latency_ms_p50",
        median(&latency.scaled),
        format!("submit to completion, {n} jobs {base}: raw {:.6} ms", median(&latency.raw)),
    );
    match (valid_percentile(&latency.scaled, 99.0), valid_percentile(&latency.raw, 99.0)) {
        (Some(p), Some(q)) => rep.put(
            "job_latency_ms_p99",
            p.value,
            format!("{} of {n} jobs beyond it {base}: raw {:.6} ms", p.beyond, q.value),
        ),
        _ => rep.error(format!("p99 needs ten samples beyond it; only {n} jobs")),
    }
    let prods: u64 = r.jobs.iter().map(|j| j.products).sum();
    rep.put(
        "mprod_per_s",
        prods as f64 / wall / 1e6,
        format!(
            "{prods} products of completed jobs over the loop {base}: raw {:.6} Mprod/s",
            prods as f64 / raw_wall / 1e6
        ),
    );
    let all = scaled(|j| j.exec_ms, &|_| true);
    rep.put(
        "multiply_ms_p50",
        median(&all.scaled),
        format!(
            "engine execution per job (sim backend), {n} jobs {base}: raw {:.6} ms",
            median(&all.raw)
        ),
    );
    let miss =
        scaled(|j| j.exec_ms, &|j| j.route == Route::Direct && j.cache == CacheOutcome::Miss);
    rep.put(
        "sim_multiply_ms_p50",
        median(&miss.scaled),
        format!(
            "engine execution of {} cache-miss direct jobs, a full sim multiply, {base}: raw {:.6} ms",
            miss.raw.len(),
            median(&miss.raw)
        ),
    );
    let total: f64 = fx.patterns.iter().map(|p| p.exact.total_us()).sum();
    rep.put("sim_kernel_us", total, "exact: sum over the 13 patterns squared once each");
    let peak = fx.patterns.iter().map(|p| p.exact.peak_mem_bytes).max().unwrap_or(0);
    rep.put("sim_peak_mem_mb", peak as f64 / MIB, "exact: largest pattern's device peak");
    Ok(())
}

/// Wall samples, raw and at reference speed.
struct Samples {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

fn traced(fx: &Fixture, args: &Args, rep: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut layers = Layers::new();
    let half = args.seconds / 2.0;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < half || i < SMALL_PATTERNS {
        let p = i % SMALL_PATTERNS;
        layers.round(&mut tr, rep, &fx.patterns[p].input(p));
        i += 1;
    }
    let big = &fx.patterns[SMALL_PATTERNS];
    for _ in 0..BATCHED_PAIRS {
        layers.batched_pair(&mut tr, rep, &big.input(SMALL_PATTERNS), fx.budget);
    }
    layers.report(&tr, rep);
    let exacts: Vec<&SimExact> = fx.patterns.iter().map(|p| &p.exact).collect();
    put_sim_exact(&exacts, rep);

    let mut mix = fx.mix();
    let r = closed_loop(
        &fx.kinds(),
        fx.engine_config(),
        IN_FLIGHT,
        &mut |k| Some(mix(k)),
        &|t, _| t.as_secs_f64() < half,
        None,
        Some(&mut tr),
        rep,
    );
    put_engine_layers(&r, rep);
    crate::write_spans(&tr, args);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_sends_every_sixteenth_job_batched() {
        let fx = Fixture { patterns: Vec::new(), budget: 0, seed: 7 };
        let a: Vec<usize> = (0..64).map(fx.mix()).collect();
        let b: Vec<usize> = (0..64).map(fx.mix()).collect();
        assert_eq!(a, b);
        for (k, p) in a.iter().enumerate() {
            assert_eq!(*p == SMALL_PATTERNS, k as u64 % BIG_EVERY == BIG_EVERY - 1);
        }
    }
}
