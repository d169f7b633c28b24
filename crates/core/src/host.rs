//! The host-parallel backend: the paper's grouped SpGEMM pipeline run
//! for real on OS threads.
//!
//! Nagasaka's follow-up work (KNL/multicore, PAPERS.md) shows the
//! row-grouped design maps directly onto CPU threads, and that a CPU
//! should pick its accumulator to suit the input rather than port the
//! GPU's. This backend does both: the same [`SpgemmPlan`] the simulation
//! consumes drives the work partition and each row's algorithm, and
//! `std::thread::scope` workers pull contiguous row ranges from a
//! [`JobQueue`]. Every row goes through the simulator's entry point,
//! [`row_kernel`], with the [`RowKind`] its plan phase names
//! ([`PhasePlan::row_kind`](crate::plan::PhasePlan::row_kind)): ESC and
//! merge rows as planned, and `Hash` rows on a per-worker dense
//! accumulator ([`RowKind::Dense`]) when [`dense_fits`] admits the
//! product — `B` narrow enough for a cache-sized array per worker, and
//! enough products to pay for filling it. Other products fall back to
//! the hash walk ([`RowKind::Hash`]).
//!
//! # Determinism
//!
//! The output is bitwise identical for every thread count — and to the
//! simulated backend — because each row is a pure function of `A` and
//! `B`: every row kernel sums a column's products in A-row traversal
//! order and writes the columns sorted, and every job writes only its
//! own disjoint output slice (carved with `split_at_mut` at row-pointer
//! boundaries). Scheduling decides *when* a row is computed, never
//! *what* it computes. The scheduling-sensitive quantities, the probe
//! and replan totals, are commutative sums.
//!
//! Symbolic counts are exact, so no row is recounted afterwards;
//! `replans` counts the `Hash` rows whose exact nnz exceeds the planned
//! table capacity — the rows a sampled plan under-sized.
//!
//! Reported `hash_probes` counts only hash-fallback rows, so it is zero
//! whenever the dense accumulator runs and differs from the simulation,
//! which probes every `Hash` row.

// lint:allow-file(wallclock) — the host backend measures real elapsed time by
// design (WallClock is its deliverable); determinism lives in the output, not
// the timings.
use crate::exec::{Backend, BackendCaps, Execution, Executor, SymbolicOutput, WallClock};
use crate::kernels::{row_kernel, RowKind, RowWorkspace};
use crate::partition::JobQueue;
use crate::pipeline::{overflow_err, Error, Options, Result};
use crate::plan::{exact_row_products, global_table_size_checked, SpgemmPlan};
use crate::rowalg::dense_fits;
use sparse::{Csr, Scalar, DEVICE_INDEX_BYTES};
use std::time::Instant;
use vgpu::{DeviceConfig, Phase, SimTime, SpgemmReport};

/// Ranges cut per worker thread: small enough to rebalance skewed
/// matrices through the pull queue, large enough to amortize locking.
const CHUNKS_PER_THREAD: usize = 8;

/// How the backend's worker count was chosen — kept around (and logged)
/// because `available_parallelism()` *can* fail (e.g. restricted
/// sandboxes), and a silent fall-back to one thread looks exactly like
/// an 8× performance regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadResolution {
    /// The count the caller asked for (`0` = auto-detect).
    pub requested: usize,
    /// What `available_parallelism()` reported (`None` = detection
    /// failed).
    pub detected: Option<usize>,
    /// The worker count actually used.
    pub resolved: usize,
}

impl ThreadResolution {
    /// Pure resolution rule: an explicit request wins; `0` means the
    /// detected core count, degrading to a single worker only when
    /// detection itself fails.
    pub fn resolve(requested: usize, detected: Option<usize>) -> Self {
        let resolved = if requested > 0 { requested } else { detected.unwrap_or(1) };
        ThreadResolution { requested, detected, resolved }
    }

    /// `true` when auto-detection failed and the backend silently-ish
    /// dropped to one worker — the case worth surfacing loudly.
    pub fn degraded(&self) -> bool {
        self.requested == 0 && self.detected.is_none()
    }
}

/// Executes SpGEMM on host threads. The plan is still derived from a
/// device class (Table I capacities transfer: they bound per-row scratch
/// to cache-friendly sizes), defaulting to the paper's P100.
pub struct HostParallelExecutor {
    threads: usize,
    cfg: DeviceConfig,
    resolution: ThreadResolution,
    /// Opt-in telemetry session (the host has no device feeding one).
    telemetry: Option<Box<obs::Telemetry>>,
}

impl HostParallelExecutor {
    /// Backend with `threads` workers; `0` means one per available core.
    /// When core detection fails the backend runs with **one** worker
    /// and says so on stderr (and in telemetry, when enabled) — see
    /// [`ThreadResolution`].
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, DeviceConfig::p100())
    }

    /// Backend planning against a specific device class.
    pub fn with_config(threads: usize, cfg: DeviceConfig) -> Self {
        let detected = std::thread::available_parallelism().ok().map(|n| n.get());
        let resolution = ThreadResolution::resolve(threads, detected);
        if resolution.degraded() {
            eprintln!(
                "host backend: available_parallelism() failed; running with 1 worker \
                 (pass an explicit thread count to override)"
            );
        }
        HostParallelExecutor { threads: resolution.resolved, cfg, resolution, telemetry: None }
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How the worker count was arrived at.
    pub fn thread_resolution(&self) -> ThreadResolution {
        self.resolution
    }

    /// Opt into a telemetry session; records a `thread_resolution`
    /// event immediately so a degraded fall-back is visible in traces.
    /// Idempotent.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            let mut t = Box::<obs::Telemetry>::default();
            t.emit(
                obs::Event::new("thread_resolution")
                    .u64("requested", self.resolution.requested as u64)
                    .u64("detected", self.resolution.detected.unwrap_or(0) as u64)
                    .u64("resolved", self.resolution.resolved as u64)
                    .str("fallback", if self.resolution.degraded() { "degraded" } else { "ok" }),
            );
            self.telemetry = Some(t);
        }
    }

    /// Install an existing telemetry session (the engine threads a
    /// per-job session through the executor stack so engine spans and
    /// backend events share one id space). Replaces any current one.
    pub fn set_telemetry(&mut self, t: obs::Telemetry) {
        self.telemetry = Some(Box::new(t));
    }

    /// Detach the telemetry session (capture stops).
    pub fn take_telemetry(&mut self) -> Option<obs::Telemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Record a deterministic stage marker (no wall times — traces must
    /// stay byte-identical across runs) when telemetry is enabled.
    fn mark_stage(&mut self, name: &str) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(obs::Event::new("stage").str("name", name));
        }
    }
}

impl<T: Scalar> Executor<T> for HostParallelExecutor {
    fn backend(&self) -> Backend {
        Backend::Host { threads: self.threads }
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            simulated_time: false,
            wall_clock: true,
            concurrent_streams: false,
            threads: self.threads,
            deterministic_output: true,
        }
    }

    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan> {
        SpgemmPlan::new(&self.cfg, a, b, opts)
    }

    fn execute_symbolic(
        &mut self,
        plan: &SpgemmPlan,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<SymbolicOutput> {
        let mut nnz_row = vec![0u32; a.rows()];
        let dense = self.dense_rows::<T>(plan);
        // Carve the output into per-range slices so each job owns its
        // rows' counters outright.
        let mut jobs = Vec::new();
        let mut rest: &mut [u32] = &mut nnz_row;
        for range in plan.count.partition(self.threads * CHUNKS_PER_THREAD) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push((range, chunk));
        }
        let tally = self.run_jobs(plan, jobs, |ws: &mut RowWorkspace<T>, (range, out)| {
            let mut t = Tally::default();
            for (slot, r) in out.iter_mut().zip(range) {
                let kind = plan.count.row_kind(r, dense);
                let (nnz, probes) = symbolic_row(kind, a, b, r, ws)?;
                t.probes += probes;
                // The count is exact either way; a hash row past its
                // planned table is one the sampled plan under-sized.
                let hash = matches!(kind, RowKind::Hash { .. } | RowKind::Dense);
                if hash && nnz as usize > plan.count.table_size_for(r) {
                    t.replans += 1;
                }
                *slot = nnz;
            }
            Ok(t)
        })?;
        if tally.replans > 0 {
            if !plan.opts.estimator.is_sampled() {
                return Err(Error::invariant(
                    "exact-estimator symbolic table overflowed its planned capacity",
                ));
            }
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.emit(obs::Event::new("replan").str("phase", "count").u64("rows", tally.replans));
            }
        }
        Ok(SymbolicOutput::from_nnz_row(nnz_row, tally.probes, tally.replans))
    }

    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        let t0 = Instant::now();
        let numeric = plan.numeric_phase(&symbolic.nnz_row)?;
        let dense = self.dense_rows::<T>(plan);
        let nnz_c = symbolic.output_nnz();
        let mut col_c = vec![0u32; nnz_c];
        let mut val_c = vec![T::ZERO; nnz_c];
        // Disjoint output slices per range, cut at row-pointer bounds.
        let mut jobs = Vec::new();
        let (mut crest, mut vrest): (&mut [u32], &mut [T]) = (&mut col_c, &mut val_c);
        for range in plan.count.partition(self.threads * CHUNKS_PER_THREAD) {
            let span = symbolic.rpt[range.end] - symbolic.rpt[range.start];
            let (cchunk, ctail) = crest.split_at_mut(span);
            let (vchunk, vtail) = vrest.split_at_mut(span);
            crest = ctail;
            vrest = vtail;
            jobs.push((range, cchunk, vchunk));
        }
        let tally =
            self.run_jobs(plan, jobs, |ws: &mut RowWorkspace<T>, (range, cols, vals)| {
                let mut t = Tally::default();
                let base = symbolic.rpt[range.start];
                for r in range {
                    let span = symbolic.rpt[r] - base..symbolic.rpt[r + 1] - base;
                    let out = Some((&mut cols[span.clone()], &mut vals[span.clone()]));
                    let s = row_kernel(numeric.row_kind(r, dense), a, b, r, ws, out);
                    t.probes += s.probes;
                    if s.overflowed {
                        return Err(Error::invariant(format!(
                            "numeric row {r} did not match its symbolic nnz {}",
                            span.len()
                        )));
                    }
                }
                Ok(t)
            })?;
        let calc = t0.elapsed();
        let report = self.host_report::<T>(plan, symbolic, tally.probes, true);
        // lint:allow(unchecked-ctor) — hot-path assembly; rows are sorted by kernel construction
        let c = Csr::from_parts_unchecked(plan.rows, plan.cols, symbolic.rpt.clone(), col_c, val_c)
            .map_err(|e| Error::invariant(format!("numeric phase assembled malformed C: {e}")))?;
        let wall = WallClock { total: calc, phases: vec![(Phase::Calc, calc)] };
        Ok(Execution { matrix: c, report, wall: Some(wall), replans: symbolic.replans })
    }

    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>> {
        let t0 = Instant::now();
        let plan = <Self as Executor<T>>::plan(self, a, b, opts)?;
        let setup = t0.elapsed();

        let t1 = Instant::now();
        self.mark_stage("symbolic");
        let symbolic = self.execute_symbolic(&plan, a, b)?;
        let count = t1.elapsed();

        let t2 = Instant::now();
        self.mark_stage("numeric");
        let mut run = self.execute_numeric(&plan, &symbolic, a, b)?;
        let calc = t2.elapsed();

        run.report.algorithm = format!("proposal (host:{})", self.threads);
        run.report.hash_probes += symbolic.hash_probes;
        run.wall = Some(WallClock {
            total: t0.elapsed(),
            phases: vec![(Phase::Setup, setup), (Phase::Count, count), (Phase::Calc, calc)],
        });
        Ok(run)
    }

    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.telemetry.as_deref_mut()
    }
}

/// Counters a worker's rows add up to. Sums commute, so the totals do
/// not depend on which worker ran which range.
#[derive(Default)]
struct Tally {
    probes: u64,
    replans: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.probes += t.probes;
        self.replans += t.replans;
    }
}

/// Count one row's nnz through `kind`'s symbolic kernel. A hash row
/// that overflows its planned table (only a sampled under-estimate
/// causes one) is recounted once through a table sized from the row's
/// exact products. Returns `(nnz, probes)`.
fn symbolic_row<T: Scalar>(
    kind: RowKind,
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    ws: &mut RowWorkspace<T>,
) -> Result<(u32, u64)> {
    let first = row_kernel(kind, a, b, row, ws, None);
    if !first.overflowed {
        return Ok((first.nnz, first.probes));
    }
    let cap = global_table_size_checked(exact_row_products(a, b, row))
        .ok_or_else(|| overflow_err("global hash-table size"))?;
    let again = row_kernel(RowKind::Hash { cap }, a, b, row, ws, None);
    if again.overflowed {
        return Err(Error::invariant("exact-cap replan table overflowed"));
    }
    Ok((again.nnz, first.probes + again.probes))
}

impl HostParallelExecutor {
    /// Whether this multiply's `Hash` rows run on the dense accumulator
    /// ([`dense_fits`] for `B`'s width, the plan's products and this
    /// backend's worker count). Both phases and the report agree on it.
    fn dense_rows<T: Scalar>(&self, plan: &SpgemmPlan) -> bool {
        dense_fits::<T>(plan.cols, plan.total_products, self.threads)
    }

    /// Run `work` over `jobs` on up to `threads` scoped workers pulling
    /// from one [`JobQueue`], each with its own [`RowWorkspace`], and sum
    /// their tallies. A worker stops at its first error; the first error
    /// in worker order is returned once all workers have finished.
    fn run_jobs<T: Scalar, J: Send>(
        &self,
        plan: &SpgemmPlan,
        jobs: Vec<J>,
        work: impl Fn(&mut RowWorkspace<T>, J) -> Result<Tally> + Sync,
    ) -> Result<Tally> {
        let workers = self.threads.min(jobs.len());
        let queue = JobQueue::new(jobs);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut ws = RowWorkspace::<T>::new(plan.opts.use_mul_hash);
                        let mut total = Tally::default();
                        while let Some(job) = queue.next() {
                            total += work(&mut ws, job)?;
                        }
                        Ok(total)
                    })
                })
                .collect();
            let mut total = Tally::default();
            let mut first_err = None;
            for h in handles {
                match h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                    Ok(t) => total += t,
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            first_err.map_or(Ok(total), Err)
        })
    }

    /// The host backend's report: simulated fields are zero (there is no
    /// device model), counters are real, and `peak_mem_bytes` estimates
    /// the host heap the multiply touched (device-layout equivalents of
    /// the inputs and output plus the working arrays, among them each
    /// worker's dense accumulator — or its seed hash table when the
    /// product runs the hash kernels).
    fn host_report<T: Scalar>(
        &self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        hash_probes: u64,
        numeric_only: bool,
    ) -> SpgemmReport {
        let m = plan.rows as u64;
        let nnz_c = symbolic.output_nnz() as u64;
        let inputs: u64 = 0; // inputs are borrowed, not copied
        let slot_bytes = DEVICE_INDEX_BYTES + T::BYTES as u64;
        let per_worker = if self.dense_rows::<T>(plan) { plan.cols as u64 } else { 1024 };
        let working = 4 * m // nnz_row
            + 8 * (m + 1) // rpt (usize)
            + self.threads as u64 * per_worker * slot_bytes; // dense arrays or seed tables
        let output = DEVICE_INDEX_BYTES * (m + 1) + slot_bytes * nnz_c;
        SpgemmReport {
            algorithm: if numeric_only {
                format!("proposal (host:{} numeric)", self.threads)
            } else {
                format!("proposal (host:{})", self.threads)
            },
            precision: T::PRECISION,
            total_time: SimTime::ZERO,
            phase_times: Vec::new(),
            peak_mem_bytes: inputs + working + output,
            intermediate_products: plan.total_products,
            output_nnz: nnz_c,
            hash_probes,
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::spgemm_ref::spgemm_gustavson;

    fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..deg {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 5) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn host_matches_reference() {
        let a = rand_mat(400, 6, 3);
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let mut ex = HostParallelExecutor::new(2);
        let run = Executor::<f64>::multiply(&mut ex, &a, &a, &Options::default()).unwrap();
        assert_eq!(run.matrix, c_ref);
        assert_eq!(run.report.output_nnz, c_ref.nnz() as u64);
        assert!(run.wall.is_some());
        assert!(run.wall.unwrap().total.as_nanos() > 0);
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let a = rand_mat(500, 7, 11);
        let runs: Vec<Csr<f64>> = [1usize, 2, 5]
            .iter()
            .map(|&t| {
                let mut ex = HostParallelExecutor::new(t);
                Executor::<f64>::multiply(&mut ex, &a, &a, &Options::default()).unwrap().matrix
            })
            .collect();
        for c in &runs[1..] {
            assert_eq!(c.rpt(), runs[0].rpt());
            assert_eq!(c.col(), runs[0].col());
            let bits = |m: &Csr<f64>| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(c), bits(&runs[0]), "values must be bitwise identical");
        }
    }

    #[test]
    fn hash_rows_take_the_dense_path_only_when_the_rule_admits_it() {
        let a = rand_mat(120, 5, 7);
        // `a`'s pattern spread over `cols` columns.
        let spread = |cols: usize| {
            let stride = (cols / a.cols()) as u32;
            let c = a.col().iter().map(|&c| c * stride).collect();
            Csr::from_parts(a.rows(), cols, a.rpt().to_vec(), c, a.val().to_vec()).unwrap()
        };
        let cases = [
            // Narrow B: dense accumulator, no hash table touched.
            (a.clone(), a.clone(), true),
            // B too wide for a cache-sized dense array: hash tables.
            (a.clone(), spread(1 << 20), false),
            // Few rows over a B within the width cap: too few products
            // to pay for filling the arrays, so hash tables again.
            (a.slice_rows(0..4), spread(200_000), false),
        ];
        let mut ex = HostParallelExecutor::new(2);
        for (i, (a, b, dense)) in cases.iter().enumerate() {
            let plan = Executor::<f64>::plan(&ex, a, b, &Options::default()).unwrap();
            assert_eq!(ex.dense_rows::<f64>(&plan), *dense, "case {i}");
            let run = Executor::<f64>::multiply(&mut ex, a, b, &Options::default()).unwrap();
            assert_eq!(run.report.hash_probes == 0, *dense, "case {i}");
            let mut gpu = vgpu::Gpu::new(DeviceConfig::p100());
            assert_eq!(run.matrix, crate::multiply(&mut gpu, a, b, &Options::default()).unwrap().0);
        }
    }

    #[test]
    fn numeric_rows_that_miss_their_symbolic_nnz_are_invariant_errors() {
        let a = rand_mat(300, 6, 5);
        let adaptive =
            Options { policy: crate::rowalg::AlgorithmPolicy::Adaptive, ..Options::default() };
        for opts in [Options::default(), adaptive] {
            let mut host = HostParallelExecutor::new(2);
            let plan = Executor::<f64>::plan(&host, &a, &a, &opts).unwrap();
            let good = Executor::<f64>::execute_symbolic(&mut host, &plan, &a, &a).unwrap();
            for delta in [1i64, -1] {
                // Every non-empty row off by one, whichever kernel runs it.
                let nnz = good.nnz_row.iter().map(|&n| (n as i64 + delta).max(0) as u32).collect();
                let bad = SymbolicOutput::from_nnz_row(nnz, 0, 0);
                let kind = |r: Result<Execution<f64>>| r.err().map(|e| e.kind());
                let got = kind(host.execute_numeric(&plan, &bad, &a, &a));
                assert_eq!(got, Some(crate::pipeline::ErrorKind::Invariant), "host, {delta:+}");
                let mut gpu = vgpu::Gpu::new(DeviceConfig::p100());
                let mut sim = crate::SimExecutor::new(&mut gpu);
                let got = kind(sim.execute_numeric(&plan, &bad, &a, &a));
                assert_eq!(got, Some(crate::pipeline::ErrorKind::Invariant), "sim, {delta:+}");
                assert_eq!(gpu.live_mem_bytes(), 0, "sim leaked on the invariant path");
            }
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_cores() {
        let ex = HostParallelExecutor::new(0);
        assert!(ex.threads() >= 1);
        let caps = Executor::<f64>::capabilities(&ex);
        assert!(caps.wall_clock && !caps.simulated_time);
        assert_eq!(caps.threads, ex.threads());
        assert_eq!(ex.thread_resolution().resolved, ex.threads());
    }

    #[test]
    fn thread_resolution_rule() {
        // Explicit request always wins.
        let r = ThreadResolution::resolve(3, Some(16));
        assert_eq!((r.resolved, r.degraded()), (3, false));
        let r = ThreadResolution::resolve(3, None);
        assert_eq!((r.resolved, r.degraded()), (3, false));
        // Auto uses the detected count.
        let r = ThreadResolution::resolve(0, Some(8));
        assert_eq!((r.resolved, r.degraded()), (8, false));
        // Failed detection degrades to 1 — and flags it.
        let r = ThreadResolution::resolve(0, None);
        assert_eq!((r.resolved, r.degraded()), (1, true));
    }

    #[test]
    fn telemetry_records_thread_resolution() {
        let mut ex = HostParallelExecutor::new(2);
        assert!(Executor::<f64>::telemetry_mut(&mut ex).is_none());
        ex.enable_telemetry();
        ex.enable_telemetry(); // idempotent
        assert!(Executor::<f64>::telemetry_mut(&mut ex).is_some());
        let t = ex.take_telemetry().unwrap();
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"thread_resolution\""));
        assert!(jsonl.contains("\"requested\":2"));
        assert!(ex.take_telemetry().is_none());
    }

    #[test]
    fn empty_matrix_works() {
        let z = Csr::<f64>::zeros(64, 64);
        let mut ex = HostParallelExecutor::new(4);
        let run = Executor::<f64>::multiply(&mut ex, &z, &z, &Options::default()).unwrap();
        assert_eq!(run.matrix.nnz(), 0);
        assert_eq!(run.report.intermediate_products, 0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = Csr::<f64>::zeros(4, 5);
        let mut ex = HostParallelExecutor::new(2);
        assert!(Executor::<f64>::multiply(&mut ex, &a, &a, &Options::default()).is_err());
    }
}
