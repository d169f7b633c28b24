//! The simulated-device backend: the paper's pipeline charged to the
//! [`vgpu`] virtual Pascal GPU.
//!
//! This is the pre-refactor `pipeline::multiply` body split along the
//! [`Executor`](crate::Executor) phase boundaries. The device-operation
//! sequence (mallocs, phase transitions, kernel launches, scans,
//! telemetry emits) is preserved *exactly*, so simulated phase times,
//! peak memory, hash-probe counts and every telemetry export stay
//! byte-identical to the monolithic implementation — the plan building
//! that moved out of this file was pure host work the device never saw.

use crate::exec::{prefix_sum, Backend, BackendCaps, Execution, Executor, SymbolicOutput};
use crate::groups::{Assignment, GroupSpec, GroupTable};
use crate::hash::HashTable;
use crate::kernels::{
    count_products_block_cost, pwarp_block_cost, row_kernel, tb_block_cost, tb_global_block_cost,
    RowKind, RowWorkspace,
};
use crate::pipeline::{overflow_err, Error, Options, Result};
use crate::plan::{
    exact_row_products, global_table_size_checked, Estimator, PhasePlan, SpgemmPlan,
};
use crate::rowalg::{esc_block_cost, merge_block_cost, AlgorithmChoice};
use sparse::{Csr, Scalar, DEVICE_INDEX_BYTES};
use vgpu::device::DEFAULT_STREAM;
use vgpu::{
    primitives, AllocId, BlockCost, Gpu, KernelDesc, MemRange, Phase, SimTime, SpgemmReport,
    StreamId,
};

/// Frees a set of device allocations on drop-equivalent cleanup.
pub(crate) struct OwnedAllocs {
    ids: Vec<AllocId>,
}

impl OwnedAllocs {
    pub(crate) fn new() -> Self {
        OwnedAllocs { ids: Vec::new() }
    }
    pub(crate) fn push(&mut self, id: AllocId) -> AllocId {
        self.ids.push(id);
        id
    }
    pub(crate) fn free_all(&mut self, gpu: &mut Gpu) {
        for id in self.ids.drain(..) {
            gpu.free(id);
        }
    }
}

/// The virtual-GPU backend. Borrows the device for its lifetime; every
/// phase charges kernels to the cost model and feeds the device
/// telemetry, exactly as `pipeline::multiply` always has.
pub struct SimExecutor<'g> {
    gpu: &'g mut Gpu,
}

impl<'g> SimExecutor<'g> {
    /// Wrap a device.
    pub fn new(gpu: &'g mut Gpu) -> Self {
        SimExecutor { gpu }
    }

    /// The wrapped device (for report/telemetry access between calls).
    pub fn gpu(&mut self) -> &mut Gpu {
        self.gpu
    }
}

impl<T: Scalar> Executor<T> for SimExecutor<'_> {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            simulated_time: true,
            wall_clock: false,
            concurrent_streams: true,
            threads: 1,
            deterministic_output: true,
        }
    }

    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan> {
        SpgemmPlan::new(self.gpu.config(), a, b, opts)
    }

    /// Standalone symbolic phase (the planning path of
    /// [`crate::SymbolicPlan`]): charges the setup + count device work.
    fn execute_symbolic(
        &mut self,
        plan: &SpgemmPlan,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<SymbolicOutput> {
        let gpu = &mut *self.gpu;
        gpu.set_phase(Phase::Setup);
        let d_nprod = gpu.malloc(DEVICE_INDEX_BYTES * (a.rows() as u64 + 1), "plan_nprod")?;
        // Free the first buffer if the second allocation fails — error
        // paths must leave zero live bytes behind.
        let grp = match gpu.malloc(DEVICE_INDEX_BYTES * a.rows() as u64, "plan_group_rows") {
            Ok(id) => id,
            Err(e) => {
                gpu.free(d_nprod);
                gpu.set_phase(Phase::Other);
                return Err(e.into());
            }
        };
        gpu.set_phase(Phase::Count);
        let res = run_phase(gpu, a, b, plan, &plan.count, None);
        gpu.set_phase(Phase::Other);
        gpu.free(d_nprod);
        gpu.free(grp);
        let count = res?;
        Ok(SymbolicOutput::from_nnz_row(count.nnz_row, count.probes, count.replans))
    }

    /// Standalone numeric phase against a cached symbolic result (the
    /// execution path of [`crate::SymbolicPlan`]): charges the output
    /// malloc + calc device work.
    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        let gpu = &mut *self.gpu;
        let phase_before = gpu.profiler().phase_times();
        let m = a.rows();
        let nnz_c = symbolic.output_nnz();
        gpu.set_phase(Phase::Malloc);
        let c_bytes = DEVICE_INDEX_BYTES * (m as u64 + 1)
            + (DEVICE_INDEX_BYTES + T::BYTES as u64) * nnz_c as u64;
        let c_buf = gpu.malloc(c_bytes, "C")?;
        gpu.set_phase(Phase::Calc);
        let d_c = MemRange { id: c_buf, offset: 0, len: c_bytes };
        let res = plan
            .numeric_phase(&symbolic.nnz_row)
            .and_then(|numeric| run_phase(gpu, a, b, plan, &numeric, Some((&symbolic.rpt, d_c))));
        gpu.set_phase(Phase::Other);
        gpu.free(c_buf);
        let calc = res?;
        let report = report_from_delta(
            gpu,
            phase_before,
            "proposal (planned)".into(),
            T::PRECISION,
            plan.total_products,
            nnz_c as u64,
            calc.probes,
        );
        // lint:allow(unchecked-ctor) — hot-path assembly; rows are sorted by kernel construction
        let c = Csr::from_parts_unchecked(m, plan.cols, symbolic.rpt.clone(), calc.col, calc.val)
            .map_err(|e| {
            Error::invariant(format!("numeric phase assembled malformed C: {e}"))
        })?;
        Ok(Execution { matrix: c, report, wall: None, replans: symbolic.replans })
    }

    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.gpu.telemetry_mut()
    }

    fn device_elapsed_us(&self) -> Option<f64> {
        Some(self.gpu.elapsed().us())
    }

    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>> {
        let plan = Executor::<T>::plan(self, a, b, opts)?;
        let mut allocs = OwnedAllocs::new();
        // Open the run span here (not in the inner body) so it closes on
        // error paths too, and make it the ambient parent so every
        // device event of this run lands under it in the span tree.
        let t_run0 = self.gpu.elapsed().us();
        let run_span = self.gpu.telemetry_mut().map(|t| {
            let span = t.span_begin("spgemm", t_run0);
            (span, t.set_parent(Some(span)))
        });
        let res = multiply_inner(self.gpu, &plan, a, b, &mut allocs);
        allocs.free_all(self.gpu);
        let t_run1 = self.gpu.elapsed().us();
        if let Some((span, prev)) = run_span {
            if let Some(t) = self.gpu.telemetry_mut() {
                t.set_parent(prev);
                t.span_end(span, t_run1);
            }
        }
        match res {
            Ok(out) => Ok(out),
            Err(e) => {
                self.gpu.set_phase(Phase::Other);
                Err(e)
            }
        }
    }
}

/// Assemble a report from the profiler delta since `phase_before`.
fn report_from_delta(
    gpu: &mut Gpu,
    phase_before: Vec<(Phase, SimTime)>,
    algorithm: String,
    precision: &'static str,
    intermediate_products: u64,
    output_nnz: u64,
    hash_probes: u64,
) -> SpgemmReport {
    let phase_after = gpu.profiler().phase_times();
    let phase_times: Vec<(Phase, SimTime)> =
        phase_after.iter().zip(&phase_before).map(|(&(p, t1), &(_, t0))| (p, t1 - t0)).collect();
    let total_time = phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|&(_, t)| t).sum();
    SpgemmReport {
        algorithm,
        precision,
        total_time,
        phase_times,
        peak_mem_bytes: gpu.peak_mem_bytes(),
        intermediate_products,
        output_nnz,
        hash_probes,
        telemetry: gpu.telemetry_summary(),
    }
}

fn multiply_inner<T: Scalar>(
    gpu: &mut Gpu,
    plan: &SpgemmPlan,
    a: &Csr<T>,
    b: &Csr<T>,
    allocs: &mut OwnedAllocs,
) -> Result<Execution<T>> {
    let m = a.rows();
    let phase_before = gpu.profiler().phase_times();

    // Device inputs; allocation time is outside the measured phases (the
    // paper's breakdown starts at its setup phase).
    let d_a = allocs.push(gpu.malloc(a.device_bytes(), "A")?);
    let d_b = allocs.push(gpu.malloc(b.device_bytes(), "B")?);
    // The host uploads A and B before the measured pipeline starts;
    // sanitizer annotations are zero-cost, so the clock is untouched.
    gpu.san_note_h2d(d_a, 0, a.device_bytes());
    gpu.san_note_h2d(d_b, 0, b.device_bytes());

    // ---------------- Setup: (1) count products, (2) group ----------------
    gpu.set_phase(Phase::Setup);
    let nprod_bytes = DEVICE_INDEX_BYTES * (m as u64 + 1);
    let d_nprod = allocs.push(gpu.malloc(nprod_bytes, "d_nprod")?);
    {
        // Kernel (1): 256 rows per block; Alg. 2 traffic per row under
        // the exact estimator, only the sampled prefix under sampled:K
        // (the planning-cost saving the estimator stage buys).
        let (kernel, per_row_cap) = match plan.opts.estimator {
            Estimator::Exact => ("count_products", usize::MAX),
            Estimator::Sampled { sample } => ("estimate_products", sample.max(1)),
        };
        let mut blocks = Vec::with_capacity(m.div_ceil(256));
        for start in (0..m).step_by(256) {
            let end = (start + 256).min(m);
            let a_elems: u64 = (start..end).map(|r| a.row_nnz(r).min(per_row_cap) as u64).sum();
            blocks.push(count_products_block_cost(gpu, a_elems, (end - start) as u64));
        }
        gpu.launch(
            KernelDesc::new(kernel, DEFAULT_STREAM, 256, 0)
                .reading(d_a, 0, a.device_bytes())
                .reading(d_b, 0, b.device_bytes())
                .writing(d_nprod, 0, nprod_bytes),
            blocks,
        )?;
        if plan.opts.estimator.is_sampled() {
            if let Some(t) = gpu.telemetry_mut() {
                t.emit(
                    obs::Event::new("estimate")
                        .str("estimator", &plan.opts.estimator.to_string())
                        .u64("rows", m as u64),
                );
            }
        }
    }
    // Group arrays (the algorithm's only sizable extra memory, §III-A).
    let grp_bytes = DEVICE_INDEX_BYTES * m as u64;
    let d_grp = allocs.push(gpu.malloc(grp_bytes, "group_rows")?);
    grouping_kernel(
        gpu,
        m,
        Some((
            MemRange { id: d_nprod, offset: 0, len: nprod_bytes },
            MemRange { id: d_grp, offset: 0, len: grp_bytes },
        )),
    )?;

    // ---------------- Count: (3) symbolic hash per group ----------------
    gpu.set_phase(Phase::Count);
    let count = run_phase(gpu, a, b, plan, &plan.count, None)?;
    // (4) scan row counts into the output row pointer.
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64 + 1, DEVICE_INDEX_BYTES as u32)?;
    let rpt_c = prefix_sum(&count.nnz_row);
    let nnz_c = rpt_c.last().copied().unwrap_or(0);

    // ---------------- Malloc: (5) allocate the output ----------------
    gpu.set_phase(Phase::Malloc);
    let c_bytes =
        DEVICE_INDEX_BYTES * (m as u64 + 1) + (DEVICE_INDEX_BYTES + T::BYTES as u64) * nnz_c as u64;
    let d_c = allocs.push(gpu.malloc(c_bytes, "C")?);

    // ---------------- Calc: (6) regroup, (7) numeric ----------------
    gpu.set_phase(Phase::Calc);
    let c_range = MemRange { id: d_c, offset: 0, len: c_bytes };
    let numeric = plan.numeric_phase(&count.nnz_row)?;
    let calc = run_phase(gpu, a, b, plan, &numeric, Some((&rpt_c, c_range)))?;
    gpu.set_phase(Phase::Other);
    // Assemble the report from the profiler delta of this call.
    let report = report_from_delta(
        gpu,
        phase_before,
        "proposal".to_string(),
        T::PRECISION,
        plan.total_products,
        nnz_c as u64,
        count.probes + calc.probes,
    );
    // lint:allow(unchecked-ctor) — hot-path assembly; rows are sorted by kernel construction
    let c = Csr::from_parts_unchecked(m, b.cols(), rpt_c, calc.col, calc.val)
        .map_err(|e| Error::invariant(format!("numeric phase assembled malformed C: {e}")))?;
    Ok(Execution { matrix: c, report, wall: None, replans: count.replans })
}

/// What one phase produced on the device.
struct PhaseRun<T> {
    /// Symbolic: the exact nnz of every output row (empty when numeric).
    nnz_row: Vec<u32>,
    /// Numeric: the output columns (empty when symbolic).
    col: Vec<u32>,
    /// Numeric: the output values (empty when symbolic).
    val: Vec<T>,
    /// Hash-probe steps observed.
    probes: u64,
    /// Symbolic: rows the replan pass recounted.
    replans: u64,
}

/// One phase of the pipeline on the device: the symbolic (count) phase
/// when `out` is `None`, else the numeric (calc) phase, which writes
/// each row at `out`'s row pointer into the output buffer it names.
/// Every non-empty group of `phase` is one launch of the kernel its
/// (algorithm, assignment, phase) selects. Count rows whose shared table
/// overflowed are recounted through per-row global tables sized from
/// their intermediate products, and — under a sampled estimator — rows
/// whose global table still under-sized are replanned. The caller sets
/// the device phase.
fn run_phase<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    plan: &SpgemmPlan,
    phase: &PhasePlan,
    out: Option<(&[usize], MemRange)>,
) -> Result<PhaseRun<T>> {
    let numeric = out.is_some();
    let (prefix, label) = if numeric { ("numeric", "calc") } else { ("symbolic", "count") };
    emit_group_summary(gpu, &phase.groups, &phase.metric, label);
    let mut run =
        PhaseRun { nnz_row: Vec::new(), col: Vec::new(), val: Vec::new(), probes: 0, replans: 0 };
    match out {
        Some((rpt, _)) => {
            // (6) regroup the rows by output nnz.
            grouping_kernel(gpu, a.rows(), None)?;
            let nnz_c = rpt.last().copied().unwrap_or(0);
            run.col = vec![0; nnz_c];
            run.val = vec![T::ZERO; nnz_c];
        }
        None => run.nnz_row = vec![0; a.rows()],
    }
    let mut ws = RowWorkspace::<T>::new(plan.opts.use_mul_hash);
    ws.table.observe_probes(gpu.telemetry_enabled());
    let mut overflow = Vec::new();
    for (gi, spec) in phase.groups.groups.iter().enumerate() {
        let rows = &phase.rows_by_group[gi];
        if rows.is_empty() {
            continue;
        }
        let kernel = GroupKernel::of(spec, numeric);
        let launch = Launch {
            name: format!("{prefix}_{}_g{gi}", kernel.label()),
            kernel,
            spec,
            stream: plan.stream_for(gi),
            block_threads: spec.block_threads,
            rows,
            caps: match kernel {
                GroupKernel::Global => {
                    rows.iter().map(|&r| phase.table_size_for(r as usize)).collect()
                }
                _ => Vec::new(),
            },
            scratch: match kernel {
                GroupKernel::Global => Some("numeric_global_tables"),
                GroupKernel::Merge if numeric => Some("numeric_merge_buffers"),
                _ => None,
            },
            rows_per_block: match kernel {
                GroupKernel::Pwarp { .. } => phase.groups.pwarp_rows_per_block(),
                _ => 1,
            },
        };
        overflow.extend(launch_rows(gpu, a, b, &mut ws, launch, out, &mut run)?);
        drain_probe_stats(gpu, &mut ws.table, label, gi);
    }
    if numeric && !overflow.is_empty() {
        // Reported once every group's device buffers are released.
        return Err(Error::invariant("a numeric row did not match its symbolic nnz"));
    }
    if numeric || overflow.is_empty() {
        return Ok(run);
    }
    // Second pass for rows whose table overflowed shared memory:
    // per-row global tables sized from their intermediate products.
    let caps = overflow.iter().map(|&r| global_table_size_checked(phase.metric[r as usize]));
    let caps = caps.collect::<Option<_>>().ok_or_else(|| overflow_err("global hash-table size"))?;
    let pass =
        Launch::global(gpu, "symbolic_global", "count_global_tables", phase, &overflow, caps);
    let replan_rows = launch_rows(gpu, a, b, &mut ws, pass, None, &mut run)?;
    drain_probe_stats(gpu, &mut ws.table, "count", 0);
    if replan_rows.is_empty() {
        return Ok(run);
    }
    // Third pass (DESIGN.md §16's replan contract): recount the rows
    // whose global table came from a sampled estimate that under-shot
    // their true products, with tables sized from *exact* products. An
    // exact cap is ≥ 2 × the row's true products ≥ its nnz, so this
    // pass cannot overflow — at most one replan per row.
    if !plan.opts.estimator.is_sampled() {
        return Err(Error::invariant(
            "exact-estimator symbolic table overflowed its global capacity",
        ));
    }
    run.replans = replan_rows.len() as u64;
    let caps = replan_rows
        .iter()
        .map(|&r| global_table_size_checked(exact_row_products(a, b, r as usize)));
    let caps = caps.collect::<Option<_>>().ok_or_else(|| overflow_err("global hash-table size"))?;
    let pass =
        Launch::global(gpu, "symbolic_replan", "replan_global_tables", phase, &replan_rows, caps);
    if !launch_rows(gpu, a, b, &mut ws, pass, None, &mut run)?.is_empty() {
        return Err(Error::invariant("exact-cap replan table overflowed"));
    }
    drain_probe_stats(gpu, &mut ws.table, "count", 0);
    if let Some(t) = gpu.telemetry_mut() {
        t.emit(obs::Event::new("replan").str("phase", "count").u64("rows", run.replans));
    }
    Ok(run)
}

/// The kernel one sim launch runs over its rows; with the phase it
/// names the launch and prices its blocks.
#[derive(Debug, Clone, Copy)]
enum GroupKernel {
    /// ESC rows expand into shared memory and sort — no table, no
    /// overflow, exact counts on the first pass.
    Esc,
    /// Merge rows fold B-rows into a sorted accumulator in global
    /// memory, skipping both the doomed shared attempt and the global
    /// hash tables.
    Merge,
    /// TB/ROW hash rows on the group's shared table (group 0's first
    /// attempt in the count phase).
    Tb,
    /// TB/ROW hash rows on per-row global tables.
    Global,
    /// PWARP/ROW hash rows, several to a block.
    Pwarp { width: usize },
}

impl GroupKernel {
    /// The kernel a group runs in a phase: its algorithm, and for hash
    /// groups its thread assignment. Group 0's hash rows try the shared
    /// table first in the count phase; in the numeric phase their exact
    /// nnz sizes a global table straight away.
    fn of(spec: &GroupSpec, numeric: bool) -> Self {
        match (spec.algorithm, spec.assignment) {
            (AlgorithmChoice::Esc, _) => GroupKernel::Esc,
            (AlgorithmChoice::Merge, _) => GroupKernel::Merge,
            (AlgorithmChoice::Hash, Assignment::Pwarp { width }) => GroupKernel::Pwarp { width },
            (AlgorithmChoice::Hash, Assignment::TbRowGlobal) if numeric => GroupKernel::Global,
            (AlgorithmChoice::Hash, _) => GroupKernel::Tb,
        }
    }

    fn label(self) -> &'static str {
        match self {
            GroupKernel::Esc => "esc",
            GroupKernel::Merge => "merge",
            GroupKernel::Tb => "tb",
            GroupKernel::Global => "global",
            GroupKernel::Pwarp { .. } => "pwarp",
        }
    }
}

/// One kernel launch over a set of rows.
struct Launch<'p> {
    name: String,
    kernel: GroupKernel,
    /// The group whose launch shape and table size the rows use.
    spec: &'p GroupSpec,
    stream: StreamId,
    block_threads: usize,
    rows: &'p [u32],
    /// Per-row table capacity of a `Global` launch (empty otherwise).
    caps: Vec<usize>,
    /// Device tag of the launch's global scratch: the `Global` kernel's
    /// tables, or the numeric merge's ping-pong accumulators.
    scratch: Option<&'static str>,
    rows_per_block: usize,
}

impl<'p> Launch<'p> {
    /// A count-phase pass over `rows` with per-row global tables of
    /// `caps` slots, on the default stream at the device's maximum
    /// block size.
    fn global(
        gpu: &Gpu,
        name: &str,
        tag: &'static str,
        phase: &'p PhasePlan,
        rows: &'p [u32],
        caps: Vec<usize>,
    ) -> Self {
        Launch {
            name: name.to_string(),
            kernel: GroupKernel::Global,
            spec: &phase.groups.groups[0],
            stream: DEFAULT_STREAM,
            block_threads: gpu.config().max_threads_per_block,
            rows,
            caps,
            scratch: Some(tag),
            rows_per_block: 1,
        }
    }
}

/// Run one launch: every row through its kernel — numeric rows into
/// `run`'s output at `out`'s row pointer, symbolic counts into
/// `run.nnz_row` — then the launch itself, inside a malloc → memset →
/// launch → free of its global scratch when it has one. Returns the
/// rows whose kernel overflowed.
fn launch_rows<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    ws: &mut RowWorkspace<T>,
    l: Launch<'_>,
    out: Option<(&[usize], MemRange)>,
    run: &mut PhaseRun<T>,
) -> Result<Vec<u32>> {
    let vb = out.is_some().then_some(T::BYTES);
    let mut overflowed = Vec::new();
    let mut blocks = Vec::with_capacity(l.rows.len().div_ceil(l.rows_per_block));
    let mut stats = Vec::with_capacity(l.rows_per_block);
    for (bi, chunk) in l.rows.chunks(l.rows_per_block).enumerate() {
        stats.clear();
        for &r in chunk {
            let kind = match l.kernel {
                GroupKernel::Esc => RowKind::Esc,
                GroupKernel::Merge => RowKind::Merge,
                GroupKernel::Tb => RowKind::Hash { cap: l.spec.table_size },
                GroupKernel::Global => RowKind::Hash { cap: l.caps[bi] },
                GroupKernel::Pwarp { width } => RowKind::Pwarp { width, cap: l.spec.table_size },
            };
            let r = r as usize;
            let row_out = out.map(|(rpt, _)| {
                let span = rpt[r]..rpt[r + 1];
                (&mut run.col[span.clone()], &mut run.val[span])
            });
            let s = row_kernel(kind, a, b, r, ws, row_out);
            run.probes += s.probes;
            if s.overflowed {
                overflowed.push(r as u32);
            } else if out.is_none() {
                run.nnz_row[r] = s.nnz;
            }
            stats.push(s);
        }
        blocks.push(match l.kernel {
            GroupKernel::Esc => esc_block_cost(gpu, l.spec.block_threads, &stats[0], vb),
            GroupKernel::Merge => merge_block_cost(gpu, &stats[0], vb),
            GroupKernel::Tb => tb_block_cost(gpu, l.spec, &stats[0], vb),
            GroupKernel::Global => tb_global_block_cost(gpu, &stats[0], l.caps[bi], vb),
            GroupKernel::Pwarp { width } => pwarp_block_cost(gpu, l.spec, width, &stats, vb),
        });
    }
    let shared = match l.kernel {
        GroupKernel::Merge | GroupKernel::Global => 0,
        _ => l.spec.shared_bytes,
    };
    let mut desc = KernelDesc::new(l.name, l.stream, l.block_threads, shared);
    if let Some((_, c)) = out {
        // Each numeric kernel scatters into its rows' slice of C;
        // annotating the whole output range per launch is coarse but
        // sound (writes only mark initialization, they cannot
        // false-positive).
        desc = desc.writing(c.id, c.offset, c.len);
    }
    let Some(tag) = l.scratch else {
        gpu.launch(desc, blocks)?;
        return Ok(overflowed);
    };
    let entry = DEVICE_INDEX_BYTES + vb.unwrap_or(0) as u64;
    let bytes: u64 = match (l.kernel, out) {
        // Ping-pong accumulators sized from the rows' exact output nnz.
        (GroupKernel::Merge, Some((rpt, _))) => {
            l.rows.iter().map(|&r| entry * 2 * (rpt[r as usize + 1] - rpt[r as usize]) as u64).sum()
        }
        _ => l.caps.iter().map(|&cap| entry * cap as u64).sum(),
    };
    let zeroed = matches!(l.kernel, GroupKernel::Global);
    launch_with_scratch(gpu, desc, blocks, tag, bytes, zeroed)?;
    Ok(overflowed)
}

/// Launch `desc` around a device scratch buffer of `bytes` that lives
/// only through the launch: malloc → memset (when `zeroed`) → launch →
/// free. The buffer is freed on every exit, so an injected memset or
/// launch fault cannot leak it.
fn launch_with_scratch(
    gpu: &mut Gpu,
    mut desc: KernelDesc,
    blocks: Vec<BlockCost>,
    tag: &str,
    bytes: u64,
    zeroed: bool,
) -> Result<()> {
    let buf = gpu.malloc(bytes, tag)?;
    let mut res = Ok(());
    if zeroed {
        res = primitives::memset(gpu, desc.stream, bytes);
        if res.is_ok() {
            gpu.san_note_memset(buf, 0, bytes);
        }
        desc = desc.reading(buf, 0, bytes);
    }
    let res = res.and_then(|()| gpu.launch(desc.writing(buf, 0, bytes), blocks));
    gpu.free(buf); // synchronizes; the buffer only lives through the launch
    Ok(res?)
}

/// Drain the hash table's probe observer into the device telemetry
/// under `{phase}.g{gi}.*` histogram names (no-op when telemetry and
/// hence the observer are off).
fn drain_probe_stats<T: Scalar>(gpu: &mut Gpu, table: &mut HashTable<T>, phase: &str, gi: usize) {
    if let Some(stats) = table.take_probe_stats() {
        if let Some(t) = gpu.telemetry_mut() {
            t.registry.hist_merge(&format!("{phase}.g{gi}.probe_len"), &stats.probe_len);
            t.registry.hist_merge(&format!("{phase}.g{gi}.row_occupancy"), &stats.row_occupancy);
            t.registry.hist_merge(&format!("{phase}.g{gi}.load_permille"), &stats.load_permille);
        }
    }
}

/// Emit one `group` event per group plus per-group row-metric
/// histograms (no-op when telemetry is off).
fn emit_group_summary(gpu: &mut Gpu, groups: &GroupTable, metric: &[usize], phase: &str) {
    if !gpu.telemetry_enabled() {
        return;
    }
    let occ = groups.summarize(metric);
    if let Some(t) = gpu.telemetry_mut() {
        for o in &occ {
            t.emit(
                obs::Event::new("group")
                    .str("phase", phase)
                    .str("algo", &groups.groups[o.id].algorithm.to_string())
                    .u64("group", o.id as u64)
                    .u64("rows", o.rows)
                    .u64("metric_total", o.metric_total),
            );
            t.registry.counter_add(&format!("{phase}.g{}.rows", o.id), o.rows);
            t.registry.hist_merge(&format!("{phase}.g{}.row_metric", o.id), &o.metric_hist);
        }
    }
}

/// Device cost of one grouping pass: read the per-row metric, histogram,
/// scan, scatter row indices (≈ two reads + one write of 4 B per row).
/// `san` optionally names the (metric, group-rows) device ranges so the
/// sanitizer can check the pass when those buffers have device ids.
pub(crate) fn grouping_kernel(
    gpu: &mut Gpu,
    m: usize,
    san: Option<(MemRange, MemRange)>,
) -> Result<()> {
    let n = gpu.config().num_sms * 4;
    let per_block_bytes = 12.0 * m as f64 / n as f64;
    let blocks = vec![
        {
            let mut c = gpu.block_cost();
            c.global_coalesced(per_block_bytes);
            c.compute(m as f64 / 32.0 / n as f64 * 3.0);
            c.finish()
        };
        n
    ];
    let mut desc = KernelDesc::new("grouping", DEFAULT_STREAM, 256, 0);
    if let Some((metric, out)) = san {
        desc =
            desc.reading(metric.id, metric.offset, metric.len).writing(out.id, out.offset, out.len);
    }
    gpu.launch(desc, blocks)?;
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64, DEVICE_INDEX_BYTES as u32)?;
    Ok(())
}
