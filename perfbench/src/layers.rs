//! The traced run's per-layer rounds, shared by every workload. Each
//! round calls the layers' public functions one at a time around spans:
//! an untraced host multiply (the overhead base) and the same multiply
//! split into plan → symbolic → numeric, back to back in alternating
//! order so each pair sees the same machine, then the sim backend's
//! symbolic and numeric phases, the Gustavson floor, the engine's
//! fingerprint and the memory forecast.

use crate::check::{bitwise_eq, matches_reference, SimExact};
use crate::report::Report;
use crate::stats::{median, Ratio};
use crate::trace::{Span, Tracer};
use engine::PlanKey;
use nsparse_core::{
    estimate_memory, BatchedExecutor, Executor, HostParallelExecutor, Options, SimExecutor,
};
use sparse::spgemm_ref::spgemm_gustavson;
use sparse::Csr;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use vgpu::{DeviceConfig, Gpu, Phase};

/// One input squared by the rounds, with its checked product.
pub struct Input<'a> {
    /// Identifies the input for the exact-repeat checks.
    pub key: usize,
    pub a: &'a Csr<f64>,
    /// The sim product computed at set-up.
    pub reference: &'a Csr<f64>,
    pub products: u64,
}

struct HostOp {
    /// The untraced multiply paired with this traced one, ms.
    untraced_ms: f64,
    root: usize,
    plan: usize,
    symbolic: usize,
    numeric: usize,
    rows: f64,
    products: f64,
    output_nnz: f64,
}

struct SimOp {
    root: usize,
    symbolic: usize,
    numeric: usize,
    products: f64,
}

/// Host probe counts of one input: (symbolic, numeric, products).
type Probes = (u64, u64, u64);

pub struct Layers {
    host: HostParallelExecutor,
    opts: Options,
    rounds: usize,
    untraced_ms: Vec<f64>,
    host_ops: Vec<HostOp>,
    sim_ops: Vec<SimOp>,
    gustavson: Vec<usize>,
    fingerprint: Vec<usize>,
    estimate: Vec<usize>,
    probes: BTreeMap<usize, Probes>,
    batched: Vec<(usize, usize)>,
    batched_shape: Option<(usize, u32)>,
}

fn es(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            host: HostParallelExecutor::new(1),
            opts: Options::default(),
            rounds: 0,
            untraced_ms: Vec::new(),
            host_ops: Vec::new(),
            sim_ops: Vec::new(),
            gustavson: Vec::new(),
            fingerprint: Vec::new(),
            estimate: Vec::new(),
            probes: BTreeMap::new(),
            batched: Vec::new(),
            batched_shape: None,
        }
    }

    /// One round over `inp`; every product is checked after its span.
    pub fn round(&mut self, tr: &mut Tracer, rep: &mut Report, inp: &Input) {
        let a = inp.a;
        let untraced_first = self.rounds % 2 == 0;
        self.rounds += 1;
        let mut untraced = None;
        if untraced_first {
            untraced = Some(self.untraced(rep, inp));
        }
        tr.next_op();
        let op = self.host_op(tr, inp);
        let untraced = untraced.unwrap_or_else(|| self.untraced(rep, inp));
        match op {
            Ok(op) => {
                self.host_ops.push(HostOp { untraced_ms: untraced, ..op });
                rep.op(Ok(()));
            }
            Err(e) => rep.op(Err(e)),
        }

        tr.next_op();
        let res = self.sim_op(tr, inp);
        rep.op(res);

        tr.next_op();
        let (gus, id) = tr.span("floor.gustavson", || spgemm_gustavson(black_box(a), black_box(a)));
        self.gustavson.push(id);
        rep.op(gus
            .map_err(es)
            .and_then(|g| matches_reference(inp.reference, &g, "gustavson floor")));

        let (key, id) =
            tr.span("engine.fingerprint", || PlanKey::new(black_box(a), black_box(a), &self.opts));
        black_box(key);
        self.fingerprint.push(id);
        let (est, id) = tr.span("engine.estimate", || estimate_memory(black_box(a), black_box(a)));
        self.estimate.push(id);
        rep.op(black_box(est).map(|_| ()).map_err(es));
    }

    /// One untraced host multiply, checked; returns its milliseconds.
    fn untraced(&mut self, rep: &mut Report, inp: &Input) -> f64 {
        let a = inp.a;
        let t = Instant::now();
        let run = self.host.multiply(black_box(a), black_box(a), &self.opts);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.untraced_ms.push(ms);
        rep.op(run.map_err(es).and_then(|r| bitwise_eq(&r.matrix, inp.reference, "host multiply")));
        ms
    }

    /// The host multiply split into its layers under spans; the returned
    /// op is not yet paired (`untraced_ms` is `NaN`).
    fn host_op(&mut self, tr: &mut Tracer, inp: &Input) -> Result<HostOp, String> {
        let (a, host, opts) = (inp.a, &mut self.host, &self.opts);
        let root = tr.enter("host.op");
        let (plan, plan_id) = tr.span("plan", || host.plan(a, a, opts));
        let plan = plan.map_err(es);
        let sym = plan.as_ref().map_err(Clone::clone).and_then(|p| {
            let (s, id) = tr.span("host.symbolic", || host.execute_symbolic(p, a, a));
            s.map(|s| (s, id)).map_err(es)
        });
        let num = match (&plan, &sym) {
            (Ok(p), Ok((s, _))) => {
                let (n, id) = tr.span("host.numeric", || host.execute_numeric(p, s, a, a));
                n.map(|n| (n, id)).map_err(es)
            }
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        tr.exit(root);
        let ((sym, sym_id), (num, num_id)) = (sym?, num?);
        bitwise_eq(&num.matrix, inp.reference, "host plan/symbolic/numeric")?;
        let probes = (sym.hash_probes, num.report.hash_probes, inp.products);
        if *self.probes.entry(inp.key).or_insert(probes) != probes {
            return Err(format!("host probe counts changed between passes on input {}", inp.key));
        }
        Ok(HostOp {
            untraced_ms: f64::NAN,
            root,
            plan: plan_id,
            symbolic: sym_id,
            numeric: num_id,
            rows: a.rows() as f64,
            products: inp.products as f64,
            output_nnz: num.matrix.nnz() as f64,
        })
    }

    fn sim_op(&mut self, tr: &mut Tracer, inp: &Input) -> Result<(), String> {
        let a = inp.a;
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut sim = SimExecutor::new(&mut gpu);
        let root = tr.enter("sim.op");
        let res = (|| {
            let (plan, _) = tr.span("sim.plan", || sim.plan(a, a, &self.opts));
            let plan = plan.map_err(es)?;
            let (sym, sym_id) = tr.span("sim.symbolic", || sim.execute_symbolic(&plan, a, a));
            let sym = sym.map_err(es)?;
            let (num, num_id) = tr.span("sim.numeric", || sim.execute_numeric(&plan, &sym, a, a));
            Ok::<_, String>((num.map_err(es)?, sym_id, num_id))
        })();
        tr.exit(root);
        let (num, symbolic, numeric) = res?;
        bitwise_eq(&num.matrix, inp.reference, "sim plan/symbolic/numeric")?;
        self.sim_ops.push(SimOp { root, symbolic, numeric, products: inp.products as f64 });
        Ok(())
    }

    /// One unbounded direct sim multiply next to one row-batched multiply
    /// of the same input under `capacity` bytes.
    pub fn batched_pair(&mut self, tr: &mut Tracer, rep: &mut Report, inp: &Input, capacity: u64) {
        let a = inp.a;
        tr.next_op();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut direct = SimExecutor::new(&mut gpu);
        let (run, direct_id) = tr.span("batched.direct", || direct.multiply(a, a, &self.opts));
        rep.op(run
            .map_err(es)
            .and_then(|r| bitwise_eq(&r.matrix, inp.reference, "direct sim multiply")));

        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut bx = BatchedExecutor::new(SimExecutor::new(&mut gpu), capacity);
        let (run, id) = tr.span("batched.multiply", || bx.multiply(a, a, &self.opts));
        let shape = (bx.batches_used(), bx.retries_used());
        let res =
            run.map_err(es).and_then(|r| bitwise_eq(&r.matrix, inp.reference, "batched multiply"));
        let res = res.and_then(|()| match self.batched_shape.replace(shape) {
            Some(prev) if prev != shape => {
                Err(format!("batching changed between passes: {prev:?} vs {shape:?}"))
            }
            _ if shape.0 < 2 => Err(format!(
                "batched multiply ran in {} batch(es); the budget must split it",
                shape.0
            )),
            _ => Ok(()),
        });
        if res.is_ok() {
            self.batched.push((id, direct_id));
        }
        rep.op(res);
    }

    /// Per-layer metrics from the recorded spans, plus the accounting
    /// check that the traced layers add up to the untraced multiply.
    pub fn report(&self, tr: &Tracer, rep: &mut Report) {
        let st = tr.self_times_ns();
        let dur = |id: usize| tr.spans()[id].duration_ns();
        let ms = |ids: &mut dyn Iterator<Item = f64>| median(&ids.collect::<Vec<_>>()) / 1e6;
        let n_host = self.host_ops.len();
        let hn = format!("median of {n_host} rounds");

        let plan_ms = ms(&mut self.host_ops.iter().map(|o| st[o.plan]));
        rep.put("plan.ms_p50", plan_ms, hn.clone());
        let per =
            |f: &dyn Fn(&HostOp) -> f64| median(&self.host_ops.iter().map(f).collect::<Vec<_>>());
        rep.put("plan.ns_per_row", per(&|o| st[o.plan] / o.rows), hn.clone());

        let sym_ms = ms(&mut self.host_ops.iter().map(|o| st[o.symbolic]));
        rep.put("host.symbolic.ms_p50", sym_ms, hn.clone());
        rep.put("host.symbolic.ns_per_product", per(&|o| st[o.symbolic] / o.products), hn.clone());
        let num_ms = ms(&mut self.host_ops.iter().map(|o| st[o.numeric]));
        rep.put("host.numeric.ms_p50", num_ms, hn.clone());
        rep.put("host.numeric.ns_per_product", per(&|o| st[o.numeric] / o.products), hn.clone());
        rep.put(
            "host.numeric.ns_per_output_nnz",
            per(&|o| st[o.numeric] / o.output_nnz),
            hn.clone(),
        );

        let (ps, pn, prods) =
            self.probes.values().fold((0, 0, 0), |(s, n, p), &(a, b, c)| (s + a, n + b, p + c));
        let inputs = self.probes.len();
        let r = Ratio::new(ps as f64, prods as f64);
        rep.put(
            "host.symbolic.probes_per_product",
            r.value(),
            format!("exact over {inputs} input(s): {}", r.describe("probes", "products")),
        );
        let r = Ratio::new(pn as f64, prods as f64);
        rep.put(
            "host.numeric.probes_per_product",
            r.value(),
            format!("exact over {inputs} input(s): {}", r.describe("probes", "products")),
        );

        let sn = format!("median of {} rounds, fresh device each", self.sim_ops.len());
        rep.put(
            "sim.symbolic.ms_p50",
            ms(&mut self.sim_ops.iter().map(|o| dur(o.symbolic))),
            sn.clone(),
        );
        rep.put(
            "sim.numeric.ms_p50",
            ms(&mut self.sim_ops.iter().map(|o| dur(o.numeric))),
            sn.clone(),
        );
        let v: Vec<f64> = self.sim_ops.iter().map(|o| dur(o.root) / o.products).collect();
        rep.put("sim.host_ns_per_product", median(&v), format!("{sn}; plan+symbolic+numeric wall"));

        let untraced = median(&self.untraced_ms);
        let gus = ms(&mut self.gustavson.iter().map(|&i| dur(i)));
        rep.put(
            "floor.gustavson_ms_p50",
            gus,
            format!("median of {} rounds", self.gustavson.len()),
        );
        let r = Ratio::new(untraced, gus);
        rep.put(
            "floor.gustavson_ratio",
            r.value(),
            r.describe("host:1 multiply p50 ms", "gustavson p50 ms"),
        );

        let fp: Vec<f64> = self.fingerprint.iter().map(|&i| dur(i) / 1e3).collect();
        rep.put(
            "engine.fingerprint_us",
            median(&fp),
            format!("PlanKey::new, median of {}", fp.len()),
        );
        let est: Vec<f64> = self.estimate.iter().map(|&i| dur(i) / 1e3).collect();
        rep.put(
            "engine.estimate_us",
            median(&est),
            format!("estimate_memory, median of {}", est.len()),
        );

        let bn = format!("median of {} pairs", self.batched.len());
        let bms = ms(&mut self.batched.iter().map(|&(b, _)| dur(b)));
        let dms = ms(&mut self.batched.iter().map(|&(_, d)| dur(d)));
        rep.put("batched.ms_p50", bms, bn.clone());
        let (batches, retries) = self.batched_shape.unwrap_or((0, 0));
        rep.put("batched.batches", batches as f64, "exact");
        rep.put("batched.retries", f64::from(retries), "exact");
        let r = Ratio::new(bms, dms);
        rep.put(
            "batched.overhead_ratio",
            r.value(),
            format!("{bn}: {}", r.describe("batched p50 ms", "direct p50 ms")),
        );

        let traced = ms(&mut self.host_ops.iter().map(|o| dur(o.root)));
        rep.put(
            "trace.untraced_ms_p50",
            untraced,
            format!("host:1 multiply, median of {}", self.untraced_ms.len()),
        );
        rep.put(
            "trace.traced_ms_p50",
            traced,
            format!("host plan+symbolic+numeric under spans, {hn}"),
        );
        let pairs: Vec<Ratio> = self
            .host_ops
            .iter()
            .map(|o| Ratio::new(dur(o.root) / 1e6 - o.untraced_ms, o.untraced_ms))
            .collect();
        let overhead = median_ratio(&pairs);
        rep.put(
            "trace.overhead_frac",
            overhead.value(),
            format!(
                "median over {n_host} back-to-back pairs of (traced-untraced ms) / untraced ms; its pair {}",
                overhead.describe("traced-untraced ms", "untraced ms")
            ),
        );

        if let Err(e) = accounting(tr.spans(), &st, &self.host_ops) {
            rep.error(e);
        }
    }
}

/// Largest gap, as a share of the untraced multiply, between it and the
/// traced self times of plan, symbolic and numeric run next to it (the
/// median over the pairs): what tracing and the split path may cost
/// together before the check fails.
pub const MAX_TRACE_GAP: f64 = 0.10;
/// Largest share of the traced host multiplies that their plan, symbolic
/// and numeric spans may leave uncovered.
pub const MAX_ROOT_SELF: f64 = 0.01;

/// The middle one of `rs` by value (the upper middle of an even count),
/// with its own base.
fn median_ratio(rs: &[Ratio]) -> Ratio {
    let mut v = rs.to_vec();
    v.sort_by(|x, y| x.value().total_cmp(&y.value()));
    v.get(v.len() / 2).copied().unwrap_or(Ratio::new(f64::NAN, f64::NAN))
}

/// Layer accounting of the traced host multiplies, each against the
/// untraced one run next to it: the self times of plan, symbolic and
/// numeric must add up to the untraced multiply within
/// [`MAX_TRACE_GAP`] (median over the pairs), and those three spans must
/// cover all but [`MAX_ROOT_SELF`] of their `host.op` parents.
fn accounting(spans: &[Span], self_ns: &[f64], ops: &[HostOp]) -> Result<(), String> {
    let gaps: Vec<Ratio> = ops
        .iter()
        .map(|o| {
            let layers = (self_ns[o.plan] + self_ns[o.symbolic] + self_ns[o.numeric]) / 1e6;
            Ratio::new(layers - o.untraced_ms, o.untraced_ms)
        })
        .collect();
    let gap = median_ratio(&gaps);
    if !(gap.value().abs() <= MAX_TRACE_GAP) {
        return Err(format!(
            "traced plan+symbolic+numeric vs the untraced multiply next to it, median over {} pairs: gap {:.4} exceeds {MAX_TRACE_GAP} ({})",
            ops.len(),
            gap.value(),
            gap.describe("layers-untraced ms", "untraced ms")
        ));
    }
    let root: f64 = ops.iter().map(|o| spans[o.root].duration_ns()).sum();
    let uncovered: f64 = ops.iter().map(|o| self_ns[o.root]).sum();
    let share = uncovered / root;
    if !(share <= MAX_ROOT_SELF) {
        return Err(format!(
            "host.op spans leave {share:.4} of their time outside plan, symbolic and numeric (at most {MAX_ROOT_SELF})"
        ));
    }
    Ok(())
}

/// The simulated per-phase metrics, summed over `exacts` (one entry per
/// distinct input). Each multiply's phases were checked to add up to its
/// kernel total exactly when it was captured.
pub fn put_sim_exact(exacts: &[&SimExact], rep: &mut Report) {
    let note = format!("exact, simulated P100; sum over {} input(s)", exacts.len());
    for (name, phase) in [
        ("sim.setup_us", Phase::Setup),
        ("sim.count_us", Phase::Count),
        ("sim.malloc_us", Phase::Malloc),
        ("sim.calc_us", Phase::Calc),
    ] {
        rep.put(name, exacts.iter().map(|e| e.phase_us(phase)).sum(), note.clone());
    }
    rep.put("sim.probes", exacts.iter().map(|e| e.probes as f64).sum(), note);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: f64, end_ms: f64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start_ms * 1e6, end_ns: end_ms * 1e6, parent, op: 1 }
    }

    /// One traced host multiply of `root_ms`, whose plan, symbolic and
    /// numeric spans cover all of it except `gap_ms` before numeric,
    /// paired with an untraced multiply of `untraced_ms`.
    fn traced_op(root_ms: f64, gap_ms: f64, untraced_ms: f64) -> (Vec<Span>, HostOp) {
        let spans = vec![
            span("host.op", 0.0, root_ms, None),
            span("plan", 0.0, 1.0, Some(0)),
            span("host.symbolic", 1.0, 40.0, Some(0)),
            span("host.numeric", 40.0 + gap_ms, root_ms, Some(0)),
        ];
        let op = HostOp {
            untraced_ms,
            root: 0,
            plan: 1,
            symbolic: 2,
            numeric: 3,
            rows: 1.0,
            products: 1.0,
            output_nnz: 1.0,
        };
        (spans, op)
    }

    /// Accounting over traced/untraced pairs `(root_ms, untraced_ms)`,
    /// each traced op leaving `gap_ms` uncovered.
    fn check(pairs: &[(f64, f64)], gap_ms: f64) -> Result<(), String> {
        let (mut spans, mut ops) = (Vec::new(), Vec::new());
        for &(root_ms, untraced_ms) in pairs {
            let (s, mut op) = traced_op(root_ms, gap_ms, untraced_ms);
            let base = spans.len();
            spans
                .extend(s.into_iter().map(|sp| Span { parent: sp.parent.map(|p| p + base), ..sp }));
            for id in [&mut op.root, &mut op.plan, &mut op.symbolic, &mut op.numeric] {
                *id += base;
            }
            ops.push(op);
        }
        let st = crate::trace::self_times_ns(&spans);
        accounting(&spans, &st, &ops)
    }

    #[test]
    fn accounting_accepts_layers_that_add_up() {
        check(&[(100.0, 97.0), (103.0, 100.0), (200.0, 203.0)], 0.5).unwrap();
    }

    #[test]
    fn accounting_pairs_each_traced_multiply_with_its_neighbour() {
        // The machine halves its speed between pairs: the medians of the
        // traced and untraced samples lie far apart, the pairs agree.
        check(&[(100.0, 99.0), (200.0, 198.0), (100.0, 101.0), (200.0, 202.0)], 0.0).unwrap();
    }

    #[test]
    fn accounting_fails_when_tracing_costs_more_than_the_cap() {
        // Traced layers 50% above the untraced multiply next to them.
        let e = check(&[(150.0, 100.0), (300.0, 200.0), (150.0, 100.0)], 0.0).unwrap_err();
        assert!(e.contains("gap 0.5000"), "{e}");
        // And below it: the split path may not be much faster either.
        assert!(check(&[(80.0, 100.0)], 0.0).is_err());
        // A single cheap pair does not hide a costly majority.
        assert!(check(&[(100.0, 100.0), (130.0, 100.0), (130.0, 100.0)], 0.0).is_err());
    }

    #[test]
    fn accounting_fails_when_the_layers_leave_the_multiply_uncovered() {
        // 5 ms of a 100 ms multiply fall outside the three layer spans,
        // though the layers still add up to the untraced time.
        let e = check(&[(100.0, 95.0)], 5.0).unwrap_err();
        assert!(e.contains("0.0500 of their time"), "{e}");
    }
}
