//! Symbolic-phase reuse: plan once, execute the numeric phase many times.
//!
//! The paper's motivating applications recompute products with a *fixed
//! sparsity pattern* and changing values — AMG rebuilds `Pᵀ A P` per
//! time step, iterative methods re-form the same Galerkin triple
//! product, MCL expands a matrix whose pattern stabilizes. For those,
//! the setup + count phases (grouping, symbolic hashing, output sizing)
//! depend only on the pattern and can be cached.
//!
//! [`SymbolicPlan`] (the pre-executor-split `SpgemmPlan` — that name now
//! belongs to the backend-neutral plan in [`crate::plan`]) captures
//! everything the numeric phase needs: the backend-neutral plan, the
//! symbolic result (output row pointer, per-row nnz) and the options.
//! [`SymbolicPlan::execute_with`] then runs only the output malloc +
//! numeric phase on any [`crate::Executor`] — the same split the
//! executor draws, promoted to a cacheable object. A fingerprint of
//! both input patterns guards against executing a plan on matrices it
//! was not built for.

use crate::exec::{Execution, Executor, SymbolicOutput};
use crate::pipeline::{Error, Options, Result};
use crate::plan::SpgemmPlan;
use sparse::{Csr, Scalar};
use vgpu::SimTime;

/// FNV-1a over the structural arrays of a matrix (pattern only — values
/// are free to change between plan and execute). Public because the
/// engine's plan cache keys on exactly this fingerprint (dims + `rpt` +
/// `col`).
pub fn pattern_fingerprint<T: Scalar>(m: &Csr<T>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    for &p in m.rpt() {
        eat(p as u64);
    }
    for &c in m.col() {
        eat(c as u64);
    }
    h
}

/// A reusable symbolic plan for `C = A * B` with fixed patterns.
#[derive(Debug, Clone)]
pub struct SymbolicPlan<T> {
    plan: SpgemmPlan,
    fingerprint_a: u64,
    fingerprint_b: u64,
    symbolic: SymbolicOutput,
    /// Simulated time spent building the plan (the count phase); zero
    /// on backends without a simulated clock.
    pub plan_time: SimTime,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> SymbolicPlan<T> {
    /// Build a plan through *any* executor — the backend-neutral form
    /// the engine's plan cache uses, so a cached symbolic result can be
    /// produced by (and later replayed on) the sim or host backend
    /// alike. `plan_time` is the simulated time the symbolic phase
    /// charged ([`Executor::device_elapsed_us`]); wall-clock backends
    /// charge none.
    pub fn from_executor<E: Executor<T>>(
        exec: &mut E,
        a: &Csr<T>,
        b: &Csr<T>,
        opts: &Options,
    ) -> Result<Self> {
        let t0 = exec.device_elapsed_us();
        let plan = exec.plan(a, b, opts)?;
        let symbolic = exec.execute_symbolic(&plan, a, b)?;
        let plan_time = match (t0, exec.device_elapsed_us()) {
            (Some(t0), Some(t1)) => SimTime::from_us(t1 - t0),
            _ => SimTime::ZERO,
        };
        Ok(SymbolicPlan {
            plan,
            fingerprint_a: pattern_fingerprint(a),
            fingerprint_b: pattern_fingerprint(b),
            symbolic,
            plan_time,
            _marker: std::marker::PhantomData,
        })
    }

    /// nnz the output will have.
    pub fn output_nnz(&self) -> usize {
        self.symbolic.output_nnz()
    }

    /// The backend-neutral plan this symbolic result was derived from.
    pub fn plan(&self) -> &SpgemmPlan {
        &self.plan
    }

    /// The cached symbolic (count-phase) result.
    pub fn symbolic(&self) -> &SymbolicOutput {
        &self.symbolic
    }

    /// The structure fingerprints `(A, B)` the plan was built for.
    pub fn fingerprints(&self) -> (u64, u64) {
        (self.fingerprint_a, self.fingerprint_b)
    }

    /// Execute the numeric phase on *any* executor — the cache-hit path
    /// of the engine: the symbolic phase is skipped entirely, only
    /// output malloc + calc run on the backend. The matrices must carry
    /// the planned patterns (values are free to differ).
    pub fn execute_with<E: Executor<T>>(
        &self,
        exec: &mut E,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        if pattern_fingerprint(a) != self.fingerprint_a
            || pattern_fingerprint(b) != self.fingerprint_b
        {
            return Err(Error::Planning(sparse::SparseError::DimensionMismatch(
                "matrix pattern differs from the planned pattern".into(),
            )));
        }
        exec.execute_numeric(&self.plan, &self.symbolic, a, b)
    }

    /// The output's row pointer (exact, from the symbolic phase).
    pub fn output_rpt(&self) -> &[usize] {
        &self.symbolic.rpt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimExecutor;
    use sparse::spgemm_ref::spgemm_gustavson;
    use vgpu::{DeviceConfig, Gpu, Phase};

    fn mats(n: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..6 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 9) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn planned_execution_matches_direct_multiply() {
        let a = mats(400, 3);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut sim = SimExecutor::new(&mut gpu);
        let plan = SymbolicPlan::from_executor(&mut sim, &a, &a, &Options::default()).unwrap();
        let run = plan.execute_with(&mut sim, &a, &a).unwrap();
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(run.matrix, c_ref);
        assert_eq!(plan.output_nnz(), c_ref.nnz());
        assert!(plan.plan_time > SimTime::ZERO);
        assert!(run.report.total_time > SimTime::ZERO);
        assert_eq!(gpu.live_mem_bytes(), 0);
    }

    #[test]
    fn execute_is_faster_than_full_multiply() {
        let a = mats(2000, 7);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, full) = crate::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        let mut sim = SimExecutor::new(&mut gpu);
        let plan = SymbolicPlan::from_executor(&mut sim, &a, &a, &Options::default()).unwrap();
        let planned = plan.execute_with(&mut sim, &a, &a).unwrap().report;
        assert!(
            planned.total_time < full.total_time,
            "planned {} vs full {}",
            planned.total_time,
            full.total_time
        );
        // The numeric-only run has no setup/count phases.
        assert_eq!(planned.phase_time(Phase::Setup), SimTime::ZERO);
        assert_eq!(planned.phase_time(Phase::Count), SimTime::ZERO);
    }

    #[test]
    fn values_may_change_pattern_may_not() {
        let a = mats(300, 11);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut sim = SimExecutor::new(&mut gpu);
        let plan = SymbolicPlan::from_executor(&mut sim, &a, &a, &Options::default()).unwrap();
        // Same pattern, scaled values: fine.
        let a2 = a.scaled(3.0);
        let c = plan.execute_with(&mut sim, &a2, &a2).unwrap().matrix;
        assert_eq!(c, spgemm_gustavson(&a2, &a2).unwrap());
        // Different pattern: rejected.
        let other = mats(300, 12);
        assert!(plan.execute_with(&mut sim, &other, &other).is_err());
    }

    #[test]
    fn host_executor_reuses_plans_bitwise() {
        // The backend-neutral path: plan via the host executor, replay
        // the numeric phase with changed values — bitwise equal to a
        // cold host multiply and to the sim backend.
        let a = mats(350, 9);
        let mut host = crate::HostParallelExecutor::new(2);
        let plan = SymbolicPlan::from_executor(&mut host, &a, &a, &Options::default()).unwrap();
        // No simulated clock on the host: planning charges nothing.
        assert_eq!(plan.plan_time, SimTime::ZERO);
        let a2 = a.scaled(2.5);
        let hit = plan.execute_with(&mut host, &a2, &a2).unwrap();
        let cold =
            Executor::<f64>::multiply(&mut host, &a2, &a2, &Options::default()).unwrap().matrix;
        let bits = |m: &Csr<f64>| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(hit.matrix.rpt(), cold.rpt());
        assert_eq!(hit.matrix.col(), cold.col());
        assert_eq!(bits(&hit.matrix), bits(&cold));
        // Wrong pattern still rejected through the generic path.
        let other = mats(350, 10);
        assert!(plan.execute_with(&mut host, &other, &other).is_err());
    }

    #[test]
    fn repeated_execution_is_stable() {
        let a = mats(500, 5);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let mut sim = SimExecutor::new(&mut gpu);
        let plan = SymbolicPlan::from_executor(&mut sim, &a, &a, &Options::default()).unwrap();
        let r1 = plan.execute_with(&mut sim, &a, &a).unwrap();
        let r2 = plan.execute_with(&mut sim, &a, &a).unwrap();
        assert_eq!(r1.matrix, r2.matrix);
        let t = |r: &Execution<f64>| r.report.total_time.secs().to_bits();
        assert_eq!(t(&r1), t(&r2));
    }
}
