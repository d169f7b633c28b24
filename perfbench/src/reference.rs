//! The speed reference for the wall metrics.
//!
//! Wall times on a shared machine drift by a third or more over minutes
//! while the program stays the same, and the drift moves every kernel
//! that works on the same data alike. Every workload therefore times
//! this fixed kernel — a textbook dense-accumulator `A · A`, owned by
//! the benchmark so no change to the repository can move it — on its
//! own inputs, interleaved with the timed work on the same thread, and
//! reports wall metrics at the speed where it takes its nominal time.

use crate::check::GUSTAVSON_RTOL;
use crate::stats::median;
use sparse::Csr;
use std::hint::black_box;
use std::time::Instant;

pub struct RefKernel {
    acc: Vec<f64>,
    mark: Vec<usize>,
    touched: Vec<u32>,
}

impl RefKernel {
    pub fn new() -> Self {
        RefKernel { acc: Vec::new(), mark: Vec::new(), touched: Vec::new() }
    }

    /// Compute `A · A` row by row and return its non-zeros and a
    /// checksum, `Σ c_ij · (j + 1)` in row-major order. The rows are
    /// folded into the checksum rather than stored, so a run allocates
    /// nothing once the buffers are sized: the heap the program's
    /// multiplies leave behind cannot move its time.
    pub fn square(&mut self, a: &Csr<f64>) -> (usize, f64) {
        let (rpt, col, val) = (a.rpt(), a.col(), a.val());
        self.acc.resize(a.cols(), 0.0);
        self.mark.clear();
        self.mark.resize(a.cols(), usize::MAX);
        let (mut nnz, mut sum) = (0, 0.0);
        for i in 0..a.rows() {
            self.touched.clear();
            for p in rpt[i]..rpt[i + 1] {
                let (k, av) = (col[p] as usize, val[p]);
                for q in rpt[k]..rpt[k + 1] {
                    let j = col[q] as usize;
                    if self.mark[j] == i {
                        self.acc[j] += av * val[q];
                    } else {
                        self.mark[j] = i;
                        self.acc[j] = av * val[q];
                        self.touched.push(col[q]);
                    }
                }
            }
            self.touched.sort_unstable();
            nnz += self.touched.len();
            for &j in &self.touched {
                sum += self.acc[j as usize] * (f64::from(j) + 1.0);
            }
        }
        (nnz, sum)
    }
}

/// The reference kernel over a fixed list of inputs, each run checked.
/// Runs of it bracket the timed samples, and each sample is brought to
/// the reference speed by the two runs around it.
pub struct RefClock<'a> {
    kernel: RefKernel,
    /// Each input `A` with its product `A · A` and that product's
    /// checksum as the kernel computes it.
    inputs: Vec<(&'a Csr<f64>, &'a Csr<f64>, f64)>,
    nominal_ms: f64,
    /// The latest timed run, ms.
    last_ms: f64,
    /// Every timed run, ms, for the notes.
    runs_ms: Vec<f64>,
    /// Every factor handed out, in order.
    pub factors: Vec<f64>,
    /// Check outcomes not yet handed to the report.
    checks: Vec<Result<(), String>>,
}

impl<'a> RefClock<'a> {
    /// A clock that squares each `(A, A · A)` of `inputs` once per run,
    /// after one untimed run that sizes the kernel's buffers and one
    /// timed run that opens the first bracket.
    pub fn new(inputs: &[(&'a Csr<f64>, &'a Csr<f64>)], nominal_ms: f64) -> Self {
        let mut clock = RefClock {
            kernel: RefKernel::new(),
            inputs: inputs.iter().map(|&(a, c)| (a, c, checksum(c))).collect(),
            nominal_ms,
            last_ms: f64::NAN,
            runs_ms: Vec::new(),
            factors: Vec::new(),
            checks: Vec::new(),
        };
        clock.run();
        clock.runs_ms.clear();
        clock.last_ms = clock.run();
        clock
    }

    /// Time one run over every input; returns its milliseconds.
    fn run(&mut self) -> f64 {
        let mut got = Vec::with_capacity(self.inputs.len());
        let t = Instant::now();
        for &(a, _, _) in &self.inputs {
            got.push(self.kernel.square(black_box(a)));
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.runs_ms.push(ms);
        for (i, ((nnz, sum), &(_, c, want_sum))) in got.into_iter().zip(&self.inputs).enumerate() {
            let want = c.nnz();
            self.checks.push(if nnz != want {
                Err(format!("reference kernel, input {i}: {nnz} non-zeros, the product has {want}"))
            } else if !((sum - want_sum).abs() <= GUSTAVSON_RTOL * want_sum.abs()) {
                Err(format!(
                    "reference kernel, input {i}: checksum {sum}, the product's is {want_sum}"
                ))
            } else {
                Ok(())
            });
        }
        ms
    }

    /// Close the bracket: time one run and return the factor for the
    /// samples taken since the previous one, the nominal time over the
    /// mean of the two runs around them.
    pub fn tick(&mut self) -> f64 {
        let ms = self.run();
        let f = self.nominal_ms / ((self.last_ms + ms) / 2.0);
        self.last_ms = ms;
        self.factors.push(f);
        f
    }

    /// Hand the outcomes of the runs' checks to the report, one
    /// operation each.
    pub fn flush(&mut self, rep: &mut crate::report::Report) {
        for c in self.checks.drain(..) {
            rep.op(c);
        }
    }

    /// How the factors handed out since `from` were made.
    pub fn describe(&self, from: usize) -> String {
        let f = &self.factors[from..];
        let (lo, hi) = f.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        format!(
            "at reference speed (each sample x nominal {} ms / mean of the reference runs around it: {} factors {lo:.4}-{hi:.4}, median {:.4}; reference runs median {:.3} ms)",
            self.nominal_ms,
            f.len(),
            median(f),
            median(&self.runs_ms)
        )
    }
}

/// `Σ c_ij · (j + 1)` over `c` in row-major order: the checksum
/// [`RefKernel::square`] returns.
pub fn checksum(c: &Csr<f64>) -> f64 {
    c.col().iter().zip(c.val()).map(|(&j, v)| v * (f64::from(j) + 1.0)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squares_like_gustavson() {
        let a: Csr<f64> = matgen::generators::random_uniform(300, 5.0, 20, 3);
        let want = sparse::spgemm_ref::spgemm_gustavson(&a, &a).unwrap();
        let sum = checksum(&want);
        let mut k = RefKernel::new();
        assert_eq!(k.square(&a), (want.nnz(), sum));
        assert_eq!(k.square(&a), (want.nnz(), sum), "buffers are reused");
    }

    #[test]
    fn clock_factors_bracket_and_checks_count() {
        let a: Csr<f64> = matgen::generators::random_uniform(300, 5.0, 20, 3);
        let c = sparse::spgemm_ref::spgemm_gustavson(&a, &a).unwrap();
        let mut clock = RefClock::new(&[(&a, &c), (&a, &c)], 1.0);
        let f = clock.tick();
        assert_eq!(clock.factors, vec![f]);
        assert!(f.is_finite() && f > 0.0);
        let mut rep = crate::report::Report::new(false);
        clock.flush(&mut rep);
        // Two timed runs, two inputs each; the sizing run is checked too.
        assert_eq!((rep.attempted, rep.failed), (6, 0));
        let wrong = sparse::spgemm_ref::spgemm_gustavson(&c, &a).unwrap();
        let mut bad = RefClock::new(&[(&a, &wrong)], 1.0);
        bad.flush(&mut rep);
        assert!(rep.failed > 0);
    }
}
