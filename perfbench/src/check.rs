//! Output checks, run outside every timed region.

use sparse::Csr;
use vgpu::{Phase, SpgemmReport};

/// Relative tolerance between a product and the Gustavson reference.
/// The generators draw values from [0.5, 1.5), so no sum cancels; each
/// output is a sum of at most a few hundred positive terms, whose
/// reordering moves it by under 1e-13 relative in f64.
pub const GUSTAVSON_RTOL: f64 = 1e-12;

/// Bitwise equality: same shape, row pointers, columns and value bits —
/// the cross-backend contract.
pub fn bitwise_eq(got: &Csr<f64>, want: &Csr<f64>, what: &str) -> Result<(), String> {
    same_pattern(got, want, what)?;
    match got.val().iter().zip(want.val()).position(|(x, y)| x.to_bits() != y.to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} differs bitwise ({} vs {})",
            got.val()[i],
            want.val()[i]
        )),
    }
}

/// Same pattern as `reference` exactly, values within [`GUSTAVSON_RTOL`].
pub fn matches_reference(got: &Csr<f64>, reference: &Csr<f64>, what: &str) -> Result<(), String> {
    same_pattern(got, reference, what)?;
    let bad = got
        .val()
        .iter()
        .zip(reference.val())
        .position(|(x, y)| (x - y).abs() > GUSTAVSON_RTOL * y.abs() || !x.is_finite());
    match bad {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} = {} differs from the Gustavson reference {} beyond rtol {GUSTAVSON_RTOL}",
            got.val()[i],
            reference.val()[i]
        )),
    }
}

fn same_pattern(got: &Csr<f64>, want: &Csr<f64>, what: &str) -> Result<(), String> {
    if (got.rows(), got.cols(), got.nnz()) != (want.rows(), want.cols(), want.nnz()) {
        return Err(format!(
            "{what}: shape/nnz {}x{}/{} differs from {}x{}/{}",
            got.rows(),
            got.cols(),
            got.nnz(),
            want.rows(),
            want.cols(),
            want.nnz()
        ));
    }
    if got.rpt() != want.rpt() || got.col() != want.col() {
        return Err(format!("{what}: sparsity pattern differs"));
    }
    Ok(())
}

/// The simulated figures of one multiply that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimExact {
    /// Per-phase simulated seconds, bit patterns, in report order.
    pub phases: Vec<(Phase, u64)>,
    pub total_bits: u64,
    pub peak_mem_bytes: u64,
    pub probes: u64,
}

impl SimExact {
    /// Capture a report's exact figures, checking that the four
    /// pipeline phases sum to the total exactly, in the program's own
    /// summation order (report order, `Other` excluded).
    pub fn of(r: &SpgemmReport, what: &str) -> Result<SimExact, String> {
        let sum: f64 =
            r.phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|(_, t)| t.secs()).sum();
        if sum.to_bits() != r.total_time.secs().to_bits() {
            return Err(format!(
                "{what}: setup+count+calc+malloc = {sum} s but the kernel total is {} s",
                r.total_time.secs()
            ));
        }
        Ok(SimExact {
            phases: r.phase_times.iter().map(|(p, t)| (*p, t.secs().to_bits())).collect(),
            total_bits: r.total_time.secs().to_bits(),
            peak_mem_bytes: r.peak_mem_bytes,
            probes: r.hash_probes,
        })
    }

    pub fn phase_us(&self, phase: Phase) -> f64 {
        self.phases.iter().find(|(p, _)| *p == phase).map_or(0.0, |(_, b)| f64::from_bits(*b) * 1e6)
    }

    pub fn total_us(&self) -> f64 {
        f64::from_bits(self.total_bits) * 1e6
    }

    /// `Err` unless `other` repeats these figures exactly.
    pub fn same(&self, other: &SimExact, what: &str) -> Result<(), String> {
        if self == other {
            Ok(())
        } else {
            Err(format!("{what}: simulated figures changed between passes: {self:?} vs {other:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(vals: &[f64]) -> Csr<f64> {
        let n = vals.len();
        Csr::from_parts(n, n, (0..=n).collect(), (0..n as u32).collect(), vals.to_vec()).unwrap()
    }

    #[test]
    fn bitwise_check_sees_one_ulp() {
        let a = m(&[1.0, 2.0]);
        assert!(bitwise_eq(&a, &a.clone(), "x").is_ok());
        let b = m(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)]);
        assert!(bitwise_eq(&a, &b, "x").is_err());
        assert!(matches_reference(&b, &a, "x").is_ok());
        assert!(matches_reference(&m(&[1.0, 2.1]), &a, "x").is_err());
        assert!(matches_reference(&m(&[1.0]), &a, "x").is_err());
    }
}
