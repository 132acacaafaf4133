//! Summary statistics and pass/fail accounting shared by every workload.

/// The median as a measured value: the lower middle of an even count,
/// never a blend of two samples.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Counts correctness checks: every check is attempted, and the ones
/// whose output differed from the reference fail.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks whose output differed from the reference.
    pub failed: u64,
}

impl Tally {
    /// Records one check and returns `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Whether `a` and `b` agree within a relative tolerance (exactly equal
/// values, including zeros, always agree).
pub fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() <= tol * a.abs().max(b.abs())
}
