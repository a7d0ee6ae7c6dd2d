//! Reliability quantities: FIT, MTTF/MTBF, AVF, IPC, and the paper's MITF.
//!
//! The relationships implemented here are exactly the ones in Sections 2 and
//! 3.2 of the paper:
//!
//! * `SDC rate = Σ_d raw_rate_d × SDC_AVF_d` (and likewise for DUE),
//! * `MTTF = 1 / (raw error rate × AVF)`,
//! * `MITF = IPC × frequency × MTTF = (frequency / raw rate) × (IPC / AVF)`,
//! * one FIT = one failure per 10⁹ device-hours, and an MTBF of one year is
//!   114,155 FIT.

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Hours in one billion hours — the FIT time base.
pub const FIT_HOURS: f64 = 1e9;

/// Hours per (non-leap) year, the paper's 24 × 365.
pub const HOURS_PER_YEAR: f64 = 24.0 * 365.0;

/// A soft-error rate expressed in FIT (Failures In Time).
///
/// One FIT is one failure per billion device-hours. FIT values for
/// independent devices add; an AVF derates a raw FIT rate.
///
/// # Example
///
/// ```
/// use ses_types::{Avf, Fit};
/// let raw = Fit::per_bit(0.001).scaled(4096);
/// let effective = raw.derated(Avf::from_percent(29.0));
/// assert!((effective.value() - 4.096 * 0.29).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Fit(f64);

impl Fit {
    /// A zero error rate.
    pub const ZERO: Fit = Fit(0.0);

    /// Creates a FIT rate for a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `fit_per_bit` is negative or not finite.
    pub fn per_bit(fit_per_bit: f64) -> Self {
        assert!(
            fit_per_bit.is_finite() && fit_per_bit >= 0.0,
            "FIT rate must be finite and non-negative, got {fit_per_bit}"
        );
        Fit(fit_per_bit)
    }

    /// Creates a FIT rate from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `fit` is negative or not finite.
    pub fn new(fit: f64) -> Self {
        Self::per_bit(fit)
    }

    /// The raw FIT value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Scales a per-bit rate up to a structure of `bits` bits.
    pub fn scaled(self, bits: u64) -> Fit {
        Fit(self.0 * bits as f64)
    }

    /// Derates this raw rate by an architectural vulnerability factor.
    pub fn derated(self, avf: Avf) -> Fit {
        Fit(self.0 * avf.fraction())
    }
}

impl Add for Fit {
    type Output = Fit;
    fn add(self, rhs: Fit) -> Fit {
        Fit(self.0 + rhs.0)
    }
}

impl AddAssign for Fit {
    fn add_assign(&mut self, rhs: Fit) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Fit {
    fn sum<I: Iterator<Item = Fit>>(iter: I) -> Fit {
        iter.fold(Fit::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Fit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} FIT", self.0)
    }
}

/// Mean Time To Failure.
///
/// Stored in hours; convertible to and from [`Fit`]. The paper treats MTTF
/// and MTBF as interchangeable for processors (MTTR ≪ MTTF); we provide
/// [`Mtbf`] separately for completeness.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Mttf(f64);

impl Mttf {
    /// Creates an MTTF from hours.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is not finite and positive.
    pub fn from_hours(hours: f64) -> Self {
        assert!(
            hours.is_finite() && hours > 0.0,
            "MTTF must be finite and positive, got {hours}"
        );
        Mttf(hours)
    }

    /// Creates an MTTF from years.
    pub fn from_years(years: f64) -> Self {
        Self::from_hours(years * HOURS_PER_YEAR)
    }

    /// Converts a failure rate in FIT to an MTTF.
    ///
    /// # Panics
    ///
    /// Panics if `fit` is zero (an error-free device has unbounded MTTF).
    pub fn from_fit(fit: Fit) -> Self {
        assert!(
            fit.value() > 0.0,
            "cannot form an MTTF from a zero FIT rate"
        );
        Mttf(FIT_HOURS / fit.value())
    }

    /// MTTF in hours.
    pub const fn hours(self) -> f64 {
        self.0
    }

    /// MTTF in years.
    pub fn years(self) -> f64 {
        self.0 / HOURS_PER_YEAR
    }

    /// The equivalent failure rate in FIT.
    pub fn to_fit(self) -> Fit {
        Fit(FIT_HOURS / self.0)
    }
}

impl fmt::Display for Mttf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} years MTTF", self.years())
    }
}

/// Mean Time Between Failures: `MTBF = MTTF + MTTR`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Mtbf(f64);

impl Mtbf {
    /// Combines an MTTF with a mean-time-to-repair (both in hours).
    pub fn new(mttf: Mttf, mttr_hours: f64) -> Self {
        assert!(
            mttr_hours.is_finite() && mttr_hours >= 0.0,
            "MTTR must be finite and non-negative, got {mttr_hours}"
        );
        Mtbf(mttf.hours() + mttr_hours)
    }

    /// MTBF in hours.
    pub const fn hours(self) -> f64 {
        self.0
    }

    /// MTBF in years.
    pub fn years(self) -> f64 {
        self.0 / HOURS_PER_YEAR
    }
}

impl fmt::Display for Mtbf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} years MTBF", self.years())
    }
}

/// An Architectural Vulnerability Factor: the probability, in `[0, 1]`, that
/// a fault in a device produces a (given class of) error.
///
/// The AVF of a storage cell is the fraction of cycles it holds an ACE bit;
/// the AVF of a structure is the average over its cells (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Avf(f64);

impl Avf {
    /// An AVF of zero (fully protected or never-read state).
    pub const ZERO: Avf = Avf(0.0);
    /// An AVF of one (e.g. the program counter, per the paper).
    pub const ONE: Avf = Avf(1.0);

    /// Creates an AVF from a fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or not finite.
    pub fn from_fraction(fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "AVF must lie in [0, 1], got {fraction}"
        );
        Avf(fraction)
    }

    /// Creates an AVF from a percentage in `[0, 100]`.
    pub fn from_percent(percent: f64) -> Self {
        Self::from_fraction(percent / 100.0)
    }

    /// Computes an AVF as a ratio of ACE bit-cycles to total bit-cycles.
    ///
    /// Returns [`Avf::ZERO`] when `total` is zero.
    ///
    /// # Panics
    ///
    /// Panics if `ace > total`.
    pub fn from_bit_cycles(ace: u64, total: u64) -> Self {
        assert!(
            ace <= total,
            "ACE bit-cycles ({ace}) exceed total ({total})"
        );
        if total == 0 {
            Avf::ZERO
        } else {
            Avf(ace as f64 / total as f64)
        }
    }

    /// The AVF as a fraction in `[0, 1]`.
    pub const fn fraction(self) -> f64 {
        self.0
    }

    /// The AVF as a percentage.
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Sum of two AVF components (e.g. true DUE AVF + false DUE AVF),
    /// clamped to 1.
    pub fn saturating_add(self, rhs: Avf) -> Avf {
        Avf((self.0 + rhs.0).min(1.0))
    }

    /// The relative change from `baseline` to `self`, as a signed fraction.
    ///
    /// Negative values are reductions: going from 29% to 22% AVF returns
    /// roughly `-0.24`.
    pub fn relative_to(self, baseline: Avf) -> f64 {
        if baseline.0 == 0.0 {
            0.0
        } else {
            (self.0 - baseline.0) / baseline.0
        }
    }
}

impl fmt::Display for Avf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.percent())
    }
}

/// Committed instructions per cycle.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Ipc(f64);

impl Ipc {
    /// Creates an IPC value.
    ///
    /// # Panics
    ///
    /// Panics if `ipc` is negative or not finite.
    pub fn new(ipc: f64) -> Self {
        assert!(
            ipc.is_finite() && ipc >= 0.0,
            "IPC must be finite and non-negative, got {ipc}"
        );
        Ipc(ipc)
    }

    /// Computes IPC from instruction and cycle counts.
    ///
    /// Returns zero IPC when `cycles` is zero.
    pub fn from_counts(instructions: u64, cycles: u64) -> Self {
        if cycles == 0 {
            Ipc(0.0)
        } else {
            Ipc(instructions as f64 / cycles as f64)
        }
    }

    /// The IPC value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The relative change from `baseline` to `self`, as a signed fraction.
    pub fn relative_to(self, baseline: Ipc) -> f64 {
        if baseline.0 == 0.0 {
            0.0
        } else {
            (self.0 - baseline.0) / baseline.0
        }
    }
}

impl fmt::Display for Ipc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} IPC", self.0)
    }
}

/// Mean Instructions To Failure — the paper's new metric (§3.2).
///
/// `MITF = IPC × frequency × MTTF`. At fixed frequency and raw error rate,
/// MITF is proportional to `IPC / AVF`, so a technique that reduces AVF by
/// more than it reduces IPC increases MITF: the machine completes more work
/// between errors.
///
/// # Example
///
/// The paper's example: a 2 GHz processor with IPC 2 and a DUE MTTF of 10
/// years has a DUE MITF of about 1.3 × 10¹⁸ instructions.
///
/// ```
/// use ses_types::{Ipc, Mitf, Mttf};
/// let mitf = Mitf::new(Ipc::new(2.0), 2.0e9, Mttf::from_years(10.0));
/// assert!((mitf.instructions() / 1.26e18 - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Mitf(f64);

impl Mitf {
    /// Computes MITF from IPC, clock frequency in Hz, and MTTF.
    pub fn new(ipc: Ipc, frequency_hz: f64, mttf: Mttf) -> Self {
        assert!(
            frequency_hz.is_finite() && frequency_hz > 0.0,
            "frequency must be finite and positive, got {frequency_hz}"
        );
        let seconds = mttf.hours() * 3600.0;
        Mitf(ipc.value() * frequency_hz * seconds)
    }

    /// The `IPC / AVF` figure of merit the paper tabulates (Table 1 columns
    /// "IPC / SDC AVF" and "IPC / DUE AVF").
    ///
    /// Returns `f64::INFINITY` for a zero AVF.
    pub fn figure_of_merit(ipc: Ipc, avf: Avf) -> f64 {
        if avf.fraction() == 0.0 {
            f64::INFINITY
        } else {
            ipc.value() / avf.fraction()
        }
    }

    /// Mean instructions completed between failures.
    pub const fn instructions(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Mitf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} instructions MITF", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_addition_and_scaling() {
        let a = Fit::per_bit(0.001);
        let s = a.scaled(1000);
        assert!((s.value() - 1.0).abs() < 1e-12);
        let sum: Fit = [a, a, a].into_iter().sum();
        assert!((sum.value() - 0.003).abs() < 1e-12);
        let mut acc = Fit::ZERO;
        acc += s;
        assert_eq!(acc, s);
        assert_eq!(s.to_string(), "1.0000 FIT");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn fit_rejects_negative() {
        let _ = Fit::new(-1.0);
    }

    #[test]
    fn mttf_fit_roundtrip() {
        // The paper: an MTBF of one year equals 114,155 FIT.
        let mttf = Mttf::from_years(1.0);
        assert!((mttf.to_fit().value() - 114_155.0).abs() < 1.0);
        let back = Mttf::from_fit(mttf.to_fit());
        assert!((back.years() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero FIT")]
    fn mttf_from_zero_fit_panics() {
        let _ = Mttf::from_fit(Fit::ZERO);
    }

    #[test]
    fn mtbf_is_mttf_plus_mttr() {
        let mttf = Mttf::from_hours(1000.0);
        let mtbf = Mtbf::new(mttf, 24.0);
        assert!((mtbf.hours() - 1024.0).abs() < 1e-9);
        assert!(mtbf.years() > 0.0);
    }

    #[test]
    fn avf_from_bit_cycles() {
        // Paper §2.1: 1M ACE cycles out of 10M total → 10% AVF.
        let avf = Avf::from_bit_cycles(1_000_000, 10_000_000);
        assert!((avf.percent() - 10.0).abs() < 1e-9);
        assert_eq!(Avf::from_bit_cycles(0, 0), Avf::ZERO);
        assert_eq!(Avf::ZERO.to_string(), "0.00%");
    }

    #[test]
    #[should_panic(expected = "exceed total")]
    fn avf_rejects_ace_gt_total() {
        let _ = Avf::from_bit_cycles(2, 1);
    }

    #[test]
    fn avf_relative_change() {
        let base = Avf::from_percent(29.0);
        let improved = Avf::from_percent(22.0);
        let delta = improved.relative_to(base);
        assert!(delta < 0.0);
        assert!((delta + 7.0 / 29.0).abs() < 1e-9);
        assert_eq!(improved.relative_to(Avf::ZERO), 0.0);
    }

    #[test]
    fn avf_saturating_add() {
        let a = Avf::from_percent(62.0);
        let b = Avf::from_percent(62.0);
        assert_eq!(a.saturating_add(b), Avf::ONE);
        let c = Avf::from_percent(29.0).saturating_add(Avf::from_percent(33.0));
        assert!((c.percent() - 62.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_counts_and_relative() {
        let ipc = Ipc::from_counts(121, 100);
        assert!((ipc.value() - 1.21).abs() < 1e-12);
        assert_eq!(Ipc::from_counts(5, 0).value(), 0.0);
        let slower = Ipc::new(1.19);
        let rel = slower.relative_to(ipc);
        assert!(rel < 0.0 && rel > -0.02);
        assert_eq!(Ipc::new(1.0).relative_to(Ipc::new(0.0)), 0.0);
    }

    #[test]
    fn mitf_matches_paper_example() {
        // 2 GHz, IPC 2, DUE MTTF 10 years → ~1.3e18 instructions.
        let mitf = Mitf::new(Ipc::new(2.0), 2.0e9, Mttf::from_years(10.0));
        let expected = 2.0 * 2.0e9 * 10.0 * HOURS_PER_YEAR * 3600.0;
        assert!((mitf.instructions() - expected).abs() / expected < 1e-12);
        assert!(mitf.instructions() > 1.2e18 && mitf.instructions() < 1.4e18);
    }

    #[test]
    fn mitf_figure_of_merit_matches_table1() {
        // Table 1 row "No squashing": IPC 1.21, SDC AVF 29% → 4.1.
        let fom = Mitf::figure_of_merit(Ipc::new(1.21), Avf::from_percent(29.0));
        assert!((fom - 4.17).abs() < 0.02);
        // DUE column: IPC 1.21, DUE AVF 62% → 2.0.
        let fom2 = Mitf::figure_of_merit(Ipc::new(1.21), Avf::from_percent(62.0));
        assert!((fom2 - 1.95).abs() < 0.02);
        assert!(Mitf::figure_of_merit(Ipc::new(1.0), Avf::ZERO).is_infinite());
    }

    #[test]
    fn mitf_proportional_to_ipc_over_avf() {
        // Halving AVF at constant IPC doubles the figure of merit.
        let ipc = Ipc::new(1.2);
        let f1 = Mitf::figure_of_merit(ipc, Avf::from_percent(30.0));
        let f2 = Mitf::figure_of_merit(ipc, Avf::from_percent(15.0));
        assert!((f2 / f1 - 2.0).abs() < 1e-9);
    }
}
