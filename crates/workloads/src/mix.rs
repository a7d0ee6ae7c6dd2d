//! Measured instruction-mix statistics of a dynamic trace.
//!
//! The synthesiser promises a mix (neutral density, dead fraction,
//! predication, branchiness); this module measures what a trace actually
//! contains, for calibration tables and tests.

use ses_arch::ExecutionTrace;
use ses_isa::OpcodeClass;

/// Measured dynamic instruction mix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceMix {
    /// Total dynamic instructions.
    pub total: u64,
    /// ALU fraction.
    pub alu: f64,
    /// Load fraction.
    pub load: f64,
    /// Store fraction.
    pub store: f64,
    /// Control-transfer fraction.
    pub control: f64,
    /// Neutral (no-op/prefetch/hint) fraction.
    pub neutral: f64,
    /// I/O fraction.
    pub io: f64,
    /// Falsely predicated fraction.
    pub falsely_predicated: f64,
    /// Conditional-branch taken rate.
    pub taken_rate: f64,
    /// Mean committed instructions between `out` emissions.
    pub mean_output_interval: f64,
}

impl TraceMix {
    /// Measures a trace.
    pub fn measure(trace: &ExecutionTrace) -> Self {
        let n = trace.len() as u64;
        if n == 0 {
            return TraceMix::default();
        }
        let frac = |c: OpcodeClass| trace.class_fraction(c);
        let s = trace.stats();
        TraceMix {
            total: n,
            alu: frac(OpcodeClass::Alu),
            load: frac(OpcodeClass::Load),
            store: frac(OpcodeClass::Store),
            control: frac(OpcodeClass::Control),
            neutral: frac(OpcodeClass::Neutral),
            io: frac(OpcodeClass::Io),
            falsely_predicated: s.falsely_predicated as f64 / n as f64,
            taken_rate: s.taken_fraction(),
            mean_output_interval: if s.outputs == 0 {
                0.0
            } else {
                n as f64 / s.outputs as f64
            },
        }
    }

    /// The class fractions, which must sum to ~1 (plus `Halt`'s epsilon).
    pub fn class_sum(&self) -> f64 {
        self.alu + self.load + self.store + self.control + self.neutral + self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::synth::synthesize;
    use ses_arch::Emulator;

    #[test]
    fn mix_of_synthetic_workload_is_plausible() {
        let spec = WorkloadSpec::quick("mix", 8);
        let p = synthesize(&spec);
        let trace = Emulator::new(&p).run(100_000).unwrap();
        let m = TraceMix::measure(&trace);
        assert_eq!(m.total, trace.len() as u64);
        assert!(
            (m.class_sum() - 1.0).abs() < 0.01,
            "sum {:.3}",
            m.class_sum()
        );
        assert!(m.alu > 0.2, "ALU-dominated, got {:.2}", m.alu);
        assert!(m.neutral > 0.02);
        assert!(m.load > 0.02 && m.store > 0.01);
        assert!(m.falsely_predicated > 0.01);
        assert!(m.taken_rate > 0.05 && m.taken_rate < 0.99);
        assert!(m.mean_output_interval > 1.0);
    }

    #[test]
    fn empty_trace_yields_defaults() {
        let t = ses_arch::ExecutionTrace::new_for_tests();
        let m = TraceMix::measure(&t);
        assert_eq!(m.total, 0);
        assert_eq!(m.class_sum(), 0.0);
    }
}
