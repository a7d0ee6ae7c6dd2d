//! Technology-node and operating-environment parameterisation of the
//! reliability model, plus the one shared FIT → MTTF conversion point.
//!
//! The paper computes MTTF from a "representative" raw error rate; real
//! raw rates depend on the process node (per-Mbit SRAM FIT falls steeply
//! from 28 nm to 7 nm as the cell collects less charge) and on the
//! neutron flux of the operating environment (sea level → avionics →
//! space). The constants follow the exemplar SRAM characterisation used
//! by the spatial strike model.

use serde::{Deserialize, Serialize};

use ses_types::{Fit, Mttf};

use crate::model::ReliabilityModel;

/// Converts an effective FIT rate to an MTTF, or `None` when the rate is
/// zero (an error-free structure has no finite MTTF).
///
/// This is the *only* place rate reporting crosses from FIT to MTTF:
/// [`ReliabilityModel::rate`] and the ECC grid report both call it, so
/// the 10⁹-device-hour convention lives in exactly one spot (delegated to
/// [`Mttf::from_fit`], which owns the constant).
pub fn fit_to_mttf(fit: Fit) -> Option<Mttf> {
    (fit.value() > 0.0).then(|| Mttf::from_fit(fit))
}

/// Process technology node of the protected structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TechNode {
    /// 28 nm planar: large cells, high per-bit rate.
    N28,
    /// 16 nm FinFET.
    N16,
    /// 7 nm FinFET: smallest collected charge, lowest per-bit rate.
    N7,
}

impl TechNode {
    /// All nodes, newest last.
    pub const ALL: [TechNode; 3] = [TechNode::N28, TechNode::N16, TechNode::N7];

    /// Raw SRAM soft-error rate at sea level, FIT per Mbit.
    pub fn fit_per_mbit(self) -> f64 {
        match self {
            TechNode::N28 => 74.0,
            TechNode::N16 => 5.0,
            TechNode::N7 => 0.4,
        }
    }

    /// Stable label for artifacts and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            TechNode::N28 => "28nm",
            TechNode::N16 => "16nm",
            TechNode::N7 => "7nm",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// Returns the unknown label.
    pub fn parse(s: &str) -> Result<TechNode, String> {
        TechNode::ALL
            .into_iter()
            .find(|n| n.label() == s)
            .ok_or_else(|| format!("unknown technology node '{s}' (use 28nm/16nm/7nm)"))
    }
}

/// Operating environment: the neutron-flux multiplier over sea level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Environment {
    /// Sea-level consumer equipment (1×).
    Consumer,
    /// Commercial avionics altitude (~300×).
    Avionics,
    /// Orbital/space systems (~50 000×).
    Space,
}

impl Environment {
    /// All environments, harshest last.
    pub const ALL: [Environment; 3] = [
        Environment::Consumer,
        Environment::Avionics,
        Environment::Space,
    ];

    /// Flux multiplier relative to sea level.
    pub fn flux_multiplier(self) -> f64 {
        match self {
            Environment::Consumer => 1.0,
            Environment::Avionics => 300.0,
            Environment::Space => 50_000.0,
        }
    }

    /// Stable label for artifacts and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Environment::Consumer => "consumer",
            Environment::Avionics => "avionics",
            Environment::Space => "space",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// Returns the unknown label.
    pub fn parse(s: &str) -> Result<Environment, String> {
        Environment::ALL
            .into_iter()
            .find(|e| e.label() == s)
            .ok_or_else(|| format!("unknown environment '{s}' (use consumer/avionics/space)"))
    }
}

/// Raw per-bit FIT for a `(node, environment)` scenario: the node's
/// per-Mbit rate scaled down to one bit and up by the environment flux.
pub fn raw_fit_per_bit(node: TechNode, env: Environment) -> f64 {
    node.fit_per_mbit() / (1u64 << 20) as f64 * env.flux_multiplier()
}

impl ReliabilityModel {
    /// The default machine (64 × 64-bit instruction queue at 2.5 GHz)
    /// placed at a technology node and operating environment.
    pub fn for_scenario(node: TechNode, env: Environment) -> ReliabilityModel {
        ReliabilityModel {
            raw_fit_per_bit: raw_fit_per_bit(node, env),
            ..ReliabilityModel::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips_through_the_types_constant() {
        let fit = Fit::new(100.0);
        let mttf = fit_to_mttf(fit).expect("nonzero");
        assert!((mttf.to_fit().value() - 100.0).abs() < 1e-9);
        assert!(fit_to_mttf(Fit::new(0.0)).is_none());
    }

    #[test]
    fn node_rates_fall_with_scaling() {
        assert!(TechNode::N28.fit_per_mbit() > TechNode::N16.fit_per_mbit());
        assert!(TechNode::N16.fit_per_mbit() > TechNode::N7.fit_per_mbit());
    }

    #[test]
    fn environment_multipliers_escalate() {
        assert_eq!(Environment::Consumer.flux_multiplier(), 1.0);
        assert!(Environment::Avionics.flux_multiplier() < Environment::Space.flux_multiplier());
    }

    #[test]
    fn labels_round_trip() {
        for n in TechNode::ALL {
            assert_eq!(TechNode::parse(n.label()), Ok(n));
        }
        for e in Environment::ALL {
            assert_eq!(Environment::parse(e.label()), Ok(e));
        }
        assert!(TechNode::parse("3nm").is_err());
        assert!(Environment::parse("mars").is_err());
    }

    #[test]
    fn scenario_scales_the_default_model() {
        let sea = ReliabilityModel::for_scenario(TechNode::N16, Environment::Consumer);
        let air = ReliabilityModel::for_scenario(TechNode::N16, Environment::Avionics);
        assert!((air.raw_fit_per_bit / sea.raw_fit_per_bit - 300.0).abs() < 1e-9);
        assert_eq!(
            sea.structure_bits,
            ReliabilityModel::default().structure_bits
        );
        // One Mbit of 16 nm SRAM at sea level must come back to the
        // headline per-Mbit figure.
        let per_mbit = sea.raw_fit_per_bit * (1u64 << 20) as f64;
        assert!((per_mbit - 5.0).abs() < 1e-9);
    }
}
