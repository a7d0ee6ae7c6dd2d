//! Fault outcome taxonomy (the paper's Figure 1, measured).

use std::fmt;

/// Final classification of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The faulty bit was never consumed: idle slot, Ex-ACE state, or the
    /// entry was discarded (wrong-path flush / squash) before its read —
    /// outcomes 1–3 of Figure 1.
    Benign,
    /// No detection, and the program output changed (or the machine
    /// crashed on an undecodable word): silent data corruption, outcome 4.
    Sdc,
    /// A machine check fired but the output would have been unaffected:
    /// outcome 5.
    FalseDue,
    /// A machine check fired and the output would indeed have been
    /// affected: outcome 6.
    TrueDue,
    /// π-bit tracking suppressed the error and the output was indeed
    /// unaffected: a false DUE successfully avoided.
    SuppressedSafe,
    /// π-bit tracking suppressed the error but the output *would* have
    /// changed — an unsound suppression (e.g. a strike on the qualifying
    /// predicate of a falsely predicated instruction). The paper does not
    /// quantify this corner; this implementation measures it honestly.
    SuppressedSdc,
    /// The faulty run exceeded its instruction budget (a corrupted branch
    /// spun forever): treated as a visible failure.
    Hang,
    /// A machine check fired, but the deferred detection signal still
    /// landed inside the idempotent region containing the fault, so the
    /// would-be DUE was converted into a re-execution of that region —
    /// charged as IPC loss, not as an error event.
    Recovered,
}

impl Outcome {
    /// All outcomes, in reporting order. `Recovered` sits last so legacy
    /// (recovery-off) artifacts keep their historical key order.
    pub const ALL: [Outcome; 8] = [
        Outcome::Benign,
        Outcome::Sdc,
        Outcome::FalseDue,
        Outcome::TrueDue,
        Outcome::SuppressedSafe,
        Outcome::SuppressedSdc,
        Outcome::Hang,
        Outcome::Recovered,
    ];

    /// Whether this outcome represents a user-visible failure event
    /// (SDC-like or DUE-like).
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            Outcome::Sdc
                | Outcome::FalseDue
                | Outcome::TrueDue
                | Outcome::SuppressedSdc
                | Outcome::Hang
        )
    }

    /// Whether a machine check was raised.
    pub fn is_due(self) -> bool {
        matches!(self, Outcome::FalseDue | Outcome::TrueDue)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::Sdc => "SDC",
            Outcome::FalseDue => "false DUE",
            Outcome::TrueDue => "true DUE",
            Outcome::SuppressedSafe => "suppressed (safe)",
            Outcome::SuppressedSdc => "suppressed (SDC!)",
            Outcome::Hang => "hang",
            Outcome::Recovered => "recovered",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for o in Outcome::ALL {
            assert!(!o.label().is_empty());
            assert!(seen.insert(o.label()));
        }
    }

    #[test]
    fn classification_predicates() {
        assert!(Outcome::Sdc.is_failure());
        assert!(!Outcome::Benign.is_failure());
        assert!(!Outcome::SuppressedSafe.is_failure());
        assert!(Outcome::SuppressedSdc.is_failure());
        assert!(Outcome::FalseDue.is_due());
        assert!(Outcome::TrueDue.is_due());
        assert!(!Outcome::Sdc.is_due());
        assert!(
            !Outcome::Recovered.is_failure() && !Outcome::Recovered.is_due(),
            "a recovered fault costs IPC, not correctness"
        );
    }
}
