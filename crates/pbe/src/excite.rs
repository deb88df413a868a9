//! Input-constraint vocabulary for excitability analysis — the paper's
//! §VII future work.
//!
//! The mapping algorithms assume the worst case: every committed discharge
//! point *will* see the charge-then-yank input sequence that triggers the
//! parasitic bipolar effect. The paper closes by observing that "breakdown
//! will only occur for a particular sequence of input logic values". This
//! module declares what is known about the inputs — mutually-exclusive
//! signal groups such as decoded one-hot selects, or inputs tied to a
//! constant in mission mode — and names the per-junction verdict:
//!
//! > junction `J` is excitable iff some admissible input assignment
//! > connects `J` to the dynamic node through conducting devices without
//! > also connecting it to the foot (so it charges and holds high), and
//! > some admissible assignment later connects it to the foot (the yank).
//!
//! The verdicts themselves are SAT proofs in `soi_cec::pbe_sat`, which
//! also prunes the discharge devices of junctions proven unexcitable.

/// Declared knowledge about the circuit's inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputConstraints {
    /// Groups of primary inputs of which at most one is high at any time
    /// (decoded one-hot selects, grant lines, ...).
    mutex_groups: Vec<Vec<usize>>,
    /// Primary inputs tied to a constant value.
    fixed: Vec<(usize, bool)>,
}

impl InputConstraints {
    /// No knowledge: every assignment is admissible (the paper's worst
    /// case).
    pub fn none() -> InputConstraints {
        InputConstraints::default()
    }

    /// Declares that at most one of the given primary inputs is ever high.
    #[must_use]
    pub fn with_mutex(mut self, inputs: Vec<usize>) -> InputConstraints {
        self.mutex_groups.push(inputs);
        self
    }

    /// Declares a primary input tied to a constant.
    #[must_use]
    pub fn with_fixed(mut self, input: usize, value: bool) -> InputConstraints {
        self.fixed.push((input, value));
        self
    }

    /// Whether an assignment (a predicate over primary-input indices) is
    /// admissible.
    pub fn admits(&self, value_of: &impl Fn(usize) -> bool) -> bool {
        for (input, v) in &self.fixed {
            if value_of(*input) != *v {
                return false;
            }
        }
        for group in &self.mutex_groups {
            if group.iter().filter(|&&i| value_of(i)).count() > 1 {
                return false;
            }
        }
        true
    }

    /// The declared mutual-exclusion groups.
    pub fn mutex_groups(&self) -> &[Vec<usize>] {
        &self.mutex_groups
    }

    /// The declared constant-tied inputs.
    pub fn fixed(&self) -> &[(usize, bool)] {
        &self.fixed
    }
}

/// Verdict for one junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Excitability {
    /// A witness assignment pair exists: the discharge device is needed.
    Excitable,
    /// Proven unreachable under the constraints: the device can be
    /// removed.
    ProvenSafe,
    /// The proof ran out of budget — treated as excitable.
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_checks_both_kinds() {
        let c = InputConstraints::none()
            .with_mutex(vec![0, 1])
            .with_fixed(2, true);
        assert!(c.admits(&|i| i == 0 || i == 2));
        assert!(!c.admits(&|i| i == 0 || i == 1 || i == 2)); // mutex violated
        assert!(!c.admits(&|i| i == 0)); // fixed violated
    }
}
