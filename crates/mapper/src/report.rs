use std::fmt;

use soi_domino_ir::{DominoCircuit, TransistorCounts};

use crate::Algorithm;

/// The product of a mapping run: the circuit plus its accounting.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// Which algorithm produced the circuit.
    pub algorithm: Algorithm,
    /// The mapped, PBE-protected domino circuit.
    pub circuit: DominoCircuit,
    /// The transistor accounting (`T_logic`, `T_disch`, ...).
    pub counts: TransistorCounts,
    /// Gate count of the unate network that was mapped (diagnostics).
    pub unate_gates: usize,
    /// Depth of the unate network in 2-input gate levels (the paper's
    /// Table IV second column).
    pub unate_depth: u32,
    /// Unate-node indices where the mapper fell back to a forced gate
    /// boundary because no `(W ≤ W_max, H ≤ H_max)` combination existed
    /// (only when [`MapConfig::degrade_unmappable`] is set; those gates
    /// exceed the shape limits).
    ///
    /// [`MapConfig::degrade_unmappable`]: crate::MapConfig::degrade_unmappable
    pub degraded_nodes: Vec<usize>,
    /// Largest exported-candidate count any single unate node reached
    /// during the DP — the run's memory high-water mark (deterministic,
    /// identical between serial and parallel schedules).
    pub peak_candidates: usize,
    /// Worker threads the DP schedule actually used (1 for a serial run;
    /// see [`crate::Parallelism`]).
    pub threads_used: usize,
    /// Total DP combine steps charged against the step budget — a
    /// deterministic measure of mapping work that is identical across
    /// serial and parallel schedules, and between a resumed run and an
    /// uninterrupted one, for the same input and configuration.
    pub combine_steps: u64,
}

impl MappingResult {
    /// Whether the mapper had to relax the shape limits anywhere.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_nodes.is_empty()
    }
}

impl fmt::Display for MappingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (from {} unate gates, depth {})",
            self.algorithm.paper_name(),
            self.counts,
            self.unate_gates,
            self.unate_depth
        )?;
        if self.is_degraded() {
            write!(f, " [degraded at {} nodes]", self.degraded_nodes.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapConfig, Mapper};
    use soi_netlist::Network;

    fn tiny_result() -> MappingResult {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.and2(a, b);
        n.add_output("f", g);
        Mapper::soi(MapConfig::default()).run(&n).expect("maps")
    }

    #[test]
    fn display_names_the_algorithm_and_counts() {
        let r = tiny_result();
        let text = r.to_string();
        assert!(text.contains("SOI_Domino_Map"));
        assert!(text.contains("T_logic"));
        assert!(text.contains("unate gates"));
    }

    #[test]
    fn result_fields_are_consistent() {
        let r = tiny_result();
        assert_eq!(r.counts, r.circuit.counts());
        assert_eq!(r.unate_gates, 1);
        assert_eq!(r.unate_depth, 1);
    }
}
