//! The cross-stage audit: end-to-end consistency checks over a completed
//! pipeline run.
//!
//! [`check_pipeline`] re-derives everything the flow claims from first
//! principles and compares:
//!
//! 1. the unate network is functionally equivalent to the source netlist
//!    (randomized simulation, [`soi_unate::verify::equivalent`]);
//! 2. the mapped circuit is structurally valid
//!    ([`DominoCircuit::validate`](soi_domino_ir::DominoCircuit::validate));
//! 3. the circuit is PBE-safe: no committed discharge point is left
//!    unprotected ([`soi_pbe::hazard::check`]);
//! 4. the transistor accounting is consistent: the reported
//!    [`TransistorCounts`] match a recount from the circuit, and the
//!    repo's accounting invariant `total == logic + discharge` holds.
//!    (The paper's tables tally `T_clock` as a *separate, overlapping*
//!    column — clock devices are already inside the per-gate overhead that
//!    `logic` includes — so the invariant here is deliberately **not**
//!    `total == logic + discharge + clock`.)
//! 5. the mapped circuit computes the same function as the source netlist
//!    on corner and seeded-random vectors (differential simulation). The
//!    vectors are packed 64 to a word — vector `64·b + k` is lane `k` of
//!    batch `b` — and each batch is simulated once on each side
//!    ([`SimBatch::run`] and
//!    [`DominoCircuit::evaluate_words`](soi_domino_ir::DominoCircuit::evaluate_words)).
//!    The lowest differing lane of the first differing batch is the
//!    vector a one-at-a-time loop over the same vectors would stop at, so
//!    a mismatch reports exactly that vector.
//!
//! Checks 2 and 3 run first. They are also what the pipeline's
//! discharge-protect stage has just passed on the same circuit, so
//! [`Pipeline::run`](crate::Pipeline::run) runs only checks 1, 4 and 5 in
//! its audit stage; a standalone [`check_pipeline`] runs all five.
//!
//! Each violation is a distinct [`AuditError`] variant, so a fault-injection
//! harness can assert not just *that* corruption is caught but *which*
//! check catches it.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soi_domino_ir::{DominoError, TransistorCounts};
use soi_mapper::{MappingResult, PartialMapping};
use soi_netlist::sim::SimBatch;
use soi_netlist::{Network, NetworkError};
use soi_pbe::hazard;
use soi_unate::{verify, UnateError, UnateNetwork};

/// Effort and seeding knobs for the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Rounds of 64-wide random vectors for the unate-equivalence check.
    pub equivalence_rounds: usize,
    /// Number of seeded-random vectors for the differential functional
    /// check (corner vectors are always included on top).
    pub functional_vectors: usize,
    /// Seed for both randomized checks.
    pub seed: u64,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            equivalence_rounds: 8,
            functional_vectors: 64,
            seed: 0x5001_d0e5,
        }
    }
}

/// A violated cross-stage invariant.
#[derive(Debug)]
pub enum AuditError {
    /// Random simulation distinguished the unate network from the source.
    UnateMismatch {
        /// How many rounds were tried before the mismatch surfaced.
        rounds: usize,
    },
    /// The equivalence checker itself failed (arity mismatch, typically a
    /// corrupted intermediate).
    Equivalence(UnateError),
    /// The mapped circuit is structurally invalid.
    CircuitInvalid(DominoError),
    /// The circuit's discharge set leaves committed points unprotected.
    Hazards {
        /// Number of unprotected points.
        count: usize,
    },
    /// The reported counts disagree with a recount from the circuit.
    CountsMismatch {
        /// Counts recomputed from the circuit.
        recomputed: TransistorCounts,
        /// Counts the mapping result reported.
        reported: TransistorCounts,
    },
    /// The accounting identity `total == logic + discharge` is broken.
    AccountingBroken {
        /// The recomputed counts that violate the identity.
        counts: TransistorCounts,
    },
    /// The mapped circuit disagrees with the source netlist on a vector.
    FunctionalMismatch {
        /// The distinguishing input vector.
        vector: Vec<bool>,
        /// What the source netlist computes.
        expected: Vec<bool>,
        /// What the mapped circuit computes.
        got: Vec<bool>,
    },
    /// Simulating the source netlist failed.
    NetworkSim(NetworkError),
    /// Evaluating the mapped circuit failed.
    CircuitEval(DominoError),
    /// A salvaged [`PartialMapping`](soi_mapper::PartialMapping) violates
    /// its own accounting invariants.
    PartialInconsistent {
        /// The violated invariant.
        what: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::UnateMismatch { rounds } => write!(
                f,
                "unate network is not equivalent to the source netlist ({rounds} rounds)"
            ),
            AuditError::Equivalence(e) => write!(f, "equivalence check failed: {e}"),
            AuditError::CircuitInvalid(e) => write!(f, "mapped circuit is invalid: {e}"),
            AuditError::Hazards { count } => {
                write!(f, "{count} PBE-susceptible junction(s) left unprotected")
            }
            AuditError::CountsMismatch {
                recomputed,
                reported,
            } => write!(
                f,
                "transistor accounting drifted: recomputed [{recomputed}] != reported [{reported}]"
            ),
            AuditError::AccountingBroken { counts } => write!(
                f,
                "accounting identity total == logic + discharge broken: [{counts}]"
            ),
            AuditError::FunctionalMismatch {
                vector,
                expected,
                got,
            } => write!(
                f,
                "mapped circuit disagrees with the source on {vector:?}: expected {expected:?}, got {got:?}"
            ),
            AuditError::NetworkSim(e) => write!(f, "source simulation failed: {e}"),
            AuditError::CircuitEval(e) => write!(f, "circuit evaluation failed: {e}"),
            AuditError::PartialInconsistent { what } => {
                write!(f, "salvaged partial mapping is inconsistent: {what}")
            }
        }
    }
}

impl Error for AuditError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AuditError::Equivalence(e) => Some(e),
            AuditError::CircuitInvalid(e) | AuditError::CircuitEval(e) => Some(e),
            AuditError::NetworkSim(e) => Some(e),
            _ => None,
        }
    }
}

/// What a passing audit actually exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// Rounds of 64-wide vectors used by the equivalence check.
    pub equivalence_rounds: usize,
    /// Vectors used by the differential functional check.
    pub vectors_checked: usize,
}

/// Runs every cross-stage check; see the module docs for the list.
///
/// # Errors
///
/// Returns the first violated invariant as an [`AuditError`].
pub fn check_pipeline(
    network: &Network,
    unate: &UnateNetwork,
    result: &MappingResult,
    cfg: &AuditConfig,
) -> Result<AuditReport, AuditError> {
    // 2. Structural validity of the mapped circuit.
    result
        .circuit
        .validate()
        .map_err(AuditError::CircuitInvalid)?;

    // 3. PBE safety.
    let hazards = hazard::check(&result.circuit);
    if !hazards.is_empty() {
        return Err(AuditError::Hazards {
            count: hazards.len(),
        });
    }

    check_after_protect(network, unate, result, cfg)
}

/// Checks 1, 4 and 5: every check but the two the discharge-protect stage
/// runs on the same circuit.
pub(crate) fn check_after_protect(
    network: &Network,
    unate: &UnateNetwork,
    result: &MappingResult,
    cfg: &AuditConfig,
) -> Result<AuditReport, AuditError> {
    // 1. Unate network still computes the source function.
    match verify::equivalent(network, unate, cfg.equivalence_rounds, cfg.seed) {
        Ok(true) => {}
        Ok(false) => {
            return Err(AuditError::UnateMismatch {
                rounds: cfg.equivalence_rounds,
            })
        }
        Err(e) => return Err(AuditError::Equivalence(e)),
    }

    // 4. Transistor accounting.
    let recomputed = result.circuit.counts();
    if recomputed != result.counts {
        return Err(AuditError::CountsMismatch {
            recomputed,
            reported: result.counts,
        });
    }
    if recomputed.total != recomputed.logic + recomputed.discharge {
        return Err(AuditError::AccountingBroken { counts: recomputed });
    }

    // 5. Differential function check: source netlist vs mapped circuit,
    // 64 vectors per pass.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut vectors_checked = 0;
    for (batch, live) in vector_batches(network.inputs().len(), cfg.functional_vectors, &mut rng) {
        let expected = batch.run(network).map_err(AuditError::NetworkSim)?;
        let got = result
            .circuit
            .evaluate_words(batch.words())
            .map_err(AuditError::CircuitEval)?;
        if let Some(k) = first_difference(&expected, &got, live) {
            return Err(AuditError::FunctionalMismatch {
                vector: lane(batch.words(), k),
                expected: lane(&expected, k),
                got: lane(&got, k),
            });
        }
        vectors_checked += live.count_ones() as usize;
    }

    Ok(AuditReport {
        equivalence_rounds: cfg.equivalence_rounds,
        vectors_checked,
    })
}

/// The differential vectors over `arity` inputs, in order — all-zeros,
/// all-ones, then `random` vectors drawn input by input from `rng` —
/// packed 64 to a batch: vector `64·b + k` is lane `k` of batch `b`. Each
/// batch comes with the mask of its live lanes. Batches are drawn lazily,
/// so a caller that stops early draws no further vectors.
pub(crate) fn vector_batches(
    arity: usize,
    random: usize,
    rng: &mut SmallRng,
) -> impl Iterator<Item = (SimBatch, u64)> + '_ {
    let total = random + 2;
    (0..total.div_ceil(64)).map(move |b| {
        let lanes = (total - 64 * b).min(64);
        let mut words = vec![0u64; arity];
        for k in 0..lanes {
            for w in &mut words {
                let bit = match 64 * b + k {
                    0 => false,
                    1 => true,
                    _ => rng.gen(),
                };
                *w |= u64::from(bit) << k;
            }
        }
        let live = if lanes == 64 { !0 } else { (1 << lanes) - 1 };
        (SimBatch::new(words), live)
    })
}

/// The lowest live lane on which two sides' output words differ. Sides
/// with different output counts differ on every lane.
pub(crate) fn first_difference(a: &[u64], b: &[u64], live: u64) -> Option<u32> {
    let diff = if a.len() == b.len() {
        a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x ^ y))
    } else {
        !0
    };
    let diff = diff & live;
    (diff != 0).then(|| diff.trailing_zeros())
}

/// Lane `k` of every word, as one vector.
pub(crate) fn lane(words: &[u64], k: u32) -> Vec<bool> {
    words.iter().map(|w| w >> k & 1 == 1).collect()
}

/// Checks a salvaged [`PartialMapping`]'s internal accounting: unit counts
/// are conserved and the frontier is exactly the cut between completed and
/// unfinished work.
///
/// Invariants checked:
///
/// * `completed ≤ total`;
/// * the frontier is empty exactly when every unit completed (an interrupt
///   observed after the last unit finished);
/// * the frontier fits in the unfinished remainder, and its indices are
///   in range, sorted, and distinct.
///
/// # Errors
///
/// Returns [`AuditError::PartialInconsistent`] naming the first violated
/// invariant.
pub fn check_partial(partial: &PartialMapping) -> Result<(), AuditError> {
    let fail = |what: String| Err(AuditError::PartialInconsistent { what });
    let total = partial.total_units();
    let completed = partial.completed_units();
    if completed > total {
        return fail(format!("{completed} completed units out of {total}"));
    }
    let frontier = partial.frontier();
    if frontier.is_empty() != (completed == total) {
        return fail(format!(
            "frontier of {} units with {completed}/{total} completed",
            frontier.len()
        ));
    }
    if frontier.len() > total - completed {
        return fail(format!(
            "frontier of {} units exceeds the {} unfinished",
            frontier.len(),
            total - completed
        ));
    }
    if let Some(&u) = frontier.iter().find(|&&u| u >= total) {
        return fail(format!("frontier unit {u} out of range ({total} units)"));
    }
    if let Some(w) = frontier.windows(2).find(|w| w[0] >= w[1]) {
        return fail(format!("frontier not sorted-unique at {}..{}", w[0], w[1]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_circuits::registry;
    use soi_domino_ir::{DominoCircuit, GateId, Pdn, Signal};
    use soi_mapper::{MapConfig, Mapper};
    use soi_unate::{convert, Options};

    fn mapped() -> (Network, UnateNetwork, MappingResult) {
        let mut n = Network::new("aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.and2(a, b);
        let f = n.nor2(ab, c);
        n.add_output("f", f);
        let unate = convert(&n, &Options::default()).expect("converts");
        let result = Mapper::soi(MapConfig::default())
            .run_unate(&unate)
            .expect("maps");
        (n, unate, result)
    }

    #[test]
    fn clean_run_passes_and_reports_effort() {
        let (n, u, r) = mapped();
        let report = check_pipeline(&n, &u, &r, &AuditConfig::default()).expect("audit passes");
        assert_eq!(report.vectors_checked, 66);
        assert_eq!(report.equivalence_rounds, 8);
    }

    #[test]
    fn stripped_protection_is_caught_as_hazard() {
        // The baseline mapper leans on post-inserted discharge transistors
        // (the SOI mapper often needs none, by construction), so its output
        // is the right victim for a protection-stripping fault.
        let mut n = Network::new("oa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let t = n.or2(a, b);
        let f = n.and2(t, c);
        n.add_output("f", f);
        let u = convert(&n, &Options::default()).expect("converts");
        let mut r = Mapper::baseline(MapConfig::default())
            .run_unate(&u)
            .expect("maps");
        let mut stripped = false;
        for id in 0..r.circuit.gate_count() {
            let gate = r.circuit.gate_mut(GateId::from_index(id));
            if !gate.discharge().is_empty() {
                gate.set_discharge_unchecked(Vec::new());
                stripped = true;
            }
        }
        assert!(stripped, "the bulk-typical OA mapping needs protection");
        // Keep the reported counts in sync so the *hazard* check is what
        // trips, not the accounting comparison.
        r.counts = r.circuit.counts();
        assert!(matches!(
            check_pipeline(&n, &u, &r, &AuditConfig::default()),
            Err(AuditError::Hazards { .. })
        ));
    }

    #[test]
    fn stale_counts_are_caught() {
        let (n, u, mut r) = mapped();
        r.counts.total += 1;
        assert!(matches!(
            check_pipeline(&n, &u, &r, &AuditConfig::default()),
            Err(AuditError::CountsMismatch { .. })
        ));
    }

    #[test]
    fn retargeted_output_is_caught_functionally_or_structurally() {
        let (n, u, mut r) = mapped();
        // Point the output at gate 0 instead of the final gate; with more
        // than one gate this either breaks validation or the function.
        if r.circuit.gate_count() < 2 {
            return;
        }
        r.circuit
            .set_output_gate_unchecked(0, GateId::from_index(0));
        let err = check_pipeline(&n, &u, &r, &AuditConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            AuditError::FunctionalMismatch { .. } | AuditError::CircuitInvalid(_)
        ));
    }

    /// The scalar definition of circuit evaluation: one vector, one tree
    /// walk per gate, series = all, parallel = any.
    fn scalar_eval(c: &DominoCircuit, v: &[bool]) -> Vec<bool> {
        fn conducts(p: &Pdn, val: &dyn Fn(Signal) -> bool) -> bool {
            match p {
                Pdn::Transistor(s) => val(*s),
                Pdn::Series(ch) => ch.iter().all(|c| conducts(c, val)),
                Pdn::Parallel(ch) => ch.iter().any(|c| conducts(c, val)),
            }
        }
        let mut out = vec![false; c.gate_count()];
        for (id, gate) in c.iter() {
            let val = |s: Signal| match s {
                Signal::Input { index, phase } => phase.apply(v[index]),
                Signal::Gate(g) => out[g.index()],
            };
            out[id.index()] = conducts(gate.pdn(), &val);
        }
        c.outputs()
            .iter()
            .map(|o| out[o.gate.index()] != o.inverted)
            .collect()
    }

    #[test]
    fn evaluate_words_agrees_lane_by_lane_on_every_registry_circuit() {
        let mut circuits = 0;
        for name in registry::names() {
            let network = registry::benchmark(name).expect("registered benchmark");
            let unate = convert(&network, &Options::default()).expect("converts");
            for mapper in [
                Mapper::baseline(MapConfig::default()),
                Mapper::rearrange_stacks(MapConfig::default()),
                Mapper::soi(MapConfig::default()),
            ] {
                let circuit = mapper.run_unate(&unate).expect("maps").circuit;
                let mut rng = SmallRng::seed_from_u64(circuits);
                let arity = circuit.input_names().len();
                let (batch, live) = vector_batches(arity, 62, &mut rng).next().expect("a batch");
                assert_eq!(live, !0);
                let words = circuit.evaluate_words(batch.words()).expect("evaluates");
                for k in 0..64 {
                    let v = lane(batch.words(), k);
                    assert_eq!(
                        lane(&words, k),
                        scalar_eval(&circuit, &v),
                        "{name} ({:?}), lane {k}",
                        mapper.algorithm()
                    );
                }
                circuits += 1;
            }
        }
        assert_eq!(circuits as usize, 3 * registry::names().len());
    }

    #[test]
    fn vectors_checked_counts_corners_and_every_random_vector() {
        // 0: corners only; 62: one full word; 63: a one-lane second word;
        // 200: a partial last word.
        let (n, u, r) = mapped();
        for functional_vectors in [0, 62, 63, 200] {
            let cfg = AuditConfig {
                functional_vectors,
                ..AuditConfig::default()
            };
            let report = check_pipeline(&n, &u, &r, &cfg).expect("audit passes");
            assert_eq!(report.vectors_checked, functional_vectors + 2);
        }
    }

    #[test]
    fn mismatch_past_the_first_word_is_the_scalar_replays_first() {
        // Source: f = x0 & .. & x7. Mutant: the mapping of f XOR (x0 & x1
        // & x2 & x3 & !x4), which differs from f on 1 vector in 32 and on
        // neither corner.
        let mut src = Network::new("and8");
        let xs: Vec<_> = (0..8).map(|i| src.add_input(format!("x{i}"))).collect();
        let f = src.and_tree(&xs);
        src.add_output("f", f);
        let mut mutant = Network::new("and8-mutant");
        let ys: Vec<_> = (0..8).map(|i| mutant.add_input(format!("x{i}"))).collect();
        let g = mutant.and_tree(&ys);
        let head = mutant.and_tree(&ys[..4]);
        let n4 = mutant.inv(ys[4]);
        let term = mutant.and2(head, n4);
        let out = mutant.xor2(g, term);
        mutant.add_output("f", out);
        let unate = convert(&src, &Options::default()).expect("converts");
        let result = Mapper::soi(MapConfig::default())
            .run(&mutant)
            .expect("maps");

        // Replay the audit's vectors one at a time, as the scalar check
        // did, and pick a seed whose first distinguishing vector sits past
        // the first word and shares its word with a later one, so neither
        // the batch nor the lane can be picked wrongly by chance.
        let functional_vectors = 500;
        let replay = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            [vec![false; 8], vec![true; 8]]
                .into_iter()
                .chain((0..functional_vectors).map(|_| (0..8).map(|_| rng.gen()).collect()))
                .enumerate()
                .filter_map(|(i, v): (usize, Vec<bool>)| {
                    let expected = src.simulate(&v).expect("simulates");
                    let got = result.circuit.evaluate(&v).expect("evaluates");
                    (expected != got).then_some((i, v, expected, got))
                })
                .collect::<Vec<_>>()
        };
        let (seed, (index, vector, expected, got)) = (0..200)
            .find_map(|seed| {
                let mismatches = replay(seed);
                let first = mismatches.first()?;
                let same_word = mismatches
                    .iter()
                    .filter(|m| m.0 / 64 == first.0 / 64)
                    .count();
                (first.0 >= 64 && same_word >= 2).then(|| (seed, first.clone()))
            })
            .expect("some seed puts the first mismatch past lane 63, not alone in its word");
        let cfg = AuditConfig {
            functional_vectors,
            seed,
            ..AuditConfig::default()
        };
        match check_pipeline(&src, &unate, &result, &cfg) {
            Err(AuditError::FunctionalMismatch {
                vector: v,
                expected: e,
                got: g,
            }) => assert_eq!(
                (v, e, g),
                (vector, expected, got),
                "seed {seed}, vector {index}"
            ),
            other => panic!("seed {seed}: expected a functional mismatch, got {other:?}"),
        }
    }
}
