//! Registry-wide equivalence sweeps and mutation-kill checks for the
//! `soi-cec` equivalence checker.
//!
//! Three claims, each over the whole `soi-circuits` registry (the first
//! also over seeded random control networks, whose equivalences close
//! mostly by internal SAT merges):
//!
//! 1. every mapped circuit is SAT-provably equivalent to its source
//!    network, under the serial and parallel schedules;
//! 2. every structural netlist corruption from `guard::inject` is either
//!    rejected by the checker with a typed error, refuted with a
//!    confirmed counterexample, or proven a functional no-op — never
//!    silently accepted;
//! 3. the SAT excitability engine agrees with an exhaustive enumeration
//!    oracle (written here, independent of the engine's own model and
//!    replay) on every committed junction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soi_domino::cec::{
    check_mapped, check_networks, junction_excitability_sat, verify_safe_sat, CecOptions,
    CecVerdict,
};
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::domino::{
    DominoCircuit, DominoGate, GateId, JunctionRef, Pdn, PdnGraph, Phase, Signal,
};
use soi_domino::guard::{inject, Pipeline};
use soi_domino::mapper::{MapConfig, Mapper, Parallelism};
use soi_domino::netlist::Network;
use soi_domino::pbe::excite::{Excitability, InputConstraints};
use soi_domino::pbe::points;

fn schedules() -> [(&'static str, MapConfig); 2] {
    let base = MapConfig::default();
    [
        (
            "serial",
            MapConfig {
                parallelism: Parallelism::Serial,
                ..base
            },
        ),
        (
            "parallel",
            MapConfig {
                parallelism: Parallelism::Threads(2),
                ..base
            },
        ),
    ]
}

/// Every registry circuit, mapped under every schedule, SAT-proves
/// equivalent to its source network with no unproven miters.
#[test]
fn registry_sweep_proves_mapped_equivalence_across_schedules() {
    let opts = CecOptions::default();
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registry circuit exists");
        for (schedule, config) in schedules() {
            let result = Mapper::soi(config)
                .run(&network)
                .unwrap_or_else(|e| panic!("{name} maps under {schedule}: {e}"));
            let report = check_mapped(&network, &result.circuit, &opts)
                .unwrap_or_else(|e| panic!("{name} ({schedule}) checks: {e}"));
            assert!(
                report.is_equivalent(),
                "{name} ({schedule}): {:?}",
                report.verdict
            );
            assert_eq!(report.unproven(), 0, "{name} ({schedule}): unproven miters");
            assert_eq!(
                report.outputs_proved, report.outputs_total,
                "{name} ({schedule}): outputs not all proved"
            );
        }
    }
}

type NetMutator = fn(&Network, u64) -> Option<Network>;

const NET_MUTATORS: [(&str, NetMutator); 5] = [
    ("dangling_fanin", inject::dangling_fanin),
    ("forward_fanin", inject::forward_fanin),
    ("dangling_output", inject::dangling_output),
    ("break_topo_order", inject::break_topo_order),
    ("duplicate_input_name", inject::duplicate_input_name),
];

/// Random input vectors for functional no-op proofs on circuits too wide
/// to enumerate.
fn sample_vectors(inputs: usize, samples: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| (0..inputs).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

/// Every netlist mutator's output is caught: by a typed validation error
/// from the checker, or by a confirmed counterexample — or, if the
/// checker calls it equivalent, the mutation is proven a functional
/// no-op by simulation. Silent acceptance of a real change is the only
/// losing outcome.
#[test]
fn netlist_mutations_are_caught_or_proven_noop() {
    let opts = CecOptions::default();
    let sources = ["count", "c8", "f51m", "9symml"];
    for source in sources {
        let network = registry::benchmark(source).expect("registry circuit exists");
        for (mutator_name, mutator) in NET_MUTATORS {
            let mut produced = 0;
            for seed in 0..8u64 {
                let Some(mutated) = mutator(&network, seed) else {
                    continue;
                };
                produced += 1;
                // The structural mutators all guarantee `validate()`
                // rejects their output, so the checker must refuse the
                // comparison rather than crash or mis-verdict.
                match check_networks(&network, &mutated, &opts) {
                    Err(_) => {}
                    Ok(report) => match report.verdict {
                        CecVerdict::NotEquivalent(_) => {}
                        CecVerdict::Equivalent => {
                            for vals in sample_vectors(network.inputs().len(), 64, seed) {
                                let lhs = network.simulate(&vals).expect("source simulates");
                                let rhs = mutated.simulate(&vals).expect("mutant simulates");
                                assert_eq!(
                                    lhs, rhs,
                                    "{source}/{mutator_name} seed {seed}: \
                                     claimed equivalent but differs"
                                );
                            }
                        }
                        CecVerdict::Undecided { unproven } => panic!(
                            "{source}/{mutator_name} seed {seed}: \
                             undecided with {unproven} open miters"
                        ),
                    },
                }
            }
            assert!(produced > 0, "{source}/{mutator_name}: mutator never fired");
        }
    }
}

/// Seeded random control logic, the shape whose equivalences close
/// mostly by internal SAT merges: four ~4k-gate networks mapped by the
/// default [`Pipeline`] prove `Equivalent` under the pipeline's own CEC
/// budgets. Each mapped circuit is then given one wrong-wire fault, which
/// must be refuted with a replayed counterexample.
#[test]
fn control_networks_prove_and_their_mutants_are_refuted() {
    for j in 0..4u64 {
        let mut spec = RandomSpec::control(&format!("cec-control-{j}"), 64, 16, 3_500, j);
        spec.xor_ratio = 0.02;
        let network = generate(&spec);
        let pipeline = Pipeline::new(Mapper::soi(MapConfig::default()));
        let opts = pipeline.cec_options();
        let mapped = pipeline
            .run(&network)
            .unwrap_or_else(|e| panic!("control {j} maps: {e}"))
            .result;
        let report = check_mapped(&network, &mapped.circuit, &opts)
            .unwrap_or_else(|e| panic!("control {j} checks: {e}"));
        assert!(report.is_equivalent(), "control {j}: {:?}", report.verdict);
        assert_eq!(report.unproven(), 0, "control {j}: unproven miters");
        assert!(report.internal_merges > 0, "control {j}: nothing merged");

        let (mutant, _) = (0..16)
            .find_map(|seed| inject::retarget_fanin(&mapped.circuit, seed))
            .unwrap_or_else(|| panic!("control {j}: retarget_fanin never fired"));
        let report = check_mapped(&network, &mutant, &opts).expect("comparable");
        match report.verdict {
            CecVerdict::NotEquivalent(cex) => {
                assert!(report.cex_replays >= 1, "control {j}: cex not replayed");
                let lhs = network.simulate(&cex.inputs).expect("simulates");
                let rhs = mutant.evaluate(&cex.inputs).expect("evaluates");
                assert_ne!(lhs, rhs, "control {j}: cex does not distinguish");
            }
            ref v => panic!("control {j}: retarget_fanin not refuted: {v:?}"),
        }
    }
}

/// Circuit-level mutators: the fanin retarget is a real functional change
/// and must be refuted with a confirmed counterexample; the
/// protection-level mutators leave the logic function intact and the
/// checker must keep proving equivalence (they are caught by the PBE
/// safety stage, not by CEC).
#[test]
fn circuit_mutations_are_refuted_or_proven_noop() {
    let opts = CecOptions::default();
    let network = registry::benchmark("count").expect("registry circuit exists");
    let mapped = Mapper::soi(MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    })
    .run(&network)
    .expect("maps");

    let mut retargets = 0;
    for seed in 0..16u64 {
        let Some((mutant, witness)) = inject::retarget_fanin(&mapped.circuit, seed) else {
            continue;
        };
        retargets += 1;
        let report = check_mapped(&network, &mutant, &opts).expect("comparable");
        match report.verdict {
            CecVerdict::NotEquivalent(cex) => {
                // The counterexample was already replay-confirmed inside
                // the checker; cross-check it against both sides anyway.
                let lhs = network.simulate(&cex.inputs).expect("simulates");
                let rhs = mutant.evaluate(&cex.inputs).expect("evaluates");
                assert_ne!(lhs, rhs, "cex does not distinguish (seed {seed})");
            }
            ref v => panic!("retarget_fanin seed {seed} not refuted: {v:?}"),
        }
        // The injector's own witness vector must also distinguish.
        let lhs = network.simulate(&witness).expect("simulates");
        let rhs = mutant.evaluate(&witness).expect("evaluates");
        assert_ne!(
            lhs, rhs,
            "injector witness does not distinguish (seed {seed})"
        );
    }
    assert!(retargets > 0, "retarget_fanin never fired");

    let mut preserved: Vec<(&str, DominoCircuit)> = Vec::new();
    for seed in 0..8u64 {
        if let Some(c) = inject::drop_discharge(&mapped.circuit, seed) {
            preserved.push(("drop_discharge", c));
        }
        if let Some(c) = inject::retarget_discharge(&mapped.circuit, seed) {
            preserved.push(("retarget_discharge", c));
        }
    }
    if let Some(c) = inject::strip_protection(&mapped.circuit) {
        preserved.push(("strip_protection", c));
    }
    assert!(
        !preserved.is_empty(),
        "no protection-level mutants produced"
    );
    for (mutator_name, mutant) in &preserved {
        let report = check_mapped(&network, mutant, &opts).expect("comparable");
        assert!(
            report.is_equivalent(),
            "{mutator_name}: protection change altered the logic function: {:?}",
            report.verdict
        );
    }
}

/// Widest gate the enumeration oracle handles (distinct variables).
const ORACLE_LIMIT: usize = 16;

/// Exhaustive excitability oracle: enumerates every assignment of the
/// gate's distinct variables (both phases of an input share one; gate
/// outputs are free) and computes net connectivity with its own
/// union-find on the flattened [`PdnGraph`]. Inputs absent from the gate
/// read as `false`. Returns `None` past [`ORACLE_LIMIT`] variables.
fn enumerate_excitability(
    gate: &DominoGate,
    junction: &JunctionRef,
    constraints: &InputConstraints,
) -> Option<Excitability> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let graph = gate.pdn().flatten();
    let net = graph
        .junction_net(junction)
        .expect("junction exists in this PDN")
        .index();
    let mut vars: Vec<Signal> = Vec::new();
    let terms: Vec<(usize, bool)> = graph
        .transistors
        .iter()
        .map(|t| {
            let (var, negated) = match t.signal {
                Signal::Input { index, phase } => (Signal::input(index), phase == Phase::Neg),
                gate_output => (gate_output, false),
            };
            let idx = vars.iter().position(|&v| v == var).unwrap_or_else(|| {
                vars.push(var);
                vars.len() - 1
            });
            (idx, negated)
        })
        .collect();
    if vars.len() > ORACLE_LIMIT {
        return None;
    }
    let (mut can_charge, mut can_yank) = (false, false);
    for bits in 0u32..1 << vars.len() {
        let value = |var: usize| bits >> var & 1 == 1;
        let admissible = constraints.admits(&|input| {
            vars.iter()
                .position(|&v| v == Signal::input(input))
                .is_some_and(value)
        });
        if !admissible {
            continue;
        }
        let mut parent: Vec<usize> = (0..graph.net_count()).collect();
        for (t, &(var, negated)) in graph.transistors.iter().zip(&terms) {
            if value(var) != negated {
                let a = find(&mut parent, t.upper.index());
                let b = find(&mut parent, t.lower.index());
                parent[a.max(b)] = a.min(b);
            }
        }
        let here = find(&mut parent, net);
        let top = find(&mut parent, PdnGraph::TOP.index());
        let foot = find(&mut parent, PdnGraph::FOOT.index());
        can_charge |= here == top && here != foot;
        can_yank |= here == foot;
        if can_charge && can_yank {
            return Some(Excitability::Excitable);
        }
    }
    Some(Excitability::ProvenSafe)
}

/// Circuit-level oracle verdict: every committed junction without a
/// discharge device is enumerated `ProvenSafe` (a gate too wide to
/// enumerate counts as unsafe).
fn enumerate_safe(circuit: &DominoCircuit, constraints: &InputConstraints) -> bool {
    circuit.iter().all(|(_, gate)| {
        points::analyze(gate.pdn())
            .committed
            .iter()
            .filter(|j| !gate.discharge().contains(j))
            .all(|j| enumerate_excitability(gate, j, constraints) == Some(Excitability::ProvenSafe))
    })
}

fn t(i: usize) -> Pdn {
    Pdn::transistor(Signal::input(i))
}

/// Every junction of a spread of gates: the SAT verdict equals the
/// oracle's exact verdict, across constraint shapes.
#[test]
fn pbe_sat_agrees_with_exact_enumeration() {
    let gates = [
        DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)])),
        DominoGate::footed(Pdn::series(vec![
            t(0),
            t(1),
            Pdn::parallel(vec![t(2), t(3)]),
            t(4),
        ])),
        DominoGate::footed(Pdn::parallel(vec![
            Pdn::series(vec![t(0), t(1), t(2)]),
            Pdn::series(vec![t(3), Pdn::parallel(vec![t(4), t(5)])]),
        ])),
        DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]),
            Pdn::parallel(vec![t(3), t(4)]),
        ])),
        // Gate-output signals and negative phases.
        DominoGate::footed(Pdn::series(vec![
            Pdn::transistor(Signal::Gate(GateId::from_index(0))),
            Pdn::parallel(vec![t(1), Pdn::transistor(Signal::input_neg(2))]),
            t(0),
        ])),
    ];
    let constraint_sets = [
        InputConstraints::none(),
        InputConstraints::none().with_mutex(vec![0, 1]),
        InputConstraints::none().with_mutex(vec![1, 2, 3]),
        InputConstraints::none().with_fixed(0, false),
        InputConstraints::none()
            .with_fixed(1, true)
            .with_mutex(vec![2, 3]),
    ];
    for (g, gate) in gates.iter().enumerate() {
        let graph = gate.pdn().flatten();
        for (c, constraints) in constraint_sets.iter().enumerate() {
            for (junction, _) in graph.junctions() {
                let exact = enumerate_excitability(gate, junction, constraints);
                let sat = junction_excitability_sat(gate, junction, constraints, 1_000_000);
                assert_eq!(
                    Some(sat),
                    exact,
                    "gate {g} constraints {c} junction {junction:?}"
                );
            }
        }
    }
}

/// An input absent from the gate reads `false`, so tying it high
/// forbids every assignment: the oracle and the SAT engine both call the
/// junction safe.
#[test]
fn fixed_absent_input_empties_the_space_for_both_engines() {
    let gate = DominoGate::footed(Pdn::series(vec![
        t(0),
        Pdn::parallel(vec![t(1), t(2)]),
        t(3),
    ]));
    let j = JunctionRef::new(vec![], 0);
    let absent = InputConstraints::none().with_fixed(9, true);
    assert_eq!(
        enumerate_excitability(&gate, &j, &absent),
        Some(Excitability::ProvenSafe)
    );
    assert_eq!(
        junction_excitability_sat(&gate, &j, &absent, 1_000_000),
        Excitability::ProvenSafe
    );
}

/// The SAT excitability engine agrees with the enumeration oracle on
/// every committed junction of every mapped registry circuit: exact
/// verdicts must be reproduced verbatim, and where the gate is too wide
/// to enumerate the SAT engine must still decide.
#[test]
fn pbe_sat_agrees_with_enumeration_on_every_registry_circuit() {
    let constraints = InputConstraints::none();
    let budget = 1_000_000;
    let map_config = MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    };
    let mut junctions = 0usize;
    for name in registry::names() {
        let network = registry::benchmark(name).expect("registry circuit exists");
        let mapped = Mapper::soi(map_config)
            .run(&network)
            .unwrap_or_else(|e| panic!("{name} maps: {e}"));
        for (gate_id, gate) in mapped.circuit.iter() {
            for junction in points::analyze(gate.pdn()).committed {
                junctions += 1;
                let by_enum = enumerate_excitability(gate, &junction, &constraints);
                let by_sat = junction_excitability_sat(gate, &junction, &constraints, budget);
                match by_enum {
                    Some(exact) => assert_eq!(
                        by_sat, exact,
                        "{name} gate {gate_id} junction {junction}: SAT diverges"
                    ),
                    // Too wide to enumerate; the complete method may
                    // answer either way but must not itself give up with
                    // this budget on gate-sized formulas.
                    None => assert_ne!(
                        by_sat,
                        Excitability::Unknown,
                        "{name} gate {gate_id} junction {junction}: SAT also unknown"
                    ),
                }
            }
        }
        // Circuit-level verdicts line up too (protected circuits: both
        // sides must call the mapped result safe).
        let by_enum = enumerate_safe(&mapped.circuit, &constraints);
        let by_sat = verify_safe_sat(&mapped.circuit, &constraints, budget);
        assert_eq!(
            by_enum, by_sat.safe,
            "{name}: circuit-level verdicts differ"
        );
        assert!(by_sat.safe, "{name}: mapped circuit flagged unsafe");
    }
    assert!(junctions > 0, "registry produced no committed junctions");
}
