//! Excitability pruning (the §VII future-work extension) applied to fully
//! mapped benchmark circuits and to gates too wide for exhaustive
//! enumeration.

use soi_domino::cec::{junction_excitability_sat, prune_discharge, verify_safe_sat};
use soi_domino::circuits::registry;
use soi_domino::domino::{DominoCircuit, DominoGate, JunctionRef, Pdn, Signal};
use soi_domino::mapper::{MapConfig, Mapper};
use soi_domino::pbe::excite::{Excitability, InputConstraints};
use soi_domino::pbe::postprocess;

/// Conflict budget per excitability query.
const BUDGET: u64 = 1_000_000;

fn t(i: usize) -> Pdn {
    Pdn::transistor(Signal::input(i))
}

#[test]
fn tied_off_enable_prunes_everything_behind_it() {
    // cm150 is a 16:1 mux with an enable pin. If the design guarantees
    // `en` stays low (a disabled sub-block), no path from the dynamic node
    // through the enable can ever charge an internal junction of the
    // gated cone.
    let network = registry::benchmark("cm150").expect("registered");
    let mapped = Mapper::baseline(MapConfig::default())
        .run(&network)
        .unwrap();
    let mut circuit = mapped.circuit;
    let before = circuit.counts().discharge;
    assert!(before > 0, "baseline cm150 should need protection");

    let en_index = circuit
        .input_names()
        .iter()
        .position(|n| n == "en")
        .expect("cm150 has an enable input");
    let constraints = InputConstraints::none().with_fixed(en_index, false);
    let removed = prune_discharge(&mut circuit, &constraints, BUDGET);
    let after = circuit.counts().discharge;
    assert_eq!(after, before - removed);
    assert!(verify_safe_sat(&circuit, &constraints, BUDGET).safe);
}

#[test]
fn unconstrained_pruning_never_removes_needed_protection() {
    for name in ["cm150", "z4ml", "frg1", "c432"] {
        let network = registry::benchmark(name).expect("registered");
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let mapped = mapper.run(&network).unwrap();
            let mut circuit = mapped.circuit;
            let before = circuit.counts().discharge;
            let removed = prune_discharge(&mut circuit, &InputConstraints::none(), BUDGET);
            // Worst-case committed points are excitable by construction;
            // pruning without knowledge must be a no-op.
            assert_eq!(removed, 0, "{name}: pruned {removed} of {before}");
        }
    }
}

#[test]
fn pruned_circuit_still_computes_the_function() {
    let network = registry::benchmark("cm150").expect("registered");
    let mapped = Mapper::baseline(MapConfig::default())
        .run(&network)
        .unwrap();
    let mut circuit = mapped.circuit;
    let en_index = circuit
        .input_names()
        .iter()
        .position(|n| n == "en")
        .expect("enable input");
    prune_discharge(
        &mut circuit,
        &InputConstraints::none().with_fixed(en_index, false),
        BUDGET,
    );
    circuit.validate().unwrap();
    // Discharge devices never affect the boolean function.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(404);
    for _ in 0..32 {
        let v: Vec<bool> = (0..network.inputs().len()).map(|_| rng.gen()).collect();
        assert_eq!(circuit.evaluate(&v).unwrap(), network.simulate(&v).unwrap());
    }
}

/// `s0·s1·(a+b)·c` in parallel with 17 single-input branches: 22 distinct
/// variables, past the reach of exhaustive enumeration. One-hot selects
/// make `s0·s1` inadmissible, so the junction below `(a+b)` can never
/// charge and its device is proven redundant.
#[test]
fn wide_gate_under_one_hot_selects_is_pruned() {
    let guarded = Pdn::series(vec![t(0), t(1), Pdn::parallel(vec![t(2), t(3)]), t(4)]);
    let branches = std::iter::once(guarded).chain((5..22).map(t)).collect();
    let mut circuit = DominoCircuit::single_gate(
        (0..22).map(|i| format!("i{i}")).collect(),
        Pdn::parallel(branches),
    );
    postprocess::insert_discharge(&mut circuit);
    let before = circuit.counts().discharge;
    let constraints = InputConstraints::none().with_mutex(vec![0, 1]);
    let removed = prune_discharge(&mut circuit, &constraints, BUDGET);
    assert_eq!(removed, 1, "{before} devices before pruning");
    let report = verify_safe_sat(&circuit, &constraints, BUDGET);
    assert!(report.safe, "{report:?}");
}

/// `(x0 + … + x68) · x69`: 70 distinct variables, more than a 64-bit
/// assignment word holds. The committed junction is excitable (hold one
/// parallel input, fire `x69`), and pruning without constraints keeps its
/// device.
#[test]
fn seventy_variable_gate_is_decided() {
    let pdn = Pdn::series(vec![Pdn::parallel((0..69).map(t).collect()), t(69)]);
    let gate = DominoGate::footed(pdn.clone());
    let junction = JunctionRef::new(vec![], 0);
    assert_eq!(
        junction_excitability_sat(&gate, &junction, &InputConstraints::none(), BUDGET),
        Excitability::Excitable
    );

    let mut circuit = DominoCircuit::single_gate((0..70).map(|i| format!("x{i}")).collect(), pdn);
    postprocess::insert_discharge(&mut circuit);
    assert!(circuit.gate_count() == 1 && circuit.counts().discharge == 1);
    assert_eq!(
        prune_discharge(&mut circuit, &InputConstraints::none(), BUDGET),
        0
    );
    assert!(verify_safe_sat(&circuit, &InputConstraints::none(), BUDGET).safe);
}
