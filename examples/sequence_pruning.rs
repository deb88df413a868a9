//! The paper's §VII future-work idea in action: "breakdown will only occur
//! for a particular sequence of input logic values" — so discharge
//! transistors protecting junctions that can never see that sequence are
//! wasted clock load. Declare what you know about the inputs (one-hot
//! groups, pins tied off in mission mode) and let the excitability
//! analysis prune.
//!
//! Run with `cargo run --release --example sequence_pruning`.

use soi_domino::cec::{prune_discharge, verify_safe_sat};
use soi_domino::domino::{DominoCircuit, Pdn, Signal};
use soi_domino::pbe::excite::InputConstraints;
use soi_domino::pbe::postprocess;

/// Conflict budget per excitability query; gate-sized formulas settle far
/// below it.
const BUDGET: u64 = 100_000;

fn t(i: usize) -> Pdn {
    Pdn::transistor(Signal::input(i))
}

fn main() {
    // A gate with a debug observation branch and mission logic:
    //
    //   f = test · (dbg0 + dbg1) · dbg2    (debug path; `test` is tied low
    //                                       in mission mode)
    //     + (c + d) · e                    (mission logic — genuinely
    //                                       PBE-prone)
    //
    // Both branches contain a parallel section stacked above a series
    // transistor, so the worst-case flow protects a junction in each.
    let mut circuit = DominoCircuit::single_gate(
        ["test", "dbg0", "dbg1", "dbg2", "c", "d", "e"]
            .map(String::from)
            .to_vec(),
        Pdn::parallel(vec![
            Pdn::series(vec![t(0), Pdn::parallel(vec![t(1), t(2)]), t(3)]),
            Pdn::series(vec![Pdn::parallel(vec![t(4), t(5)]), t(6)]),
        ]),
    );

    // Worst-case protection, as the paper's mappers produce it.
    postprocess::insert_discharge(&mut circuit);
    let before = circuit.counts();
    println!("worst-case protected: {before}");
    for (id, gate) in circuit.iter() {
        println!(
            "  gate {id}: {} with {} discharge devices",
            gate.pdn(),
            gate.discharge().len()
        );
    }

    // What the designer knows: `test` is tied low in mission mode. The
    // debug branch's junction can then never charge — its only path to the
    // dynamic node crosses the dead transistor — while the mission
    // branch's junction remains excitable and keeps its device.
    let constraints = InputConstraints::none().with_fixed(0, false);
    let removed = prune_discharge(&mut circuit, &constraints, BUDGET);
    let after = circuit.counts();

    println!("\ndeclared: test ≡ 0");
    println!("pruned {removed} discharge transistor(s): {after}");
    assert!(verify_safe_sat(&circuit, &constraints, BUDGET).safe);
    println!("excitability check under the declared constraints: safe");
    println!(
        "\nclock-connected devices: {} -> {} ({} fewer loads on the clock tree)",
        before.clock,
        after.clock,
        before.clock - after.clock
    );
}
