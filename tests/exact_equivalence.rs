//! Exact (SAT-proved) verification of the flow on benchmarks small enough
//! to prove in a test run — a stronger statement than the random-vector
//! checks used elsewhere.

use soi_domino::cec::lower::circuit_to_network;
use soi_domino::cec::{check_networks, CecOptions};
use soi_domino::circuits::registry;
use soi_domino::mapper::{MapConfig, Mapper};
use soi_domino::netlist::Network;
use soi_domino::unate::{convert, Options};

/// Proves `a` and `b` equivalent with `soi-cec`, failing on a
/// counterexample or an unproven miter.
fn assert_proved_equivalent(a: &Network, b: &Network, what: &str) {
    let report = check_networks(a, b, &CecOptions::default())
        .unwrap_or_else(|e| panic!("{what}: equivalence check failed to run: {e}"));
    assert!(
        report.is_equivalent(),
        "{what}: function changed ({:?})",
        report.verdict
    );
}

#[test]
fn unate_conversion_is_exactly_equivalent() {
    for name in ["cm150", "mux", "z4ml", "9symml", "frg1", "c432"] {
        let network = registry::benchmark(name).expect("registered");
        let unate = convert(&network, &Options::default()).expect("converts");
        let lowered = unate.to_network();
        assert_proved_equivalent(&network, &lowered, &format!("{name}: unate conversion"));
    }
}

#[test]
fn mapped_circuits_are_exactly_equivalent() {
    for name in ["cm150", "z4ml", "9symml", "c432"] {
        let network = registry::benchmark(name).expect("registered");
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::rearrange_stacks(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let result = mapper.run(&network).expect("maps");
            let lowered = circuit_to_network(&result.circuit);
            assert_proved_equivalent(
                &network,
                &lowered,
                &format!("{name}: {:?} mapping", mapper.algorithm()),
            );
        }
    }
}

#[test]
fn duplication_is_exactly_equivalent() {
    let network = registry::benchmark("cm150").expect("registered");
    let config = MapConfig {
        allow_duplication: true,
        ..MapConfig::default()
    };
    let result = Mapper::soi(config).run(&network).expect("maps");
    let lowered = circuit_to_network(&result.circuit);
    assert_proved_equivalent(&network, &lowered, "cm150: duplicating mapping");
}
