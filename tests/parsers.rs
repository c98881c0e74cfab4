//! Integration tests for the file-based workflow: write the testcases to
//! SPICE + constraint files, read them back, and place the parsed circuit.

use analog_netlist::parser::{parse_constraints, parse_spice, write_constraints, write_spice};
use analog_netlist::testcases;
use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget};

#[test]
fn every_testcase_survives_file_roundtrip() {
    for circuit in testcases::all_testcases() {
        let netlist = write_spice(&circuit);
        let constraints = write_constraints(&circuit);
        let mut parsed = parse_spice(&netlist)
            .unwrap_or_else(|e| panic!("{}: netlist reparse failed: {e}", circuit.name()));
        parse_constraints(&mut parsed, &constraints)
            .unwrap_or_else(|e| panic!("{}: constraint reparse failed: {e}", circuit.name()));
        assert_eq!(
            parsed.num_devices(),
            circuit.num_devices(),
            "{}",
            circuit.name()
        );
        assert_eq!(parsed.num_nets(), circuit.num_nets(), "{}", circuit.name());
        assert_eq!(
            parsed.constraints().symmetry_groups.len(),
            circuit.constraints().symmetry_groups.len(),
            "{}",
            circuit.name()
        );
        assert_eq!(
            parsed.constraints().alignments.len(),
            circuit.constraints().alignments.len(),
            "{}",
            circuit.name()
        );
        // Critical-net markings survive.
        let criticals =
            |c: &analog_netlist::Circuit| c.nets().iter().filter(|n| n.critical).count();
        assert_eq!(
            criticals(&parsed),
            criticals(&circuit),
            "{}",
            circuit.name()
        );
    }
}

#[test]
fn parsed_circuit_is_placeable() {
    let circuit = testcases::cc_ota();
    let netlist = write_spice(&circuit);
    let constraints = write_constraints(&circuit);
    let mut parsed = parse_spice(&netlist).expect("netlist parses");
    parse_constraints(&mut parsed, &constraints).expect("constraints parse");
    let result = EPlaceA::new(PlacerConfig::default())
        .place(&parsed, &RunBudget::unlimited())
        .expect("placement of parsed circuit failed")
        .into_solution()
        .expect("an unlimited budget runs to completion");
    assert!(result.placement.is_legal(&parsed, 1e-6));
}
