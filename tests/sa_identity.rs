//! Pins SA's anneal bit for bit on a paper circuit (13 devices) and on a
//! 22-stage scaling array (134 devices, 492 net pins), well above the
//! largest paper circuit. The move evaluator may change how it prices a
//! move, never what the move costs, so the accepted sequence, and with it
//! every hashed bit, must stay put at every size and under every SIMD
//! backend.
//!
//! Each run hashes the best placement's coordinates and flips, the cost's
//! total, HPWL and area, and the move count.

mod common;

use analog_netlist::{testcases, Circuit};
use common::Fnv;
use placer_sa::{anneal, SaConfig};

/// Expected hash per circuit.
#[rustfmt::skip]
const PINNED: [(&str, u64); 2] = [
    ("cc_ota", 0x5d143259f170b2f7),
    ("scalable_array(22)", 0x5f8f1e8a94ae7c9b),
];

fn anneal_hash(circuit: &Circuit) -> u64 {
    let config = SaConfig {
        temperatures: 12,
        moves_per_temperature: 400,
        seed: 5,
        chains: 1,
        ..SaConfig::default()
    };
    let r = anneal(circuit, &config, None);
    let mut h = Fnv::new();
    h.placement(&r.placement);
    h.eat(r.cost.total.to_bits());
    h.eat(r.cost.hpwl.to_bits());
    h.eat(r.cost.area.to_bits());
    h.eat(r.moves as u64);
    h.0
}

#[test]
fn anneal_reproduces_its_pinned_runs() {
    let circuits = [testcases::cc_ota(), testcases::scalable_array(22)];
    let mut mismatches = Vec::new();
    for ((name, expected), circuit) in PINNED.iter().zip(&circuits) {
        let got = anneal_hash(circuit);
        if got != *expected {
            mismatches.push(format!("(\"{name}\", 0x{got:016x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "SA anneals moved:\n{}",
        mismatches.join("\n")
    );
}
