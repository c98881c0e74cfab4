//! Quickstart: place one of the paper's testcases with ePlace-A and print
//! the resulting layout.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use analog_netlist::testcases;
use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = testcases::cc_ota();
    println!(
        "placing {} ({} devices, {} nets, {} constraints)…",
        circuit.name(),
        circuit.num_devices(),
        circuit.num_nets(),
        circuit.constraints().len()
    );

    let result = EPlaceA::new(PlacerConfig::default())
        .place(&circuit, &RunBudget::unlimited())?
        .into_solution()
        .ok_or("an unlimited budget runs to completion")?;

    println!(
        "\narea {:.1} µm², HPWL {:.1} µm, GP {:.2}s + DP {:.2}s",
        result.area, result.hpwl, result.stage1_seconds, result.stage2_seconds
    );
    println!(
        "legal: {} (overlap-free, symmetry/alignment/ordering exact)\n",
        result.placement.is_legal(&circuit, 1e-6)
    );

    // ASCII sketch of the layout.
    let bb = result
        .placement
        .bounding_box(&circuit)
        .expect("non-empty placement");
    let (w, h) = (bb.2 - bb.0, bb.3 - bb.1);
    let cols = 72usize;
    let rows = 24usize;
    let mut canvas = vec![vec![' '; cols]; rows];
    for (id, device) in circuit.device_ids() {
        let (x, y) = result.placement.position(id);
        let cx = (((x - bb.0) / w) * (cols as f64 - 1.0)) as usize;
        let cy = (((y - bb.1) / h) * (rows as f64 - 1.0)) as usize;
        let tag = device.name.chars().next().unwrap_or('?');
        canvas[rows - 1 - cy.min(rows - 1)][cx.min(cols - 1)] = tag;
    }
    for row in canvas {
        println!("|{}|", row.into_iter().collect::<String>());
    }
    println!(
        "({}x{} µm bounding box; letters are device-name initials)",
        w.round(),
        h.round()
    );
    Ok(())
}
