//! Table IV: detailed placement head-to-head on a *shared* global
//! placement — the two-stage LP of \[11\] vs. the ILP of ePlace-A, plus the
//! flipping ablation (the paper's explanation for ePlace-A's HPWL edge).
//!
//! Paper shape: same area (same GP, both compact), ePlace-A smaller HPWL.

use analog_netlist::testcases;
use eplace::{DetailedConfig, DetailedPlacer, GlobalPlacer, PlacerConfig};
use placer_bench::print_row;
use placer_xu19::legalize_two_stage;
use std::time::Instant;

fn main() {
    let widths = [8usize, 10, 10, 9, 10, 10, 9, 12];
    print_row(
        &[
            "Design".into(),
            "[11]area".into(),
            "[11]hpwl".into(),
            "[11] s".into(),
            "eA area".into(),
            "eA hpwl".into(),
            "eA s".into(),
            "eA noflip".into(),
        ],
        &widths,
    );
    for circuit in [testcases::vco1(), testcases::comp1(), testcases::scf()] {
        // One shared global placement.
        let gp = GlobalPlacer::new(PlacerConfig::default().global)
            .run(&circuit)
            .0;

        let t0 = Instant::now();
        let (xu_placement, _) = legalize_two_stage(&circuit, &gp).expect("xu19 DP failed");
        let xu_seconds = t0.elapsed().as_secs_f64();

        // Structure-preserving single-pass DP isolates the legalizer
        // comparison (the reassignment passes would decouple the columns
        // from the shared GP).
        let t1 = Instant::now();
        let (ea_placement, ea_stats) = DetailedPlacer::new(DetailedConfig::default())
            .run_preserving(&circuit, &gp)
            .expect("eplace DP failed");
        let ea_seconds = t1.elapsed().as_secs_f64();

        let noflip_cfg = DetailedConfig {
            flipping: false,
            ..DetailedConfig::default()
        };
        let (_, noflip_stats) = DetailedPlacer::new(noflip_cfg)
            .run_preserving(&circuit, &gp)
            .expect("noflip DP failed");

        print_row(
            &[
                circuit.name().to_string(),
                format!("{:.1}", xu_placement.area(&circuit)),
                format!("{:.1}", xu_placement.hpwl(&circuit)),
                format!("{:.2}", xu_seconds),
                format!("{:.1}", ea_stats.area),
                format!("{:.1}", ea_placement.hpwl(&circuit)),
                format!("{:.2}", ea_seconds),
                format!("{:.1}", noflip_stats.hpwl),
            ],
            &widths,
        );
    }
    println!("\n(paper: equal areas; ePlace-A HPWL below [11]'s, mainly due to flipping)");
}
