//! Scaling sweep (beyond the paper's tables): runtime and quality of
//! ePlace-A vs. simulated annealing as circuit size grows.
//!
//! The paper's motivating claim for analytical placement is scalability —
//! but it also concedes that "ILP does not scale well for large problems"
//! and leans on analog circuits being small. This sweep (gain-cell arrays
//! of 14–50 devices, single restart, structure-preserving DP) makes both
//! effects visible: the Nesterov global placement scales gracefully while
//! the ILP legalization becomes the bottleneck as symmetry groups multiply,
//! and SA's wall time grows with its `moves ∝ n` budget times O(n²) packing.

use analog_netlist::testcases::scalable_array;
use eplace::{EPlaceA, PlacerConfig};
use placer_bench::trace::{trace_flag, with_trace};
use placer_bench::{print_row, run_placer};
use placer_sa::{SaConfig, SaPlacer};

/// `--trace`: one mid-size array (4 stages), both placers traced serially,
/// then exit. `--trace=N` picks the stage count.
fn traced_run(filter: Option<String>) {
    let stages: usize = match &filter {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("--trace={s}: expected a stage count")),
        None => 4,
    };
    let circuit = scalable_array(stages);
    let config = PlacerConfig {
        restarts: 1,
        preserve_gp: true,
        ..PlacerConfig::default()
    };
    let seed = config.global.seed;
    let ea = with_trace(circuit.name(), "eplace_a", seed, || {
        run_placer(&EPlaceA::new(config.clone()), &circuit).expect("ePlace-A failed")
    });
    println!(
        "{} eplace_a: area {:.1}, hpwl {:.1}, {:.2}s",
        circuit.name(),
        ea.area,
        ea.hpwl,
        ea.seconds
    );
    let sa_cfg = SaConfig {
        temperatures: 360,
        moves_per_temperature: 200 * circuit.num_devices(),
        ..SaConfig::default()
    };
    let sa = with_trace(circuit.name(), "sa", sa_cfg.seed, || {
        run_placer(&SaPlacer::new(sa_cfg.clone()), &circuit).expect("SA failed")
    });
    println!(
        "{} sa: area {:.1}, hpwl {:.1}, {:.2}s",
        circuit.name(),
        sa.area,
        sa.hpwl,
        sa.seconds
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(filter) = trace_flag(&args) {
        traced_run(filter);
        return;
    }
    let widths = [8usize, 8, 10, 10, 9, 10, 10, 9];
    print_row(
        &[
            "stages".into(),
            "devices".into(),
            "eA area".into(),
            "eA hpwl".into(),
            "eA s".into(),
            "SA area".into(),
            "SA hpwl".into(),
            "SA s".into(),
        ],
        &widths,
    );
    for stages in [2usize, 4, 6, 8] {
        let circuit = scalable_array(stages);
        // Single restart, structure-preserving DP: the sweep probes how the
        // *stages* scale, not the restart machinery.
        let config = PlacerConfig {
            restarts: 1,
            preserve_gp: true,
            ..PlacerConfig::default()
        };
        let ea = run_placer(&EPlaceA::new(config), &circuit).expect("ePlace-A failed");
        let sa = SaPlacer::new(SaConfig {
            temperatures: 360,
            moves_per_temperature: 200 * circuit.num_devices(),
            ..SaConfig::default()
        });
        let sa = run_placer(&sa, &circuit).expect("SA failed");
        print_row(
            &[
                format!("{stages}"),
                format!("{}", circuit.num_devices()),
                format!("{:.1}", ea.area),
                format!("{:.1}", ea.hpwl),
                format!("{:.2}", ea.seconds),
                format!("{:.1}", sa.area),
                format!("{:.1}", sa.hpwl),
                format!("{:.2}", sa.seconds),
            ],
            &widths,
        );
    }
    println!("\n(SA budget ∝ n as usual; watch the wall-time growth of each column)");
}
