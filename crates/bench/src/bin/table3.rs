//! Table III: main comparison for the conventional (performance-oblivious)
//! formulation — simulated annealing vs. the ISPD'19 analytical placer \[11\]
//! vs. ePlace-A, on all ten circuits.
//!
//! Paper shape: both analytical methods are ≈50× faster than SA; ePlace-A
//! beats SA on area (≈1.11×) and HPWL (≈1.14×) while \[11\] is *worse* than
//! SA on quality (≈1.25×/1.24×).

use placer_bench::trace::{trace_flag, with_trace};
use placer_bench::{
    geomean_ratio, paper_circuits, print_row, run_eplace_a, run_sa, run_xu19, RunMetrics,
};

/// `--trace[=CIRCUIT]`: run all three placers serially on one circuit
/// (the smallest by default), each under its own trace sink, and exit.
fn traced_run(filter: Option<String>) {
    let circuits = paper_circuits();
    let circuit = match &filter {
        Some(name) => circuits
            .iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("--trace={name}: no such paper circuit")),
        None => circuits
            .iter()
            .min_by_key(|c| c.num_devices())
            .expect("paper circuits exist"),
    };
    type Runner = fn(&analog_netlist::Circuit) -> RunMetrics;
    let runs: [(&str, u64, Runner); 3] = [
        ("sa", placer_sa::SaConfig::default().seed, run_sa),
        (
            "xu19",
            placer_xu19::Xu19GlobalConfig::default().seed,
            run_xu19,
        ),
        (
            "eplace_a",
            eplace::PlacerConfig::default().global.seed,
            run_eplace_a,
        ),
    ];
    for (placer, seed, runner) in runs {
        let m = with_trace(circuit.name(), placer, seed, || runner(circuit));
        println!(
            "{} {placer}: area {:.1}, hpwl {:.1}, {:.2}s",
            circuit.name(),
            m.area,
            m.hpwl,
            m.seconds
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(filter) = trace_flag(&args) {
        traced_run(filter);
        return;
    }
    let widths = [8usize, 9, 9, 9, 9, 9, 9, 9, 9, 9];
    print_row(
        &[
            "Design".into(),
            "SA area".into(),
            "SA hpwl".into(),
            "SA s".into(),
            "[11]area".into(),
            "[11]hpwl".into(),
            "[11] s".into(),
            "eA area".into(),
            "eA hpwl".into(),
            "eA s".into(),
        ],
        &widths,
    );
    let mut sa_area = Vec::new();
    let mut sa_hpwl = Vec::new();
    let mut sa_time = Vec::new();
    let mut xu_area = Vec::new();
    let mut xu_hpwl = Vec::new();
    let mut xu_time = Vec::new();
    let mut ea_area = Vec::new();
    let mut ea_hpwl = Vec::new();
    let mut ea_time = Vec::new();

    // Run the circuits concurrently (runners are deterministic and
    // independent), then print rows in the paper's order.
    let circuits = paper_circuits();
    let runs = placer_parallel::par_map(circuits.len(), |i| {
        let circuit = &circuits[i];
        (run_sa(circuit), run_xu19(circuit), run_eplace_a(circuit))
    });
    for (circuit, (sa, xu, ea)) in circuits.iter().zip(runs) {
        print_row(
            &[
                circuit.name().to_string(),
                format!("{:.1}", sa.area),
                format!("{:.1}", sa.hpwl),
                format!("{:.2}", sa.seconds),
                format!("{:.1}", xu.area),
                format!("{:.1}", xu.hpwl),
                format!("{:.2}", xu.seconds),
                format!("{:.1}", ea.area),
                format!("{:.1}", ea.hpwl),
                format!("{:.2}", ea.seconds),
            ],
            &widths,
        );
        sa_area.push(sa.area);
        sa_hpwl.push(sa.hpwl);
        sa_time.push(sa.seconds.max(1e-4));
        xu_area.push(xu.area);
        xu_hpwl.push(xu.hpwl);
        xu_time.push(xu.seconds.max(1e-4));
        ea_area.push(ea.area);
        ea_hpwl.push(ea.hpwl);
        ea_time.push(ea.seconds.max(1e-4));
    }

    println!();
    print_row(
        &[
            "Avg(X)".into(),
            format!("{:.2}", geomean_ratio(&sa_area, &ea_area)),
            format!("{:.2}", geomean_ratio(&sa_hpwl, &ea_hpwl)),
            format!("{:.2}", geomean_ratio(&sa_time, &ea_time)),
            format!("{:.2}", geomean_ratio(&xu_area, &ea_area)),
            format!("{:.2}", geomean_ratio(&xu_hpwl, &ea_hpwl)),
            format!("{:.2}", geomean_ratio(&xu_time, &ea_time)),
            "1.00".into(),
            "1.00".into(),
            "1.00".into(),
        ],
        &widths,
    );
    println!("\n(ratios are geometric means vs. ePlace-A; paper: SA 1.11/1.14/55.2, [11] 1.25/1.24/0.80)");
}
