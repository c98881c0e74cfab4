//! Parse a SPICE-like netlist plus a constraint file, place it with all
//! three engines, and print the comparison — the "bring your own circuit"
//! workflow.
//!
//! ```sh
//! cargo run --release --example parse_and_place
//! ```

use analog_netlist::parser::{parse_constraints, parse_spice};
use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget};
use placer_sa::{SaConfig, SaPlacer};
use placer_xu19::Xu19Placer;

const NETLIST: &str = "\
* two-stage Miller OTA
.title miller_ota
.class ota
M1 x1 inp tail vss nmos W=4 L=0.012
M2 x2 inn tail vss nmos W=4 L=0.012
M3 x1 x1 vdd vdd pmos W=3 L=0.012
M4 x2 x1 vdd vdd pmos W=3 L=0.012
M5 tail vb vss vss nmos W=6 L=0.024
M6 vout x2 vss vss nmos W=8 L=0.012
M7 vout vb2 vdd vdd pmos W=6 L=0.012
M8 vb vb vss vss nmos W=2 L=0.024
M9 vb2 vb2 vdd vdd pmos W=2 L=0.024
R1 vb vdd 20k
C1 x2 vout 80f
C2 vout vss 120f
.end
";

const CONSTRAINTS: &str = "\
symgroup input vertical
sympair input M1 M2
sympair input M3 M4
symself input M5
align bottom M8 M5
critical vout
critical x2
weight vout 2.0
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut circuit = parse_spice(NETLIST)?;
    parse_constraints(&mut circuit, CONSTRAINTS)?;
    println!(
        "parsed {}: {} devices, {} nets, {} constraints\n",
        circuit.name(),
        circuit.num_devices(),
        circuit.num_nets(),
        circuit.constraints().len()
    );

    let sa = SaPlacer::new(SaConfig {
        temperatures: 80,
        moves_per_temperature: 400,
        ..SaConfig::default()
    });
    let mut placements = Vec::new();
    for (name, placer) in [
        (
            "ePlace-A",
            &EPlaceA::new(PlacerConfig::default()) as &dyn Placer,
        ),
        ("[11]", &Xu19Placer::default()),
        ("SA", &sa),
    ] {
        let run = placer
            .place(&circuit, &RunBudget::unlimited())?
            .into_solution()
            .ok_or("an unlimited budget runs to completion")?;
        println!(
            "{name:<9}: area {:7.1} µm², HPWL {:6.1} µm, {:.2}s",
            run.area,
            run.hpwl,
            run.stage1_seconds + run.stage2_seconds
        );
        placements.push((name, run.placement));
    }

    for (name, p) in &placements {
        assert!(
            p.is_legal(&circuit, 1e-6),
            "{name} produced an illegal placement"
        );
    }
    println!("\nall three placements are legal (non-overlapping, constraints exact)");
    Ok(())
}
