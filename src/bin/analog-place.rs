//! `analog-place` — command-line driver for the placement engines.
//!
//! ```text
//! analog-place --netlist ota.sp [--constraints ota.cst] \
//!              [--engine eplace|xu19|sa] [--out placement.txt] [--svg out.svg]
//! analog-place --testcase cm-ota1 --engine eplace --svg layout.svg
//! ```
//!
//! Reads a SPICE-like netlist (or one of the built-in paper testcases),
//! places it, reports area/HPWL/runtime, and optionally writes the
//! placement file and an SVG rendering.

use std::process::ExitCode;

use analog_netlist::parser::{parse_constraints, parse_spice, write_placement};
use analog_netlist::{svg, testcases, Circuit};
use eplace::{EPlaceA, PlaceSolution, Placer, PlacerConfig, RunBudget};
use placer_sa::{SaConfig, SaPlacer};
use placer_xu19::Xu19Placer;

struct Args {
    netlist: Option<String>,
    constraints: Option<String>,
    testcase: Option<String>,
    engine: String,
    out: Option<String>,
    svg: Option<String>,
}

fn usage() -> &'static str {
    "usage: analog-place (--netlist FILE [--constraints FILE] | --testcase NAME)\n\
     \x20                 [--engine eplace|xu19|sa] [--out FILE] [--svg FILE]\n\
     testcases: adder, cc-ota, comp1, comp2, cm-ota1, cm-ota2, scf, vga, vco1, vco2"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        netlist: None,
        constraints: None,
        testcase: None,
        engine: "eplace".into(),
        out: None,
        svg: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--netlist" => args.netlist = Some(value("--netlist")?),
            "--constraints" => args.constraints = Some(value("--constraints")?),
            "--testcase" => args.testcase = Some(value("--testcase")?),
            "--engine" => args.engine = value("--engine")?,
            "--out" => args.out = Some(value("--out")?),
            "--svg" => args.svg = Some(value("--svg")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.netlist.is_none() && args.testcase.is_none() {
        return Err(format!("need --netlist or --testcase\n{}", usage()));
    }
    Ok(args)
}

fn load_circuit(args: &Args) -> Result<Circuit, String> {
    if let Some(name) = &args.testcase {
        return testcases::testcase_by_name(name)
            .ok_or_else(|| format!("unknown testcase `{name}`"));
    }
    let path = args.netlist.as_ref().expect("checked in parse_args");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut circuit = parse_spice(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(cpath) = &args.constraints {
        let ctext = std::fs::read_to_string(cpath).map_err(|e| format!("{cpath}: {e}"))?;
        parse_constraints(&mut circuit, &ctext).map_err(|e| format!("{cpath}: {e}"))?;
    }
    Ok(circuit)
}

fn place(circuit: &Circuit, engine: &str) -> Result<PlaceSolution, String> {
    let placer: Box<dyn Placer> = match engine {
        "eplace" => Box::new(EPlaceA::new(PlacerConfig::default())),
        "xu19" => Box::new(Xu19Placer::default()),
        "sa" => Box::new(SaPlacer::new(SaConfig {
            temperatures: 200,
            moves_per_temperature: 120 * circuit.num_devices(),
            ..SaConfig::default()
        })),
        other => return Err(format!("unknown engine `{other}` (eplace|xu19|sa)")),
    };
    let outcome = placer
        .place(circuit, &RunBudget::unlimited())
        .map_err(|e| e.to_string())?;
    Ok(outcome
        .into_solution()
        .expect("an unlimited budget runs to completion"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let circuit = match load_circuit(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: {} devices, {} nets, {} constraints — engine {}",
        circuit.name(),
        circuit.num_devices(),
        circuit.num_nets(),
        circuit.constraints().len(),
        args.engine,
    );
    let PlaceSolution {
        placement,
        area,
        hpwl,
        stage1_seconds,
        stage2_seconds,
        ..
    } = match place(&circuit, &args.engine) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("placement failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = stage1_seconds + stage2_seconds;
    println!("area {area:.1} µm², HPWL {hpwl:.1} µm, {seconds:.2}s");
    println!("legal: {}", placement.is_legal(&circuit, 1e-6));
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, write_placement(&circuit, &placement)) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("placement written to {path}");
    }
    if let Some(path) = &args.svg {
        if let Err(e) = std::fs::write(path, svg::render(&circuit, &placement)) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("svg written to {path}");
    }
    ExitCode::SUCCESS
}
