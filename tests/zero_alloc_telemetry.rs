//! Verifies that the telemetry layer keeps the engine's zero-allocation
//! contracts when it is *live*: with a sink installed, the SA move loop,
//! the Nesterov iteration, the GNN CSR gradient hook, Xu19's CG
//! objective and ePlace's density and WA kernels over reused buffers —
//! each wrapped in the same span / event / counter instrumentation the
//! solvers use — never touch the heap after warm-up, at one thread and at
//! four: every kernel runs on its caller's thread. Whole runs of Xu19's CG
//! and of ePlace's Nesterov loop allocate no more over more iterations.
//!
//! A live [`placer_obs::progress`] sink is installed for the whole run, so
//! the counting allocator also covers the observer tap (mapped `gp_iter`
//! events flow through it from the measured loops) and the reporter
//! thread's steady-state drain, which runs concurrently on the same
//! global allocator.
//!
//! The mirror-image guarantee (instrumentation present but inactive) is
//! covered by the per-crate `zero_alloc` tests, which install no sink.
//!
//! This file must hold exactly one test: other tests running concurrently
//! in the same binary would bump the counters and produce false failures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use analog_netlist::testcases;
use eplace::{GlobalConfig, GlobalPlacer, SymmetryMode};
use placer_numeric::NesterovState;
use placer_obs::progress::{self, ProgressMode};
use placer_sa::{BlockModel, MoveEvaluator, SaConfig, SaState, SequencePair};
use placer_xu19::{run_global, BellDensity, LseWirelength, Xu19GlobalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static MOVES: placer_telemetry::Counter = placer_telemetry::Counter::new("test_moves");
static COSTS: placer_telemetry::Histogram = placer_telemetry::Histogram::new("test_costs");
static MOVE_SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("test_move");
static STEP_SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("test_step");
static PHI_SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("test_phi");
static XU_SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("test_xu19");
static EP_SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("test_eplace");

fn random_swap(state: &mut SaState, rng: &mut StdRng) {
    let m = state.seq_pair.s1.len();
    let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
    if rng.gen_bool(0.5) {
        state.seq_pair.s1.swap(i, j);
    } else {
        state.seq_pair.s2.swap(i, j);
    }
}

#[test]
fn hot_loops_stay_zero_alloc_with_live_telemetry() {
    // No measured loop fans out, so the thread count is left at its
    // default; the ePlace window below measures at one thread and at four.
    let sink = std::env::temp_dir().join(format!(
        "placer_zero_alloc_telemetry_{}.jsonl",
        std::process::id()
    ));
    let progress_path = std::env::temp_dir().join(format!(
        "placer_zero_alloc_progress_{}.jsonl",
        std::process::id()
    ));
    // Trace sink first (install resets the stat registries), then the
    // progress observer — the order the bench binaries use.
    placer_telemetry::install(&sink).expect("install sink");
    progress::install_to_file(&progress_path, ProgressMode::Jsonl).expect("install progress");
    assert!(placer_telemetry::active());
    assert!(progress::installed());
    let _job = progress::job_scope("zero-alloc", Some(60_000.0));

    // --- SA move loop under live instrumentation. -----------------------
    let circuit = testcases::cc_ota();
    let model = BlockModel::new(&circuit);
    let config = SaConfig::default();
    let n = circuit.num_devices();
    let mut rng = StdRng::seed_from_u64(42);
    let mut state = SaState {
        seq_pair: SequencePair::identity(model.len()),
        flips: vec![(false, false); n],
    };
    let mut evaluator = MoveEvaluator::new(&circuit, &model, &config, &state, None);
    let mut cost = evaluator.cost();
    let mut trial = state.clone();

    // Warm up: ring buffer grows to capacity on the first record, the sink
    // line buffer on the first flush, evaluator scratch on the first trials.
    for _ in 0..32 {
        let _span = MOVE_SPAN.enter();
        trial.copy_from(&state);
        random_swap(&mut trial, &mut rng);
        let c = evaluator.eval_trial(&trial);
        placer_telemetry::record("test_move", &[("cost", c.total)]);
        MOVES.add(1);
        // The exact shape GlobalPlacer emits: the progress observer maps
        // `gp_iter` onto a slot, so the tap itself runs under the
        // allocator watch (rate-limited, try-lock push — never blocking).
        placer_telemetry::record(
            "gp_iter",
            &[
                ("iter", MOVES.value() as f64),
                ("max_iters", 532.0),
                ("hpwl", c.total),
            ],
        );
        COSTS.record(c.total);
        if c.total <= cost.total {
            evaluator.accept();
            std::mem::swap(&mut state, &mut trial);
            cost = c;
        }
    }
    placer_telemetry::flush();
    // The reporter thread allocates its drain buffers when it starts. Wait
    // for its first drain of the warm-up's events so that only its steady
    // state runs under the counter.
    let started = std::time::Instant::now();
    while !std::fs::read_to_string(&progress_path)
        .is_ok_and(|s| s.contains("\"phase\":\"gp_iter\""))
    {
        assert!(
            started.elapsed().as_secs() < 10,
            "the progress reporter never drained the warm-up events"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..500 {
        let _span = MOVE_SPAN.enter();
        trial.copy_from(&state);
        random_swap(&mut trial, &mut rng);
        let c = evaluator.eval_trial(&trial);
        placer_telemetry::record("test_move", &[("cost", c.total)]);
        MOVES.add(1);
        // The exact shape GlobalPlacer emits: the progress observer maps
        // `gp_iter` onto a slot, so the tap itself runs under the
        // allocator watch (rate-limited, try-lock push — never blocking).
        placer_telemetry::record(
            "gp_iter",
            &[
                ("iter", MOVES.value() as f64),
                ("max_iters", 532.0),
                ("hpwl", c.total),
            ],
        );
        COSTS.record(c.total);
        if c.total <= cost.total {
            evaluator.accept();
            std::mem::swap(&mut state, &mut trial);
            cost = c;
        }
    }
    placer_telemetry::flush();
    let sa_allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

    // --- Nesterov iteration under live instrumentation. -----------------
    // The same per-iteration recording shape `GlobalPlacer` uses: one span,
    // one multi-field event, one histogram sample per step.
    let dim = 256;
    let mut nesterov = NesterovState::new(vec![0.5; dim], 0.1);
    let mut grad = vec![0.0; dim];
    for _ in 0..16 {
        let _span = STEP_SPAN.enter();
        for (i, (g, r)) in grad.iter_mut().zip(nesterov.reference()).enumerate() {
            *g = r - 0.25 * (i as f64 / dim as f64);
        }
        let step = nesterov.step(&grad);
        placer_telemetry::record(
            "test_step",
            &[("step", step), ("trips", nesterov.safeguard_trips() as f64)],
        );
    }
    placer_telemetry::flush();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        let _span = STEP_SPAN.enter();
        // Gradient evaluated in place: the iteration itself owns no heap.
        for (i, (g, r)) in grad.iter_mut().zip(nesterov.reference()).enumerate() {
            *g = r - 0.25 * (i as f64 / dim as f64);
        }
        let step = nesterov.step(&grad);
        placer_telemetry::record(
            "test_step",
            &[("step", step), ("trips", nesterov.safeguard_trips() as f64)],
        );
        COSTS.record(step);
    }
    placer_telemetry::flush();
    let nesterov_allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

    // --- GNN CSR gradient hook under live instrumentation. ---------------
    // The ePlace-AP performance term: feature refresh, CSR forward, input
    // gradients — with the `gnn_spmm` counters live and a span + event per
    // call, matching the per-iteration shape `run_perf_global` produces.
    let gnn_circuit = testcases::comp1();
    let gn = gnn_circuit.num_devices();
    let network = placer_gnn::Network::default_config(5);
    let mut hook = eplace::PerfGradHook::new(&gnn_circuit, &network, 0.5, 20.0);
    let mut pts: Vec<(f64, f64)> = (0..gn)
        .map(|i| (4.0 + 1.3 * i as f64, 3.0 + 0.7 * (i % 4) as f64))
        .collect();
    let mut pgrad = vec![0.0f64; 2 * gn];
    for _ in 0..8 {
        let _span = PHI_SPAN.enter();
        let phi = hook.eval(&pts, &mut pgrad);
        placer_telemetry::record("test_phi", &[("phi", phi)]);
    }
    placer_telemetry::flush();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        let _span = PHI_SPAN.enter();
        for p in pts.iter_mut() {
            p.0 += 0.05;
            p.1 -= 0.025;
        }
        pgrad.iter_mut().for_each(|g| *g = 0.0);
        let phi = hook.eval(&pts, &mut pgrad);
        placer_telemetry::record("test_phi", &[("phi", phi)]);
    }
    placer_telemetry::flush();
    let gnn_allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

    // --- Xu19's CG objective under live instrumentation. ---------------
    // The bell density and LSE value and gradient passes called directly,
    // then whole CG runs: one round with more iterations must allocate no
    // more than one with fewer, so a CG iteration (value-only line search,
    // gradient, direction update) allocates nothing.
    let xu_circuit = testcases::vco2();
    let xn = xu_circuit.num_devices();
    let side = (xu_circuit.total_device_area() / 0.35).sqrt();
    let mut bell = BellDensity::new((0.0, 0.0), (side, side), 24, 24, 0.35);
    let mut lse = LseWirelength::new(&xu_circuit);
    let mut xpts: Vec<(f64, f64)> = (0..xn)
        .map(|i| {
            (
                side * (0.2 + 0.6 * (i % 5) as f64 / 5.0),
                side * (0.3 + 0.05 * i as f64),
            )
        })
        .collect();
    let mut xgrad = vec![0.0f64; 2 * xn];
    let mut xu_eval = |pts: &[(f64, f64)], grad: &mut [f64]| {
        let _span = XU_SPAN.enter();
        let wl = lse.value(pts, 1.5);
        bell.spread(&xu_circuit, pts);
        let (pen, of) = (bell.penalty(), bell.overflow(&xu_circuit));
        lse.gradient(grad);
        bell.gradient(0.5, grad);
        placer_telemetry::record("test_xu19", &[("wl", wl), ("pen", pen), ("overflow", of)]);
    };
    for _ in 0..8 {
        xu_eval(&xpts, &mut xgrad);
    }
    placer_telemetry::flush();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        for p in xpts.iter_mut() {
            p.0 += 0.03;
            p.1 -= 0.02;
        }
        xu_eval(&xpts, &mut xgrad);
    }
    placer_telemetry::flush();
    let xu19_eval_allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

    let one_round = |cg_iters: usize| {
        let cfg = Xu19GlobalConfig {
            rounds: 1,
            cg_iters,
            ..Xu19GlobalConfig::default()
        };
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let (_, stats) = run_global(&xu_circuit, &cfg);
        placer_telemetry::flush();
        (
            ALLOCATIONS.load(Ordering::SeqCst) - before,
            stats.iterations,
        )
    };
    one_round(4);
    let (short_allocs, short_iters) = one_round(4);
    let (long_allocs, long_iters) = one_round(40);

    // --- ePlace's density and WA kernels on VCO2, at 1 and 4 threads. ---
    // One `DensityGrid::evaluate` (scatter, Poisson solve, field, gather)
    // and one WA `smoothed_wirelength_with` per step on ePlace's 32×32
    // grid, over the gradient buffer and staging the Nesterov loop keeps.
    let ep_circuit = testcases::vco2();
    let en = ep_circuit.num_devices();
    let eside = (ep_circuit.total_device_area() / 0.5).sqrt();
    let mut density = eplace::DensityGrid::new((0.0, 0.0), (eside, eside), 32);
    let epts: Vec<(f64, f64)> = (0..en)
        .map(|i| {
            (
                eside * (0.2 + 0.6 * (i % 6) as f64 / 6.0),
                eside * (0.2 + 0.6 * (i / 6) as f64 / 6.0),
            )
        })
        .collect();
    let mut wgrad = vec![0.0f64; 2 * en];
    let mut dgrad = vec![0.0f64; 2 * en];
    let mut wl_scratch = eplace::wirelength::WirelengthScratch::new();
    let mut eplace_window = |threads: usize| {
        placer_parallel::set_max_threads(threads);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut wa_allocs = 0;
        for _ in 0..20 {
            let _span = EP_SPAN.enter();
            let eval = density.evaluate(&ep_circuit, &epts, &mut dgrad);
            let wa_before = ALLOCATIONS.load(Ordering::SeqCst);
            let wl = eplace::wirelength::smoothed_wirelength_with(
                &ep_circuit,
                &epts,
                1.0,
                &mut wgrad,
                eplace::Smoothing::Wa,
                &mut wl_scratch,
            );
            wa_allocs += ALLOCATIONS.load(Ordering::SeqCst) - wa_before;
            placer_telemetry::record("test_eplace", &[("energy", eval.energy), ("wl", wl)]);
        }
        placer_telemetry::flush();
        (ALLOCATIONS.load(Ordering::SeqCst) - before, wa_allocs)
    };
    eplace_window(1);
    let (eplace_one, wa_one) = eplace_window(1);
    let (eplace_four, wa_four) = eplace_window(4);
    placer_parallel::set_max_threads(0);

    // --- ePlace's whole Nesterov loop on VCO2. --------------------------
    // With no overflow target the loop runs every iteration, so a run of
    // 200 iterations allocating more than one of 100 would allocate per
    // iteration. Hard symmetry adds the projection of every step.
    let gp_run = |max_iters: usize, symmetry: SymmetryMode| {
        let placer = GlobalPlacer::new(GlobalConfig {
            max_iters,
            overflow_target: 0.0,
            symmetry,
            ..GlobalConfig::default()
        });
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let (_, stats) = placer.run(&ep_circuit);
        placer_telemetry::flush();
        (
            ALLOCATIONS.load(Ordering::SeqCst) - before,
            stats.iterations,
        )
    };
    gp_run(100, SymmetryMode::Soft);
    let gp_allocs = [SymmetryMode::Soft, SymmetryMode::Hard].map(|mode| {
        let (short, short_iters) = gp_run(100, mode);
        let (long, long_iters) = gp_run(200, mode);
        assert_eq!((short_iters, long_iters), (100, 200), "{mode:?}");
        (mode, short, long)
    });

    progress::job_done("zero-alloc", "complete", 1.0, Some(cost.total));
    placer_telemetry::flush_stats();
    progress::uninstall();
    placer_telemetry::uninstall();

    // The reporter drained at least the unthrottled events: the first
    // gp_iter after install and the terminal job_done line.
    let stream = std::fs::read_to_string(&progress_path).expect("read progress stream");
    assert!(
        stream.contains("\"phase\":\"gp_iter\""),
        "progress stream missing gp_iter events:\n{stream}"
    );
    assert!(
        stream.contains("\"phase\":\"job_done\"") && stream.contains("\"job\":\"zero-alloc\""),
        "progress stream missing terminal job_done line:\n{stream}"
    );
    std::fs::remove_file(&sink).ok();
    std::fs::remove_file(&progress_path).ok();

    assert_eq!(
        sa_allocs, 0,
        "SA move loop allocated {sa_allocs} times across 500 instrumented moves"
    );
    assert_eq!(
        nesterov_allocs, 0,
        "Nesterov loop allocated {nesterov_allocs} times across 200 instrumented steps"
    );
    assert_eq!(
        gnn_allocs, 0,
        "GNN gradient hook allocated {gnn_allocs} times across 200 instrumented calls"
    );
    assert_eq!(
        xu19_eval_allocs, 0,
        "Xu19 bell + LSE value and gradient passes allocated {xu19_eval_allocs} times across 200 \
         instrumented calls"
    );
    assert!(
        long_iters > short_iters,
        "the longer CG run must iterate more ({long_iters} vs {short_iters})"
    );
    assert!(
        long_allocs <= short_allocs,
        "Xu19 CG allocates per iteration: {long_allocs} allocations over {long_iters} \
         iterations against {short_allocs} over {short_iters}"
    );
    assert_eq!(
        wa_one + wa_four,
        0,
        "ePlace's WA wirelength allocated {wa_one} times over 20 steps at one thread and \
         {wa_four} at four after warm-up"
    );
    assert_eq!(
        eplace_one + eplace_four,
        0,
        "ePlace density + WA kernels allocated {eplace_one} times over 20 steps at one thread \
         and {eplace_four} at four after warm-up"
    );
    for (mode, short, long) in gp_allocs {
        assert!(
            long <= short,
            "ePlace's Nesterov loop ({mode:?} symmetry) allocates per iteration: {long} \
             allocations over 200 iterations against {short} over 100"
        );
    }
    // Sanity: the instrumentation was live, not skipped as inactive.
    assert_eq!(MOVES.value(), 532);
    assert_eq!(COSTS.count(), 732);
    assert_eq!(MOVE_SPAN.calls(), 532);
    assert_eq!(STEP_SPAN.calls(), 216);
    assert_eq!(PHI_SPAN.calls(), 208);
    assert_eq!(XU_SPAN.calls(), 208);
    assert_eq!(EP_SPAN.calls(), 60);
}
