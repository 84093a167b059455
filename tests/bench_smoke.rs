//! Dependency-free smoke benchmark.
//!
//! Times the hot paths with `std::time::Instant`, prints a small report,
//! and enforces only very generous ceilings — it exists to catch
//! order-of-magnitude regressions and to prove the paths run, not to
//! produce publishable numbers. The repository benchmark, measuring end
//! to end and layer by layer, is `perfbench/`.
//!
//! Five artefacts are written for the perf trajectory (schema
//! documented in README "Observability"): `BENCH_dse.json` from
//! [`bench_smoke`], `BENCH_lattice.json` from [`bench_lattice`],
//! `BENCH_serve.json` from [`bench_serve`], `BENCH_whatif.json` from
//! [`bench_whatif`], and `BENCH_scenarios.json` from
//! [`bench_scenarios`], each
//! `{"schema": "acs-bench-v1", "suite": ..., "metrics": {...}}` with
//! every metric a finite number. `ACS_BENCH_DIR` overrides the output
//! directory (default: the repo root). `scripts/ci.sh` floors sweep
//! throughput on a fresh runner and on a warm one (`points_per_sec`,
//! `points_per_sec_lattice`) and the serve QPS with absolute budgets.
//!
//! [`bench_smoke`] also enforces the telemetry contract that profiling is
//! cheap: the same sweep with the global registry enabled may cost at
//! most 5% more wall time than with it disabled.
//!
//! Ignored by default so `cargo test` stays fast; run via
//! `scripts/bench-smoke.sh`, which passes `--test-threads=1` so the two
//! benches never time each other's noise.

use acs::prelude::*;
use acs_dse::{DseRunner, SweepSpec};
use acs_errors::json::{object, Value};
use acs_llm::{LengthDistribution, RequestTrace};
use acs_serve::{run_loadgen, LoadMode, LoadgenConfig, ServeConfig, Server};
use acs_sim::{simulate_serving_cached, ServingConfig, StepCostCache};
use std::path::PathBuf;
use std::time::Instant;

fn time<T>(label: &str, iterations: u32, mut f: impl FnMut() -> T) -> f64 {
    // One warm-up call keeps lazy initialisation out of the measurement.
    let _ = f();
    let started = Instant::now();
    for _ in 0..iterations {
        std::hint::black_box(f());
    }
    let per_call_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(iterations);
    println!("{label:<44} {per_call_ms:>10.3} ms/call  ({iterations} calls)");
    per_call_ms
}

/// One timed round: `iterations` calls of `f`, in ms per call.
fn round_ms<T>(iterations: u32, f: &mut impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        std::hint::black_box(f());
    }
    started.elapsed().as_secs_f64() * 1e3 / f64::from(iterations)
}

fn bench_dir() -> PathBuf {
    std::env::var_os("ACS_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// Write `BENCH_<suite>.json` in the stable `acs-bench-v1` schema.
fn write_bench(suite: &str, metrics: Vec<(&str, f64)>) {
    let members: Vec<(&str, Value)> = metrics
        .into_iter()
        .map(|(name, v)| {
            assert!(v.is_finite(), "bench metric {name} must be finite, got {v}");
            (name, Value::Number(v))
        })
        .collect();
    let doc = object(vec![
        ("schema", Value::String("acs-bench-v1".to_owned())),
        ("suite", Value::String(suite.to_owned())),
        ("metrics", object(members)),
    ]);
    let path = bench_dir().join(format!("BENCH_{suite}.json"));
    std::fs::write(&path, doc.to_json() + "\n").expect("write bench artefact");
    println!("wrote {}", path.display());
}

#[test]
#[ignore = "smoke benchmark; run via scripts/bench-smoke.sh"]
fn bench_smoke() {
    let node = SystemConfig::quad(DeviceConfig::a100_like()).expect("quad node");
    let sim = Simulator::new(node);
    let gpt3 = ModelConfig::gpt3_175b();
    let work = WorkloadConfig::paper_default();

    let layer_ms = time("simulate_layer (GPT-3 175B prefill)", 200, || {
        sim.simulate_layer(&gpt3, &work, InferencePhase::Prefill)
    });

    let runner = DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::paper_default());
    let a100 = DeviceConfig::a100_like();
    let eval_ms = time("DseRunner::try_evaluate", 50, || {
        runner.try_evaluate(&a100).expect("evaluation succeeds")
    });

    let trace = RequestTrace::synthetic(
        4.0,
        5.0,
        LengthDistribution::chat_prompts(),
        LengthDistribution::chat_outputs(),
        7,
    )
    .expect("synthetic trace");
    let llama = ModelConfig::llama3_8b();
    let steps = StepCostCache::new(4096);
    // Prime so the timing below measures the steady (warm-cache) state.
    let _ = simulate_serving_cached(&sim, &llama, &trace, ServingConfig::default(), &steps);
    let serving_ms = time("simulate_serving_cached (warm steps)", 20, || {
        simulate_serving_cached(&sim, &llama, &trace, ServingConfig::default(), &steps)
    });

    // --- telemetry overhead on the sweep smoke path ---
    // The same parallel sweep with the global registry disabled (every
    // instrumentation site reduces to an atomic load and a branch) versus
    // enabled. The sweep runs exactly as the smoke sweeps in scripts/ci.sh
    // do — `run_report` on a fresh runner per run, so every leg is priced
    // cold like a one-shot `acs-dse` run. Two measurement-noise defences:
    // the point list is smoke-run
    // sized (hundreds of points, like the repro sweeps) so per-round wall
    // time is dominated by evaluation work rather than thread-spawn jitter,
    // and each round times a back-to-back disabled/enabled *pair*
    // (alternating the order to cancel drift within the pair) with the
    // asserted overhead taken as the median of the per-pair ratios. On a
    // shared 2-vCPU host a single pair's ratio swings by several percent
    // either way and a burst of interference can skew a run of pairs, so
    // the median is taken over forty pairs (about three seconds).
    let spec = SweepSpec {
        systolic_dims: vec![16],
        lanes_per_core: vec![2, 4],
        l1_kib: vec![192, 1024],
        l2_mib: vec![40],
        hbm_tb_s: (0..50).map(|i| 2.0 + 0.025 * f64::from(i)).collect(),
        device_bw_gb_s: vec![600.0],
    };
    let candidates = spec.candidates(4800.0);
    assert_eq!(candidates.len(), 200, "smoke-run-sized grid of unique points");
    // A clone would share the leg tables, so every run builds its own.
    let fresh = || DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());
    let registry = acs_telemetry::global();
    let mut sweep = || fresh().run_report(&candidates);
    registry.enable();
    let _ = sweep(); // warm-up interns every instrument up front
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    let mut ratios = Vec::new();
    for round in 0..40 {
        let (off, on) = if round % 2 == 0 {
            registry.disable();
            let off = round_ms(20, &mut sweep);
            registry.enable();
            (off, round_ms(20, &mut sweep))
        } else {
            registry.enable();
            let on = round_ms(20, &mut sweep);
            registry.disable();
            (round_ms(20, &mut sweep), on)
        };
        offs.push(off);
        ons.push(on);
        ratios.push(on / off);
    }
    registry.disable();
    registry.reset();
    ratios.sort_by(f64::total_cmp);
    let median_ratio = (ratios[19] + ratios[20]) / 2.0;
    let sweep_off_ms = offs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let sweep_on_ms = ons.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let overhead_pct = (median_ratio - 1.0) * 100.0;
    println!(
        "{:<44} {:>10.3} ms/call  (disabled {:.3} ms, overhead {:+.2}%)",
        "run_report (profiled sweep)", sweep_on_ms, sweep_off_ms, overhead_pct
    );

    // --- one-shot sweep throughput ---
    // The reference sweep: Table 3's Figure-7 grid (1536 points, all
    // feasible at the 2400 TPP ceiling) under the acs-dse default
    // model/workload, priced by `run_report` on a fresh runner per round
    // — what every acs-core, acs-repro and `acs-dse` process pays, plans
    // and leg tables included.
    let reference = SweepSpec::table3_fig7().candidates(2400.0);
    assert_eq!(reference.len(), 1536, "reference sweep size");
    let mut fresh_round = || fresh().run_report(&reference);
    let first = fresh_round(); // warm the thread pool and allocator paths
    assert!(first.failures.is_empty(), "reference sweep has no bad points");
    let mut fresh_ms = f64::INFINITY;
    for _ in 0..3 {
        fresh_ms = fresh_ms.min(round_ms(1, &mut fresh_round));
    }
    let points_per_sec = reference.len() as f64 / (fresh_ms / 1e3);
    println!(
        "{:<44} {:>10.0} points/s",
        "run_report (1536-point sweep, fresh runner)", points_per_sec
    );

    // Generous ceilings: only order-of-magnitude regressions fail. The
    // throughput floor itself is an absolute budget applied by
    // `bench_validate --min-dse-points-per-sec` in scripts/ci.sh.
    assert!(layer_ms < 100.0, "layer simulation took {layer_ms:.1} ms");
    assert!(eval_ms < 500.0, "design evaluation took {eval_ms:.1} ms");
    assert!(serving_ms < 2000.0, "serving simulation took {serving_ms:.1} ms");
    assert!(
        overhead_pct < 5.0,
        "profiling overhead {overhead_pct:.2}% exceeds the 5% budget \
         (enabled {sweep_on_ms:.3} ms vs disabled {sweep_off_ms:.3} ms)"
    );

    write_bench(
        "dse",
        vec![
            ("layer_ms", layer_ms),
            ("eval_ms", eval_ms),
            ("serving_warm_ms", serving_ms),
            ("sweep_ms", sweep_off_ms),
            ("sweep_profiled_ms", sweep_on_ms),
            ("telemetry_overhead_pct", overhead_pct),
            ("points_per_sec", points_per_sec),
        ],
    );
}

#[test]
#[ignore = "smoke benchmark; run via scripts/bench-smoke.sh"]
fn bench_lattice() {
    // --- warm sweep throughput ---
    // The same reference sweep as in `bench_smoke`: Table 3's Figure-7
    // grid, 1536 points, all feasible at the 2400 TPP ceiling. ONE
    // persistent runner, matching how the server holds runners in
    // `AppState` across `/v1/screen` and what-if requests: it keeps its
    // leg tables, probe caches, fused vectors, and combine programs. One
    // asserted cold round fills the tables; the timed rounds then
    // measure the steady state — "price the grid, not the points" — as
    // the min over adaptively many rounds, which also damps scheduler
    // noise on shared hosts.
    let reference = SweepSpec::table3_fig7().candidates(2400.0);
    assert_eq!(reference.len(), 1536, "reference sweep size");
    let runner = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());
    let mut lattice_round = || runner.run_report(&reference);
    let lattice_cold_ms = round_ms(1, &mut || {
        let report = runner.run_report(&reference);
        assert_eq!(report.total(), reference.len());
        assert!(report.failures.is_empty(), "reference sweep has no bad points");
    });
    // A warm round is a few hundred µs, so one scheduler hiccup inside a
    // round inflates it badly. Repeat min-rounds until the floor has not
    // improved for ten straight rounds (bounded at sixty): on a shared
    // host this outlasts transient load where a fixed round count gets
    // unlucky.
    let mut lattice_ms = f64::INFINITY;
    let mut stale = 0;
    for _ in 0..60 {
        let l = round_ms(1, &mut lattice_round);
        stale = if l < lattice_ms { 0 } else { stale + 1 };
        lattice_ms = lattice_ms.min(l);
        if stale >= 10 {
            break;
        }
    }
    let points_per_sec_lattice = reference.len() as f64 / (lattice_ms / 1e3);
    println!(
        "{:<44} {:>10.0} points/s  (cold {:.3} ms)",
        "run_report (1536-point sweep, warm runner)", points_per_sec_lattice, lattice_cold_ms
    );

    // The throughput floor is an absolute budget applied by
    // `bench_validate --min-lattice-points-per-sec` in scripts/ci.sh.
    write_bench(
        "lattice",
        vec![
            ("points_per_sec_lattice", points_per_sec_lattice),
            ("lattice_cold_ms", lattice_cold_ms),
        ],
    );
}

#[test]
#[ignore = "smoke benchmark; run via scripts/bench-smoke.sh"]
fn bench_whatif() {
    use acs_dse::EvaluatedDesign;
    use acs_whatif::{RuleGrid, WhatIfEngine};

    // The tentpole scale of POST /v1/whatif: a 64-variant rule grid over
    // the curated 65-device DB plus the 4096-design synthetic fleet.
    // Fleet pricing goes through the lattice engine, as `/v1/whatif`
    // does — cold prices every leg once; warm re-runs the same sweep
    // against the populated tables, which is the AppState
    // steady state where repeated what-ifs re-price nothing.
    let runner = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());
    let spec = SweepSpec::synthetic_fleet();
    let started = Instant::now();
    let report = runner.run_lattice(&spec, 4800.0);
    let fleet_cold_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.total(), 4096, "synthetic fleet size");
    assert!(report.failures.is_empty(), "synthetic fleet has no bad points");
    let mut fleet_warm_ms = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let again = runner.run_lattice(&spec, 4800.0);
        fleet_warm_ms = fleet_warm_ms.min(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(again.total(), 4096);
    }
    println!(
        "{:<44} {:>10.3} ms/call  (warm {:.3} ms, {:.2}x)",
        "run_lattice (4096-design fleet pricing)",
        fleet_cold_ms,
        fleet_warm_ms,
        fleet_cold_ms / fleet_warm_ms
    );

    let fleet: Vec<EvaluatedDesign> = report.designs.into_iter().map(|(_, d)| d).collect();
    let mut grid = RuleGrid::baseline();
    grid.tpp_threshold_2022 = vec![2400.0, 4800.0];
    grid.tpp_license = vec![1600.0, 2400.0, 3600.0, 4800.0];
    grid.pd_license = vec![3.0, 5.92];
    grid.mem_bw_license = vec![0.0, 600.0, 800.0, 1000.0];
    assert_eq!(grid.cardinality(), 64, "whatif reference grid size");
    let engine = WhatIfEngine::paper_default();
    let mut screen = || engine.run(&grid, &fleet).expect("what-if run");
    let (summary, _) = screen(); // warm-up, and shape check
    assert_eq!((summary.variants, summary.devices, summary.fleet_designs), (64, 65, 4096));
    let mut grid_ms = f64::INFINITY;
    for _ in 0..3 {
        grid_ms = grid_ms.min(round_ms(1, &mut screen));
    }
    // Rule-variants per second as a /v1/whatif request sees them: grid
    // screening plus the fleet pricing it rides on, cold and warm.
    let variants = 64.0;
    let variants_per_sec_cold = variants / ((fleet_cold_ms + grid_ms) / 1e3);
    let variants_per_sec_warm = variants / ((fleet_warm_ms + grid_ms) / 1e3);
    println!(
        "{:<44} {:>10.1} variants/s  (cold legs {:.1} variants/s)",
        "whatif 64-variant grid (warm legs)", variants_per_sec_warm, variants_per_sec_cold
    );

    // Generous ceilings: only order-of-magnitude regressions fail. The
    // hard proof that warm sweeps re-price nothing is the leg-counter
    // test (tests/whatif_leg_reuse.rs); this bound only catches the warm
    // path regressing into real re-pricing work.
    assert!(
        fleet_warm_ms <= fleet_cold_ms * 1.5,
        "warm leg tables regressed vs cold pricing ({fleet_warm_ms:.1} ms vs {fleet_cold_ms:.1} ms)"
    );
    assert!(
        variants_per_sec_warm >= 1.0,
        "what-if screening fell below 1 variant/s ({variants_per_sec_warm:.2})"
    );

    write_bench(
        "whatif",
        vec![
            ("fleet_cold_ms", fleet_cold_ms),
            ("fleet_warm_ms", fleet_warm_ms),
            ("leg_reuse_speedup", fleet_cold_ms / fleet_warm_ms),
            ("grid_ms", grid_ms),
            ("variants_per_sec_cold", variants_per_sec_cold),
            ("variants_per_sec_warm", variants_per_sec_warm),
        ],
    );
}

#[test]
#[ignore = "smoke benchmark; run via scripts/bench-smoke.sh"]
fn bench_scenarios() {
    use acs_scenarios::ScenarioRegistry;

    // Dense vs MoE sweep throughput through the scenario frontend: the
    // same 1536-point hardware lattice priced by the dense default
    // scenario and by the expert-parallel Mixtral scenario, through the
    // lattice engine `/v1/screen` scenario grids run. Each round builds
    // a fresh runner, so the timing includes cold leg tables — the
    // measured ratio is the honest cost of carrying the router, the
    // touched-expert weight traffic, and the dispatch / combine
    // all-to-all legs, not an artefact of cross-round reuse.
    let registry = ScenarioRegistry::builtin();
    let reference = SweepSpec::table3_fig7().candidates(2400.0);
    assert_eq!(reference.len(), 1536, "reference sweep size");
    let throughput = |name: &str| {
        let scenario = registry.get(name).expect("builtin scenario");
        let mut round = || scenario.runner().run_report(&reference);
        let warm = round(); // warm thread pool + allocator paths
        assert_eq!(warm.total(), reference.len());
        assert!(warm.failures.is_empty(), "reference sweep has no bad points");
        let mut best_ms = f64::INFINITY;
        for _ in 0..3 {
            best_ms = best_ms.min(round_ms(1, &mut round));
        }
        reference.len() as f64 / (best_ms / 1e3)
    };
    let dense_pps = throughput("dense-llama3-fp16-tp4");
    let moe_pps = throughput("moe-mixtral-fp16-tp4-ep4");
    let moe_relative = moe_pps / dense_pps;
    println!(
        "{:<44} {:>10.0} points/s  (dense {:.0} points/s, {:.2}x)",
        "scenario sweep (MoE, 1536-point lattice)", moe_pps, dense_pps, moe_relative
    );

    // Leg economics on the expert-axis sweep: a cold MoE pass takes the
    // broadcast at every point — the ep=4 expert all-to-all legs
    // included — and a warm re-run on the same runner prices no new leg.
    let registry_t = acs_telemetry::global();
    registry_t.enable();
    registry_t.reset();
    let counter = |name: &str| {
        registry_t
            .counter_values()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_default()
    };
    let runner = registry.get("moe-mixtral-fp16-tp4-ep4").expect("builtin scenario").runner();
    let cold = runner.run_report(&reference);
    assert_eq!(cold.total(), reference.len());
    let cold_fallback_points = counter("dse.lattice.fallback_points");
    let cold_misses = counter("dse.factored.leg_miss");
    let warm = runner.run_report(&reference);
    let warm_leg_misses = counter("dse.factored.leg_miss") - cold_misses;
    registry_t.disable();
    registry_t.reset();
    assert_eq!(warm.designs, cold.designs, "warm designs must be bit-identical");
    println!(
        "{:<44} {:>10} points  ({} cold leg misses, {} warm)",
        "lattice fallback (cold MoE expert-axis sweep)",
        cold_fallback_points,
        cold_misses,
        warm_leg_misses
    );

    // Generous ceilings: only order-of-magnitude regressions fail.
    assert!(
        moe_relative >= 0.1,
        "MoE scenario sweep fell an order of magnitude behind dense ({moe_relative:.3}x)"
    );
    assert_eq!(cold_fallback_points, 0, "every cold MoE point must take the broadcast");
    assert!(cold_misses > 0, "a cold pass must price at least one leg");
    assert_eq!(warm_leg_misses, 0, "a warm MoE sweep must not price any new leg");

    write_bench(
        "scenarios",
        vec![
            ("points_per_sec_dense", dense_pps),
            ("points_per_sec_moe", moe_pps),
            ("moe_relative_throughput", moe_relative),
            ("cold_fallback_points", cold_fallback_points as f64),
            ("warm_leg_misses", warm_leg_misses as f64),
        ],
    );
}

#[test]
#[ignore = "smoke benchmark; run via scripts/bench-smoke.sh"]
fn bench_serve() {
    // queue_depth is raised so the per-round shed budget does not
    // throttle the pipelined bench itself (shedding is a protection
    // benched by its own test).
    let server = Server::bind(ServeConfig { queue_depth: 512, ..ServeConfig::default() })
        .expect("bind ephemeral port");
    let drive = |addr, mode, requests, connections, pipeline| {
        let report = run_loadgen(
            addr,
            &LoadgenConfig { requests, connections, pipeline, mode, ..LoadgenConfig::default() },
        )
        .expect("loadgen run");
        assert_eq!(report.failed, 0, "bench stream must not drop requests ({mode:?})");
        report
    };

    // Pipelined multi-connection drive.
    let (addr, state) = (server.local_addr(), server.state());
    let (handle, thread) = server.spawn();
    // Repeated bodies ride the raw front cache after the first; unique
    // screen bodies are all distinct (cheap unique work); unique
    // simulate bodies each pay a full simulation (expensive unique).
    let repeated = drive(addr, LoadMode::Repeated, 30_000, 4, 64);
    let unique = drive(addr, LoadMode::UniqueScreen, 5_000, 4, 32);
    let sim_unique = drive(addr, LoadMode::Unique, 40, 4, 1);
    let hits = state.raw_hit_count();
    assert!(
        hits >= 30_000 - 64,
        "nearly all repeated requests hit a cache (raw hits={hits})"
    );
    handle.shutdown();
    thread.join().expect("server thread");

    let speedup = if sim_unique.qps > 0.0 { repeated.qps / sim_unique.qps } else { 0.0 };
    println!(
        "loadgen event-loop repeated      {:>9.1} qps  p50 {:>8.3} ms  p99 {:>8.3} ms",
        repeated.qps, repeated.p50_ms, repeated.p99_ms
    );
    println!(
        "loadgen event-loop unique-screen {:>9.1} qps  p50 {:>8.3} ms  p99 {:>8.3} ms",
        unique.qps, unique.p50_ms, unique.p99_ms
    );
    println!(
        "loadgen event-loop unique-sim    {:>9.1} qps  p50 {:>8.3} ms  p99 {:>8.3} ms",
        sim_unique.qps, sim_unique.p50_ms, sim_unique.p99_ms
    );

    assert!(repeated.p50_ms > 0.0 && repeated.p50_ms <= repeated.p99_ms);
    assert!(speedup > 1.0, "repeated stream must beat unique simulate (got {speedup:.2}x)");

    write_bench(
        "serve",
        vec![
            ("unique_qps", unique.qps),
            ("repeated_qps", repeated.qps),
            ("sim_unique_qps", sim_unique.qps),
            ("cache_speedup", speedup),
            ("unique_p50_ms", unique.p50_ms),
            ("unique_p99_ms", unique.p99_ms),
            ("repeated_p50_ms", repeated.p50_ms),
            ("repeated_p99_ms", repeated.p99_ms),
        ],
    );
}
