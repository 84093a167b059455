//! The verification CLI: golden-corpus diffing, seeded fuzzing with
//! regression replay, and socket-chaos rounds.
//!
//! ```text
//! acs-verify corpus [--bless] [--path FILE]   diff (or regenerate) the golden corpus
//! acs-verify fuzz [--iters N] [--seed S]      seeded fuzz smoke + regression replay
//! acs-verify chaos [--rounds N] [--seed S] [--requests N]
//!                                             socket-fault rounds against a live server
//! acs-verify diff                             run the standard differential suite
//! ```
//!
//! Exit status is nonzero on any finding, mismatch, or unhealthy round,
//! so `scripts/ci.sh` can gate on it directly.

use acs_verify::{
    check_corpus, default_corpus_path, grid_body_vs_reference, random_rule_grid,
    random_sweep_spec, regressions_dir, replay_dir, run_chaos, run_fuzz, standard_suite,
    whatif_engine_vs_reference, whatif_grid_64, whatif_grid_diff, whatif_served_vs_reference,
    wire_vs_handler, ChaosConfig, DiffCase, Differential, EvalPath,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: acs-verify corpus [--bless] [--path FILE]\n\
         \x20      acs-verify fuzz [--iters N] [--seed S]\n\
         \x20      acs-verify chaos [--rounds N] [--seed S] [--requests N]\n\
         \x20      acs-verify diff"
    );
    ExitCode::from(2)
}

/// Pull `--flag VALUE` out of the argument list, parsed as `T`.
fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let raw = args.remove(at + 1);
    args.remove(at);
    raw.parse().map(Some).map_err(|_| format!("{flag} value {raw:?} did not parse"))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(at);
    true
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let command = args.remove(0);
    let outcome = match command.as_str() {
        "corpus" => cmd_corpus(&mut args),
        "fuzz" => cmd_fuzz(&mut args),
        "chaos" => cmd_chaos(&mut args),
        "diff" => cmd_diff(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("acs-verify {command}: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_corpus(args: &mut Vec<String>) -> Result<(), String> {
    let path: PathBuf =
        take_value::<PathBuf>(args, "--path")?.unwrap_or_else(default_corpus_path);
    if take_flag(args, "--bless") {
        let snapshot = acs_verify::bless_corpus(&path).map_err(|e| e.to_string())?;
        println!(
            "blessed {} scenario(s), {} anchor(s) -> {}",
            snapshot.scenarios.len(),
            snapshot.anchors.len(),
            path.display()
        );
        return Ok(());
    }
    let lines = check_corpus(&path).map_err(|e| e.to_string())?;
    if lines.is_empty() {
        println!("corpus holds: {}", path.display());
        Ok(())
    } else {
        Err(format!(
            "{} divergence(s) from the blessed corpus:\n{}\n\
             (if intentional, regenerate with `acs-verify corpus --bless`)",
            lines.len(),
            lines.join("\n")
        ))
    }
}

fn cmd_fuzz(args: &mut Vec<String>) -> Result<(), String> {
    let iters = take_value(args, "--iters")?.unwrap_or(10_000u64);
    let seed = take_value(args, "--seed")?.unwrap_or(1u64);
    let report = run_fuzz(seed, iters);
    println!(
        "fuzz seed={seed}: {} iters, {} accepted, {} rejected, {} finding(s)",
        report.iters,
        report.accepted,
        report.rejected,
        report.findings.len()
    );
    let replay_failures =
        replay_dir(&regressions_dir()).map_err(|e| format!("regression replay: {e}"))?;
    println!("regressions: replayed corpus at {}", regressions_dir().display());
    if report.is_clean() && replay_failures.is_empty() {
        return Ok(());
    }
    let mut lines = Vec::new();
    for f in &report.findings {
        lines.push(format!("[{}] {} input-hex={}", f.target, f.message, f.input_hex));
    }
    lines.extend(replay_failures);
    Err(lines.join("\n"))
}

fn cmd_chaos(args: &mut Vec<String>) -> Result<(), String> {
    let config = ChaosConfig {
        seed: take_value(args, "--seed")?.unwrap_or(1),
        rounds: take_value(args, "--rounds")?.unwrap_or(1),
        requests: take_value(args, "--requests")?.unwrap_or(60),
    };
    let rounds = run_chaos(&config).map_err(|e| e.to_string())?;
    for round in &rounds {
        println!(
            "chaos seed={}: {}/{} requests ok, {} server-injected fault(s), healthy after",
            round.seed, round.ok, round.requests, round.server_faults
        );
    }
    Ok(())
}

fn cmd_diff(_args: &[String]) -> Result<(), String> {
    // A compact sweep keeps the CLI suite interactive; the full golden
    // sweeps run in the repo's test tier.
    let candidates = acs_dse_candidates();
    let harness = Differential::paper_default();
    let mut dirty = Vec::new();
    let mut reports: Vec<acs_verify::DiffReport> =
        standard_suite().iter().map(|case| harness.run(&candidates, case)).collect();
    // The what-if case rides the same suite: batch rule-grid screening
    // against the naive one-rule-at-a-time loop, over the curated DB.
    let devices: Vec<acs_policy::DeviceMetrics> =
        acs_devices::GpuDatabase::curated_65().iter().map(|r| r.to_metrics()).collect();
    reports.push(whatif_grid_diff(&whatif_grid_64(), &devices));
    // The what-if engine's records against the naive record oracle, over
    // two fleets in which many variants restrict some designs but not
    // all, so the fleet statistics are compared too.
    let runner = acs_dse::DseRunner::new(
        acs_llm::ModelConfig::llama3_8b(),
        acs_llm::WorkloadConfig::paper_default(),
    );
    let price = |spec: acs_dse::SweepSpec, tpp_target: f64| -> Vec<acs_dse::EvaluatedDesign> {
        runner.run_lattice(&spec, tpp_target).designs.into_iter().map(|(_, d)| d).collect()
    };
    let synthetic = price(acs_dse::SweepSpec::synthetic_fleet(), 4800.0);
    let table5 = price(acs_dse::SweepSpec::table5(), 1600.0);
    reports.push(whatif_engine_vs_reference(
        &[whatif_grid_64(), random_rule_grid(1), random_rule_grid(2)],
        &[("synthetic-4800", &synthetic), ("table5-1600", &table5)],
    ));
    // The service's grid bodies, written straight to bytes, against the
    // same grids priced by the reference and encoded through the tree.
    reports.push(grid_body_vs_reference());
    // The service's what-if documents, screened over the fleets it keeps
    // per scenario and TPP target, against the record oracle over fleets
    // priced afresh.
    reports.push(whatif_served_vs_reference());
    // Seeded property cases: random sweeps (odd seeds faulted) through
    // the lattice engine against the reference oracle.
    for seed in 0..4_u64 {
        let mut candidates = random_sweep_spec(seed).candidates(4800.0);
        if seed % 2 == 1 {
            acs_dse::inject_faults(&mut candidates, seed as usize);
        }
        let case = DiffCase::paths(
            &format!("lattice-vs-reference-seed{seed}"),
            EvalPath::Reference,
            EvalPath::Lattice,
        );
        reports.push(harness.run(&candidates, &case));
    }
    for report in &reports {
        println!(
            "diff {}: {} points ({} ok, {} failed) -> {}",
            report.label,
            report.points,
            report.ok,
            report.failed,
            if report.is_clean() { "clean" } else { "MISMATCH" }
        );
        if !report.is_clean() {
            for m in &report.mismatches {
                dirty.push(format!("{}: {m}", report.label));
            }
        }
    }
    // The serve-tier arm: a live server's answers must equal the
    // in-process handler's over one replayed corpus.
    let serve = wire_vs_handler().map_err(|e| e.to_string())?;
    println!(
        "diff {}: {} requests ({} ok) -> {}",
        serve.label,
        serve.requests,
        serve.ok,
        if serve.is_clean() { "clean" } else { "MISMATCH" }
    );
    for m in &serve.mismatches {
        dirty.push(format!("{}: {m}", serve.label));
    }
    if dirty.is_empty() {
        Ok(())
    } else {
        Err(dirty.join("\n"))
    }
}

fn acs_dse_candidates() -> Vec<acs_dse::CandidateParams> {
    let mut candidates = acs_dse::SweepSpec {
        systolic_dims: vec![16, 32],
        lanes_per_core: vec![2, 8],
        l1_kib: vec![192, 512],
        l2_mib: vec![48],
        hbm_tb_s: vec![2.4, 3.2],
        device_bw_gb_s: vec![600.0],
    }
    .candidates(4800.0);
    acs_dse::inject_faults(&mut candidates, 5);
    candidates
}
