//! The sweep workload: the paper pipeline's public sweep entry points
//! called in process, each with a fresh runner as every `acs-repro` or
//! `acs-dse` process pays, and the accuracy anchor shared by all
//! workloads.

use crate::gen::{self, PaperModel, Rng, SweepCall};
use crate::{
    host_ticks, median, peak_rss_mb, slice_steal, slices, steal_pct, trace, window_metrics, Args,
    Digest, Metrics, Outcome, Sample, SETUPS,
};
use acs_core::{optimize_oct2022, optimize_oct2023, A100Baseline, OptimizationReport};
use acs_dse::{DseRunner, EvaluatedDesign, SweepSpec};
use acs_errors::json::Value;
use acs_llm::{ModelConfig, WorkloadConfig};
use acs_scenarios::ScenarioRegistry;
use acs_whatif::{WhatIfEngine, WhatIfSummary};
use std::time::{Duration, Instant};

/// Pre-generated cycles the timed window walks through (wrapping).
const TIMED_CYCLES: usize = 48;

/// Sweep points compared bit for bit against `DseRunner::try_evaluate`.
const ORACLE_SAMPLE: usize = 32;

pub fn model_config(model: PaperModel) -> ModelConfig {
    match model {
        PaperModel::Gpt3 => ModelConfig::gpt3_175b(),
        PaperModel::Llama3 => ModelConfig::llama3_8b(),
    }
}

/// A Table 3 study behind the paper's Figure 6/7 headlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Study {
    /// October 2022 rule at 4800 TPP: valid = fits the reticle.
    Oct2022,
    /// October 2023 rule at one TPP tier: valid = fits the reticle and
    /// escapes the rule.
    Oct2023(f64),
}

impl Study {
    pub fn spec(self) -> SweepSpec {
        match self {
            Study::Oct2022 => SweepSpec::table3_fig6(),
            Study::Oct2023(_) => SweepSpec::table3_fig7(),
        }
    }

    pub fn tpp(self) -> f64 {
        match self {
            Study::Oct2022 => 4800.0,
            Study::Oct2023(tier) => tier,
        }
    }
}

/// The outputs of one design a study's optimum is picked from.
pub struct DesignPoint {
    pub ttft_s: f64,
    pub tbt_s: f64,
    pub within_reticle: bool,
    pub pd_unregulated_2023: bool,
}

impl From<&EvaluatedDesign> for DesignPoint {
    fn from(d: &EvaluatedDesign) -> Self {
        DesignPoint {
            ttft_s: d.ttft_s,
            tbt_s: d.tbt_s,
            within_reticle: d.within_reticle,
            pd_unregulated_2023: d.pd_unregulated_2023,
        }
    }
}

/// The paper's headline rows of Figures 6 and 7, as EXPERIMENTS.md lists
/// them: model, study, TTFT (`true`) or TBT, change against the A100 in
/// percent. The A100 rows are left out: they were used for calibration.
const PAPER_ROWS: [(PaperModel, Study, bool, f64); 10] = [
    (PaperModel::Gpt3, Study::Oct2022, true, -1.2),
    (PaperModel::Gpt3, Study::Oct2022, false, -27.0),
    (PaperModel::Llama3, Study::Oct2022, true, -4.0),
    (PaperModel::Llama3, Study::Oct2022, false, -14.2),
    (PaperModel::Gpt3, Study::Oct2023(2400.0), true, 78.8),
    (PaperModel::Llama3, Study::Oct2023(2400.0), true, 54.6),
    (PaperModel::Gpt3, Study::Oct2023(1600.0), false, -20.9),
    (PaperModel::Gpt3, Study::Oct2023(2400.0), false, -26.1),
    (PaperModel::Llama3, Study::Oct2023(1600.0), false, -12.0),
    (PaperModel::Llama3, Study::Oct2023(2400.0), false, -12.8),
];

/// Every (model, study) pair the paper rows need.
pub fn anchor_studies() -> Vec<(PaperModel, Study)> {
    let mut out: Vec<(PaperModel, Study)> = Vec::new();
    for (model, study, _, _) in PAPER_ROWS {
        if !out.contains(&(model, study)) {
            out.push((model, study));
        }
    }
    out
}

/// Fastest valid TTFT and fastest valid TBT of one study.
pub fn best_valid(study: Study, designs: &[DesignPoint]) -> Option<(f64, f64)> {
    let valid = designs.iter().filter(|d| match study {
        Study::Oct2022 => d.within_reticle,
        Study::Oct2023(_) => d.within_reticle && d.pd_unregulated_2023,
    });
    let (mut ttft, mut tbt) = (f64::INFINITY, f64::INFINITY);
    for d in valid {
        ttft = ttft.min(d.ttft_s);
        tbt = tbt.min(d.tbt_s);
    }
    ttft.is_finite().then_some((ttft, tbt))
}

/// A study's fastest valid (TTFT, TBT), if any design was valid.
pub type StudyBest = ((PaperModel, Study), Option<(f64, f64)>);

/// Mean |measured − paper| in percentage points over the paper rows;
/// NaN when a study has no valid design.
pub fn anchor_error(best: &[StudyBest]) -> f64 {
    let workload = WorkloadConfig::paper_default();
    let mut total = 0.0;
    for (model, study, is_ttft, paper) in PAPER_ROWS {
        let baseline = A100Baseline::simulate(&model_config(model), &workload);
        let Some(Some((ttft, tbt))) = best.iter().find(|b| b.0 == (model, study)).map(|b| b.1)
        else {
            return f64::NAN;
        };
        let measured = if is_ttft {
            ttft / baseline.ttft_s
        } else {
            tbt / baseline.tbt_s
        };
        total += ((measured - 1.0) * 100.0 - paper).abs();
    }
    total / PAPER_ROWS.len() as f64
}

/// Read-only state every call shares.
pub struct Context {
    pub engine: WhatIfEngine,
    pub registry: ScenarioRegistry,
    pub workload: WorkloadConfig,
}

impl Context {
    pub fn new() -> Self {
        Context {
            engine: WhatIfEngine::paper_default(),
            registry: ScenarioRegistry::builtin(),
            workload: WorkloadConfig::paper_default(),
        }
    }

    /// The fresh runner a pricing call evaluates with.
    pub fn runner(&self, call: &SweepCall) -> DseRunner {
        match call {
            SweepCall::Grid { scenario, .. } => self
                .registry
                .get(scenario)
                .expect("built-in scenario")
                .runner(),
            SweepCall::Oct2022(m)
            | SweepCall::Oct2023(m, _)
            | SweepCall::Table5(m)
            | SweepCall::Baseline(m) => DseRunner::new(model_config(*m), self.workload),
            SweepCall::Screen(_) => DseRunner::new(model_config(PaperModel::Llama3), self.workload),
        }
    }
}

/// What one call produced.
pub enum Output {
    Baseline(A100Baseline),
    Optimized(OptimizationReport),
    Designs(Vec<EvaluatedDesign>),
    Screened(WhatIfSummary),
}

/// The sweep spec and TPP target a pricing call evaluates.
pub fn call_spec(call: &SweepCall) -> Option<(SweepSpec, f64)> {
    match call {
        SweepCall::Oct2022(_) => Some((SweepSpec::table3_fig6(), 4800.0)),
        SweepCall::Oct2023(_, tier) => Some((SweepSpec::table3_fig7(), *tier)),
        SweepCall::Table5(_) => Some((SweepSpec::table5(), 4800.0)),
        SweepCall::Grid { spec, tpp, .. } => Some((spec.clone(), *tpp)),
        SweepCall::Baseline(_) | SweepCall::Screen(_) => None,
    }
}

/// Candidate design points a call prices.
pub fn call_points(call: &SweepCall) -> usize {
    match call {
        SweepCall::Grid { points, .. } => *points,
        other => call_spec(other).map_or(0, |(spec, tpp)| spec.candidates(tpp).len()),
    }
}

/// Make one call. A screen runs over `fleet`, the designs the last grid
/// call priced; `sink` sees each screening record.
pub fn execute(
    call: &SweepCall,
    ctx: &Context,
    fleet: &mut Vec<EvaluatedDesign>,
    sink: &mut dyn FnMut(usize, &Value),
) -> Result<Output, String> {
    let workload = &ctx.workload;
    Ok(match call {
        SweepCall::Baseline(m) => {
            Output::Baseline(A100Baseline::simulate(&model_config(*m), workload))
        }
        SweepCall::Oct2022(m) => Output::Optimized(optimize_oct2022(&model_config(*m), workload)),
        SweepCall::Oct2023(m, tier) => {
            Output::Optimized(optimize_oct2023(&model_config(*m), workload, *tier))
        }
        SweepCall::Table5(_) | SweepCall::Grid { .. } => {
            let (spec, tpp) = call_spec(call).expect("pricing call");
            let designs = ctx.runner(call).run(&spec, tpp);
            if matches!(call, SweepCall::Grid { .. }) {
                fleet.clone_from(&designs);
            }
            Output::Designs(designs)
        }
        SweepCall::Screen(grid) => Output::Screened(
            ctx.engine
                .run_streaming(grid, fleet, |i, record| {
                    sink(i, record);
                    Ok(())
                })
                .map_err(|e| format!("screen: {e}"))?,
        ),
    })
}

fn design_parts(call_index: usize, d: &EvaluatedDesign) -> [u64; 9] {
    [
        call_index as u64,
        crate::client::fnv(d.name.as_bytes()),
        d.ttft_s.to_bits(),
        d.tbt_s.to_bits(),
        d.die_area_mm2.to_bits(),
        d.die_cost_usd.to_bits(),
        d.good_die_cost_usd.to_bits(),
        u64::from(d.within_reticle),
        u64::from(d.pd_unregulated_2023),
    ]
}

/// The reference cycle's checked results.
struct Reference {
    digest: u64,
    anchor: f64,
    /// `(call index, design)` for every priced design.
    designs: Vec<(usize, EvaluatedDesign)>,
}

/// Run the reference cycle, digesting every design and screening record.
fn reference_cycle(calls: &[SweepCall], ctx: &Context) -> Result<Reference, String> {
    let mut digest = Digest::default();
    let mut fleet = Vec::new();
    let mut designs = Vec::new();
    let mut best = Vec::new();
    for (index, call) in calls.iter().enumerate() {
        let mut sink = |i: usize, record: &Value| {
            digest.add(&[
                index as u64,
                i as u64,
                crate::client::fnv(record.to_json().as_bytes()),
            ]);
        };
        let output = execute(call, ctx, &mut fleet, &mut sink)?;
        let priced = match output {
            Output::Optimized(report) => {
                let study = match call {
                    SweepCall::Oct2023(_, tier) => Study::Oct2023(*tier),
                    _ => Study::Oct2022,
                };
                let model = match call {
                    SweepCall::Oct2022(m) | SweepCall::Oct2023(m, _) => *m,
                    _ => unreachable!("optimisation calls name a model"),
                };
                let points: Vec<DesignPoint> =
                    report.designs.iter().map(DesignPoint::from).collect();
                best.push(((model, study), best_valid(study, &points)));
                report.designs
            }
            Output::Designs(d) => d,
            Output::Baseline(b) => {
                digest.add(&[index as u64, b.ttft_s.to_bits(), b.tbt_s.to_bits()]);
                Vec::new()
            }
            Output::Screened(_) => Vec::new(),
        };
        for d in priced {
            digest.add(&design_parts(index, &d));
            designs.push((index, d));
        }
    }
    Ok(Reference {
        digest: digest.value(),
        anchor: anchor_error(&best),
        designs,
    })
}

/// Compare a seeded sample of the reference cycle's designs bit for bit
/// with per-point `DseRunner::try_evaluate`. Returns the mismatches.
fn oracle(
    calls: &[SweepCall],
    ctx: &Context,
    reference: &Reference,
    seed: u64,
    notes: &mut Vec<String>,
) -> u64 {
    let mut r = Rng::new(seed ^ 0x0AC1E);
    let picks: Vec<usize> = (0..reference.designs.len()).collect();
    let mut mismatches = 0;
    for i in r.subset(&picks, ORACLE_SAMPLE.min(picks.len())) {
        let (index, design) = &reference.designs[i];
        let call = &calls[*index];
        let Some((spec, tpp)) = call_spec(call) else {
            continue;
        };
        let Some(config) = spec
            .configs(tpp)
            .into_iter()
            .find(|c| c.name() == design.name)
        else {
            mismatches += 1;
            notes.push(format!("oracle: no configuration named {}", design.name));
            continue;
        };
        let same = ctx.runner(call).try_evaluate(&config).is_ok_and(|d| {
            design_parts(*index, &d) == design_parts(*index, design) && d.name == design.name
        });
        if !same {
            mismatches += 1;
            notes.push(format!("oracle mismatch on {}", design.name));
        }
    }
    notes.push(format!(
        "oracle compared {} sweep points, {mismatches} mismatched",
        ORACLE_SAMPLE.min(picks.len())
    ));
    mismatches
}

/// Per-call timing class for the end-to-end metrics: 0 simulate (the
/// A100 baseline), 1 grid, 2 what-if screen, 3 the paper's sweeps.
fn class_of(call: &SweepCall) -> u8 {
    match call {
        SweepCall::Baseline(_) => 0,
        SweepCall::Grid { .. } => 1,
        SweepCall::Screen(_) => 2,
        _ => 3,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut reference: Option<Reference> = None;
    let mut checks_ok = true;
    let mut rng = Rng::new(args.seed ^ 0x5EE9);
    let reference_calls = gen::sweep_cycle(&mut rng);
    let timed_cycles: Vec<Vec<SweepCall>> = (0..TIMED_CYCLES)
        .map(|_| gen::sweep_cycle(&mut rng))
        .collect();
    let timed_points: Vec<Vec<usize>> = timed_cycles
        .iter()
        .map(|cycle| cycle.iter().map(call_points).collect())
        .collect();

    // Set-up: build the shared state and run the reference cycle, whose
    // outputs are digested and checked. Every set-up must agree.
    for _ in 0..SETUPS {
        let started = Instant::now();
        let ctx = Context::new();
        let r = reference_cycle(&reference_calls, &ctx)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(previous) = &reference {
            if previous.digest != r.digest {
                checks_ok = false;
                notes.push("reference cycle outputs differ between set-ups".to_owned());
            }
        }
        reference = Some(r);
    }
    let reference = reference.ok_or("no set-up ran")?;
    let ctx = Context::new();
    let rss = peak_rss_mb("self");

    // The timed window: whole calls until the deadline passes; a call
    // that ends after it is not counted.
    let host0 = host_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut samples = Vec::new();
    let mut fleet = Vec::new();
    let mut sink = |_: usize, record: &Value| {
        std::hint::black_box(record);
    };
    let steal_slices = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let sampler = scope.spawn(|| slice_steal(start, args.seconds));
        'window: for cycle in (0..).map(|i| i % TIMED_CYCLES) {
            for (call, points) in timed_cycles[cycle].iter().zip(&timed_points[cycle]) {
                let t0 = Instant::now();
                std::hint::black_box(execute(call, &ctx, &mut fleet, &mut sink)?);
                let done = Instant::now();
                if done > deadline {
                    break 'window;
                }
                samples.push(Sample {
                    class: class_of(call),
                    latency_ns: u32::try_from(done.duration_since(t0).as_nanos())
                        .unwrap_or(u32::MAX),
                    at_ms: done.duration_since(start).as_millis() as u32,
                    points: *points as u32,
                });
            }
        }
        Ok(sampler
            .join()
            .unwrap_or_else(|_| vec![0.0; slices(args.seconds)]))
    })?;
    let steal = steal_pct(host0, host_ticks());
    let calls = samples.len() as u64;
    let points: u64 = samples.iter().map(|s| u64::from(s.points)).sum();

    let mismatches = oracle(&reference_calls, &ctx, &reference, args.seed, &mut notes);
    if !reference.anchor.is_finite() {
        checks_ok = false;
        notes.push("a Table 3 study had no valid design".to_owned());
    }
    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.extend(window_metrics(
            &samples,
            args.seconds,
            &steal_slices,
            [0, 1, 2],
        ));
        metrics.set("anchor_error_pct", reference.anchor, "pp");
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("peak_rss_mb", rss, "MiB");
    } else {
        metrics.extend(trace::zero_layers());
        metrics.set("host.steal_pct", steal, "%");
        let replay: Vec<&SweepCall> = reference_calls
            .iter()
            .chain(timed_cycles.iter().flatten())
            .collect();
        let (layers, answers) = trace::sweep(&ctx, &replay, args.seconds, &args.out, args.seed)?;
        metrics.extend(layers);
        notes.extend(answers);
    }
    notes.push(format!(
        "{calls} calls, {points} points in {} s; anchor error {:.3} pp; host steal {steal:.1}%",
        args.seconds, reference.anchor
    ));
    Ok(Outcome {
        attempted: calls + ORACLE_SAMPLE as u64,
        failed: mismatches,
        checks_ok,
        digest: reference.digest,
        metrics,
        notes,
    })
}
