//! `acs-dse` — run a design-space sweep from the command line.
//!
//! ```text
//! acs-dse [--sweep table3-fig6|table3-fig7|table5] [--tpp 4800]
//!         [--model llama3-8b] [--device-count 4] [--limit N]
//!         [--checkpoint PATH] [--inject-faults STRIDE]
//!         [--profile] [--trace PATH]
//! ```
//!
//! Prints the sweep report summary. `--checkpoint` makes the run
//! resumable (see DESIGN.md §9), `--inject-faults N` perturbs every Nth
//! candidate with the fault-injection harness, and `--profile` enables
//! the global telemetry registry, writes a deterministic JSONL trace
//! (default `results/trace_dse.jsonl`, honouring `ACS_RESULTS_DIR`), and
//! prints the per-stage summary table (DESIGN.md §11). A stdout reader
//! that closes early (`acs-dse | head -1`) ends the output, not the run.

use acs_dse::{inject_faults, CandidateParams, DseRunner, SweepSpec};
use acs_llm::{ModelConfig, WorkloadConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    sweep: String,
    tpp: f64,
    model: String,
    device_count: u32,
    limit: Option<usize>,
    checkpoint: Option<PathBuf>,
    inject_faults: Option<usize>,
    profile: bool,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        sweep: "table3-fig6".to_owned(),
        tpp: 4800.0,
        model: "llama3-8b".to_owned(),
        device_count: 4,
        limit: None,
        checkpoint: None,
        inject_faults: None,
        profile: false,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--sweep" => args.sweep = value("--sweep")?,
            "--tpp" => {
                args.tpp = value("--tpp")?.parse().map_err(|e| format!("--tpp: {e}"))?;
            }
            "--model" => args.model = value("--model")?,
            "--device-count" => {
                args.device_count = value("--device-count")?
                    .parse()
                    .map_err(|e| format!("--device-count: {e}"))?;
            }
            "--limit" => {
                args.limit =
                    Some(value("--limit")?.parse().map_err(|e| format!("--limit: {e}"))?);
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--inject-faults" => {
                let stride: usize = value("--inject-faults")?
                    .parse()
                    .map_err(|e| format!("--inject-faults: {e}"))?;
                if stride == 0 {
                    return Err("--inject-faults: stride must be nonzero".to_owned());
                }
                args.inject_faults = Some(stride);
            }
            "--profile" => args.profile = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(args))
}

fn usage() {
    eprintln!(
        "usage: acs-dse [--sweep table3-fig6|table3-fig7|table5] [--tpp F] \
         [--model NAME] [--device-count N] [--limit N] [--checkpoint PATH] \
         [--inject-faults STRIDE] [--profile] [--trace PATH]"
    );
}

fn resolve_sweep(name: &str) -> Result<SweepSpec, String> {
    match name {
        "table3-fig6" => Ok(SweepSpec::table3_fig6()),
        "table3-fig7" => Ok(SweepSpec::table3_fig7()),
        "table5" => Ok(SweepSpec::table5()),
        other => Err(format!("unknown sweep {other:?} (expected table3-fig6, table3-fig7, or table5)")),
    }
}

/// Write `text` to stdout. A reader that closed its end first is a clean
/// end of output, not an error: the run still finishes its side effects
/// (the trace file) and exits 0.
fn emit(out: &mut impl Write, text: &str) -> Result<(), String> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

fn results_dir() -> PathBuf {
    std::env::var_os("ACS_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

fn run(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let spec = resolve_sweep(&args.sweep)?;
    let model = ModelConfig::by_name(&args.model)
        .ok_or_else(|| format!("unknown model {:?}", args.model))?;
    if args.profile {
        acs_telemetry::global().enable();
    }
    let _main_span = acs_telemetry::span("dse.main");

    let mut candidates: Vec<CandidateParams> = {
        let _span = acs_telemetry::span("dse.candidates");
        spec.candidates(args.tpp)
    };
    if let Some(limit) = args.limit {
        candidates.truncate(limit);
    }
    if let Some(stride) = args.inject_faults {
        let injected = inject_faults(&mut candidates, stride);
        emit(out, &format!("injected {} faults (stride {stride})\n", injected.len()))?;
    }

    let runner = DseRunner::new(model, WorkloadConfig::paper_default())
        .with_device_count(args.device_count);

    let report = {
        let _span = acs_telemetry::span("dse.sweep");
        match &args.checkpoint {
            Some(path) => runner
                .run_report_resumable(&candidates, path)
                .map_err(|e| format!("checkpoint run failed: {e}"))?,
            None => runner.run_report(&candidates),
        }
    };
    emit(out, &format!("{}\n", report.summary()))?;

    if args.profile {
        let trace_path =
            args.trace.clone().unwrap_or_else(|| results_dir().join("trace_dse.jsonl"));
        // Close the CLI-stage spans before exporting so the trace is
        // complete; the export itself is not part of the measured run.
        drop(_main_span);
        let registry = acs_telemetry::global();
        acs_telemetry::write_trace(registry, &trace_path)
            .map_err(|e| format!("cannot write trace {}: {e}", trace_path.display()))?;
        emit(out, &format!("trace written to {}\n\n", trace_path.display()))?;
        emit(out, &acs_telemetry::summary_table(registry))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(args)) => match run(&args, &mut std::io::stdout().lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => {
            usage();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}
