//! End-to-end telemetry coverage over the real DSE pipeline: span nesting
//! around the scoped-thread parallel evaluator, counter/histogram wiring,
//! and trace-structure determinism across identical runs.
//!
//! Everything here shares the process-global registry, so this file keeps
//! to a single `#[test]` (cargo would otherwise run sibling tests on
//! concurrent threads of this binary and interleave their events).

use acs_dse::{DseRunner, SweepSpec};
use acs_errors::json::{parse, Value};
use acs_llm::{ModelConfig, WorkloadConfig};

fn small_spec() -> SweepSpec {
    SweepSpec {
        systolic_dims: vec![16],
        lanes_per_core: vec![2, 4],
        l1_kib: vec![192, 1024],
        l2_mib: vec![40],
        hbm_tb_s: vec![2.0, 3.2],
        device_bw_gb_s: vec![600.0],
    }
}

fn runner() -> DseRunner {
    DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default())
}

/// Reduce a JSONL trace to its run-invariant structure: spans keep
/// `(id, parent, depth, name)`, instruments keep their names and exact
/// counts, and timing-derived fields (durations, sums, quantiles, bucket
/// contents of wall-time histograms) are dropped.
fn structure(trace: &str) -> Vec<String> {
    trace
        .lines()
        .map(|line| {
            let v = parse(line).expect("trace line parses");
            let kind = v.require_str("type").expect("type tag");
            match kind {
                "span" => format!(
                    "span id={} parent={} depth={} name={}",
                    v.require_u64("id").unwrap(),
                    v.require_u64("parent").unwrap(),
                    v.require_u64("depth").unwrap(),
                    v.require_str("name").unwrap(),
                ),
                "counter" | "gauge" => format!(
                    "{kind} name={} value={}",
                    v.require_str("name").unwrap(),
                    v.require_u64("value").unwrap(),
                ),
                "histogram" => format!(
                    "histogram name={} count={} rejected={}",
                    v.require_str("name").unwrap(),
                    v.require_u64("count").unwrap(),
                    v.require_u64("rejected").unwrap(),
                ),
                _ => line.to_owned(),
            }
        })
        .collect()
}

#[test]
fn profiled_sweep_nests_spans_and_replays_with_identical_structure() {
    let reg = acs_telemetry::global();
    reg.enable();
    let candidates = small_spec().candidates(4800.0);

    let run_once = |label: &str| -> String {
        reg.reset();
        {
            let _outer = acs_telemetry::span("test.sweep");
            let report = runner().run_report(&candidates);
            assert_eq!(report.total(), candidates.len(), "{label}: sweep covers every point");
            assert!(report.failures.is_empty(), "{label}: this spec has no failing points");
            // Opened *after* the scoped-thread evaluator returns: the
            // worker threads must not have disturbed this thread's span
            // stack, so this is still a child of `test.sweep`.
            let _post = acs_telemetry::span("test.post");
        }
        acs_telemetry::trace_jsonl(reg)
    };

    let first = run_once("first run");

    // --- span nesting and ordering around the parallel evaluator ---
    let events = reg.span_events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["test.post", "test.sweep"], "completion order: inner first");
    let sweep = events.iter().find(|e| e.name == "test.sweep").unwrap();
    let post = events.iter().find(|e| e.name == "test.post").unwrap();
    assert_eq!(sweep.parent, 0);
    assert_eq!(sweep.depth, 0);
    assert_eq!(post.parent, sweep.id, "post-evaluator span still nests under the outer span");
    assert_eq!(post.depth, 1);
    assert!(post.start_ns >= sweep.start_ns);
    assert!(post.dur_ns <= sweep.dur_ns, "child cannot outlast its parent");

    // --- the sweep's instrumentation fired ---
    let counters = reg.counter_values();
    let counter = |name: &str| {
        counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_default()
    };
    let n = candidates.len() as u64;
    assert_eq!(counter("dse.eval.ok"), n);
    assert_eq!(
        counter("dse.lattice.fast_points") + counter("dse.lattice.fallback_points"),
        n,
        "every point is priced once, by the broadcast or by demotion"
    );
    // `dse.eval.point_us` times design points only; the lattice prices
    // its points in chunks, and a chunk is not a point.
    let point_samples = |reg: &acs_telemetry::Registry| {
        reg.histogram_snapshots()
            .into_iter()
            .find(|(name, _)| name == "dse.eval.point_us")
            .map_or(0, |(_, h)| h.count)
    };
    assert_eq!(point_samples(reg), 0, "a lattice sweep records no chunk as a point");
    // Per-chunk layer tallies still count every combined layer, and
    // attribute modelled time as the per-point path does below.
    assert_eq!((counter("sim.layers.prefill"), counter("sim.layers.decode")), (n, n));
    const COST: [&str; 4] = [
        "sim.cost_ns.matmul",
        "sim.cost_ns.attention",
        "sim.cost_ns.vector",
        "sim.cost_ns.collective",
    ];
    let lattice_cost = COST.map(counter);

    // --- identical inputs replay with identical trace structure ---
    let second = run_once("second run");
    assert_eq!(
        structure(&first),
        structure(&second),
        "span IDs/ordering and instrument names must not vary across runs",
    );

    // --- checkpoint I/O spans nest under the caller's span ---
    reg.reset();
    let dir = std::env::temp_dir().join(format!("acs-telemetry-e2e-{}", std::process::id()));
    let path = dir.join("sweep.ckpt.jsonl");
    {
        let _outer = acs_telemetry::span("test.resume");
        runner().run_report_resumable(&candidates, &path).expect("checkpointed sweep");
    }
    let events = reg.span_events();
    let outer = events.iter().find(|e| e.name == "test.resume").unwrap();
    let load = events.iter().find(|e| e.name == "dse.checkpoint.load").unwrap();
    assert_eq!(load.parent, outer.id, "checkpoint load span nests under the caller");
    assert_eq!(load.depth, 1);
    let counters = reg.counter_values();
    let appended =
        counters.iter().find(|(n, _)| n == "dse.checkpoint.appended").map_or(0, |(_, v)| *v);
    assert_eq!(appended, n, "every point appends one checkpoint line");
    // The checkpointed sweep prices point by point: the histogram's count
    // doubles as the point count.
    assert_eq!(point_samples(reg), n, "one wall-time sample per evaluated point");
    let counter =
        |name: &str| counters.iter().find(|(c, _)| c == name).map(|(_, v)| *v).unwrap_or_default();
    assert_eq!((counter("sim.layers.prefill"), counter("sim.layers.decode")), (n, n));
    for (name, (lattice, per_point)) in COST.iter().zip(lattice_cost.iter().zip(COST.map(counter)))
    {
        // Each flush truncates to whole nanoseconds: per layer here, per
        // chunk on the lattice.
        assert!(lattice.abs_diff(per_point) <= 2 * n, "{name}: {lattice} vs {per_point}");
        assert!(per_point > 0, "{name} attributes modelled time");
    }

    // The trace export itself must be canonical JSON throughout.
    for line in acs_telemetry::trace_jsonl(reg).lines() {
        let v = parse(line).expect("line is valid JSON");
        assert!(matches!(v, Value::Object(_)));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // --- lattice memo economics are observable ---
    reg.reset();
    let lattice_runner = runner();
    let cold = lattice_runner.run_lattice(&small_spec(), 4800.0);
    assert_eq!(cold.total() as u64, n);
    assert!(cold.failures.is_empty());
    let leg = |name: &str| {
        reg.counter_values().iter().find(|(c, _)| c == name).map(|(_, v)| *v).unwrap_or_default()
    };
    assert_eq!(leg("dse.lattice.fallback_points"), 0, "every point takes the broadcast");
    // small_spec has 4 compute + 2 memory + 1 comm distinct signatures,
    // each with a leg per phase: every one must miss once while the memo
    // fills.
    let misses = leg("dse.factored.leg_miss");
    assert!(misses >= 14, "at least one miss per distinct leg key, got {misses}");
    let warm = lattice_runner.run_lattice(&small_spec(), 4800.0);
    assert_eq!(warm.designs, cold.designs);
    assert_eq!(leg("dse.factored.leg_miss"), misses, "a warm sweep prices no new leg");

    reg.disable();
}
