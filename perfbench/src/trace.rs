//! The traced run. It replays a workload's generated inputs in process,
//! first plainly and then with spans around the calls into each layer's
//! public functions, and turns spans and the program's own registry
//! counters into the per-layer metrics.
//!
//! For a serve request the traced pass times `handle_lane` on a private
//! `AppState`, then replays the same request through the layers it is
//! built from (JSON parse, plan, trace, serving simulation, lattice
//! pricing, what-if screening, JSON emit) on mirror state that has seen
//! the same request history. What `handle_lane` spends beyond those
//! layer spans is reported as unattributed.

use crate::gen::{Class, Request, SweepCall};
use crate::sweep::{self, Context, Output};
use crate::Metrics;
use acs_dse::{DseRunner, SweepSpec};
use acs_errors::json::{object, parse, Value};
use acs_hw::{DeviceConfig, SystemConfig, SystolicDims};
use acs_llm::{LengthDistribution, ModelConfig, RequestTrace, WorkloadConfig};
use acs_scenarios::ScenarioRegistry;
use acs_serve::handlers::{handle_lane, AppState};
use acs_serve::http::{self, HttpRequest, Parsed};
use acs_sim::{simulate_serving_cached, PlanStore, ServingConfig, Simulator, StepCostCache};
use acs_whatif::{WhatIfEngine, WhatIfRequest};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, with its unit. A workload that bypasses a
/// layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("serve.cpu_util", "cores"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.reactor.events_per_req", "count"),
    ("serve.http.parse_us", "us"),
    ("serve.http.encode_us", "us"),
    ("serve.server_us.screen", "us"),
    ("serve.server_us.simulate", "us"),
    ("serve.server_us.whatif", "us"),
    ("serve.server_us.devices", "us"),
    ("serve.handle_us.screen_device", "us"),
    ("serve.handle_us.screen_config", "us"),
    ("serve.handle_us.screen_grid", "us"),
    ("serve.handle_us.simulate", "us"),
    ("serve.handle_us.whatif", "us"),
    ("serve.handle_us.devices", "us"),
    ("serve.unattributed_us.screen_device", "us"),
    ("serve.unattributed_us.screen_config", "us"),
    ("serve.unattributed_us.screen_grid", "us"),
    ("serve.unattributed_us.simulate", "us"),
    ("serve.unattributed_us.whatif", "us"),
    ("serve.unattributed_us.devices", "us"),
    ("serve.raw.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("cache.screen.hit_ratio", "ratio"),
    ("cache.screen.insertions", "count"),
    ("cache.screen.evictions", "count"),
    ("cache.simulate.hit_ratio", "ratio"),
    ("cache.simulate.insertions", "count"),
    ("cache.simulate.evictions", "count"),
    ("cache.sim_steps.hit_ratio", "ratio"),
    ("cache.sim_steps.insertions", "count"),
    ("cache.sim_steps.evictions", "count"),
    ("cache.whatif.hit_ratio", "ratio"),
    ("cache.whatif.insertions", "count"),
    ("cache.whatif.evictions", "count"),
    ("json.parse_us_per_kb", "us/KiB"),
    ("json.emit_us_per_kb", "us/KiB"),
    ("sim.serving_ms", "ms"),
    ("sim.plan_us", "us"),
    ("llm.trace_us", "us"),
    ("sim.steps_per_request", "count"),
    ("sim.stepcache.hit_ratio", "ratio"),
    ("dse.lattice_us_per_point", "us"),
    ("dse.lattice.cell_hit_ratio", "ratio"),
    ("dse.lattice.fallback_points", "count"),
    ("dse.run_us_per_point", "us"),
    ("dse.factored.leg_hit_ratio", "ratio"),
    ("whatif.run_ms", "ms"),
    ("whatif.variants_per_s", "1/s"),
    ("whatif.prune.classify_skipped", "count"),
    ("core.optimize_ms", "ms"),
    ("core.baseline_ms", "ms"),
    ("serve.boot_ms", "ms"),
    ("serve.rss_growth_mb", "MiB"),
    ("client.cpu_util", "cores"),
    ("trace.overhead_pct", "%"),
    ("host.steal_pct", "%"),
];

/// Every per-layer metric at 0, for the caller to overwrite.
pub fn zero_layers() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.set(name, 0.0, unit);
    }
    m
}

/// Longest replay, in requests or calls, so the span file stays small.
const MAX_REPLAY: usize = 20_000;

/// Share of `--seconds` the plain pass may spend handling requests.
const REPLAY_SHARE: f64 = 0.25;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// In-memory span recorder; spans are written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
    }

    fn end(&mut self) {
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = end;
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }

    /// Count, total duration and self time (duration minus the time its
    /// children cover) of every span from index `from` on, by name.
    fn totals(&self, from: usize) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() - from];
        for s in &self.spans[from..] {
            if s.parent != NONE && s.parent as usize >= from {
                child_ns[s.parent as usize - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans[from..].iter().enumerate() {
            let entry = out.entry(s.name).or_default();
            let duration = s.end_ns - s.start_ns;
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(child_ns[i]);
        }
        out
    }
}

/// The registry counters the traced pass reads.
fn counters() -> BTreeMap<String, u64> {
    acs_telemetry::global()
        .counter_values()
        .into_iter()
        .collect()
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

fn model(name: &str) -> ModelConfig {
    match name {
        "GPT-3 13B" => ModelConfig::gpt3_13b(),
        "GPT-3 175B" => ModelConfig::gpt3_175b(),
        _ => ModelConfig::llama3_8b(),
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn u32_axis(v: &Value, key: &str) -> Vec<u32> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_u64)
        .map(|x| x as u32)
        .collect()
}

fn f64_axis(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// The device a generated `config` member describes, built as the
/// server builds it: the A100-like template with the members applied.
fn device(spec: &Value) -> Result<DeviceConfig, String> {
    let mut b = DeviceConfig::a100_like().to_builder();
    b.name(spec.get("name").and_then(Value::as_str).unwrap_or("bench"))
        .core_count(num(spec, "core_count") as u32)
        .lanes_per_core(num(spec, "lanes_per_core") as u32)
        .systolic(SystolicDims {
            x: num(spec, "systolic_dim") as u32,
            y: num(spec, "systolic_dim") as u32,
        })
        .l1_kib_per_core(num(spec, "l1_kib") as u32)
        .l2_mib(num(spec, "l2_mib") as u32)
        .hbm_bandwidth_tb_s(num(spec, "hbm_tb_s"))
        .device_bandwidth_gb_s(num(spec, "device_bw_gb_s"));
    b.build().map_err(|e| e.to_string())
}

/// The lower layers a request's handler is built from, holding the
/// same history as the `AppState` they mirror.
struct Mirror {
    /// POST bodies already answered: the handler serves a repeat from its
    /// response cache (every workload's distinct bodies fit in it), so a
    /// repeat replays only the layers a cache hit still runs.
    answered: HashSet<String>,
    plans: PlanStore,
    steps: StepCostCache,
    dense: DseRunner,
    scenarios: HashMap<String, DseRunner>,
    registry: ScenarioRegistry,
    engine: WhatIfEngine,
}

/// Per-request work the layers report.
#[derive(Default)]
struct Work {
    body_bytes: usize,
    emitted_bytes: usize,
    points: usize,
    variants: usize,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            answered: HashSet::new(),
            plans: PlanStore::new(64),
            steps: StepCostCache::new(4096),
            dense: DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default()),
            scenarios: HashMap::new(),
            registry: ScenarioRegistry::builtin(),
            engine: WhatIfEngine::paper_default(),
        }
    }

    fn runner(&mut self, scenario: Option<&str>) -> Result<&DseRunner, String> {
        let Some(name) = scenario else {
            return Ok(&self.dense);
        };
        if !self.scenarios.contains_key(name) {
            let runner = self.registry.get(name).map_err(|e| e.to_string())?.runner();
            self.scenarios.insert(name.to_owned(), runner);
        }
        Ok(&self.scenarios[name])
    }

    /// Replay `request` through its layers, each call inside a span.
    /// `response` is `handle_lane`'s answer, whose emission is re-timed
    /// for the classes whose documents are not rebuilt here.
    fn replay(
        &mut self,
        t: &mut Tracer,
        request: &Request,
        response: &str,
        work: &mut Work,
    ) -> Result<(), String> {
        let body = if request.method == "POST" {
            t.begin("json.parse");
            let parsed = parse(&request.body);
            t.end();
            work.body_bytes += request.body.len();
            parsed.map_err(|e| e.to_string())?
        } else {
            Value::Null
        };
        let hit = request.method == "POST" && !self.answered.insert(request.body.clone());
        match request.class {
            _ if hit && request.class != Class::Simulate => return Ok(()),
            Class::Simulate => {
                let config = device(body.get("config").ok_or("simulate without config")?)?;
                let model = model(body.get("model").and_then(Value::as_str).unwrap_or(""));
                let w = body.get("workload").ok_or("simulate without workload")?;
                let workload = WorkloadConfig::new(
                    num(w, "batch") as u64,
                    num(w, "input_len") as u64,
                    num(w, "output_len") as u64,
                );
                // The plan digests are part of the response-cache key, so
                // a cache hit plans too.
                t.begin("sim.plan");
                let plans =
                    self.plans
                        .get_or_build(&model, &workload, 4, config.datatype().bytes());
                t.end();
                plans.map_err(|e| e.to_string())?;
                if hit {
                    return Ok(());
                }
                let tr = body.get("trace").ok_or("simulate without trace")?;
                t.begin("llm.trace");
                let trace = RequestTrace::synthetic(
                    num(tr, "rate_rps"),
                    num(tr, "duration_s"),
                    LengthDistribution::chat_prompts(),
                    LengthDistribution::chat_outputs(),
                    num(tr, "seed") as u64,
                );
                t.end();
                let trace = trace.map_err(|e| e.to_string())?;
                let sim = Simulator::new(SystemConfig::new(config, 4).map_err(|e| e.to_string())?);
                let config = ServingConfig {
                    max_batch: num(&body, "max_batch") as usize,
                };
                t.begin("sim.serving");
                std::hint::black_box(simulate_serving_cached(
                    &sim,
                    &model,
                    &trace,
                    config,
                    &self.steps,
                ));
                t.end();
            }
            Class::ScreenGrid => {
                let g = body.get("grid").ok_or("grid request without grid")?;
                let spec = SweepSpec {
                    systolic_dims: u32_axis(g, "systolic_dims"),
                    lanes_per_core: u32_axis(g, "lanes_per_core"),
                    l1_kib: u32_axis(g, "l1_kib"),
                    l2_mib: u32_axis(g, "l2_mib"),
                    hbm_tb_s: f64_axis(g, "hbm_tb_s"),
                    device_bw_gb_s: f64_axis(g, "device_bw_gb_s"),
                };
                let runner = self.runner(g.get("scenario").and_then(Value::as_str))?;
                t.begin("dse.lattice");
                let report = runner.run_lattice(&spec, num(g, "tpp_target"));
                t.end();
                work.points += spec.cardinality();
                // Serialisation as the handler does it: every design and
                // failure to a JSON tree, then the tree to text.
                t.begin("json.emit");
                let designs = report
                    .designs
                    .iter()
                    .map(|(i, d)| {
                        d.to_json_value().map(|v| {
                            object(vec![("index", Value::Number(*i as f64)), ("design", v)])
                        })
                    })
                    .collect::<Result<Vec<_>, _>>();
                let failures = report
                    .failures
                    .iter()
                    .map(|f| {
                        object(vec![
                            ("index", Value::Number(f.index as f64)),
                            ("params", Value::String(f.params.clone())),
                            ("kind", Value::String(f.kind().to_owned())),
                            ("error", f.reason.to_json_value()),
                        ])
                    })
                    .collect();
                let text = designs.map(|d| {
                    object(vec![
                        ("designs", Value::Array(d)),
                        ("failures", Value::Array(failures)),
                    ])
                    .to_json()
                });
                t.end();
                work.emitted_bytes += text.map_err(|e| e.to_string())?.len();
            }
            Class::Whatif => {
                let scenario = body
                    .get("scenario")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                let mut rule = body.clone();
                if let Value::Object(members) = &mut rule {
                    members.retain(|(k, _)| k != "scenario");
                }
                let request = WhatIfRequest::from_json(&rule).map_err(|e| e.to_string())?;
                let fleet_spec = SweepSpec::synthetic_fleet();
                let runner = self.runner(scenario.as_deref())?;
                t.begin("dse.lattice");
                let report = runner.run_lattice(&fleet_spec, request.tpp_target);
                t.end();
                work.points += fleet_spec.cardinality();
                let fleet: Vec<_> = report.designs.into_iter().map(|(_, d)| d).collect();
                let mut emitted = 0;
                t.begin("whatif.run");
                let summary = self
                    .engine
                    .run_streaming(&request.grid, &fleet, |_, record| {
                        t.begin("json.emit");
                        emitted += record.to_json().len();
                        t.end();
                        Ok(())
                    });
                t.end();
                work.emitted_bytes += emitted;
                work.variants += summary.map_err(|e| e.to_string())?.variants;
            }
            Class::ScreenDevice | Class::ScreenConfig | Class::Devices => {}
        }
        if !matches!(request.class, Class::Whatif | Class::ScreenGrid) {
            let tree = parse(response).map_err(|e| e.to_string())?;
            t.begin("json.emit");
            work.emitted_bytes += tree.to_json().len();
            t.end();
        }
        Ok(())
    }
}

fn to_http(request: &Request) -> HttpRequest {
    HttpRequest {
        method: request.method.to_owned(),
        path: request.path.clone(),
        body: request.body.clone(),
    }
}

const HANDLE: [&str; 6] = [
    "handle.screen_device",
    "handle.screen_config",
    "handle.screen_grid",
    "handle.simulate",
    "handle.whatif",
    "handle.devices",
];

/// The per-layer metrics of a serve workload. Each replayed request is
/// handled twice, plainly on one `AppState` and traced on another, both
/// fed `prime` first and then the same requests in the same order, so
/// the tracing overhead compares like with like. Replay stops when the
/// plain handling time reaches its budget.
pub fn serve(
    prime: &[&Request],
    replay: &[&Request],
    seconds: f64,
    out: &Path,
    workload: &str,
    seed: u64,
) -> Result<(Metrics, Vec<String>), String> {
    let plain = AppState::new(4096);
    let state = AppState::new(4096);
    let mut mirror = Mirror::new();
    let mut t = Tracer::new();
    let mut scratch = Work::default();
    for r in prime {
        let request = to_http(r);
        handle_lane(&plain, &request, None);
        let (_, body) = handle_lane(&state, &request, None);
        mirror.replay(&mut Tracer::new(), r, &body, &mut scratch)?;
    }
    let registry = acs_telemetry::global();
    registry.reset();
    let budget_ns = (seconds * REPLAY_SHARE * 1e9) as u64;
    let mut plain_ns = 0u64;
    let mut n = 0;
    let mut work = Work::default();
    let mut handle_ns = [0u64; 6];
    let mut unattributed_ns = [0i64; 6];
    let mut class_count = [0u64; 6];
    let mut per_class: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); 6];
    let (mut parse_ns, mut encode_ns) = (0u64, 0u64);
    let mut handled_ns = 0u64;
    for (i, request) in replay.iter().take(MAX_REPLAY).enumerate() {
        if plain_ns >= budget_ns {
            break;
        }
        n += 1;
        let http_request = to_http(request);
        // Alternate which state answers first, so neither side always
        // runs with the other's data already in the processor caches.
        let plain_first = i % 2 == 0;
        let plain_call = |plain_ns: &mut u64| {
            let t0 = Instant::now();
            std::hint::black_box(handle_lane(&plain, &http_request, None));
            *plain_ns += t0.elapsed().as_nanos() as u64;
        };
        if plain_first {
            plain_call(&mut plain_ns);
        }

        let class = request.class.index();
        t.request = i as u32;
        let first = t.spans.len();
        t.begin("request");
        let p0 = t.now();
        std::hint::black_box(matches!(
            http::parse_request_bytes(&request.wire),
            Parsed::Complete { .. }
        ));
        parse_ns += t.now() - p0;
        t.begin(HANDLE[class]);
        registry.enable();
        let (status, body) = handle_lane(&state, &http_request, None);
        registry.disable();
        t.end();
        let e0 = t.now();
        std::hint::black_box(http::response_bytes(status, &body, true, &[]));
        encode_ns += t.now() - e0;
        if status != 200 {
            return Err(format!(
                "in-process replay answered {status} for {}",
                request.path
            ));
        }
        t.begin("layers");
        mirror.replay(&mut t, request, &body, &mut work)?;
        t.end();
        t.end();
        if !plain_first {
            plain_call(&mut plain_ns);
        }
        let handle = t.spans[first + 1].end_ns - t.spans[first + 1].start_ns;
        handled_ns += handle;
        let spans = t.totals(first);
        let layer_ns: u64 = spans
            .iter()
            .filter(|(k, _)| is_layer(k))
            .map(|(_, v)| v.2)
            .sum();
        for (name, (_, _, self_ns)) in &spans {
            *per_class[class].entry(name).or_default() += self_ns;
        }
        handle_ns[class] += handle;
        unattributed_ns[class] += handle as i64 - layer_ns as i64;
        class_count[class] += 1;
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    t.write(&out.join(format!("spans-{workload}-{seed}.jsonl")))?;

    let c = counters();
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let totals = t.totals(0);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |v| v.1 as f64 / 1e6);
    let mean_of = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |v| v.1 as f64 / v.0.max(1) as f64)
    };
    let mut m = Metrics::default();
    let count = n.max(1) as f64;
    m.set("serve.http.parse_us", parse_ns as f64 / 1e3 / count, "us");
    m.set("serve.http.encode_us", encode_ns as f64 / 1e3 / count, "us");
    for class in Class::ALL {
        let k = class.index();
        let per = class_count[k].max(1) as f64;
        m.set(
            &format!("serve.handle_us.{}", class.name()),
            handle_ns[k] as f64 / 1e3 / per,
            "us",
        );
        m.set(
            &format!("serve.unattributed_us.{}", class.name()),
            unattributed_ns[k] as f64 / 1e3 / per,
            "us",
        );
    }
    m.set(
        "json.parse_us_per_kb",
        total_ms("json.parse") * 1e3 / (work.body_bytes as f64 / 1024.0).max(1e-9),
        "us/KiB",
    );
    m.set(
        "json.emit_us_per_kb",
        total_ms("json.emit") * 1e3 / (work.emitted_bytes as f64 / 1024.0).max(1e-9),
        "us/KiB",
    );
    m.set("sim.serving_ms", mean_of("sim.serving") / 1e6, "ms");
    m.set("sim.plan_us", mean_of("sim.plan") / 1e3, "us");
    m.set("llm.trace_us", mean_of("llm.trace") / 1e3, "us");
    let simulates = class_count[Class::Simulate.index()] as f64;
    let steps = get("sim.serving.prefill_steps") + get("sim.serving.decode_steps");
    m.set(
        "sim.steps_per_request",
        if simulates > 0.0 {
            steps / simulates
        } else {
            0.0
        },
        "count",
    );
    m.set(
        "sim.stepcache.hit_ratio",
        ratio(get("sim.stepcache.hits"), get("sim.stepcache.misses")),
        "ratio",
    );
    m.set(
        "dse.lattice_us_per_point",
        total_ms("dse.lattice") * 1e3 / (work.points as f64).max(1.0),
        "us",
    );
    m.set(
        "dse.lattice.cell_hit_ratio",
        ratio(get("dse.lattice.cell_hit"), get("dse.lattice.cell_built")),
        "ratio",
    );
    m.set(
        "dse.lattice.fallback_points",
        get("dse.lattice.fallback_points"),
        "count",
    );
    m.set(
        "dse.factored.leg_hit_ratio",
        ratio(get("dse.factored.leg_hit"), get("dse.factored.leg_miss")),
        "ratio",
    );
    let whatif_run_ms = total_ms("whatif.run");
    m.set("whatif.run_ms", mean_of("whatif.run") / 1e6, "ms");
    m.set(
        "whatif.variants_per_s",
        if whatif_run_ms > 0.0 {
            work.variants as f64 / (whatif_run_ms / 1e3)
        } else {
            0.0
        },
        "1/s",
    );
    m.set(
        "whatif.prune.classify_skipped",
        get("whatif.prune.classify_skipped"),
        "count",
    );
    let traced_rate = n as f64 / (handled_ns as f64 / 1e9).max(1e-9);
    let plain_rate = n as f64 / (plain_ns as f64 / 1e9).max(1e-9);
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / plain_rate),
        "%",
    );

    let answers = serve_answers(
        &per_class,
        &handle_ns,
        &unattributed_ns,
        &class_count,
        n,
        &work,
    );
    Ok((m, answers))
}

/// Whether a span names a layer call (not the per-request scaffolding).
fn is_layer(name: &str) -> bool {
    !matches!(name, "request" | "layers") && !name.starts_with("handle.")
}

/// The traced run's answers: where a what-if, a simulate and a grid
/// spend their `handle_lane` time.
fn serve_answers(
    per_class: &[BTreeMap<&'static str, u64>],
    handle_ns: &[u64; 6],
    unattributed_ns: &[i64; 6],
    class_count: &[u64; 6],
    n: usize,
    work: &Work,
) -> Vec<String> {
    let mut out = vec![format!(
        "traced replay of {n} requests ({} grid points, {} what-if variants)",
        work.points, work.variants
    )];
    for class in [
        Class::Whatif,
        Class::Simulate,
        Class::ScreenGrid,
        Class::ScreenConfig,
    ] {
        let k = class.index();
        if class_count[k] == 0 {
            continue;
        }
        let per = class_count[k] as f64 * 1e3;
        let layers: Vec<String> = per_class[k]
            .iter()
            .filter(|(name, _)| is_layer(name))
            .map(|(name, ns)| format!("{name} {:.1} us", *ns as f64 / per))
            .collect();
        out.push(format!(
            "{}: handle_lane {:.1} us over {} requests = {}; unattributed {:.1} us",
            class.name(),
            handle_ns[k] as f64 / per,
            class_count[k],
            layers.join(", "),
            unattributed_ns[k] as f64 / per,
        ));
    }
    out
}

fn sweep_span(call: &SweepCall) -> &'static str {
    match call {
        SweepCall::Baseline(_) => "core.baseline",
        SweepCall::Oct2022(_) | SweepCall::Oct2023(..) => "core.optimize",
        SweepCall::Table5(_) | SweepCall::Grid { .. } => "dse.run",
        SweepCall::Screen(_) => "whatif.run",
    }
}

/// The per-layer metrics of the sweep: each call made twice, plainly
/// and traced, until the plain calls reach their time budget.
pub fn sweep(
    ctx: &Context,
    calls: &[&SweepCall],
    seconds: f64,
    out: &Path,
    seed: u64,
) -> Result<(Metrics, Vec<String>), String> {
    let calls = &calls[..calls.len().min(MAX_REPLAY)];
    let points: Vec<usize> = calls.iter().map(|c| sweep::call_points(c)).collect();
    let mut noop = |_: usize, record: &Value| {
        std::hint::black_box(record);
    };

    let registry = acs_telemetry::global();
    registry.reset();
    let budget = seconds * REPLAY_SHARE;
    let mut t = Tracer::new();
    let (mut plain_fleet, mut fleet) = (Vec::new(), Vec::new());
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut variants = 0usize;
    let mut n = 0;
    for (i, call) in calls.iter().enumerate() {
        if plain_s >= budget {
            break;
        }
        n += 1;
        let plain_first = i % 2 == 0;
        let mut plain_call = |plain_s: &mut f64| -> Result<(), String> {
            let mut sink = |_: usize, record: &Value| {
                std::hint::black_box(record);
            };
            let t0 = Instant::now();
            std::hint::black_box(sweep::execute(call, ctx, &mut plain_fleet, &mut sink)?);
            *plain_s += t0.elapsed().as_secs_f64();
            Ok(())
        };
        if plain_first {
            plain_call(&mut plain_s)?;
        }
        t.request = i as u32;
        let t0 = Instant::now();
        registry.enable();
        t.begin(sweep_span(call));
        let output = sweep::execute(call, ctx, &mut fleet, &mut noop);
        t.end();
        registry.disable();
        traced_s += t0.elapsed().as_secs_f64();
        if !plain_first {
            plain_call(&mut plain_s)?;
        }
        if let Output::Screened(summary) = output? {
            variants += summary.variants;
        }
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    t.write(&out.join(format!("spans-sweep-{seed}.jsonl")))?;

    let c = counters();
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let totals = t.totals(0);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |v| v.1 as f64 / 1e6);
    let count = |name: &str| totals.get(name).map_or(0, |v| v.0) as f64;
    let run_points: usize = calls
        .iter()
        .zip(&points)
        .take(n)
        .filter(|(c, _)| sweep_span(c) == "dse.run")
        .map(|(_, p)| p)
        .sum();
    let all_points: usize = points.iter().take(n).sum();
    let mut m = Metrics::default();
    m.set(
        "core.optimize_ms",
        total_ms("core.optimize") / count("core.optimize").max(1.0),
        "ms",
    );
    m.set(
        "core.baseline_ms",
        total_ms("core.baseline") / count("core.baseline").max(1.0),
        "ms",
    );
    m.set(
        "dse.run_us_per_point",
        total_ms("dse.run") * 1e3 / (run_points as f64).max(1.0),
        "us",
    );
    m.set(
        "dse.factored.leg_hit_ratio",
        ratio(get("dse.factored.leg_hit"), get("dse.factored.leg_miss")),
        "ratio",
    );
    m.set(
        "dse.lattice.cell_hit_ratio",
        ratio(get("dse.lattice.cell_hit"), get("dse.lattice.cell_built")),
        "ratio",
    );
    m.set(
        "dse.lattice.fallback_points",
        get("dse.lattice.fallback_points"),
        "count",
    );
    m.set(
        "whatif.run_ms",
        total_ms("whatif.run") / count("whatif.run").max(1.0),
        "ms",
    );
    m.set(
        "whatif.variants_per_s",
        variants as f64 / (total_ms("whatif.run") / 1e3).max(1e-9),
        "1/s",
    );
    m.set(
        "whatif.prune.classify_skipped",
        get("whatif.prune.classify_skipped"),
        "count",
    );
    let plain_rate = all_points as f64 / plain_s.max(1e-9);
    let traced_rate = all_points as f64 / traced_s.max(1e-9);
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / plain_rate),
        "%",
    );
    let per_call: Vec<String> = totals
        .iter()
        .map(|(name, (k, ns, _))| {
            format!(
                "{name} {k} calls {:.2} ms each",
                *ns as f64 / 1e6 / (*k).max(1) as f64
            )
        })
        .collect();
    let answers = vec![format!(
        "traced sweep of {n} calls, {all_points} points: {}",
        per_call.join(", ")
    )];
    Ok((m, answers))
}
