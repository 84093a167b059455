//! Request routing and endpoint logic.
//!
//! Every endpoint speaks JSON both ways. Failures use one envelope —
//! `{"error": <AcsError as JSON>, "message": <display form>}` — with the
//! HTTP status derived from the error taxonomy's stable `kind()` tag, so
//! clients can switch on `error.kind` without parsing prose.
//!
//! Each result has one memo. A byte-identical repeat of `POST
//! /v1/screen` or `POST /v1/simulate` is answered by its worker's raw
//! front cache before it reaches this module; everything else is
//! computed here from the persistent lower layers — the lattice runners'
//! leg tables and fused vectors, the plan store, the step-cost cache.
//! `POST /v1/whatif` streams its answer and is never raw-cached, so it
//! keeps a response cache of its own, keyed on a *normalised* form of
//! the request (defaults filled in, members in fixed order): two JSON
//! bodies that mean the same thing share one entry.

use crate::http::{percent_decode, HttpRequest};
use acs_cache::{CacheKey, CacheLane, CacheStats, ShardedCache};
use acs_devices::{DeviceRecord, GpuDatabase};
use acs_dse::{DseRunner, SweepSpec};
use acs_errors::json::{object, parse, Value};
use acs_errors::AcsError;
use acs_hw::DeviceConfig;
use acs_llm::{LengthDistribution, ModelConfig, RequestTrace, WorkloadConfig};
use acs_policy::{
    Acr2022, Acr2023, Classification, DeviceMetrics, HbmClassification, HbmPackage, HbmRule2024,
    MarketSegment,
};
use acs_scenarios::{Scenario, ScenarioRegistry};
use acs_sim::{simulate_serving_cached, PlanStore, ServingConfig, Simulator, StepCostCache};
use acs_telemetry::{Counter, Histogram, Registry};
use acs_whatif::{WhatIfEngine, WhatIfRequest, RuleGrid};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// The registered scenario that prices grids and what-if fleets whose
/// request names none: Llama 3 8B in fp16 on one 4-device tensor-parallel
/// node, exactly the model, workload and node the service answered with
/// before it had scenarios.
const DEFAULT_SCENARIO: &str = "dense-llama3-fp16-tp4";

/// Request-latency endpoint labels, indexing [`AppState::latency`] and
/// naming the `serve.latency_us.*` histograms.
const ENDPOINTS: [&str; 6] = ["screen", "simulate", "devices", "metrics", "whatif", "other"];

/// [`ENDPOINTS`] index of `/v1/whatif` (used by the streaming entry
/// point, which bypasses [`handle_lane`]'s routing).
const WHATIF_ENDPOINT: usize = 4;

/// Shared service state: the device database, the what-if response
/// cache, the lower-layer memos, and the service's own always-enabled
/// telemetry [`Registry`] — the single source of truth behind
/// `GET /v1/metrics` (request counters, per-endpoint latency
/// histograms, shed counts).
#[derive(Debug)]
pub struct AppState {
    db: GpuDatabase,
    step_cache: StepCostCache,
    whatif_cache: ShardedCache<String>,
    plan_store: PlanStore,
    // The named-scenario registry and one persistent runner per scenario
    // the service has priced under (keyed by scenario digest): the grid
    // and what-if fleet evaluators. Each runner's leg tables and the
    // fused lattice vectors built over them persist for the service's
    // lifetime, so every request prices only the legs no earlier request
    // under its scenario has priced. A moe-mixtral grid warms the MoE
    // legs without touching the dense default's tables, and a request
    // naming no scenario prices on `DEFAULT_SCENARIO`'s runner. Only
    // registered scenarios keep one.
    scenarios: ScenarioRegistry,
    scenario_runners: RwLock<HashMap<u64, Arc<DseRunner>>>,
    // The what-if screener: the curated portfolio, the reference HBM
    // stacks, and the externality economics, shared across requests.
    whatif: WhatIfEngine,
    telemetry: Arc<Registry>,
    screen_requests: Arc<Counter>,
    simulate_requests: Arc<Counter>,
    device_requests: Arc<Counter>,
    metrics_requests: Arc<Counter>,
    whatif_requests: Arc<Counter>,
    error_responses: Arc<Counter>,
    shed_responses: Arc<Counter>,
    shed_expensive: Arc<Counter>,
    raw_hits: Arc<Counter>,
    deadline_closed: Arc<Counter>,
    chaos_faults: Arc<Counter>,
    reactor_events: Arc<Counter>,
    latency: [Arc<Histogram>; 6],
    started: Instant,
}

impl AppState {
    /// State with the curated device database, the what-if response
    /// cache bounded to `cache_capacity` entries and the step-cost cache
    /// to at least 1024.
    #[must_use]
    pub fn new(cache_capacity: usize) -> Self {
        // The service registry is always on: /v1/metrics must report real
        // numbers whether or not the process was started with profiling.
        // (The *global* registry stays disabled unless profiling is
        // requested; sim-layer instrumentation hangs off that one.)
        let telemetry = Arc::new(Registry::new_enabled());
        let latency = ENDPOINTS
            .map(|endpoint| telemetry.histogram(&format!("serve.latency_us.{endpoint}")));
        AppState {
            db: GpuDatabase::curated_65(),
            step_cache: StepCostCache::new(cache_capacity.max(1024)),
            whatif_cache: ShardedCache::new(cache_capacity),
            // Plans are tiny (one operator graph pair per distinct
            // model/workload/node shape), so a small store suffices.
            plan_store: PlanStore::new(64),
            scenarios: ScenarioRegistry::builtin(),
            scenario_runners: RwLock::new(HashMap::new()),
            whatif: WhatIfEngine::paper_default(),
            screen_requests: telemetry.counter("serve.requests.screen"),
            simulate_requests: telemetry.counter("serve.requests.simulate"),
            device_requests: telemetry.counter("serve.requests.devices"),
            metrics_requests: telemetry.counter("serve.requests.metrics"),
            whatif_requests: telemetry.counter("serve.requests.whatif"),
            error_responses: telemetry.counter("serve.requests.errors"),
            shed_responses: telemetry.counter("serve.queue.shed"),
            shed_expensive: telemetry.counter("serve.queue.shed_expensive"),
            raw_hits: telemetry.counter("serve.cache.raw.hits"),
            deadline_closed: telemetry.counter("serve.conn.deadline_closed"),
            chaos_faults: telemetry.counter("serve.conn.chaos_faults"),
            reactor_events: telemetry.counter("serve.reactor.events"),
            latency,
            telemetry,
            started: Instant::now(),
        }
    }

    /// Counters of the service's caches, in `/v1/metrics` order
    /// (sim-steps, whatif).
    #[must_use]
    pub fn cache_stats(&self) -> [CacheStats; 2] {
        [self.step_cache.stats(), self.whatif_cache.stats()]
    }

    /// The service's telemetry registry (always enabled).
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The named-scenario registry requests resolve against.
    #[must_use]
    pub fn scenarios(&self) -> &ScenarioRegistry {
        &self.scenarios
    }

    /// The persistent runner for one registered scenario, created on
    /// first use and kept for the service's lifetime: its lattice leg
    /// tables are what turn repeated grids under the same scenario into
    /// table hits. An inline spec equal to a registered scenario shares
    /// its runner. Any other inline spec prices on a fresh runner that is
    /// dropped with its request: its digest covers a free-form name and
    /// workload integers, so clients could mint runners without limit.
    fn runner_for(&self, scenario: &Scenario) -> Arc<DseRunner> {
        if !self.scenarios.iter().any(|r| r == scenario) {
            return Arc::new(scenario.runner());
        }
        let digest = scenario.digest();
        if let Some(runner) = self
            .scenario_runners
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&digest)
        {
            return Arc::clone(runner);
        }
        let built = Arc::new(scenario.runner());
        let mut map = self.scenario_runners.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(digest).or_insert(built))
    }

    /// The runner of [`DEFAULT_SCENARIO`], for requests naming no
    /// scenario.
    fn default_runner(&self) -> Result<Arc<DseRunner>, AcsError> {
        Ok(self.runner_for(self.scenarios.get(DEFAULT_SCENARIO)?))
    }

    /// Count one priority shed: an expensive request (unique screen /
    /// simulate / what-if work) turned away with `Retry-After` while
    /// cheap cached traffic kept flowing. Also counted in the plain
    /// shed total `queue.shed`.
    pub fn record_shed_expensive(&self) {
        self.shed_responses.add(1);
        self.shed_expensive.add(1);
    }

    /// Count one raw front-cache hit: a byte-identical repeated request
    /// answered from a worker-private response buffer without reaching
    /// the handlers. The endpoint's request counter and latency
    /// histogram record it like any other request.
    pub fn record_raw_hit(&self, endpoint: usize, micros: f64) {
        match endpoint {
            0 => self.screen_requests.add(1),
            1 => self.simulate_requests.add(1),
            2 => self.device_requests.add(1),
            3 => self.metrics_requests.add(1),
            4 => self.whatif_requests.add(1),
            _ => {}
        }
        if let Some(h) = self.latency.get(endpoint) {
            h.record(micros);
        }
        self.raw_hits.add(1);
    }

    /// Total raw front-cache hits across all workers.
    #[must_use]
    pub fn raw_hit_count(&self) -> u64 {
        self.raw_hits.get()
    }

    /// Total priority (expensive-class) sheds.
    #[must_use]
    pub fn shed_expensive_count(&self) -> u64 {
        self.shed_expensive.get()
    }

    /// Count one connection closed because it exhausted its per-request
    /// read deadline (the slow-loris defence shedding a worker hog).
    pub fn record_deadline_close(&self) {
        self.deadline_closed.add(1);
    }

    /// Count `n` socket faults injected by the chaos shim (zero unless
    /// the server was started with a chaos seed).
    pub fn record_chaos(&self, n: u64) {
        self.chaos_faults.add(n);
    }

    /// Count `n` readiness events delivered by one reactor poll.
    pub fn record_reactor_events(&self, n: u64) {
        self.reactor_events.add(n);
    }

    /// Mirror the sharded caches' hit/miss/eviction counters into the
    /// telemetry registry (as gauges: the caches own the running totals,
    /// the registry reflects their latest values) so a trace export of the
    /// service registry carries the cache picture too.
    fn sync_cache_telemetry(&self) {
        let caches = [
            ("sim_steps", self.step_cache.stats(), self.step_cache.len()),
            ("whatif", self.whatif_cache.stats(), self.whatif_cache.len()),
        ];
        for (name, stats, len) in caches {
            self.telemetry.set_gauge(&format!("serve.cache.{name}.hits"), stats.hits);
            self.telemetry.set_gauge(&format!("serve.cache.{name}.misses"), stats.misses);
            self.telemetry.set_gauge(&format!("serve.cache.{name}.evictions"), stats.evictions);
            self.telemetry.set_gauge(&format!("serve.cache.{name}.entries"), len as u64);
        }
    }
}

/// Map an error's taxonomy tag to an HTTP status: client-side input
/// faults are 400s, lookup misses 404, physically impossible requests
/// 422, load shedding 503, and everything else (internal invariants)
/// 500.
#[must_use]
pub fn status_for(error: &AcsError) -> u16 {
    match error.kind() {
        "json" | "protocol" | "invalid_config" | "malformed_record" => 400,
        "unknown_device" => 404,
        "infeasible" => 422,
        "overloaded" => 503,
        _ => 500,
    }
}

/// The uniform error envelope.
#[must_use]
pub fn error_body(error: &AcsError) -> String {
    object(vec![
        ("error", error.to_json_value()),
        ("message", Value::String(error.to_string())),
    ])
    .to_json()
}

fn err(error: &AcsError) -> (u16, String) {
    (status_for(error), error_body(error))
}

/// [`ENDPOINTS`] index for a (already query-stripped) request path.
pub(crate) fn endpoint_index(path: &str) -> usize {
    match path {
        "/v1/screen" => 0,
        "/v1/simulate" => 1,
        p if p == "/v1/devices" || p.starts_with("/v1/devices/") => 2,
        "/v1/metrics" => 3,
        "/v1/whatif" => WHATIF_ENDPOINT,
        _ => 5,
    }
}

/// Route one request. Always returns a complete `(status, JSON body)`
/// pair; this function never panics on untrusted input.
///
/// `lane` pins every what-if response-cache access to the shards one
/// worker owns, so workers never contend on shard mutexes. `lane: None`
/// (the in-process callers: tests, the fuzzer, the oracles) uses the
/// whole-cache placement.
pub fn handle_lane(
    state: &AppState,
    request: &HttpRequest,
    lane: Option<CacheLane>,
) -> (u16, String) {
    let t0 = Instant::now();
    let path = request.path.split('?').next().unwrap_or("");
    let endpoint = endpoint_index(path);
    let outcome: Result<String, (u16, String)> = match (request.method.as_str(), path) {
        ("POST", "/v1/screen") => {
            state.screen_requests.add(1);
            screen(state, &request.body).map_err(|e| err(&e))
        }
        ("POST", "/v1/simulate") => {
            state.simulate_requests.add(1);
            simulate(state, &request.body).map_err(|e| err(&e))
        }
        ("POST", "/v1/whatif") => {
            state.whatif_requests.add(1);
            whatif(state, &request.body, lane).map_err(|e| err(&e))
        }
        ("GET", "/v1/devices") => {
            state.device_requests.add(1);
            Ok(list_devices(state))
        }
        ("GET", p) if p.starts_with("/v1/devices/") => {
            state.device_requests.add(1);
            device_detail(state, &percent_decode(&p["/v1/devices/".len()..]))
                .map_err(|e| err(&e))
        }
        ("GET", "/v1/metrics") => {
            state.metrics_requests.add(1);
            Ok(metrics(state))
        }
        (m, "/v1/screen" | "/v1/simulate" | "/v1/devices" | "/v1/metrics" | "/v1/whatif") => {
            let e = AcsError::Protocol { reason: format!("method {m} not allowed on {path}") };
            let (_, body) = err(&e);
            Err((405, body))
        }
        _ => {
            let e = AcsError::Protocol {
                reason: format!("no route for {} {path}", request.method),
            };
            let (_, body) = err(&e);
            Err((404, body))
        }
    };
    let (status, body) = match outcome {
        Ok(body) => (200, body),
        Err((status, body)) => (status, body),
    };
    if status >= 400 {
        state.error_responses.add(1);
    }
    state.latency[endpoint].record(t0.elapsed().as_secs_f64() * 1e6);
    (status, body)
}

fn classification_tag(c: Classification) -> &'static str {
    match c {
        Classification::NotApplicable => "not_applicable",
        Classification::NacEligible => "nac_eligible",
        Classification::LicenseRequired => "license_required",
    }
}

fn hbm_tag(c: HbmClassification) -> &'static str {
    match c {
        HbmClassification::NotControlled => "not_controlled",
        HbmClassification::ExceptionEligible => "exception_eligible",
        HbmClassification::Controlled => "controlled",
    }
}

fn market_tag(m: MarketSegment) -> &'static str {
    match m {
        MarketSegment::DataCenter => "data_center",
        MarketSegment::NonDataCenter => "non_data_center",
    }
}

fn parse_market(v: &Value) -> Result<MarketSegment, AcsError> {
    match v.get("market").and_then(Value::as_str) {
        None | Some("data_center") => Ok(MarketSegment::DataCenter),
        Some("non_data_center") => Ok(MarketSegment::NonDataCenter),
        Some(other) => Err(AcsError::Json {
            reason: format!("unknown market {other:?} (expected data_center or non_data_center)"),
        }),
    }
}

/// Build a [`DeviceConfig`] from a request's `config` object, starting
/// from the A100-like template and overriding any supplied field. The
/// accepted members mirror the DSE's swept parameters.
fn config_from_json(spec: &Value) -> Result<DeviceConfig, AcsError> {
    const KNOWN: [&str; 8] = [
        "name",
        "core_count",
        "lanes_per_core",
        "systolic_dim",
        "l1_kib",
        "l2_mib",
        "hbm_tb_s",
        "device_bw_gb_s",
    ];
    if let Value::Object(members) = spec {
        for (k, _) in members {
            if !KNOWN.contains(&k.as_str()) {
                return Err(AcsError::Json {
                    reason: format!("unknown config member {k:?} (expected one of {KNOWN:?})"),
                });
            }
        }
    } else {
        return Err(AcsError::Json { reason: "config must be an object".to_owned() });
    }
    let mut builder = DeviceConfig::a100_like().to_builder();
    if let Some(name) = spec.get("name").and_then(Value::as_str) {
        builder.name(name);
    }
    let u32_field = |key: &str| -> Result<Option<u32>, AcsError> {
        match spec.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(Some)
                .ok_or_else(|| AcsError::Json {
                    reason: format!("config member {key:?} must be a small non-negative integer"),
                }),
        }
    };
    if let Some(n) = u32_field("core_count")? {
        builder.core_count(n);
    }
    if let Some(n) = u32_field("lanes_per_core")? {
        builder.lanes_per_core(n);
    }
    if let Some(n) = u32_field("systolic_dim")? {
        builder.systolic(acs_hw::SystolicDims { x: n, y: n });
    }
    if let Some(n) = u32_field("l1_kib")? {
        builder.l1_kib_per_core(n);
    }
    if let Some(n) = u32_field("l2_mib")? {
        builder.l2_mib(n);
    }
    if let Some(v) = spec.get("hbm_tb_s") {
        let tb_s = v.as_f64().ok_or_else(|| AcsError::Json {
            reason: "config member \"hbm_tb_s\" must be a number".to_owned(),
        })?;
        builder.hbm_bandwidth_tb_s(tb_s);
    }
    if let Some(v) = spec.get("device_bw_gb_s") {
        let gb_s = v.as_f64().ok_or_else(|| AcsError::Json {
            reason: "config member \"device_bw_gb_s\" must be a number".to_owned(),
        })?;
        builder.device_bandwidth_gb_s(gb_s);
    }
    Ok(builder.build()?)
}

fn screening_value(
    metrics: &DeviceMetrics,
    hbm: Option<(&str, f64, f64)>, // (name, mem bandwidth GB/s, package area mm²)
) -> Value {
    let c2022 = Acr2022::published().classify(metrics);
    let c2023 = Acr2023::published().classify(metrics);
    let strictest = c2022.max(c2023);
    let dec_2024 = match hbm {
        Some((name, bw, area)) => Value::String(
            hbm_tag(HbmRule2024::published().classify(&HbmPackage::new(name, bw, area)))
                .to_owned(),
        ),
        // The HBM rule keys on *package* area, which device records and
        // accelerator configs do not carry; without it the density is
        // undefined, so the vintage is reported as unevaluated rather
        // than guessed.
        None => Value::String("not_evaluated".to_owned()),
    };
    object(vec![
        ("oct_2022", Value::String(classification_tag(c2022).to_owned())),
        ("oct_2023", Value::String(classification_tag(c2023).to_owned())),
        ("dec_2024_hbm", dec_2024),
        ("strictest_acr", Value::String(classification_tag(strictest).to_owned())),
        ("export_license_required", Value::Bool(strictest == Classification::LicenseRequired)),
    ])
}

fn metrics_value(m: &DeviceMetrics) -> Value {
    object(vec![
        ("tpp", Value::Number(m.tpp().0)),
        ("device_bw_gb_s", Value::Number(m.device_bw_gb_s())),
        ("die_area_mm2", Value::Number(m.die_area_mm2())),
        (
            "performance_density",
            m.performance_density().map_or(Value::Null, |p| Value::Number(p.0)),
        ),
        ("mem_gib", Value::Number(m.mem_capacity_gib())),
        ("mem_bw_gb_s", Value::Number(m.mem_bw_gb_s())),
        ("market", Value::String(market_tag(m.market()).to_owned())),
    ])
}

/// Ceiling on `/v1/screen` grid cardinality: large enough for the
/// paper's Table 3 sweeps (up to 1536 points), small enough that a
/// single request cannot pin a worker for minutes.
const MAX_GRID_POINTS: usize = 4_096;

/// Parse a `grid` request member into a sweep spec, its TPP target, and
/// the scenario axis (empty when absent: the historical dense default).
fn parse_grid(
    registry: &ScenarioRegistry,
    spec: &Value,
) -> Result<(SweepSpec, f64, Vec<Scenario>), AcsError> {
    const KNOWN: [&str; 8] = [
        "systolic_dims",
        "lanes_per_core",
        "l1_kib",
        "l2_mib",
        "hbm_tb_s",
        "device_bw_gb_s",
        "tpp_target",
        "scenario",
    ];
    if let Value::Object(members) = spec {
        for (k, _) in members {
            if !KNOWN.contains(&k.as_str()) {
                return Err(AcsError::Json {
                    reason: format!("unknown grid member {k:?} (expected one of {KNOWN:?})"),
                });
            }
        }
    } else {
        return Err(AcsError::Json { reason: "grid must be an object".to_owned() });
    }
    let axis = |key: &str| -> Result<&[Value], AcsError> {
        spec.get(key).and_then(Value::as_array).filter(|a| !a.is_empty()).ok_or_else(|| {
            AcsError::Json { reason: format!("grid member {key:?} must be a non-empty array") }
        })
    };
    let u32_axis = |key: &str| -> Result<Vec<u32>, AcsError> {
        axis(key)?
            .iter()
            .map(|v| {
                v.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or_else(|| AcsError::Json {
                    reason: format!("grid member {key:?} must hold small non-negative integers"),
                })
            })
            .collect()
    };
    let f64_axis = |key: &str| -> Result<Vec<f64>, AcsError> {
        axis(key)?
            .iter()
            .map(|v| {
                v.as_f64().filter(|x| x.is_finite()).ok_or_else(|| AcsError::Json {
                    reason: format!("grid member {key:?} must hold finite numbers"),
                })
            })
            .collect()
    };
    let sweep = SweepSpec {
        systolic_dims: u32_axis("systolic_dims")?,
        lanes_per_core: u32_axis("lanes_per_core")?,
        l1_kib: u32_axis("l1_kib")?,
        l2_mib: u32_axis("l2_mib")?,
        hbm_tb_s: f64_axis("hbm_tb_s")?,
        device_bw_gb_s: f64_axis("device_bw_gb_s")?,
    };
    let tpp_target = spec
        .get("tpp_target")
        .and_then(Value::as_f64)
        .filter(|t| t.is_finite() && *t > 0.0)
        .ok_or_else(|| AcsError::Json {
            reason: "grid member \"tpp_target\" must be a positive number".to_owned(),
        })?;
    // The scenario axis: one registered name, one inline spec object, or
    // an array mixing both. Every entry validates at parse time, so a
    // hostile spec (unknown name, expert bomb, zero-stage pipeline) is a
    // typed 400 before any hardware point is priced.
    let scenarios = match spec.get("scenario") {
        None => Vec::new(),
        Some(Value::Array(entries)) => {
            if entries.is_empty() {
                return Err(AcsError::Json {
                    reason: "grid member \"scenario\" must not be an empty array".to_owned(),
                });
            }
            entries.iter().map(|v| registry.resolve(v)).collect::<Result<Vec<_>, _>>()?
        }
        Some(v) => vec![registry.resolve(v)?],
    };
    let points = sweep.cardinality() * scenarios.len().max(1);
    if points > MAX_GRID_POINTS {
        return Err(AcsError::invalid_config(
            "grid",
            format!("{points} points exceed the {MAX_GRID_POINTS}-point request ceiling"),
        ));
    }
    Ok((sweep, tpp_target, scenarios))
}

/// Serialise one sweep report as `(designs, failures)` member arrays.
fn report_values(report: &acs_dse::SweepReport) -> Result<(Vec<Value>, Vec<Value>), AcsError> {
    let mut designs = Vec::with_capacity(report.designs.len());
    for (index, d) in &report.designs {
        designs.push(object(vec![
            ("index", Value::Number(*index as f64)),
            ("design", d.to_json_value()?),
        ]));
    }
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
    Ok((designs, failures))
}

/// `POST /v1/screen` with a `grid` member: evaluate a DSE lattice with
/// the lattice engine and return every design plus the failure
/// ledger. A `scenario` member evaluates the same hardware lattice once
/// per scenario (model x dtype x parallelism), grouping the results per
/// scenario; without one the [`DEFAULT_SCENARIO`] runner answers in the
/// pre-scenario response shape. Every grid reuses each cost leg and
/// fused vector any earlier grid priced under the same scenario, because
/// each runner's lattice tables persist in the [`AppState`].
fn screen_grid(state: &AppState, spec: &Value) -> Result<String, AcsError> {
    let (sweep, tpp_target, scenarios) = parse_grid(&state.scenarios, spec)?;
    if scenarios.is_empty() {
        let report = state.default_runner()?.run_lattice(&sweep, tpp_target);
        let (designs, failures) = report_values(&report)?;
        return Ok(object(vec![
            (
                "grid",
                object(vec![
                    ("points", Value::Number(sweep.cardinality() as f64)),
                    ("tpp_target", Value::Number(tpp_target)),
                    ("evaluated", Value::Number(report.designs.len() as f64)),
                    ("failed", Value::Number(report.failures.len() as f64)),
                ]),
            ),
            ("designs", Value::Array(designs)),
            ("failures", Value::Array(failures)),
        ])
        .to_json());
    }
    let mut groups = Vec::with_capacity(scenarios.len());
    let (mut evaluated, mut failed) = (0usize, 0usize);
    for scenario in &scenarios {
        let report = state.runner_for(scenario).run_lattice(&sweep, tpp_target);
        evaluated += report.designs.len();
        failed += report.failures.len();
        let (designs, failures) = report_values(&report)?;
        groups.push(object(vec![
            ("scenario", Value::String(scenario.name().to_owned())),
            ("model", Value::String(scenario.model().name().to_owned())),
            ("dtype", Value::String(scenario.dtype().to_string())),
            ("parallelism", Value::String(scenario.parallelism().to_string())),
            ("devices", Value::Number(scenario.parallelism().devices() as f64)),
            ("evaluated", Value::Number(designs.len() as f64)),
            ("failed", Value::Number(failures.len() as f64)),
            ("designs", Value::Array(designs)),
            ("failures", Value::Array(failures)),
        ]));
    }
    Ok(object(vec![
        (
            "grid",
            object(vec![
                ("points", Value::Number((sweep.cardinality() * scenarios.len()) as f64)),
                ("tpp_target", Value::Number(tpp_target)),
                ("evaluated", Value::Number(evaluated as f64)),
                ("failed", Value::Number(failed as f64)),
                ("scenario_count", Value::Number(scenarios.len() as f64)),
            ]),
        ),
        ("scenarios", Value::Array(groups)),
    ])
    .to_json())
}

/// `POST /v1/screen` — classify a device (by database name) or a custom
/// accelerator config under each ACR vintage, or evaluate a `grid` of
/// swept configurations with the lattice DSE engine.
fn screen(state: &AppState, body: &str) -> Result<String, AcsError> {
    let request = parse(body)?;
    if let Some(grid) = request.get("grid") {
        if request.get("device").is_some() || request.get("config").is_some() {
            return Err(AcsError::Json {
                reason: "supply \"grid\" alone, without \"device\" or \"config\"".to_owned(),
            });
        }
        return screen_grid(state, grid);
    }
    let hbm_area = match request.get("hbm_package_area_mm2") {
        None => None,
        Some(v) => Some(v.as_f64().filter(|a| *a > 0.0).ok_or_else(|| AcsError::Json {
            reason: "\"hbm_package_area_mm2\" must be a positive number".to_owned(),
        })?),
    };

    // Resolve to (display name, policy metrics, HBM bandwidth).
    let (name, metrics, mem_bw) = match (request.get("device"), request.get("config")) {
        (Some(_), Some(_)) => {
            return Err(AcsError::Json {
                reason: "supply either \"device\" or \"config\", not both".to_owned(),
            })
        }
        (Some(d), None) => {
            let query = d.as_str().ok_or_else(|| AcsError::Json {
                reason: "\"device\" must be a string".to_owned(),
            })?;
            let record = state.db.get(query)?;
            let metrics = record.to_metrics();
            (record.name.to_string(), metrics, record.mem_bw_gb_s)
        }
        (None, Some(spec)) => {
            let config = config_from_json(spec)?;
            let market = parse_market(&request)?;
            let metrics = DeviceMetrics::from_config_with_model(&config, market);
            (config.name().to_owned(), metrics, config.hbm().bandwidth_gb_s)
        }
        (None, None) => {
            return Err(AcsError::Json {
                reason: "request must name a \"device\" or supply a \"config\"".to_owned(),
            })
        }
    };

    let hbm = hbm_area.map(|area| (name.as_str(), mem_bw, area));
    Ok(object(vec![
        ("device", Value::String(name.clone())),
        ("metrics", metrics_value(&metrics)),
        ("screening", screening_value(&metrics, hbm)),
    ])
    .to_json())
}

/// Normalised canonical form of a rule grid for cache keys: every axis
/// filled in (the parser defaults missing axes to their published
/// values), so `{"rule":{...}}` and the equivalent one-point
/// `{"grid":{...}}` share one cache entry.
fn whatif_fingerprint(grid: &RuleGrid) -> Value {
    let axis = |xs: &[f64]| Value::Array(xs.iter().copied().map(Value::Number).collect());
    object(vec![
        ("tpp_threshold_2022", axis(&grid.tpp_threshold_2022)),
        ("device_bw_threshold_2022", axis(&grid.device_bw_threshold_2022)),
        ("tpp_license", axis(&grid.tpp_license)),
        ("tpp_floor", axis(&grid.tpp_floor)),
        ("tpp_nac", axis(&grid.tpp_nac)),
        ("pd_license", axis(&grid.pd_license)),
        ("pd_nac_high", axis(&grid.pd_nac_high)),
        ("pd_nac_low", axis(&grid.pd_nac_low)),
        ("mem_bw_license", axis(&grid.mem_bw_license)),
        ("hbm_control_density", axis(&grid.hbm_control_density)),
        ("hbm_exception_density", axis(&grid.hbm_exception_density)),
    ])
}

/// Compute — or replay from the response cache — the `/v1/whatif` line
/// stream: one canonical-JSON record per rule variant in grid order,
/// then one summary trailer line. On a cache miss each line reaches
/// `sink` the moment the engine completes it; on a hit the cached lines
/// replay through the same sink. An engine error may arrive after some
/// lines have reached the sink.
fn whatif_lines<F>(
    state: &AppState,
    body: &str,
    lane: Option<CacheLane>,
    mut sink: F,
) -> Result<(), AcsError>
where
    F: FnMut(&str),
{
    // An optional `scenario` member (name or inline spec) swaps the
    // workload the synthetic fleet is priced under — e.g. an MoE model
    // over an expert-parallel node — before the rule grid screens it.
    // The member is peeled off here: the what-if engine's own parser
    // stays scenario-agnostic.
    let mut parsed = parse(body)?;
    let scenario_member = match &mut parsed {
        Value::Object(members) => members
            .iter()
            .position(|(k, _)| k == "scenario")
            .map(|i| members.remove(i).1),
        _ => None,
    };
    let scenario = match &scenario_member {
        Some(v) => Some(state.scenarios.resolve(v)?),
        None => None,
    };
    let request = WhatIfRequest::from_json(&parsed)?;
    let mut key_members = vec![
        ("v", Value::String("whatif-v1".to_owned())),
        ("grid", whatif_fingerprint(&request.grid)),
        ("tpp", Value::Number(request.tpp_target)),
    ];
    if let Some(s) = &scenario {
        key_members.push(("scenario", Value::String(s.canonical())));
    }
    let key = CacheKey::from_value(&object(key_members));
    let (text, hit) = state.whatif_cache.get_or_try_insert_in(&key, lane, || {
        // The fleet prices through a persistent lattice runner — the
        // scenario's when one was named, the default scenario's
        // otherwise — so its cost legs and fused vectors persist across
        // requests: the first what-if pays for the fleet's legs, and
        // every later one (any grid, same target and scenario)
        // re-assembles the designs from them, then re-screens the fleet
        // at classification cost.
        let runner = match &scenario {
            Some(s) => state.runner_for(s),
            None => state.default_runner()?,
        };
        let report = runner.run_lattice(&SweepSpec::synthetic_fleet(), request.tpp_target);
        let fleet_failures = report.failures.len();
        let fleet: Vec<_> = report.designs.into_iter().map(|(_, design)| design).collect();
        let mut lines = Vec::with_capacity(request.grid.cardinality() + 1);
        let summary = state.whatif.run_streaming(&request.grid, &fleet, |_, record| {
            let line = record.to_json();
            sink(&line);
            lines.push(line);
            Ok(())
        })?;
        let mut trailer_members = vec![
            ("variants", Value::Number(summary.variants as f64)),
            ("devices", Value::Number(summary.devices as f64)),
            ("fleet_designs", Value::Number(summary.fleet_designs as f64)),
            ("fleet_failures", Value::Number(fleet_failures as f64)),
            ("tpp_target", Value::Number(request.tpp_target)),
        ];
        if let Some(s) = &scenario {
            trailer_members.push(("scenario", Value::String(s.name().to_owned())));
        }
        let trailer = object(trailer_members).to_json();
        sink(&trailer);
        lines.push(trailer);
        Ok::<_, AcsError>(lines.join("\n"))
    })?;
    if hit {
        text.lines().for_each(sink);
    }
    Ok(())
}

/// `POST /v1/whatif` — screen a rule regime (or a whole grid of them)
/// against the curated device DB and the priced synthetic design fleet.
/// This is the buffered form [`handle_lane`] routes to: the whole
/// stream collected into one JSON document
/// (`{"summary":..,"records":[..]}`). The connection layer streams the
/// same lines as chunks instead ([`handle_whatif_streaming_lane`]).
fn whatif(state: &AppState, body: &str, lane: Option<CacheLane>) -> Result<String, AcsError> {
    let mut lines: Vec<String> = Vec::new();
    whatif_lines(state, body, lane, |line| lines.push(line.to_owned()))?;
    let summary = lines.pop().ok_or_else(|| AcsError::Protocol {
        reason: "what-if stream produced no trailer".to_owned(),
    })?;
    // Every line is already canonical JSON; splice them textually rather
    // than re-parsing a potentially large record set.
    let body_len: usize = lines.iter().map(|l| l.len() + 1).sum();
    let mut doc = String::with_capacity(body_len + summary.len() + 32);
    doc.push_str("{\"summary\":");
    doc.push_str(&summary);
    doc.push_str(",\"records\":[");
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(line);
    }
    doc.push_str("]}");
    Ok(doc)
}

/// The streaming form of `POST /v1/whatif`, called by the connection
/// layer instead of [`handle_lane`]: appends a `Transfer-Encoding:
/// chunked` response to `out`, one chunk per record line and the summary
/// trailer line as the final chunk.
///
/// # Errors
///
/// On a failed request `out` is truncated back to where this response
/// began and the ordinary framed error `(status, body)` is returned for
/// the caller to answer with.
pub fn handle_whatif_streaming_lane(
    state: &AppState,
    request: &HttpRequest,
    out: &mut Vec<u8>,
    keep_alive: bool,
    lane: Option<CacheLane>,
) -> Result<(), (u16, String)> {
    let t0 = Instant::now();
    state.whatif_requests.add(1);
    let start = out.len();
    let mut writer = crate::http::ChunkedWriter::new(out, keep_alive);
    let result = match whatif_lines(state, &request.body, lane, |line| writer.write_line(line)) {
        Ok(()) => {
            writer.finish();
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            state.error_responses.add(1);
            Err(err(&e))
        }
    };
    state.latency[WHATIF_ENDPOINT].record(t0.elapsed().as_secs_f64() * 1e6);
    result
}

/// Resolve a model name through [`ModelConfig::by_name`]'s spelling
/// rules; an unknown name is a typed 404.
fn resolve_model(name: &str) -> Result<ModelConfig, AcsError> {
    ModelConfig::by_name(name)
        .ok_or_else(|| AcsError::UnknownDevice { query: format!("model {name}") })
}

/// Service-side ceilings for `/v1/simulate`. The simulator itself only
/// checks that trace parameters are positive and finite, so without these
/// a single request body could ask a worker to materialise an arbitrarily
/// large synthetic trace. Generous for real use, fatal for abuse.
const MAX_RATE_RPS: f64 = 10_000.0;
const MAX_DURATION_S: f64 = 3_600.0;
const MAX_TRACE_REQUESTS: f64 = 1_000_000.0;
const MAX_DEVICE_COUNT: u32 = 4_096;
const MAX_MAX_BATCH: usize = 4_096;

struct SimulateRequest {
    config: DeviceConfig,
    model: ModelConfig,
    workload: WorkloadConfig,
    device_count: u32,
    rate_rps: f64,
    duration_s: f64,
    seed: u64,
    max_batch: usize,
}

fn parse_simulate(body: &str) -> Result<SimulateRequest, AcsError> {
    let request = parse(body)?;
    let config = match request.get("config") {
        Some(spec) => config_from_json(spec)?,
        None => DeviceConfig::a100_like(),
    };
    let model = resolve_model(request.get("model").and_then(Value::as_str).unwrap_or("Llama 3 8B"))?;

    let workload = match request.get("workload") {
        None => WorkloadConfig::paper_default(),
        Some(w) => {
            let batch = w.get("batch").map_or(Ok(32), |v| {
                v.as_u64().ok_or_else(|| AcsError::Json {
                    reason: "workload \"batch\" must be a non-negative integer".to_owned(),
                })
            })?;
            let input_len = w.get("input_len").map_or(Ok(2048), |v| {
                v.as_u64().ok_or_else(|| AcsError::Json {
                    reason: "workload \"input_len\" must be a non-negative integer".to_owned(),
                })
            })?;
            let output_len = w.get("output_len").map_or(Ok(1024), |v| {
                v.as_u64().ok_or_else(|| AcsError::Json {
                    reason: "workload \"output_len\" must be a non-negative integer".to_owned(),
                })
            })?;
            // WorkloadConfig::new asserts these invariants; validate here
            // so a bad request is a 400, not a worker panic.
            if batch == 0 || input_len == 0 {
                return Err(AcsError::InvalidConfig {
                    field: "workload".to_owned(),
                    reason: "batch and input_len must be positive".to_owned(),
                });
            }
            WorkloadConfig::new(batch, input_len, output_len)
        }
    };

    let device_count = match request.get("device_count") {
        None => 4,
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|n| (1..=MAX_DEVICE_COUNT).contains(n))
            .ok_or_else(|| AcsError::InvalidConfig {
                field: "device_count".to_owned(),
                reason: format!("must be a positive integer at most {MAX_DEVICE_COUNT}"),
            })?,
    };
    let trace = request.get("trace");
    let number = |key: &str, default: f64| -> Result<f64, AcsError> {
        match trace.and_then(|t| t.get(key)) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or_else(|| AcsError::Json {
                reason: format!("trace member {key:?} must be a number"),
            }),
        }
    };
    let rate_rps = number("rate_rps", 2.0)?;
    let duration_s = number("duration_s", 10.0)?;
    let bounded = |field: &str, value: f64, max: f64| -> Result<(), AcsError> {
        if value.is_finite() && value > 0.0 && value <= max {
            Ok(())
        } else {
            Err(AcsError::InvalidConfig {
                field: format!("trace.{field}"),
                reason: format!("must be a positive number at most {max}"),
            })
        }
    };
    bounded("rate_rps", rate_rps, MAX_RATE_RPS)?;
    bounded("duration_s", duration_s, MAX_DURATION_S)?;
    // Individually legal values can still multiply to an absurd trace.
    if rate_rps * duration_s > MAX_TRACE_REQUESTS {
        return Err(AcsError::InvalidConfig {
            field: "trace".to_owned(),
            reason: format!(
                "rate_rps * duration_s implies {:.0} requests, more than the {MAX_TRACE_REQUESTS:.0}-request limit",
                rate_rps * duration_s
            ),
        });
    }
    let seed = match trace.and_then(|t| t.get("seed")) {
        None => 7,
        Some(v) => v.as_u64().ok_or_else(|| AcsError::Json {
            reason: "trace member \"seed\" must be a non-negative integer".to_owned(),
        })?,
    };
    let max_batch = match request.get("max_batch") {
        None => 32,
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|n| (1..=MAX_MAX_BATCH).contains(n))
            .ok_or_else(|| AcsError::InvalidConfig {
                field: "max_batch".to_owned(),
                reason: format!("must be a positive integer at most {MAX_MAX_BATCH}"),
            })?,
    };
    Ok(SimulateRequest { config, model, workload, device_count, rate_rps, duration_s, seed, max_batch })
}

/// `POST /v1/simulate` — per-phase latency plus serving-level percentiles
/// for one accelerator configuration.
fn simulate(state: &AppState, body: &str) -> Result<String, AcsError> {
    let req = parse_simulate(body)?;
    // The plan store shares one plan pair per model, workload and node
    // shape; the step-cost cache shares priced scheduler steps.
    let plans = state.plan_store.get_or_build(
        &req.model,
        &req.workload,
        req.device_count,
        req.config.datatype().bytes(),
    )?;
    let system = acs_hw::SystemConfig::new(req.config.clone(), req.device_count)?;
    let sim = Simulator::new(system);
    let ttft_s = sim.try_ttft_planned(&plans.prefill)?;
    let tbt_s = sim.try_tbt_planned(&plans.decode)?;
    let trace = RequestTrace::synthetic(
        req.rate_rps,
        req.duration_s,
        LengthDistribution::chat_prompts(),
        LengthDistribution::chat_outputs(),
        req.seed,
    )?;
    let serving = simulate_serving_cached(
        &sim,
        &req.model,
        &trace,
        ServingConfig { max_batch: req.max_batch },
        &state.step_cache,
    );
    let u = |x: u64| Value::Number(x as f64);
    Ok(object(vec![
        ("device", Value::String(req.config.name().to_owned())),
        ("model", Value::String(req.model.name().to_owned())),
        (
            "per_layer",
            object(vec![("ttft_s", Value::Number(ttft_s)), ("tbt_s", Value::Number(tbt_s))]),
        ),
        (
            "serving",
            object(vec![
                ("requests", u(trace.len() as u64)),
                ("completed", u(serving.completed as u64)),
                ("mean_ttft_s", Value::Number(serving.mean_ttft_s)),
                ("p50_ttft_s", Value::Number(serving.p50_ttft_s)),
                ("p99_ttft_s", Value::Number(serving.p99_ttft_s)),
                ("mean_tbt_s", Value::Number(serving.mean_tbt_s)),
                ("throughput_tokens_per_s", Value::Number(serving.throughput_tokens_per_s)),
                ("makespan_s", Value::Number(serving.makespan_s)),
            ]),
        ),
    ])
    .to_json())
}

/// `GET /v1/devices` — names in the curated database.
fn list_devices(state: &AppState) -> String {
    let names: Vec<Value> =
        state.db.iter().map(|r| Value::String(r.name.to_string())).collect();
    object(vec![
        ("count", Value::Number(names.len() as f64)),
        ("devices", Value::Array(names)),
    ])
    .to_json()
}

fn record_value(record: &DeviceRecord) -> Value {
    object(vec![
        ("name", Value::String(record.name.to_string())),
        ("vendor", Value::String(record.vendor.to_string())),
        ("year", Value::Number(f64::from(record.year))),
        ("market", Value::String(market_tag(record.market).to_owned())),
        ("tpp", Value::Number(record.tpp)),
        ("device_bw_gb_s", Value::Number(record.device_bw_gb_s)),
        ("die_area_mm2", Value::Number(record.die_area_mm2)),
        ("mem_gib", Value::Number(record.mem_gib)),
        ("mem_bw_gb_s", Value::Number(record.mem_bw_gb_s)),
        (
            "performance_density",
            record.performance_density().map_or(Value::Null, Value::Number),
        ),
    ])
}

/// `GET /v1/devices/{name}` — record plus its screening under each
/// vintage (case-insensitive substring lookup, 404 on no match).
fn device_detail(state: &AppState, name: &str) -> Result<String, AcsError> {
    let record = state.db.get(name)?;
    let metrics = record.to_metrics();
    Ok(object(vec![
        ("device", record_value(record)),
        ("screening", screening_value(&metrics, None)),
    ])
    .to_json())
}

fn stats_value(stats: CacheStats, len: usize) -> Value {
    let u = |x: u64| Value::Number(x as f64);
    object(vec![
        ("hits", u(stats.hits)),
        ("misses", u(stats.misses)),
        ("insertions", u(stats.insertions)),
        ("evictions", u(stats.evictions)),
        ("hit_rate", Value::Number(stats.hit_rate())),
        ("entries", Value::Number(len as f64)),
    ])
}

/// `GET /v1/metrics` — request counters, per-endpoint latency quantiles,
/// shed counts, and cache statistics, all read from the state's telemetry
/// registry (the single source of truth) and emitted through the
/// canonical-JSON codec.
fn metrics(state: &AppState) -> String {
    state.sync_cache_telemetry();
    let u = |c: &Counter| Value::Number(c.get() as f64);
    let latency = ENDPOINTS
        .iter()
        .zip(&state.latency)
        .map(|(endpoint, histogram)| {
            let s = histogram.snapshot();
            (
                *endpoint,
                object(vec![
                    ("count", Value::Number(s.count as f64)),
                    ("mean_us", Value::Number(s.mean())),
                    ("p50_us", Value::Number(s.p50())),
                    ("p90_us", Value::Number(s.p90())),
                    ("p99_us", Value::Number(s.p99())),
                ]),
            )
        })
        .collect();
    object(vec![
        ("uptime_s", Value::Number(state.started.elapsed().as_secs_f64())),
        (
            "requests",
            object(vec![
                ("screen", u(&state.screen_requests)),
                ("simulate", u(&state.simulate_requests)),
                ("devices", u(&state.device_requests)),
                ("metrics", u(&state.metrics_requests)),
                ("whatif", u(&state.whatif_requests)),
                ("errors", u(&state.error_responses)),
            ]),
        ),
        ("latency_us", object(latency)),
        (
            "queue",
            object(vec![
                ("shed", u(&state.shed_responses)),
                ("shed_expensive", u(&state.shed_expensive)),
            ]),
        ),
        (
            "connections",
            object(vec![
                ("deadline_closed", u(&state.deadline_closed)),
                ("chaos_faults", u(&state.chaos_faults)),
            ]),
        ),
        ("reactor", object(vec![("events", u(&state.reactor_events))])),
        (
            "caches",
            object(vec![
                ("sim_steps", stats_value(state.step_cache.stats(), state.step_cache.len())),
                ("whatif", stats_value(state.whatif_cache.stats(), state.whatif_cache.len())),
                // The workers' private raw response buffers: the only
                // memo of /v1/screen and /v1/simulate answers, where
                // byte-identical repeats short-circuit before any handler.
                ("raw", object(vec![("hits", u(&state.raw_hits))])),
            ]),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(state: &AppState, path: &str, body: &str) -> (u16, Value) {
        let (status, body) = handle_lane(
            state,
            &HttpRequest { method: "POST".into(), path: path.into(), body: body.into() },
            None,
        );
        (status, parse(&body).expect("response must be valid JSON"))
    }

    fn get(state: &AppState, path: &str) -> (u16, Value) {
        let (status, body) = handle_lane(
            state,
            &HttpRequest { method: "GET".into(), path: path.into(), body: String::new() },
            None,
        );
        (status, parse(&body).expect("response must be valid JSON"))
    }

    #[test]
    fn screening_a_database_device_matches_the_policy_engine() {
        let state = AppState::new(64);
        let (status, body) = post(&state, "/v1/screen", "{\"device\":\"H100 SXM\"}");
        assert_eq!(status, 200);
        let s = body.get("screening").unwrap();
        assert_eq!(s.get("oct_2022").unwrap().as_str(), Some("license_required"));
        assert_eq!(s.get("strictest_acr").unwrap().as_str(), Some("license_required"));
        assert_eq!(s.get("dec_2024_hbm").unwrap().as_str(), Some("not_evaluated"));
        assert_eq!(s.get("export_license_required").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn screening_a_compliant_config_is_unregulated_in_2022() {
        let state = AppState::new(64);
        // The paper's §4 asymmetry: TPP-capped but bandwidth-rich.
        let body = "{\"config\":{\"core_count\":96,\"hbm_tb_s\":3.2,\"device_bw_gb_s\":599.0}}";
        let (status, response) = post(&state, "/v1/screen", body);
        assert_eq!(status, 200);
        let s = response.get("screening").unwrap();
        assert_eq!(s.get("oct_2022").unwrap().as_str(), Some("not_applicable"));
    }

    #[test]
    fn screen_responses_are_cached_across_repeats() {
        let state = AppState::new(64);
        let body = "{\"device\":\"A100 80GB\"}";
        let (s1, r1) = post(&state, "/v1/screen", body);
        let (s2, r2) = post(&state, "/v1/screen", body);
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn grid_screens_run_the_lattice_sweep_and_cache() {
        let state = AppState::new(64);
        let body = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                    \"l1_kib\":[192,1024],\"l2_mib\":[40],\"hbm_tb_s\":[2.0,3.2],\
                    \"device_bw_gb_s\":[600.0],\"tpp_target\":4800}}";
        let (status, r1) = post(&state, "/v1/screen", body);
        assert_eq!(status, 200, "{}", r1.to_json());
        let grid = r1.get("grid").unwrap();
        assert_eq!(grid.get("points").unwrap().as_u64(), Some(4));
        assert_eq!(grid.get("evaluated").unwrap().as_u64(), Some(4));
        assert_eq!(grid.get("failed").unwrap().as_u64(), Some(0));
        let designs = r1.get("designs").unwrap().as_array().unwrap();
        assert_eq!(designs.len(), 4);
        // The response prices through the lattice engine; comparing
        // against the library's per-point evaluator doubles as a
        // service-level bit-equivalence check between the two engines.
        let spec = SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![4],
            l1_kib: vec![192, 1024],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0, 3.2],
            device_bw_gb_s: vec![600.0],
        };
        let reference = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default())
            .run_report(&spec.candidates(4800.0));
        for (entry, (index, design)) in designs.iter().zip(&reference.designs) {
            assert_eq!(entry.get("index").unwrap().as_u64(), Some(*index as u64));
            let d = entry.get("design").unwrap();
            assert_eq!(d.get("name").unwrap().as_str(), Some(design.name.as_str()));
            assert_eq!(d.get("ttft_s").unwrap().as_f64(), Some(design.ttft_s));
            assert_eq!(d.get("tbt_s").unwrap().as_f64(), Some(design.tbt_s));
        }
        // A repeat re-assembles every point from the warm lattice tables
        // and must answer the same bytes.
        let (_, r2) = post(&state, "/v1/screen", body);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn scenario_grids_group_designs_per_scenario() {
        let state = AppState::new(64);
        let body = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                    \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[2.0,3.2],\
                    \"device_bw_gb_s\":[600.0],\"tpp_target\":4800,\
                    \"scenario\":[\"dense-llama3-fp16-tp4\",\"moe-mixtral-fp16-tp4-ep4\"]}}";
        let (status, r1) = post(&state, "/v1/screen", body);
        assert_eq!(status, 200, "{}", r1.to_json());
        let grid = r1.get("grid").unwrap();
        assert_eq!(grid.get("points").unwrap().as_u64(), Some(4));
        assert_eq!(grid.get("scenario_count").unwrap().as_u64(), Some(2));
        assert_eq!(grid.get("failed").unwrap().as_u64(), Some(0));
        let groups = r1.get("scenarios").unwrap().as_array().unwrap();
        assert_eq!(groups.len(), 2);
        let dense = &groups[0];
        assert_eq!(dense.get("scenario").unwrap().as_str(), Some("dense-llama3-fp16-tp4"));
        assert_eq!(dense.get("devices").unwrap().as_u64(), Some(4));
        let moe = &groups[1];
        assert_eq!(moe.get("scenario").unwrap().as_str(), Some("moe-mixtral-fp16-tp4-ep4"));
        assert_eq!(moe.get("model").unwrap().as_str(), Some("Mixtral 8x7B"));
        assert_eq!(moe.get("parallelism").unwrap().as_str(), Some("tp4/ep4/pp1"));
        assert_eq!(moe.get("evaluated").unwrap().as_u64(), Some(2));
        // The dense scenario reproduces the scenario-less default runner
        // bit for bit (same model, workload, dtype, node).
        let plain = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                     \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[2.0,3.2],\
                     \"device_bw_gb_s\":[600.0],\"tpp_target\":4800}}";
        let (_, r_plain) = post(&state, "/v1/screen", plain);
        let dense_designs = dense.get("designs").unwrap();
        assert_eq!(dense_designs.to_json(), r_plain.get("designs").unwrap().to_json());
        // The MoE lowering prices more communication than the dense one
        // at the same silicon: its designs must differ.
        let ttft = |entry: &Value| {
            entry.get("design").unwrap().get("ttft_s").unwrap().as_f64().unwrap()
        };
        let moe_designs = moe.get("designs").unwrap().as_array().unwrap();
        let dense_designs = dense_designs.as_array().unwrap();
        assert!(ttft(&moe_designs[0]) != ttft(&dense_designs[0]));
        // Repeats answer the same bytes.
        let (_, r2) = post(&state, "/v1/screen", body);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn scenario_grid_rejections_are_typed_400s() {
        let state = AppState::new(64);
        let grid_with = |scenario: &str| {
            format!(
                "{{\"grid\":{{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                 \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[2.0],\
                 \"device_bw_gb_s\":[600.0],\"tpp_target\":4800,\
                 \"scenario\":{scenario}}}}}"
            )
        };
        let cases = [
            ("\"dense-gpt5\"", "invalid_config"),          // unknown name
            ("[]", "json"),                                  // empty axis
            ("7", "json"),                                   // wrong type
            ("{\"model\":\"llama3_8b\",\"experts\":400}", "invalid_config"), // expert bomb
            ("{\"model\":\"mixtral_8x7b\",\"pipeline_stages\":0}", "invalid_config"),
            ("{\"model\":\"mixtral_8x7b\",\"expert\":3}", "invalid_config"), // 8 % 3 != 0
        ];
        for (scenario, kind) in cases {
            let (status, response) = post(&state, "/v1/screen", &grid_with(scenario));
            assert_eq!(status, 400, "scenario {scenario:?} -> {}", response.to_json());
            assert_eq!(
                response.get("error").unwrap().get("kind").unwrap().as_str(),
                Some(kind),
                "scenario {scenario:?}"
            );
        }
        // The scenario axis multiplies into the point ceiling: 2048
        // hardware points x 3 scenarios > 4096.
        let body = format!(
            "{{\"grid\":{{\"systolic_dims\":[16],\"lanes_per_core\":[1,2,4,8],\
             \"l1_kib\":[64,128,192,256,512,1024,2048,4096],\
             \"l2_mib\":[8,16,32,40,48,64,80,96],\"hbm_tb_s\":[1.0,2.0,3.0,4.0],\
             \"device_bw_gb_s\":[500.0,600.0],\"tpp_target\":4800,\
             \"scenario\":[\"dense-llama3-fp16-tp4\",\"dense-gpt3-fp16-tp4\",\
             \"moe-mixtral-fp16-tp4-ep4\"]}}}}"
        );
        let (status, response) = post(&state, "/v1/screen", &body);
        assert_eq!(status, 400, "{}", response.to_json());
        assert_eq!(
            response.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("invalid_config")
        );
        // Rejected by the parser's point ceiling, before any scenario
        // runner was built or any point priced.
        assert!(response.to_json().contains("request ceiling"), "{}", response.to_json());
        assert!(state.scenario_runners.read().unwrap().is_empty(), "rejected before evaluation");
    }

    #[test]
    fn inline_scenario_specs_keep_no_runner_and_answer_like_a_fresh_state() {
        let state = AppState::new(64);
        let screen = |state: &AppState, scenario: &str| {
            let body = format!(
                "{{\"grid\":{{\"systolic_dims\":[16],\"lanes_per_core\":[4],\"l1_kib\":[192],\
                 \"l2_mib\":[40],\"hbm_tb_s\":[2.0],\"device_bw_gb_s\":[600.0],\
                 \"tpp_target\":4800,\"scenario\":{scenario}}}}}"
            );
            let request = HttpRequest { method: "POST".into(), path: "/v1/screen".into(), body };
            handle_lane(state, &request, None)
        };
        // Specs that differ only in their free-form name digest apart.
        let inline = |i: usize| format!("{{\"name\":\"inline-{i}\",\"model\":\"llama3_8b\"}}");
        for i in 0..40 {
            let (status, answer) = screen(&state, &inline(i));
            assert_eq!(status, 200, "{answer}");
            assert_eq!(answer, screen(&AppState::new(64), &inline(i)).1, "spec {i}");
        }
        assert!(state.scenario_runners.read().unwrap().is_empty(), "no inline spec kept a runner");
        // A repeated spec still answers the same; a registered scenario
        // keeps its runner.
        assert_eq!(screen(&state, &inline(0)), screen(&AppState::new(64), &inline(0)));
        assert_eq!(screen(&state, "\"dense-gpt3-fp16-tp4\"").0, 200);
        assert_eq!(state.scenario_runners.read().unwrap().len(), 1);
    }

    #[test]
    fn requests_naming_no_scenario_share_the_default_scenarios_runner() {
        let state = AppState::new(64);
        let grid = |scenario: &str| {
            format!(
                "{{\"grid\":{{\"systolic_dims\":[16],\"lanes_per_core\":[2,4],\"l1_kib\":[192],\
                 \"l2_mib\":[40],\"hbm_tb_s\":[2.0,3.2],\"device_bw_gb_s\":[600.0],\
                 \"tpp_target\":4800{scenario}}}}}"
            )
        };
        let (status, plain) = post(&state, "/v1/screen", &grid(""));
        assert_eq!(status, 200, "{}", plain.to_json());
        let (status, named) =
            post(&state, "/v1/screen", &grid(",\"scenario\":\"dense-llama3-fp16-tp4\""));
        assert_eq!(status, 200, "{}", named.to_json());
        assert_eq!(state.scenario_runners.read().unwrap().len(), 1, "one runner serves both");
        assert!(plain.get("scenarios").is_none(), "the scenario-less shape is unchanged");
        let named_group = &named.get("scenarios").unwrap().as_array().unwrap()[0];
        assert_eq!(
            plain.get("designs").unwrap().to_json(),
            named_group.get("designs").unwrap().to_json()
        );
        let (status, _) = post(&state, "/v1/whatif", "{\"rule\":{\"tpp_license\":2400}}");
        assert_eq!(status, 200);
        assert_eq!(state.scenario_runners.read().unwrap().len(), 1, "what-if shares it too");
    }

    #[test]
    fn grid_faults_surface_in_the_failure_ledger() {
        let state = AppState::new(64);
        // Zero HBM bandwidth is invalid per point, not fatal to the grid.
        let body = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                    \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[0.0,2.0],\
                    \"device_bw_gb_s\":[600.0],\"tpp_target\":4800}}";
        let (status, r) = post(&state, "/v1/screen", body);
        assert_eq!(status, 200, "{}", r.to_json());
        assert_eq!(r.get("grid").unwrap().get("evaluated").unwrap().as_u64(), Some(1));
        assert_eq!(r.get("grid").unwrap().get("failed").unwrap().as_u64(), Some(1));
        let failure = &r.get("failures").unwrap().as_array().unwrap()[0];
        assert_eq!(failure.get("kind").unwrap().as_str(), Some("invalid_config"));
    }

    #[test]
    fn malformed_grids_are_typed_400s() {
        let state = AppState::new(64);
        let cases = [
            // grid alongside a device/config subject
            ("{\"grid\":{},\"device\":\"H100 SXM\"}", "json"),
            // unknown member
            ("{\"grid\":{\"warp_counts\":[3]}}", "json"),
            // empty axis
            ("{\"grid\":{\"systolic_dims\":[],\"lanes_per_core\":[4],\"l1_kib\":[192],\
              \"l2_mib\":[40],\"hbm_tb_s\":[2.0],\"device_bw_gb_s\":[600.0],\
              \"tpp_target\":4800}}", "json"),
            // missing tpp_target
            ("{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\"l1_kib\":[192],\
              \"l2_mib\":[40],\"hbm_tb_s\":[2.0],\"device_bw_gb_s\":[600.0]}}", "json"),
        ];
        for (body, kind) in cases {
            let (status, response) = post(&state, "/v1/screen", body);
            assert_eq!(status, 400, "body {body:?}");
            assert_eq!(
                response.get("error").unwrap().get("kind").unwrap().as_str(),
                Some(kind),
                "body {body:?}"
            );
        }
    }

    #[test]
    fn oversized_grids_are_rejected_before_evaluation() {
        let state = AppState::new(64);
        // 16 × 8 × 8 × 8 = 8192 points > the 4096 ceiling.
        let body = format!(
            "{{\"grid\":{{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
             \"l1_kib\":{l1},\"l2_mib\":{l2},\"hbm_tb_s\":{hbm},\
             \"device_bw_gb_s\":{bw},\"tpp_target\":4800}}}}",
            l1 = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]",
            l2 = "[1,2,3,4,5,6,7,8]",
            hbm = "[1,2,3,4,5,6,7,8]",
            bw = "[1,2,3,4,5,6,7,8]",
        );
        let (status, response) = post(&state, "/v1/screen", &body);
        assert_eq!(status, 400, "{}", response.to_json());
        assert_eq!(
            response.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("invalid_config")
        );
        // The parser's point ceiling rejected it, before evaluation.
        assert!(response.to_json().contains("request ceiling"), "{}", response.to_json());
    }

    #[test]
    fn hbm_package_screening_applies_the_2024_rule() {
        let state = AppState::new(64);
        // H100 SXM: 3350 GB/s over an 814 mm² die-sized package would be
        // > 3.3 GB/s/mm² — controlled outright.
        let (status, body) =
            post(&state, "/v1/screen", "{\"device\":\"H100 SXM\",\"hbm_package_area_mm2\":814}");
        assert_eq!(status, 200);
        let s = body.get("screening").unwrap();
        assert_eq!(s.get("dec_2024_hbm").unwrap().as_str(), Some("controlled"));
    }

    #[test]
    fn unknown_devices_are_typed_404s() {
        let state = AppState::new(64);
        let (status, body) = post(&state, "/v1/screen", "{\"device\":\"TPU v9\"}");
        assert_eq!(status, 404);
        assert_eq!(
            body.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("unknown_device")
        );
    }

    #[test]
    fn malformed_bodies_are_typed_400s() {
        let state = AppState::new(64);
        for body in ["not json", "{}", "{\"device\":7}", "{\"config\":{\"warp_count\":3}}"] {
            let (status, response) = post(&state, "/v1/screen", body);
            assert_eq!(status, 400, "body {body:?}");
            assert_eq!(
                response.get("error").unwrap().get("kind").unwrap().as_str(),
                Some("json"),
                "body {body:?}"
            );
        }
    }

    #[test]
    fn simulate_returns_latency_and_percentiles_and_caches_repeats() {
        let state = AppState::new(64);
        let body = "{\"model\":\"llama3-8b\",\"trace\":{\"rate_rps\":2,\"duration_s\":5}}";
        let (status, r1) = post(&state, "/v1/simulate", body);
        assert_eq!(status, 200);
        let serving = r1.get("serving").unwrap();
        let p50 = serving.get("p50_ttft_s").unwrap().as_f64().unwrap();
        let p99 = serving.get("p99_ttft_s").unwrap().as_f64().unwrap();
        assert!(p50 > 0.0 && p50 <= p99);
        assert!(r1.get("per_layer").unwrap().get("ttft_s").unwrap().as_f64().unwrap() > 0.0);
        let (_, r2) = post(&state, "/v1/simulate", body);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn zero_batch_workloads_are_rejected_not_panicked() {
        let state = AppState::new(64);
        let (status, body) =
            post(&state, "/v1/simulate", "{\"workload\":{\"batch\":0,\"input_len\":128}}");
        assert_eq!(status, 400);
        assert_eq!(
            body.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("invalid_config")
        );
    }

    #[test]
    fn oversized_traces_are_rejected_not_materialised() {
        let state = AppState::new(64);
        for body in [
            "{\"trace\":{\"rate_rps\":1e6,\"duration_s\":1e9}}",
            "{\"trace\":{\"rate_rps\":-1}}",
            "{\"trace\":{\"duration_s\":1e9}}",
            // Individually within bounds, product over the request limit.
            "{\"trace\":{\"rate_rps\":10000,\"duration_s\":3600}}",
            "{\"device_count\":100000}",
            "{\"max_batch\":100000}",
        ] {
            let (status, response) = post(&state, "/v1/simulate", body);
            assert_eq!(status, 400, "body {body:?} -> {}", response.to_json());
            assert_eq!(
                response.get("error").unwrap().get("kind").unwrap().as_str(),
                Some("invalid_config"),
                "body {body:?}"
            );
        }
    }

    #[test]
    fn simulate_distinguishes_configs_in_the_cache() {
        let state = AppState::new(64);
        let slow = "{\"config\":{\"hbm_tb_s\":2.0},\"trace\":{\"duration_s\":5}}";
        let fast = "{\"config\":{\"hbm_tb_s\":3.2},\"trace\":{\"duration_s\":5}}";
        let (_, r_slow) = post(&state, "/v1/simulate", slow);
        let (_, r_fast) = post(&state, "/v1/simulate", fast);
        let tbt = |r: &Value| {
            r.get("per_layer").unwrap().get("tbt_s").unwrap().as_f64().unwrap()
        };
        assert!(tbt(&r_fast) < tbt(&r_slow), "more bandwidth must decode faster");
    }

    #[test]
    fn device_listing_and_detail_round_trip() {
        let state = AppState::new(64);
        let (status, listing) = get(&state, "/v1/devices");
        assert_eq!(status, 200);
        let count = listing.get("count").unwrap().as_u64().unwrap();
        assert_eq!(count, 65);
        let (status, detail) = get(&state, "/v1/devices/A800%2080GB");
        assert_eq!(status, 200);
        let device = detail.get("device").unwrap();
        assert_eq!(device.get("name").unwrap().as_str(), Some("A800 80GB"));
        // The A800 is the bandwidth-downgraded export SKU: under 600 GB/s
        // interconnect, over none of the 2023 density clauses' exemptions.
        let screening = detail.get("screening").unwrap();
        assert_eq!(screening.get("oct_2022").unwrap().as_str(), Some("not_applicable"));
        let (status, _) = get(&state, "/v1/devices/NoSuchCard");
        assert_eq!(status, 404);
    }

    #[test]
    fn metrics_report_request_counts_and_cache_stats() {
        let state = AppState::new(64);
        post(&state, "/v1/screen", "{\"device\":\"A100 40GB\"}");
        post(&state, "/v1/screen", "{\"device\":\"A100 40GB\"}");
        let (status, m) = get(&state, "/v1/metrics");
        assert_eq!(status, 200);
        let requests = m.get("requests").unwrap();
        assert_eq!(requests.get("screen").unwrap().as_u64(), Some(2));
        // Screens have no response cache of their own: the raw front
        // cache is their memo, and in-process calls never reach it.
        let caches = m.get("caches").unwrap();
        let Value::Object(members) = caches else { panic!("caches must be an object") };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["sim_steps", "whatif", "raw"]);
        assert_eq!(caches.get("raw").unwrap().get("hits").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn metrics_body_parses_and_reports_latency_and_queue_from_the_registry() {
        let state = AppState::new(64);
        post(&state, "/v1/screen", "{\"device\":\"A100 40GB\"}");
        get(&state, "/v1/devices");
        let (status, raw) = handle_lane(
            &state,
            &HttpRequest { method: "GET".into(), path: "/v1/metrics".into(), body: String::new() },
            None,
        );
        assert_eq!(status, 200);
        // The body must round-trip through the canonical-JSON codec.
        let m = parse(&raw).expect("metrics body must be valid canonical JSON");
        let latency = m.get("latency_us").expect("latency_us section");
        for endpoint in ENDPOINTS {
            let section = latency.get(endpoint).expect("every endpoint has a latency entry");
            assert!(section.get("p50_us").unwrap().as_f64().is_some());
            assert!(section.get("p99_us").unwrap().as_f64().is_some());
        }
        let screen = latency.get("screen").unwrap();
        assert_eq!(screen.get("count").unwrap().as_u64(), Some(1));
        assert!(screen.get("p50_us").unwrap().as_f64().unwrap() > 0.0);
        let queue = m.get("queue").expect("queue section");
        assert_eq!(queue.get("shed").unwrap().as_u64(), Some(0));
        // The request counters and the registry are the same numbers: one
        // source of truth.
        assert_eq!(
            m.get("requests").unwrap().get("screen").unwrap().as_u64(),
            Some(state.telemetry().counter("serve.requests.screen").get()),
        );
        // Mirrored cache gauges landed in the registry.
        let gauges = state.telemetry().gauge_values();
        assert!(gauges.iter().any(|(n, v)| n == "serve.cache.whatif.misses" && *v == 0));
    }

    #[test]
    fn unroutable_paths_and_methods_get_protocol_errors() {
        let state = AppState::new(64);
        let (status, body) = get(&state, "/v2/nothing");
        assert_eq!(status, 404);
        assert_eq!(body.get("error").unwrap().get("kind").unwrap().as_str(), Some("protocol"));
        let (status, _) = get(&state, "/v1/screen");
        assert_eq!(status, 405);
    }

    #[test]
    fn whatif_baseline_screens_db_and_fleet() {
        let state = AppState::new(64);
        let (status, body) = post(&state, "/v1/whatif", "{}");
        assert_eq!(status, 200, "{}", body.to_json());
        let summary = body.get("summary").unwrap();
        assert_eq!(summary.get("variants").unwrap().as_u64(), Some(1));
        assert_eq!(summary.get("devices").unwrap().as_u64(), Some(65));
        assert_eq!(summary.get("fleet_designs").unwrap().as_u64(), Some(4096));
        assert_eq!(summary.get("fleet_failures").unwrap().as_u64(), Some(0));
        let records = body.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 1);
        // The baseline flips nothing against itself, and the fleet block
        // carries real distributions.
        let devices = records[0].get("devices").unwrap();
        assert!(devices.get("newly_restricted").unwrap().as_array().unwrap().is_empty());
        let fleet = records[0].get("fleet").unwrap();
        assert_eq!(fleet.get("total").unwrap().as_u64(), Some(4096));
    }

    #[test]
    fn whatif_grids_stream_in_order_and_cache_repeats() {
        let state = AppState::new(64);
        let body = "{\"grid\":{\"tpp_license\":[2400,4800],\"mem_bw_license\":[0,800]}}";
        let (status, r1) = post(&state, "/v1/whatif", body);
        assert_eq!(status, 200, "{}", r1.to_json());
        let records = r1.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 4);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.get("variant").unwrap().as_u64(), Some(i as u64));
        }
        // The mem-bw axis actually varies the regime: the 800 GB/s
        // variants restrict devices the baseline leaves alone.
        let flips = |i: usize| {
            records[i]
                .get("devices")
                .unwrap()
                .get("newly_restricted")
                .unwrap()
                .as_array()
                .unwrap()
                .len()
        };
        // Last axis fastest: variant 2 is (tpp_license 4800, mem-bw off)
        // — the published baseline — and variant 3 adds the 800 GB/s
        // memory-BW rule to it.
        assert_eq!(flips(2), 0, "published regime at its own thresholds flips nothing");
        assert!(flips(3) > 0, "an 800 GB/s memory-BW rule must catch new devices");
        assert!(flips(0) > 0, "a 2400-TPP licence line must catch new devices");
        // Repeats are response-cache hits; equivalent rule/grid shapes
        // share the entry.
        let (_, r2) = post(&state, "/v1/whatif", body);
        assert_eq!(r1.to_json(), r2.to_json());
        let stats = state.cache_stats()[1];
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn whatif_scenarios_swap_the_fleet_workload() {
        let state = AppState::new(64);
        // The same rule under an MoE scenario prices the fleet under the
        // Mixtral expert-parallel lowering; the trailer names it.
        let body = "{\"rule\":{\"tpp_license\":2400},\
                    \"scenario\":\"moe-mixtral-fp16-tp4-ep4\"}";
        let (status, r1) = post(&state, "/v1/whatif", body);
        assert_eq!(status, 200, "{}", r1.to_json());
        let summary = r1.get("summary").unwrap();
        assert_eq!(summary.get("scenario").unwrap().as_str(), Some("moe-mixtral-fp16-tp4-ep4"));
        assert_eq!(summary.get("fleet_designs").unwrap().as_u64(), Some(4096));
        // Scenario-less requests keep the historical trailer shape and a
        // separate cache entry.
        let (_, r_plain) = post(&state, "/v1/whatif", "{\"rule\":{\"tpp_license\":2400}}");
        assert!(r_plain.get("summary").unwrap().get("scenario").is_none());
        assert_eq!(state.cache_stats()[1].misses, 2);
        // Unknown scenarios are typed 400s before the fleet is priced.
        let (status, response) =
            post(&state, "/v1/whatif", "{\"scenario\":\"dense-gpt5\"}");
        assert_eq!(status, 400, "{}", response.to_json());
        assert_eq!(
            response.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("invalid_config")
        );
        // Repeats of the scenario request are cache hits.
        let (_, r2) = post(&state, "/v1/whatif", body);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(state.cache_stats()[1].hits, 1);
    }

    #[test]
    fn whatif_rule_and_equivalent_grid_share_a_cache_entry() {
        let state = AppState::new(64);
        let (s1, r1) = post(&state, "/v1/whatif", "{\"rule\":{\"tpp_license\":2400}}");
        let (s2, r2) = post(&state, "/v1/whatif", "{\"grid\":{\"tpp_license\":[2400]}}");
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(r1.to_json(), r2.to_json());
        let stats = state.cache_stats()[1];
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn malformed_whatif_requests_are_typed_400s() {
        let state = AppState::new(64);
        for body in [
            "not json",
            "[1]",
            "{\"grid\":{\"bogus_axis\":[1]}}",
            "{\"grid\":{\"tpp_license\":[]}}",
            "{\"rule\":{\"tpp_license\":-5}}",
            "{\"rule\":{},\"grid\":{}}",
            "{\"tpp_target\":1e9}",
        ] {
            let (status, response) = post(&state, "/v1/whatif", body);
            assert_eq!(status, 400, "body {body:?} -> {}", response.to_json());
        }
        // Rejected before the fleet was priced or anything was cached.
        assert_eq!(state.cache_stats()[1].misses, 0);
        let (status, _) = handle_lane(
            &state,
            &HttpRequest { method: "GET".into(), path: "/v1/whatif".into(), body: String::new() },
            None,
        );
        assert_eq!(status, 405);
    }

    #[test]
    fn whatif_streaming_writes_one_chunk_per_record() {
        let state = AppState::new(64);
        let request = HttpRequest {
            method: "POST".into(),
            path: "/v1/whatif".into(),
            body: "{\"grid\":{\"tpp_license\":[2400,4800]}}".into(),
        };
        let mut wire = Vec::new();
        handle_whatif_streaming_lane(&state, &request, &mut wire, true, None).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        // 2 record chunks + 1 trailer chunk + the terminator.
        let chunk_count = text.split("\r\n").filter(|l| l.starts_with('{')).count();
        assert_eq!(chunk_count, 3, "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
        // Failures surface as plain framed errors, and the buffer is
        // left as it was: earlier responses on the connection stay,
        // nothing of this one precedes the error.
        let bad = HttpRequest {
            method: "POST".into(),
            path: "/v1/whatif".into(),
            body: "not json".into(),
        };
        let mut wire = b"earlier response".to_vec();
        let (status, body) =
            handle_whatif_streaming_lane(&state, &bad, &mut wire, true, None).unwrap_err();
        assert_eq!(status, 400);
        assert_eq!(wire, b"earlier response");
        assert!(body.contains("error"));
    }
}
