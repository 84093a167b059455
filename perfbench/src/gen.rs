//! Seeded input generation. Every request body, its wire encoding, and
//! every sweep call a run makes is drawn here from `--seed` before any
//! timing starts; the program under test receives only these inputs.

use acs_dse::SweepSpec;
use acs_errors::json::{object, Value};
use acs_whatif::RuleGrid;
use std::collections::HashSet;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// `len` distinct elements of `xs` in random order.
    pub fn subset<T: Copy>(&mut self, xs: &[T], len: usize) -> Vec<T> {
        let mut pool = xs.to_vec();
        for i in 0..len {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(len);
        pool
    }

    /// Index into `weights` drawn in proportion to the weights.
    fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Request classes, as the server's handlers distinguish them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    ScreenDevice,
    ScreenConfig,
    ScreenGrid,
    Simulate,
    Whatif,
    Devices,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::ScreenDevice,
        Class::ScreenConfig,
        Class::ScreenGrid,
        Class::Simulate,
        Class::Whatif,
        Class::Devices,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::ScreenDevice => "screen_device",
            Class::ScreenConfig => "screen_config",
            Class::ScreenGrid => "screen_grid",
            Class::Simulate => "simulate",
            Class::Whatif => "whatif",
            Class::Devices => "devices",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    /// Sweep points a grid request asks for (0 for other classes).
    pub points: usize,
    /// The request exactly as written to the socket.
    pub wire: Vec<u8>,
}

impl Request {
    fn post(class: Class, path: &str, body: Value, points: usize) -> Self {
        Self::new(class, "POST", path.to_owned(), body.to_json(), points)
    }

    fn get(path: String) -> Self {
        Self::new(Class::Devices, "GET", path, String::new(), 0)
    }

    fn new(class: Class, method: &'static str, path: String, body: String, points: usize) -> Self {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Request {
            class,
            method,
            path,
            body,
            points,
            wire,
        }
    }
}

/// Table 3 axis values (Figures 6 and 7, device bandwidth widened to
/// both figures' values).
const T3_DIMS: [u32; 2] = [16, 32];
const T3_LANES: [u32; 4] = [1, 2, 4, 8];
const T3_L1: [u32; 4] = [192, 256, 512, 1024];
const T3_L2: [u32; 4] = [32, 48, 64, 80];
const T3_HBM: [f64; 4] = [2.0, 2.4, 2.8, 3.2];
const T3_BW: [f64; 4] = [500.0, 600.0, 700.0, 900.0];

/// Table 3 and Table 5 axis values together (the sweep workload's pool).
const T35_DIMS: [u32; 4] = [4, 8, 16, 32];
const T35_L1: [u32; 7] = [32, 64, 128, 192, 256, 512, 1024];
const T35_L2: [u32; 7] = [8, 16, 32, 40, 48, 64, 80];
const T35_HBM: [f64; 7] = [0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2];
const T35_BW: [f64; 5] = [400.0, 500.0, 600.0, 700.0, 900.0];

/// A finite TPP set keeps the server's lattice cells and fleet pricing
/// at a steady state after warm-up.
const SERVE_TPP: [f64; 4] = [1600.0, 2400.0, 3200.0, 4800.0];

/// Built-in scenarios the serve workloads name (a dense and an MoE one).
const SERVE_SCENARIOS: [&str; 2] = ["dense-gpt3-fp16-tp4", "moe-mixtral-fp16-tp4-ep4"];

const MODELS: [&str; 3] = ["Llama 3 8B", "GPT-3 13B", "GPT-3 175B"];

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn u32s(xs: &[u32]) -> Value {
    Value::Array(xs.iter().map(|&x| num(f64::from(x))).collect())
}

fn f64s(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| num(x)).collect())
}

/// Percent-encode a device name for a request path.
fn path_escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len() * 3);
    for b in name.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.') {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

fn device_names() -> Vec<String> {
    acs_devices::GpuDatabase::curated_65()
        .iter()
        .map(|r| r.name.to_string())
        .collect()
}

/// Draws request bodies and keeps every body's semantic identity (what
/// the server's cache keys on) unique when asked to.
struct Drawer {
    rng: Rng,
    devices: Vec<String>,
    seen: HashSet<String>,
    next_name: u64,
}

impl Drawer {
    fn new(seed: u64) -> Self {
        Drawer {
            rng: Rng::new(seed),
            devices: device_names(),
            seen: HashSet::new(),
            next_name: 0,
        }
    }

    /// Draw with `make` until its body is one not drawn before.
    fn fresh(&mut self, mut make: impl FnMut(&mut Drawer) -> Request) -> Request {
        loop {
            let request = make(self);
            if self.seen.insert(request.body.clone()) {
                return request;
            }
        }
    }

    fn screen_device(&mut self) -> Request {
        let name = self.devices[self.rng.below(self.devices.len())].clone();
        let mut members = vec![("device", Value::String(name))];
        if self.rng.chance(0.5) {
            members.push((
                "hbm_package_area_mm2",
                num(self.rng.pick(&[1200.0, 1800.0, 2400.0, 3000.0])),
            ));
        }
        Request::post(Class::ScreenDevice, "/v1/screen", object(members), 0)
    }

    fn config(&mut self) -> Value {
        self.next_name += 1;
        let r = &mut self.rng;
        object(vec![
            ("name", Value::String(format!("bench-{}", self.next_name))),
            ("core_count", num(r.range(24, 144) as f64)),
            ("lanes_per_core", num(r.pick(&[1.0, 2.0, 4.0, 8.0]))),
            ("systolic_dim", num(r.pick(&[8.0, 16.0, 32.0]))),
            ("l1_kib", num(r.pick(&[128.0, 192.0, 256.0, 512.0]))),
            ("l2_mib", num(r.pick(&[32.0, 40.0, 48.0, 64.0, 80.0]))),
            ("hbm_tb_s", num(r.range(12, 36) as f64 / 10.0)),
            ("device_bw_gb_s", num(r.range(8, 20) as f64 * 50.0)),
        ])
    }

    fn screen_config(&mut self) -> Request {
        let mut members = vec![("config", self.config())];
        if self.rng.chance(0.25) {
            members.push(("market", Value::String("non_data_center".to_owned())));
        }
        Request::post(Class::ScreenConfig, "/v1/screen", object(members), 0)
    }

    /// A `/v1/simulate` body for one device and model.
    fn simulate(&mut self, config: &Value, model: &str) -> Request {
        let r = &mut self.rng;
        let (batch, input_len, output_len) =
            r.pick(&[(32, 2048, 1024), (16, 1024, 512), (8, 4096, 256)]);
        let body = object(vec![
            ("config", config.clone()),
            ("model", Value::String(model.to_owned())),
            (
                "workload",
                object(vec![
                    ("batch", num(f64::from(batch))),
                    ("input_len", num(f64::from(input_len))),
                    ("output_len", num(f64::from(output_len))),
                ]),
            ),
            (
                "trace",
                object(vec![
                    ("rate_rps", num(r.pick(&[1.0, 2.0, 3.0]))),
                    ("duration_s", num(r.pick(&[5.0, 10.0]))),
                    ("seed", num(r.range(1, 1 << 40) as f64)),
                ]),
            ),
            ("max_batch", num(r.pick(&[16.0, 32.0]))),
        ]);
        Request::post(Class::Simulate, "/v1/simulate", body, 0)
    }

    /// A `/v1/simulate` body for a device drawn from `configs` (a bounded
    /// pool, so the step-cost and plan caches can settle).
    fn any_simulate(&mut self, configs: &[Value]) -> Request {
        let config = &configs[self.rng.below(configs.len())];
        let model = self.rng.pick(&MODELS);
        self.simulate(config, model)
    }

    /// A `/v1/screen` grid over `spec` at `tpp`, under `scenario` if named.
    fn grid(&mut self, spec: &SweepSpec, tpp: f64, scenario: Option<&str>) -> Request {
        let mut members = vec![
            ("systolic_dims", u32s(&spec.systolic_dims)),
            ("lanes_per_core", u32s(&spec.lanes_per_core)),
            ("l1_kib", u32s(&spec.l1_kib)),
            ("l2_mib", u32s(&spec.l2_mib)),
            ("hbm_tb_s", f64s(&spec.hbm_tb_s)),
            ("device_bw_gb_s", f64s(&spec.device_bw_gb_s)),
            ("tpp_target", num(tpp)),
        ];
        if let Some(name) = scenario {
            members.push(("scenario", Value::String(name.to_owned())));
        }
        Request::post(
            Class::ScreenGrid,
            "/v1/screen",
            object(vec![("grid", object(members))]),
            spec.cardinality(),
        )
    }

    /// A grid of `lo..=hi` points over the Table 3 axes at a drawn TPP,
    /// naming a scenario with probability `scenario_share`.
    fn any_grid(&mut self, lo: usize, hi: usize, scenario_share: f64) -> Request {
        let spec = loop {
            let spec = table_grid(&mut self.rng, &T3_DIMS, &T3_L1, &T3_L2, &T3_HBM, &T3_BW);
            if (lo..=hi).contains(&spec.cardinality()) {
                break spec;
            }
        };
        let tpp = self.rng.pick(&SERVE_TPP);
        let scenario = self
            .rng
            .chance(scenario_share)
            .then(|| self.rng.pick(&SERVE_SCENARIOS));
        self.grid(&spec, tpp, scenario)
    }

    /// A `/v1/whatif` rule grid of at most `max_variants` variants, with
    /// an optional extra member (a new `tpp_target` or a `scenario`).
    fn whatif(&mut self, max_variants: usize, extra: Option<(&'static str, Value)>) -> Request {
        let axes = rule_axes(&mut self.rng, max_variants);
        let mut members = vec![(
            "grid",
            object(
                axes.iter()
                    .map(|(name, values)| (*name, f64s(values)))
                    .collect(),
            ),
        )];
        members.extend(extra);
        Request::post(Class::Whatif, "/v1/whatif", object(members), 0)
    }

    /// A what-if of exactly `variants` variants over the default fleet.
    fn whatif_of(&mut self, variants: usize) -> Request {
        let axes = loop {
            let axes = rule_axes(&mut self.rng, variants);
            if axes.iter().map(|a| a.1.len()).product::<usize>() == variants {
                break axes;
            }
        };
        let grid = object(
            axes.iter()
                .map(|(name, values)| (*name, f64s(values)))
                .collect(),
        );
        Request::post(Class::Whatif, "/v1/whatif", object(vec![("grid", grid)]), 0)
    }

    /// A what-if whose fleet is retargeted with probability `share`.
    fn any_whatif(&mut self, max_variants: usize, share: f64) -> Request {
        let extra = WHATIF_FLEETS[1..][self.rng.below(WHATIF_FLEETS.len() - 1)];
        let extra = self.rng.chance(share).then(|| fleet_member(extra));
        self.whatif(max_variants, extra)
    }
}

/// The fleets a what-if can price: the default (4800 TPP, dense
/// default model), three other TPP targets, and one named scenario.
const WHATIF_FLEETS: [(Option<f64>, Option<&str>); 5] = [
    (None, None),
    (Some(1600.0), None),
    (Some(2400.0), None),
    (Some(3200.0), None),
    (None, Some(SERVE_SCENARIOS[0])),
];

fn fleet_member(fleet: (Option<f64>, Option<&'static str>)) -> (&'static str, Value) {
    match fleet {
        (Some(tpp), _) => ("tpp_target", num(tpp)),
        (None, Some(name)) => ("scenario", Value::String(name.to_owned())),
        (None, None) => unreachable!("the default fleet needs no member"),
    }
}

/// A random sub-grid of the given axis pools, each axis's values in
/// random order.
fn table_grid(
    r: &mut Rng,
    dims: &[u32],
    l1: &[u32],
    l2: &[u32],
    hbm: &[f64],
    bw: &[f64],
) -> SweepSpec {
    let mut take = |n: usize| 1 + r.below(n);
    let (nd, nl, n1, n2, nh, nb) = (
        take(dims.len()),
        take(4),
        take(l1.len()),
        take(l2.len()),
        take(hbm.len()),
        take(bw.len()),
    );
    SweepSpec {
        systolic_dims: r.subset(dims, nd),
        lanes_per_core: r.subset(&T3_LANES, nl),
        l1_kib: r.subset(l1, n1),
        l2_mib: r.subset(l2, n2),
        hbm_tb_s: r.subset(hbm, nh),
        device_bw_gb_s: r.subset(bw, nb),
    }
}

/// Rule-grid axes around the published thresholds: one to three axes
/// varied, at most `max_variants` variants in all.
pub fn rule_axes(r: &mut Rng, max_variants: usize) -> Vec<(&'static str, Vec<f64>)> {
    let b = RuleGrid::baseline();
    let published: [(&'static str, f64); 10] = [
        ("tpp_threshold_2022", b.tpp_threshold_2022[0]),
        ("device_bw_threshold_2022", b.device_bw_threshold_2022[0]),
        ("tpp_license", b.tpp_license[0]),
        ("tpp_floor", b.tpp_floor[0]),
        ("tpp_nac", b.tpp_nac[0]),
        ("pd_license", b.pd_license[0]),
        ("pd_nac_high", b.pd_nac_high[0]),
        ("pd_nac_low", b.pd_nac_low[0]),
        ("hbm_control_density", b.hbm_control_density[0]),
        ("hbm_exception_density", b.hbm_exception_density[0]),
    ];
    const FACTORS: [f64; 8] = [0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.5];
    let axis_count = 1 + r.below(3);
    let mut budget = max_variants.max(1);
    let mut axes = Vec::with_capacity(axis_count + 1);
    for (name, base) in r.subset(&published, axis_count) {
        let n = 1 + r.below(budget.min(FACTORS.len()));
        budget /= n;
        let values = r
            .subset(&FACTORS, n)
            .into_iter()
            .map(|f| base * f)
            .collect();
        axes.push((name, values));
    }
    if budget >= 2 && r.chance(0.3) {
        axes.push((
            "mem_bw_license",
            r.subset(&[0.0, 1600.0, 2400.0, 3200.0], 2),
        ));
    }
    axes
}

/// `serve-hot`: a working set of distinct requests, smaller than every
/// server cache, and the order each connection replays it in.
#[derive(Debug, Clone, PartialEq)]
pub struct HotInputs {
    /// Every distinct request, primed once during set-up.
    pub slots: Vec<Request>,
    /// Per connection, the cyclic order of slot indices it sends.
    pub sequences: Vec<Vec<u32>>,
}

/// Working-set size and share of traffic (by count) per class.
const HOT_MIX: [(Class, usize, f64); 6] = [
    (Class::ScreenDevice, 160, 0.32),
    (Class::ScreenConfig, 640, 0.28),
    (Class::Simulate, 64, 0.32),
    (Class::Devices, 0, 0.05),
    (Class::ScreenGrid, 8, 0.02),
    (Class::Whatif, 8, 0.01),
];

/// Length of each connection's replay cycle.
const HOT_CYCLE: usize = 1 << 16;

/// Device configurations `/v1/simulate` bodies draw from. The pool is
/// the same for every seed, so seeds differ in which requests they make,
/// not in how costly their devices are to simulate.
fn simulate_configs(count: usize) -> Vec<Value> {
    let mut pool = Drawer::new(0);
    (0..count).map(|_| pool.config()).collect()
}

pub fn serve_hot(seed: u64, connections: usize) -> HotInputs {
    let mut d = Drawer::new(seed);
    let sim_configs = simulate_configs(8);
    let mut slots = Vec::new();
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); Class::ALL.len()];
    for (class, count, _) in HOT_MIX {
        let before = slots.len();
        match class {
            Class::Devices => {
                slots.push(Request::get("/v1/devices".to_owned()));
                for name in d.devices.clone() {
                    slots.push(Request::get(format!("/v1/devices/{}", path_escape(&name))));
                }
            }
            _ => {
                for _ in 0..count {
                    slots.push(d.fresh(|d| match class {
                        Class::ScreenDevice => d.screen_device(),
                        Class::ScreenConfig => d.screen_config(),
                        Class::Simulate => d.any_simulate(&sim_configs),
                        Class::ScreenGrid => d.any_grid(96, 96, 0.0),
                        _ => d.whatif_of(16),
                    }));
                }
            }
        }
        by_class[class.index()] = (before as u32..slots.len() as u32).collect();
    }
    let weights: Vec<f64> = HOT_MIX.iter().map(|m| m.2).collect();
    let sequences = (0..connections)
        .map(|_| {
            (0..HOT_CYCLE)
                .map(|_| {
                    let members = &by_class[HOT_MIX[d.rng.weighted(&weights)].0.index()];
                    members[d.rng.below(members.len())]
                })
                .collect()
        })
        .collect();
    HotInputs { slots, sequences }
}

/// `serve-cold`: warm-up requests, then the timed stream. No body
/// repeats anywhere in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdInputs {
    pub warmup: Vec<Request>,
    pub timed: Vec<Request>,
}

/// Share of requests (by count) per class, tuned so simulate, grid and
/// what-if each take at least a fifth of the server's busy time.
const COLD_MIX: [(Class, f64); 4] = [
    (Class::Simulate, 0.17),
    (Class::ScreenGrid, 0.35),
    (Class::Whatif, 0.08),
    (Class::ScreenConfig, 0.40),
];

pub fn serve_cold(seed: u64, timed: usize) -> ColdInputs {
    let mut d = Drawer::new(seed ^ 0xC01D);
    let sim_configs = simulate_configs(12);

    // The warm-up visits every state the lower-layer caches key on, so
    // they are at steady state when the window opens, whatever the seed:
    // each (device, model) pair's plans and step costs, each (scenario,
    // TPP) lattice in full, and each what-if fleet.
    let mut warmup = Vec::new();
    for config in &sim_configs {
        for model in MODELS {
            warmup.push(d.fresh(|d| d.simulate(config, model)));
        }
    }
    let full = SweepSpec {
        systolic_dims: T3_DIMS.to_vec(),
        lanes_per_core: T3_LANES.to_vec(),
        l1_kib: T3_L1.to_vec(),
        l2_mib: T3_L2.to_vec(),
        hbm_tb_s: T3_HBM.to_vec(),
        device_bw_gb_s: T3_BW.to_vec(),
    };
    for scenario in [None, Some(SERVE_SCENARIOS[0]), Some(SERVE_SCENARIOS[1])] {
        for tpp in SERVE_TPP {
            warmup.push(d.fresh(|d| d.grid(&full, tpp, scenario)));
        }
    }
    for fleet in WHATIF_FLEETS {
        let extra = (fleet != WHATIF_FLEETS[0]).then(|| fleet_member(fleet));
        warmup.push(d.fresh(|d| d.whatif(64, extra.clone())));
    }
    for i in (1..warmup.len()).rev() {
        warmup.swap(i, d.rng.below(i + 1));
    }

    let weights: Vec<f64> = COLD_MIX.iter().map(|m| m.1).collect();
    let mut stream = Vec::with_capacity(timed);
    while stream.len() < timed {
        let class = COLD_MIX[d.rng.weighted(&weights)].0;
        stream.push(d.fresh(|d| match class {
            Class::Simulate => d.any_simulate(&sim_configs),
            Class::ScreenGrid => d.any_grid(64, 1536, 0.25),
            Class::Whatif => d.any_whatif(64, 0.3),
            _ => d.screen_config(),
        }));
    }
    ColdInputs {
        warmup,
        timed: stream,
    }
}

/// Paper models the sweep workload prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperModel {
    Gpt3,
    Llama3,
}

/// One call into the paper pipeline's public sweep entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepCall {
    /// `A100Baseline::simulate`.
    Baseline(PaperModel),
    /// `acs_core::optimize_oct2022` on Table 3 (Figure 6).
    Oct2022(PaperModel),
    /// `acs_core::optimize_oct2023` on Table 3 at one TPP tier (Figure 7).
    Oct2023(PaperModel, f64),
    /// `DseRunner::run` on Table 5 at 4800 TPP (Figure 12).
    Table5(PaperModel),
    /// `DseRunner::run` on a seeded grid under a built-in scenario's
    /// runner; `points` is its candidate count.
    Grid {
        scenario: &'static str,
        spec: SweepSpec,
        tpp: f64,
        points: usize,
    },
    /// `WhatIfEngine::run_streaming` of a seeded rule grid over the
    /// designs the preceding `Grid` call priced.
    Screen(RuleGrid),
}

const SWEEP_SCENARIOS: [&str; 4] = [
    "dense-llama3-fp16-tp4",
    "dense-gpt3-fp16-tp4",
    "dense-llama3-70b-int4-tp8-pp4",
    "moe-mixtral-fp16-tp4-ep4",
];

/// Seeded grids per cycle, each followed by a rule-grid screen of its
/// designs.
const SWEEP_GRIDS: usize = 8;

/// One cycle of the sweep workload: the paper's Figure 6/7 optimisations
/// and Table 5 for both models, then seeded grids and their screens.
pub fn sweep_cycle(r: &mut Rng) -> Vec<SweepCall> {
    let mut calls = Vec::new();
    for model in [PaperModel::Gpt3, PaperModel::Llama3] {
        calls.push(SweepCall::Baseline(model));
        calls.push(SweepCall::Oct2022(model));
        for tier in [1600.0, 2400.0, 4800.0] {
            calls.push(SweepCall::Oct2023(model, tier));
        }
        calls.push(SweepCall::Table5(model));
    }
    // Every cycle prices two 512-point grids under each scenario, so
    // cycles (and seeds) differ in their points, not in their shape or
    // size.
    for i in 0..SWEEP_GRIDS {
        let size = 512;
        let (spec, tpp, points) = loop {
            let spec = table_grid(r, &T35_DIMS, &T35_L1, &T35_L2, &T35_HBM, &T35_BW);
            if spec.cardinality() != size {
                continue;
            }
            let tpp = r.range(16, 64) as f64 * 100.0;
            let points = spec.candidates(tpp).len();
            if points >= size / 2 {
                break (spec, tpp, points);
            }
        };
        calls.push(SweepCall::Grid {
            scenario: SWEEP_SCENARIOS[i % SWEEP_SCENARIOS.len()],
            spec,
            tpp,
            points,
        });
        let axes = rule_axes(r, 64);
        let grid = RuleGrid::from_axes_json(&object(
            axes.iter()
                .map(|(name, values)| (*name, f64s(values)))
                .collect(),
        ))
        .expect("generated rule axes are in the grid's domain");
        calls.push(SweepCall::Screen(grid));
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_bodies(seed: u64) -> Vec<Vec<u8>> {
        let inputs = serve_cold(seed, 800);
        inputs
            .warmup
            .iter()
            .chain(&inputs.timed)
            .map(|r| r.wire.clone())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(serve_hot(7, 2), serve_hot(7, 2));
        assert_eq!(cold_bodies(7), cold_bodies(7));
        assert_eq!(sweep_cycle(&mut Rng::new(7)), sweep_cycle(&mut Rng::new(7)));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(serve_hot(7, 2).slots, serve_hot(8, 2).slots);
        assert_ne!(serve_hot(7, 2).sequences, serve_hot(8, 2).sequences);
        assert_ne!(cold_bodies(7), cold_bodies(8));
        assert_ne!(sweep_cycle(&mut Rng::new(7)), sweep_cycle(&mut Rng::new(8)));
    }

    #[test]
    fn serve_cold_never_repeats_a_body() {
        let inputs = serve_cold(11, 3000);
        let mut seen = HashSet::new();
        for request in inputs.warmup.iter().chain(&inputs.timed) {
            assert!(
                seen.insert(request.body.clone()),
                "repeated body {}",
                request.body
            );
        }
    }

    #[test]
    fn serve_hot_working_set_fits_every_cache() {
        let inputs = serve_hot(3, 2);
        let posts = inputs.slots.iter().filter(|r| r.method == "POST").count();
        assert!(posts < 4096, "{posts} distinct POST bodies");
        let distinct: HashSet<&str> = inputs.slots.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(
            distinct.len(),
            posts + 1,
            "working-set POST bodies are distinct"
        );
    }
}
