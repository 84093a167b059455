//! The serve workloads: a freshly spawned `acs-serve --workers 1` child,
//! driven over loopback by the benchmark's own closed-loop client, its
//! counters read through `GET /v1/metrics` and `/proc`, and a sample of
//! its answers compared with `handle_lane` on a private in-process
//! `AppState`.

use crate::client::{closed_loop, fnv, Conn, Marks, Source, Tally};
use crate::gen::{self, Class, Request, Rng};
use crate::{
    cpu_seconds, host_ticks, median, peak_rss_mb, slice_steal, slices, steal_pct, sweep, trace,
    window_metrics, Args, Digest, Metrics, Outcome, SETUPS,
};
use acs_errors::json::{object, parse, Value};
use acs_serve::handlers::{handle_lane, AppState};
use acs_serve::http::HttpRequest;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Serve-hot requests in flight across all connections. The server
/// admits at most 64 uncached POSTs per poll round, so this never sheds.
const HOT_IN_FLIGHT: usize = 16;

/// Serve-cold timed requests whose responses always enter the digest
/// and the oracle sample; any the window did not reach are sent after it.
const COLD_DIGEST_PREFIX: usize = 192;

/// Responses compared byte for byte against the in-process oracle.
const ORACLE_SAMPLE: usize = 48;

/// Client connections: at most two, and at most one per core.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The endpoints `/v1/metrics` reports request histograms for.
const ENDPOINTS: [&str; 4] = ["screen", "simulate", "whatif", "devices"];

/// Cache capacity the `acs-serve` binary runs with (its default).
const CACHE_CAPACITY: usize = 4096;

/// CPUs for the server child and for this process, when the host has at
/// least two and `taskset` is installed: the single server worker and the
/// client then never compete for one core.
fn cpu_split() -> Option<(String, String)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let installed = Command::new("taskset")
        .arg("-V")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    (cpus >= 2 && installed.is_ok_and(|s| s.success()))
        .then(|| ((cpus - 1).to_string(), "0".to_owned()))
}

/// The `acs-serve` child process.
struct Server {
    child: Child,
    stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    pid: String,
}

impl Server {
    /// Spawn `acs-serve --workers 1` and wait for its `listening on` line.
    fn spawn(bin: &Path, cpu: Option<&str>) -> Result<Self, String> {
        let mut command = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpu]).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let mut child = command
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("acs-serve pipes unavailable".to_owned());
        };
        let mut server = Server {
            child,
            stdin,
            _stdout: BufReader::new(stdout),
            addr: ([127, 0, 0, 1], 0).into(),
            pid,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server._stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("acs-serve exited before listening".to_owned()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().split("listening on http://").nth(1) {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("listening address {addr:?}: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// Ask for a graceful stop on stdin and wait for the exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = self.stdin.write_all(b"shutdown\n");
        let _ = self.stdin.flush();
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("acs-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("acs-serve did not stop within 15 s".to_owned()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Milliseconds from `spawned` until the server answers a 200.
fn wait_ready(addr: SocketAddr, spawned: Instant) -> Result<f64, String> {
    let probe = b"GET /v1/devices HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n";
    let (status, _) = Conn::connect(addr)?.exchange(probe)?;
    if status != 200 {
        return Err(format!("readiness probe answered {status}"));
    }
    Ok(spawned.elapsed().as_secs_f64() * 1e3)
}

/// `GET /v1/metrics`, flattened to dotted paths.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let probe = b"GET /v1/metrics HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n";
    let (status, body) = Conn::connect(addr)?.exchange(probe)?;
    if status != 200 {
        return Err(format!("/v1/metrics answered {status}"));
    }
    let value = parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("/v1/metrics: {e}"))?;
    fn flatten(v: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
        match v {
            Value::Number(n) => {
                out.insert(prefix.to_owned(), *n);
            }
            Value::Object(members) => {
                for (k, v) in members {
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    flatten(v, &key, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    flatten(&value, "", &mut out);
    Ok(out)
}

/// Run one closed loop per source, in parallel, and merge what they saw.
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    sources: Vec<Source<'_>>,
    depth: usize,
    window: Option<(Instant, Instant)>,
    marks: &Marks<'_>,
) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|source| {
                s.spawn(move || closed_loop(addr, requests, source, depth, window, marks))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Tally {
                    failed: 1,
                    errors: vec!["client thread panicked".to_owned()],
                    ..Tally::default()
                })
            })
            .collect()
    });
    let mut merged = Tally::default();
    for t in tallies {
        merged.samples.extend(t.samples);
        merged.attempted += t.attempted;
        merged.failed += t.failed;
        merged.hashes.extend(t.hashes);
        merged.captures.extend(t.captures);
        merged.errors.extend(t.errors);
    }
    merged.hashes.sort_unstable();
    merged.captures.sort_by_key(|c| c.0);
    merged
}

/// Every request of `requests[from..to]` once, spread over the connections.
fn each_once(
    addr: SocketAddr,
    requests: &[Request],
    from: usize,
    to: usize,
    depth: usize,
    marks: &Marks<'_>,
) -> Tally {
    let next = AtomicUsize::new(from);
    let sources = (0..connections())
        .map(|_| Source::Shared(&next, to))
        .collect();
    drive(addr, requests, sources, depth, None, marks)
}

/// A seeded sample of request indices below `limit`, spread over the
/// request classes.
fn oracle_marks(requests: &[Request], limit: usize, seed: u64) -> Vec<bool> {
    let mut r = Rng::new(seed ^ 0x0AC1E);
    let mut marks = vec![false; requests.len()];
    for class in Class::ALL {
        let members: Vec<usize> = (0..limit).filter(|&i| requests[i].class == class).collect();
        let take = members.len().min(ORACLE_SAMPLE / Class::ALL.len());
        for i in r.subset(&members, take) {
            marks[i] = true;
        }
    }
    marks
}

/// The buffered `/v1/whatif` document `handle_lane` returns, rebuilt from
/// the de-chunked NDJSON stream: every line a record, the last the summary.
fn whatif_document(stream: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(stream);
    let mut lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
    let summary = lines.pop().unwrap_or("");
    format!(
        "{{\"summary\":{summary},\"records\":[{}]}}",
        lines.join(",")
    )
    .into_bytes()
}

/// Compare captured wire answers byte for byte with `handle_lane` on a
/// fresh in-process `AppState` fed the same requests in the same order.
/// Returns the number of mismatches.
fn oracle(requests: &[Request], captures: &[(u32, Vec<u8>)], notes: &mut Vec<String>) -> u64 {
    let state = AppState::new(CACHE_CAPACITY);
    let mut mismatches = 0;
    for (index, wire) in captures {
        let request = &requests[*index as usize];
        let (status, expected) = handle_lane(
            &state,
            &HttpRequest {
                method: request.method.to_owned(),
                path: request.path.clone(),
                body: request.body.clone(),
            },
            None,
        );
        let got = if request.class == Class::Whatif {
            whatif_document(wire)
        } else {
            wire.clone()
        };
        if status != 200 || got != expected.as_bytes() {
            mismatches += 1;
            notes.push(format!(
                "oracle mismatch on {} {} ({})",
                request.method,
                request.path,
                request.class.name()
            ));
        }
    }
    mismatches
}

/// The latency and validity members of every design in a grid
/// response. The response is canonical JSON with a fixed member order,
/// so a scan finds them without building a document tree.
fn design_points(body: &[u8]) -> Result<Vec<sweep::DesignPoint>, String> {
    fn after<'a>(body: &'a [u8], at: &mut usize, key: &[u8]) -> Option<&'a [u8]> {
        let start = *at + body[*at..].windows(key.len()).position(|w| w == key)? + key.len();
        let len = body[start..].iter().position(|&b| b == b',' || b == b'}')?;
        *at = start + len;
        Some(&body[start..start + len])
    }
    let number = |v: &[u8]| {
        std::str::from_utf8(v)
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
    };
    let mut at = 0;
    let mut points = Vec::new();
    while let Some(ttft) = after(body, &mut at, b"\"ttft_s\":") {
        let point = (|| {
            Some(sweep::DesignPoint {
                ttft_s: number(ttft)?,
                tbt_s: number(after(body, &mut at, b"\"tbt_s\":")?)?,
                within_reticle: after(body, &mut at, b"\"within_reticle\":")? == b"true",
                pd_unregulated_2023: after(body, &mut at, b"\"pd_unregulated_2023\":")? == b"true",
            })
        })();
        points.push(point.ok_or("grid response design without latency and validity members")?);
    }
    if points.is_empty() {
        return Err("grid response without designs".to_owned());
    }
    Ok(points)
}

/// Best valid (TTFT, TBT) per Table 3 study, read from `/v1/screen`
/// grids the server prices after the timed window.
fn served_anchors(addr: SocketAddr) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let mut best = Vec::new();
    for (model, study) in sweep::anchor_studies() {
        let spec = study.spec();
        let u32s =
            |xs: &[u32]| Value::Array(xs.iter().map(|&x| Value::Number(f64::from(x))).collect());
        let f64s = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Number(x)).collect());
        let mut grid = vec![
            ("systolic_dims", u32s(&spec.systolic_dims)),
            ("lanes_per_core", u32s(&spec.lanes_per_core)),
            ("l1_kib", u32s(&spec.l1_kib)),
            ("l2_mib", u32s(&spec.l2_mib)),
            ("hbm_tb_s", f64s(&spec.hbm_tb_s)),
            ("device_bw_gb_s", f64s(&spec.device_bw_gb_s)),
            ("tpp_target", Value::Number(study.tpp())),
        ];
        if model == gen::PaperModel::Gpt3 {
            grid.push(("scenario", Value::String("dense-gpt3-fp16-tp4".to_owned())));
        }
        let body = object(vec![("grid", object(grid))]).to_json();
        let wire = format!(
            "POST /v1/screen HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (status, response) = conn.exchange(wire.as_bytes())?;
        if status != 200 {
            return Err(format!("anchor grid answered {status}"));
        }
        let points = design_points(&response)?;
        best.push(((model, study), sweep::best_valid(study, &points)));
    }
    Ok(sweep::anchor_error(&best))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let hot = args.workload == "serve-hot";
    let conns = connections();
    let split = cpu_split();
    if let Some((_, client_cpu)) = &split {
        let pinned = Command::new("taskset")
            .args([
                "-a",
                "-p",
                "-c",
                client_cpu,
                &std::process::id().to_string(),
            ])
            .stdout(Stdio::null())
            .status();
        if !pinned.is_ok_and(|s| s.success()) {
            return Err("taskset could not pin the client".to_owned());
        }
    }
    let server_cpu = split.as_ref().map(|s| s.0.as_str());
    let (prime, requests, sequences) = if hot {
        let inputs = gen::serve_hot(args.seed, conns);
        (Vec::new(), inputs.slots, inputs.sequences)
    } else {
        let timed = (args.seconds * 1500.0) as usize + COLD_DIGEST_PREFIX;
        let inputs = gen::serve_cold(args.seed, timed);
        (inputs.warmup, inputs.timed, Vec::new())
    };
    let n = requests.len();
    let depth = if hot { HOT_IN_FLIGHT / conns } else { 1 };
    let all = vec![true; n.max(prime.len())];
    let none = vec![false; n];
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut checks_ok = true;
    let mut digest = Digest::default();

    // Set-ups: spawn, first 200, then prime the working set (hot) or run
    // the warm-up (cold). Each set-up's answers must match the last's.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut boot_ms = Vec::with_capacity(SETUPS);
    let mut primed: Vec<(u32, u64)> = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let spawned = Instant::now();
        let s = Server::spawn(&args.server, server_cpu)?;
        boot_ms.push(wait_ready(s.addr, spawned).map_err(|e| format!("readiness: {e}"))?);
        let marks = Marks {
            hash: &all,
            capture: &none,
        };
        let tally = if hot {
            each_once(s.addr, &requests, 0, n, depth, &marks)
        } else {
            each_once(s.addr, &prime, 0, prime.len(), 1, &marks)
        };
        setup_s.push(spawned.elapsed().as_secs_f64());
        failed += tally.failed;
        attempted += tally.attempted;
        notes.extend(tally.errors);
        if i > 0 && tally.hashes != primed {
            checks_ok = false;
            notes.push("set-up answers differ between set-ups".to_owned());
        }
        primed = tally.hashes;
        if i + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let s = server.ok_or("no set-up ran")?;
    let pool = if hot { &requests } else { &prime };
    for (index, hash) in &primed {
        digest.add(&[fnv(&pool[*index as usize].wire), *hash]);
    }

    // The timed window.
    let limit = if hot { n } else { COLD_DIGEST_PREFIX.min(n) };
    let capture = oracle_marks(&requests, limit, args.seed);
    let hash_prefix: Vec<bool> = (0..n).map(|i| !hot && i < limit).collect();
    let before = scrape(s.addr).map_err(|e| format!("metrics before: {e}"))?;
    // Memory the set-up needed: serve-cold keeps growing its caches in
    // the window at a rate set by throughput, so the peak is read here.
    let rss = peak_rss_mb(&s.pid);
    let server_cpu0 = cpu_seconds(&s.pid);
    let client_cpu0 = cpu_seconds("self");
    let host0 = host_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let next = AtomicUsize::new(0);
    let sources: Vec<Source<'_>> = if hot {
        sequences.iter().map(|q| Source::Cyclic(q)).collect()
    } else {
        (0..conns).map(|_| Source::Shared(&next, n)).collect()
    };
    let marks = Marks {
        hash: &hash_prefix,
        capture: &capture,
    };
    let (mut window, steal_slices) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| slice_steal(start, args.seconds));
        let window = drive(
            s.addr,
            &requests,
            sources,
            depth,
            Some((start, deadline)),
            &marks,
        );
        (
            window,
            sampler
                .join()
                .unwrap_or_else(|_| vec![0.0; slices(args.seconds)]),
        )
    });
    let server_cpu = cpu_seconds(&s.pid) - server_cpu0;
    let client_cpu = cpu_seconds("self") - client_cpu0;
    let steal = steal_pct(host0, host_ticks());
    let after = scrape(s.addr).map_err(|e| format!("metrics after: {e}"))?;
    let rss_growth = peak_rss_mb(&s.pid) - rss;
    failed += window.failed;
    attempted += window.attempted;
    notes.append(&mut window.errors);
    if !hot && next.load(Ordering::Relaxed) >= n {
        notes.push("serve-cold stream ran dry before the window ended".to_owned());
    }

    // Checks outside the window: a second pass over every working-set
    // request (hot) or the rest of the digest prefix (cold).
    let mut hashes = std::mem::take(&mut window.hashes);
    let mut captures = std::mem::take(&mut window.captures);
    let tail = if hot {
        each_once(
            s.addr,
            &requests,
            0,
            n,
            depth,
            &Marks {
                hash: &all,
                capture: &capture,
            },
        )
    } else {
        let sent = next.load(Ordering::Relaxed).min(limit);
        each_once(
            s.addr,
            &requests,
            sent,
            limit,
            1,
            &Marks {
                hash: &hash_prefix,
                capture: &capture,
            },
        )
    };
    failed += tail.failed;
    attempted += tail.attempted;
    notes.extend(tail.errors);
    if hot {
        if tail.hashes != primed {
            checks_ok = false;
            notes.push("working-set answers changed between priming and the check pass".to_owned());
        }
        for (i, body) in tail.captures {
            if !captures.iter().any(|c| c.0 == i) {
                captures.push((i, body));
            }
        }
    } else {
        hashes.extend(tail.hashes);
        captures.extend(tail.captures);
        for (index, hash) in &hashes {
            digest.add(&[fnv(&requests[*index as usize].wire), *hash]);
        }
        if hashes.len() != limit {
            checks_ok = false;
            notes.push(format!(
                "digest prefix has {} of {limit} answers",
                hashes.len()
            ));
        }
    }
    captures.sort_by_key(|c| c.0);
    let anchor = served_anchors(s.addr).map_err(|e| format!("anchor grids: {e}"))?;
    s.stop()?;
    let mismatches = oracle(&requests, &captures, &mut notes);
    failed += mismatches;
    attempted += captures.len() as u64;
    notes.push(format!(
        "oracle compared {} answers, {mismatches} mismatched",
        captures.len()
    ));

    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    // Server time per endpoint in the window: each histogram's
    // count × mean, differenced.
    let busy_us = |endpoint: &str| {
        let sum = |m: &BTreeMap<String, f64>| {
            let get = |k: String| m.get(&k).copied().unwrap_or(0.0);
            get(format!("latency_us.{endpoint}.mean_us"))
                * get(format!("latency_us.{endpoint}.count"))
        };
        sum(&after) - sum(&before)
    };
    let server_errors = delta("requests.errors") + delta("queue.shed");
    if server_errors > 0.0 {
        failed += server_errors as u64;
        notes.push(format!(
            "server counted {server_errors} errors or sheds in the window"
        ));
    }

    let seconds = args.seconds;
    let ok = window.samples.len() as f64;
    if window.samples.len() < 2000 {
        notes.push(format!(
            "{} latency samples: p99 has fewer than 10 above it",
            window.samples.len()
        ));
    }
    let mut metrics = Metrics::default();
    if !args.trace {
        let classes = [Class::Simulate, Class::ScreenGrid, Class::Whatif].map(|c| c.index() as u8);
        metrics.extend(window_metrics(
            &window.samples,
            seconds,
            &steal_slices,
            classes,
        ));
        metrics.set("anchor_error_pct", anchor, "pp");
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("peak_rss_mb", rss, "MiB");
    } else {
        metrics.extend(trace::zero_layers());
        metrics.set("serve.cpu_util", server_cpu / seconds, "cores");
        metrics.set("serve.cpu_us_per_req", server_cpu * 1e6 / ok, "us");
        metrics.set(
            "serve.reactor.events_per_req",
            delta("reactor.events") / ok,
            "count",
        );
        for endpoint in ENDPOINTS {
            let count = delta(&format!("latency_us.{endpoint}.count"));
            metrics.set(
                &format!("serve.server_us.{endpoint}"),
                if count > 0.0 {
                    busy_us(endpoint) / count
                } else {
                    0.0
                },
                "us",
            );
        }
        let posts = delta("requests.screen") + delta("requests.simulate");
        metrics.set(
            "serve.raw.hit_ratio",
            if posts > 0.0 {
                delta("caches.raw.hits") / posts
            } else {
                0.0
            },
            "ratio",
        );
        metrics.set("serve.shed", delta("queue.shed"), "count");
        for cache in ["screen", "simulate", "sim_steps", "whatif"] {
            let hits = delta(&format!("caches.{cache}.hits"));
            let lookups = hits + delta(&format!("caches.{cache}.misses"));
            metrics.set(
                &format!("cache.{cache}.hit_ratio"),
                if lookups > 0.0 { hits / lookups } else { 0.0 },
                "ratio",
            );
            metrics.set(
                &format!("cache.{cache}.insertions"),
                delta(&format!("caches.{cache}.insertions")),
                "count",
            );
            metrics.set(
                &format!("cache.{cache}.evictions"),
                delta(&format!("caches.{cache}.evictions")),
                "count",
            );
        }
        metrics.set("serve.boot_ms", median(&boot_ms), "ms");
        metrics.set("serve.rss_growth_mb", rss_growth, "MiB");
        metrics.set("client.cpu_util", client_cpu / seconds, "cores");
        metrics.set("host.steal_pct", steal, "%");
        let replay: Vec<&Request> = if hot {
            sequences[0]
                .iter()
                .map(|&i| &requests[i as usize])
                .collect()
        } else {
            requests.iter().collect()
        };
        let primer: Vec<&Request> = if hot {
            requests.iter().collect()
        } else {
            prime.iter().collect()
        };
        let (layers, answers) = trace::serve(
            &primer,
            &replay,
            seconds,
            &args.out,
            &args.workload,
            args.seed,
        )?;
        metrics.extend(layers);
        notes.extend(answers);
    }

    let busy: Vec<(&str, f64)> = ENDPOINTS.iter().map(|e| (*e, busy_us(e))).collect();
    let total: f64 = busy.iter().map(|b| b.1).sum();
    notes.push(format!(
        "server busy share: {}; server cpu {:.2} cores, client cpu {:.2} cores, host steal {steal:.1}% (slices {})",
        busy.iter().map(|(e, t)| format!("{e} {:.1}%", 100.0 * t / total.max(1e-9))).collect::<Vec<_>>().join(", "),
        server_cpu / seconds,
        client_cpu / seconds,
        steal_slices.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(" "),
    ));
    Ok(Outcome {
        attempted,
        failed,
        checks_ok,
        digest: digest.value(),
        metrics,
        notes,
    })
}
