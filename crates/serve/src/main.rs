//! The `acs-serve` binary: run the query service, or drive one with the
//! built-in load generator.
//!
//! Serve mode (default):
//!
//! ```text
//! acs-serve [--addr 127.0.0.1:8737] [--workers 4]
//! ```
//!
//! The bound address is printed as `listening on http://...` once the
//! socket is open. The process shuts down gracefully when stdin reaches
//! EOF or delivers a line reading `shutdown` — so a supervising script
//! can hold a pipe open and write one word to stop the service cleanly:
//!
//! ```text
//! mkfifo ctl && acs-serve < ctl & exec 3>ctl   # hold the pipe open
//! echo shutdown >&3                            # graceful stop
//! ```
//!
//! Loadgen mode:
//!
//! ```text
//! acs-serve --loadgen [--addr HOST:PORT] [--requests 200] \
//!           [--connections 4] [--pipeline 1] \
//!           [--mode unique|repeated|unique-screen|compare] \
//!           [--min-unique-qps 2000]
//! ```
//!
//! Without `--addr` an in-process server is started on an ephemeral
//! port. `--mode compare` runs a unique stream then a repeated stream
//! and reports both QPS figures and their ratio; `--min-unique-qps N`
//! exits nonzero if the unique `/v1/simulate` stream sustains fewer
//! than `N` requests per second.

use acs_serve::{run_loadgen, LoadMode, LoadgenConfig, LoadgenReport, ServeConfig, Server};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::ExitCode;

struct Args {
    loadgen: bool,
    addr: Option<String>,
    workers: usize,
    requests: usize,
    connections: usize,
    pipeline: usize,
    mode: String,
    min_unique_qps: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        loadgen: false,
        addr: None,
        workers: 4,
        requests: 200,
        connections: 4,
        pipeline: 1,
        mode: "repeated".to_owned(),
        min_unique_qps: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--loadgen" => args.loadgen = true,
            "--addr" => args.addr = Some(value("--addr")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            "--pipeline" => {
                args.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--mode" => args.mode = value("--mode")?,
            "--min-unique-qps" => {
                args.min_unique_qps = Some(
                    value("--min-unique-qps")?
                        .parse()
                        .map_err(|e| format!("--min-unique-qps: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err("usage: acs-serve [--addr HOST:PORT] [--workers N] | \
                     acs-serve --loadgen [--addr HOST:PORT] [--requests N] \
                     [--connections N] [--pipeline N] \
                     [--mode unique|repeated|unique-screen|compare] [--min-unique-qps X]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn serve(args: &Args) -> Result<(), String> {
    let config = ServeConfig {
        addr: args.addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_owned()),
        workers: args.workers,
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    println!("acs-serve listening on http://{addr}");
    let handle = server.handle();

    // The signal pipe: EOF or a `shutdown` line on stdin stops the
    // service. This needs no signal-handling machinery and works the
    // same from a terminal (Ctrl-D), a fifo, or a supervising script.
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "shutdown" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        eprintln!("acs-serve: shutdown requested, draining");
        handle.shutdown();
    });

    server.run();
    eprintln!("acs-serve: stopped");
    Ok(())
}

fn print_report(label: &str, r: &LoadgenReport) {
    println!(
        "{label}: {} requests ({} ok, {} failed) in {:.2}s  \
         qps={:.1}  p50={:.2}ms  p99={:.2}ms  mean={:.2}ms",
        r.requests, r.succeeded, r.failed, r.elapsed_s, r.qps, r.p50_ms, r.p99_ms, r.mean_ms,
    );
    for class in &r.per_class {
        println!(
            "{label}:   class {:<8} {} ok  p50={:.2}ms  p99={:.2}ms  mean={:.2}ms",
            class.class, class.count, class.p50_ms, class.p99_ms, class.mean_ms,
        );
    }
}

fn loadgen(args: &Args) -> Result<(), String> {
    // Target an existing server, or bring one up in-process.
    let (addr, local) = match &args.addr {
        Some(spec) => {
            let addr: SocketAddr =
                spec.parse().map_err(|e| format!("--addr {spec}: {e}"))?;
            (addr, None)
        }
        None => {
            let server = Server::bind(ServeConfig::default()).map_err(|e| e.to_string())?;
            let addr = server.local_addr();
            println!("loadgen: started in-process server on http://{addr}");
            (addr, Some(server.spawn()))
        }
    };

    let base = LoadgenConfig {
        requests: args.requests,
        connections: args.connections,
        pipeline: args.pipeline,
        ..LoadgenConfig::default()
    };
    let result = if args.mode == "compare" {
        // Unique first so the repeated stream cannot ride on its entries.
        let unique = run_loadgen(addr, &LoadgenConfig { mode: LoadMode::Unique, ..base.clone() })
            .map_err(|e| e.to_string())?;
        print_report("unique  ", &unique);
        let repeated =
            run_loadgen(addr, &LoadgenConfig { mode: LoadMode::Repeated, ..base.clone() })
                .map_err(|e| e.to_string())?;
        print_report("repeated", &repeated);
        let ratio = if unique.qps > 0.0 { repeated.qps / unique.qps } else { f64::INFINITY };
        println!("cache speedup: {ratio:.1}x (repeated vs unique QPS)");
        if unique.failed + repeated.failed > 0 {
            Err("loadgen saw failed requests".to_owned())
        } else if let Some(floor) = args.min_unique_qps.filter(|&floor| unique.qps < floor) {
            Err(format!("unique stream sustained {:.1} QPS, below the {floor} floor", unique.qps))
        } else {
            Ok(())
        }
    } else {
        let mode = LoadMode::parse(&args.mode).map_err(|e| e.to_string())?;
        let report =
            run_loadgen(addr, &LoadgenConfig { mode, ..base }).map_err(|e| e.to_string())?;
        print_report(&args.mode, &report);
        if report.failed > 0 {
            Err("loadgen saw failed requests".to_owned())
        } else {
            Ok(())
        }
    };

    if let Some((handle, thread)) = local {
        handle.shutdown();
        let _ = thread.join();
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.loadgen { loadgen(&args) } else { serve(&args) };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("acs-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
