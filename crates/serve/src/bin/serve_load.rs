//! `serve_load` — closed-loop load benchmark for the query service.
//!
//! Replays the deterministic fuzzer workload from N simulated clients
//! against an in-process [`sb_serve::QueryService`] per domain and
//! emits the `BENCH_serve.json` document (p50/p95/p99 latency, qps,
//! plan-cache effectiveness) on stdout or to `--out`:
//!
//! ```sh
//! cargo run --release -p sb-serve --bin serve_load -- --quick
//! cargo run --release -p sb-serve --bin serve_load -- --clients 16 --requests 5000 --out BENCH_serve.json
//! cargo run --release -p sb-serve --bin serve_load -- --validate BENCH_serve.json
//! ```
//!
//! Flags:
//!
//! - `--quick`           small request count, seconds-scale (check.sh uses this)
//! - `--clients N`       simulated closed-loop clients (default 8)
//! - `--requests N`      requests per domain (default 2000)
//! - `--seed N`          workload seed (default 0xC0FFEE)
//! - `--domain NAME`     one of cordis / sdss / oncomx (default: all three)
//! - `--forbid-transient` exit 3 if any domain reports `timeout` or
//!   `overloaded` errors — a deterministic closed-loop run must not
//!   shed load, so check.sh pairs this with `--quick`
//! - `--profile-sample N` request a per-query profile on every Nth
//!   request (0 = off; default 0). Response bytes are unchanged —
//!   profiling is side-band only.
//! - `--slow-log FILE`   arm the service's slow-query log and write the
//!   drained JSON lines (trace id, phase breakdown, analyzed plan) to
//!   FILE after the run
//! - `--slow-threshold-us N` slow-log threshold in µs (default 0: log
//!   every executed request; only meaningful with `--slow-log`)
//! - `--out FILE`        write the document to FILE instead of stdout
//! - `--validate FILE`   validate FILE's shape and exit

use sb_data::Domain;
use sb_serve::{render_bench_json, run_domain_load, validate_bench_json, LoadConfig};

fn parse_domain(name: &str) -> Option<Domain> {
    Domain::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    value
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} needs a number")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut load = LoadConfig::default();
    let mut domains: Vec<Domain> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut slow_log_path: Option<String> = None;
    let mut slow_threshold_us: u64 = 0;
    let mut forbid_transient = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                load.clients = 4;
                load.requests = 200;
            }
            "--clients" => {
                i += 1;
                load.clients = parse_num("--clients", args.get(i));
            }
            "--requests" => {
                i += 1;
                load.requests = parse_num("--requests", args.get(i));
            }
            "--seed" => {
                i += 1;
                load.seed = parse_num("--seed", args.get(i));
            }
            "--domain" => {
                i += 1;
                let name = args
                    .get(i)
                    .unwrap_or_else(|| usage("--domain needs a value"));
                match parse_domain(name) {
                    Some(d) => domains.push(d),
                    None => usage(&format!("unknown domain `{name}`")),
                }
            }
            "--forbid-transient" => forbid_transient = true,
            "--profile-sample" => {
                i += 1;
                load.profile_sample = parse_num("--profile-sample", args.get(i));
            }
            "--slow-log" => {
                i += 1;
                slow_log_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--slow-log needs a file path"))
                        .clone(),
                );
            }
            "--slow-threshold-us" => {
                i += 1;
                slow_threshold_us = parse_num("--slow-threshold-us", args.get(i));
            }
            "--out" => {
                i += 1;
                out_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--out needs a file path"))
                        .clone(),
                );
            }
            "--validate" => {
                i += 1;
                let path = args
                    .get(i)
                    .unwrap_or_else(|| usage("--validate needs a file path"));
                validate_file(path);
                return;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if domains.is_empty() {
        domains.extend(Domain::ALL);
    }
    if slow_log_path.is_some() {
        load.slow_log_threshold_us = Some(slow_threshold_us);
    }

    let mut slow_lines: Vec<String> = Vec::new();
    let mut reports = Vec::new();
    for &domain in &domains {
        sb_obs::progress("serve_load", &format!("loading {}", domain.name()));
        let report = run_domain_load(domain, &load);
        // Only codes that actually fired; the JSON document carries the
        // full zero-padded breakdown.
        let codes: Vec<String> = report
            .errors_by_code
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(code, n)| format!("{code}={n}"))
            .collect();
        let codes = if codes.is_empty() {
            String::new()
        } else {
            format!(" ({})", codes.join(", "))
        };
        eprintln!(
            "serve_load: {} {} reqs, {} clients: {:.0} qps, p50 {:.0}us p95 {:.0}us p99 {:.0}us, \
             {} ok / {} errors{}, cache {}/{} hit, {} entries, {} evicted",
            report.domain,
            report.requests,
            report.clients,
            report.qps,
            report.p50_us,
            report.p95_us,
            report.p99_us,
            report.ok,
            report.errors,
            codes,
            report.cache.hits,
            report.cache.hits + report.cache.misses,
            report.cache.entries,
            report.cache.evictions,
        );
        // Per-code latency breakdown: are the errors cheap rejections
        // or slow failures? Text-only — BENCH_serve.json is unchanged.
        for (code, h) in &report.latency_by_code {
            if h.count > 0 && *code != "ok" {
                eprintln!(
                    "serve_load:   {code}: n={} p50 {:.0}us p95 {:.0}us max {:.0}us",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.max
                );
            }
        }
        slow_lines.extend(report.slow_log_lines.iter().cloned());
        reports.push(report);
    }

    if let Some(path) = &slow_log_path {
        let mut doc = slow_lines.join("\n");
        if !doc.is_empty() {
            doc.push('\n');
        }
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("serve_load: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "serve_load: wrote {} slow-log line(s) to {path}",
            slow_lines.len()
        );
    }

    if forbid_transient {
        for report in &reports {
            let transient = report.transient_errors();
            if transient > 0 {
                eprintln!(
                    "serve_load: {}: {transient} transient error(s) (timeout/overloaded) in a \
                     deterministic run: {:?}",
                    report.domain, report.errors_by_code
                );
                std::process::exit(3);
            }
        }
    }

    let doc = render_bench_json(&load, &reports);
    // Self-check before emitting: a malformed document must fail loudly.
    if let Err(e) = validate_bench_json(&doc) {
        eprintln!("serve_load: internal error, emitted invalid document: {e}");
        std::process::exit(2);
    }
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &doc) {
                eprintln!("serve_load: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("serve_load: wrote {path}");
        }
        None => print!("{doc}"),
    }
}

fn validate_file(path: &str) {
    match std::fs::read_to_string(path) {
        Ok(content) => match validate_bench_json(&content) {
            Ok(()) => println!("{path}: valid BENCH_serve document"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    eprintln!(
        "usage: serve_load [--quick] [--clients N] [--requests N] [--seed N] \
         [--domain cordis|sdss|oncomx]... [--forbid-transient] [--profile-sample N] \
         [--slow-log FILE] [--slow-threshold-us N] [--out FILE] | --validate FILE"
    );
    std::process::exit(2);
}
