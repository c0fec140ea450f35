//! `sbbench` — run the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path sbbench/Cargo.toml -- [options]
//!   --workload NAME   serve_plan_hot | serve_exec_full | pipeline_synth | eval_grid
//!                     (default: all four)
//!   --seed N          workload seed (default 12648430)
//!   --seconds N       size each run to about N seconds of measured work
//!                     (default 10)
//!   --trace 0|1       1: also replay with spans, report per-layer metrics
//!                     and write sbbench-trace-<workload>.json
//!   --runs N          repeat every workload N times (seeds N, N+1, ..),
//!                     alternating the order, and print median and
//!                     quartiles per metric into --out
//!   --out PATH        where --runs writes its summary (default
//!                     sbbench-runs.json)
//! ```
//!
//! Each workload runs in a fresh child process with
//! `RAYON_NUM_THREADS=2`, so its peak RSS is its own. A single run prints
//! one `workload metric value unit` line per metric and, as its last
//! line, the JSON result object.

use sbbench::{stats, Outcome, RunSpec, Scale, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    out: String,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        runs: 1,
        out: "sbbench-runs.json".to_string(),
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.clamp(1, 600),
            "--trace" => a.trace = number(value()?)? != 0,
            "--runs" => a.runs = number(value()?)?.clamp(1, 100) as usize,
            "--out" => a.out = value()?,
            "--child" => a.child = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sbbench: {e} (see the usage in sbbench/src/main.rs)");
            return ExitCode::from(2);
        }
    };
    match (args.child, args.workload, args.runs) {
        (true, Some(w), _) => child(w, &args),
        (false, Some(w), 1) => match spawn(w, args.seed, &args) {
            Ok(stdout) => {
                print!("{stdout}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sbbench: {e}");
                ExitCode::FAILURE
            }
        },
        (true, None, _) => {
            eprintln!("sbbench: --child needs --workload");
            ExitCode::from(2)
        }
        (false, _, _) => many(&args),
    }
}

/// Run one workload in this process and print its lines and result.
fn child(workload: Workload, args: &Args) -> ExitCode {
    let out: Outcome = sbbench::run(&RunSpec {
        workload,
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        scale: Scale::Bench,
    });
    let name = workload.name();
    for p in &out.problems {
        eprintln!("sbbench: {name}: {p}");
    }
    if let Some(d) = out.digest.as_ref().filter(|d| !d.matches()) {
        eprintln!(
            "sbbench: {name}: output differs from the digest under expected/; \
             this run produced:\n{}",
            d.produced
        );
    }
    if let Some(trace) = &out.trace {
        if let Err(e) = trace.check_nesting() {
            eprintln!("sbbench: {name}: trace spans do not nest: {e}");
            return ExitCode::FAILURE;
        }
        let path = format!("sbbench-trace-{name}.json");
        if let Err(e) = std::fs::write(&path, trace.to_json(name, 2_000)) {
            eprintln!("sbbench: cannot write {path}: {e}");
        }
        for row in trace.layer_table() {
            eprintln!(
                "sbbench: {name} span {:<34} count {:>8} total_ms {:>10.3} self_ms {:>10.3}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }
    for (m, v) in out.measured() {
        println!("{name} {} {v} {}", m.name, m.unit);
    }
    println!(
        "{name} correct {} attempted {} failed {}",
        out.correct(),
        out.attempted,
        out.failed
    );
    println!("{}", out.result_json(args.trace));
    ExitCode::SUCCESS
}

/// Run one workload in a fresh child process; returns its stdout.
fn spawn(workload: Workload, seed: u64, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env("RAYON_NUM_THREADS", "2")
        .env_remove("SB_OBS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    String::from_utf8(output.stdout).map_err(|_| "child printed non-UTF-8".to_string())
}

/// Every requested workload, `--runs` times each in alternating order;
/// prints per-run lines, then median and quartiles per metric.
fn many(args: &Args) -> ExitCode {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    // (workload, metric) -> (unit, values)
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        let mut order = workloads.clone();
        if run % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed + run as u64;
            let stdout = match spawn(w, seed, args) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("sbbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for line in stdout.lines().filter(|l| l.starts_with(w.name())) {
                println!("run {run} seed {seed} {line}");
                match line.split_whitespace().collect::<Vec<_>>()[..] {
                    [_, "correct", ok, ..] => all_correct &= ok == "true",
                    [_, metric, value, unit] => {
                        let Ok(value) = value.parse::<f64>() else {
                            continue;
                        };
                        let slot = Workload::ALL.iter().position(|x| *x == w).unwrap_or(0);
                        let entry = values
                            .entry((slot, metric.to_string()))
                            .or_insert_with(|| (unit.to_string(), Vec::new()));
                        entry.1.push(value);
                    }
                    _ => {}
                }
            }
        }
    }

    let mut json = format!(
        "{{\"seed\": {}, \"runs\": {}, \"seconds\": {}, \"correct\": {all_correct}, \"results\": [",
        args.seed, args.runs, args.seconds
    );
    println!("workload metric unit median q1 q3 spread_pct");
    for (i, ((slot, metric), (unit, v))) in values.iter().enumerate() {
        let (q1, med, q3) = stats::quartiles(v);
        let spread = if med != 0.0 {
            100.0 * (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let w = Workload::ALL[*slot].name();
        println!("{w} {metric} {unit} {med} {q1} {q3} {spread:.2}");
        let list: Vec<String> = v.iter().map(f64::to_string).collect();
        let _ = write!(
            json,
            "{}\n  {{\"workload\": \"{w}\", \"metric\": \"{metric}\", \"unit\": \"{unit}\", \
             \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"spread_pct\": {spread}, \
             \"values\": [{}]}}",
            if i > 0 { "," } else { "" },
            list.join(", ")
        );
    }
    json.push_str("\n]}\n");
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("sbbench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("sbbench: some run was not correct");
        ExitCode::FAILURE
    }
}
