//! `dpbench` — the end-to-end and per-layer benchmark of the DPCopula
//! serving daemon and the sharded fit.
//!
//! ```text
//! dpbench [--workload NAME | --workloads A,B,..] [--seed N] [--seconds S]
//!         [--trace 0|1] [--repeat N] [--smoke] [--out DIR]
//! ```
//!
//! Each run measures one workload from outside the program (the daemon
//! and the fit caller run as child processes), checks the program's
//! outputs, prints a report, and prints as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. It exits
//! 1 when a check failed and 2 when a run could not be carried out.
//! See README.md beside this package for the workloads and metrics.

mod check;
mod child;
mod client;
mod hostref;
mod inputs;
mod replay;
mod run;
mod stats;
mod trace;

use dpcopula_serve::json::{quote, Json};
use run::{Metric, Outcome, RunSpec, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-child") => child::serve_child_main(&args[1..]).map(|()| 0),
        Some("fit-child") => child::fit_child_main(&args[1..]).map(|()| 0),
        _ => bench(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("dpbench: {e}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage: dpbench [--workload NAME | --workloads A,B,..] [--seed N] \
[--seconds S] [--trace 0|1] [--repeat N] [--smoke] [--out DIR]
workloads: sample-small sample-bulk fit-http fit-sharded (default: all)";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    smoke: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        repeat: 1,
        smoke: false,
        out: PathBuf::from(".dpbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" | "--workloads" => {
                let list = value()?;
                opts.workloads = list
                    .split(',')
                    .map(|w| Workload::parse(w).ok_or_else(|| bad(w)))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                v => return Err(bad(v)),
            },
            "--repeat" => {
                let v = value()?;
                opts.repeat = v.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad(v))?;
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(value()?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if opts.seconds == 0.0 {
        opts.seconds = if opts.smoke { 1.0 } else { 25.0 };
    }
    Ok(opts)
}

fn bench(args: &[String]) -> Result<i32, String> {
    let opts = parse_options(args)?;
    let scale = if opts.smoke {
        inputs::Scale::smoke()
    } else {
        inputs::Scale::full()
    };
    let bounds = if opts.repeat > 1 {
        e2e_bounds(Path::new("BENCHMARK.json"))
    } else {
        Vec::new()
    };
    let work_dir = opts.out.join(format!("work-{}", std::process::id()));
    let mut results: Vec<(Workload, Vec<Outcome>)> = Vec::new();
    for &workload in &opts.workloads {
        let mut outcomes = Vec::new();
        for r in 0..opts.repeat {
            let seed = opts.seed + r;
            let stamp = stamp(workload, seed, &opts, scale);
            println!("== dpbench {} seed={seed}", workload.name());
            println!("stamp: {stamp}");
            let spec = RunSpec {
                workload,
                seed,
                seconds: opts.seconds,
                trace: opts.trace,
                scale,
                out_dir: opts.out.clone(),
                work_dir: work_dir.clone(),
                header: stamp,
            };
            let outcome = run::run(&spec);
            let _ = std::fs::remove_dir_all(&work_dir);
            let outcome = outcome.map_err(|e| format!("{}: {e}", workload.name()))?;
            print_outcome(&outcome);
            outcomes.push(outcome);
        }
        if opts.repeat > 1 {
            print_spread(workload, opts.seed, &outcomes, &bounds);
        }
        results.push((workload, outcomes));
    }
    let _ = std::fs::remove_dir(&work_dir);

    let all: Vec<&Outcome> = results.iter().flat_map(|(_, o)| o).collect();
    let mut correct = all.iter().all(|o| o.checks.failed.is_empty());
    let attempted: u64 = all.iter().map(|o| o.attempted).sum();
    let failed: u64 = all.iter().map(|o| o.failures.total()).sum();
    let metrics: Vec<(String, &'static str, f64)> = match results.as_slice() {
        [(_, outcomes)] if outcomes.len() == 1 => outcomes[0]
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.value))
            .collect(),
        // Several runs: the median of each metric, named per workload.
        _ => results
            .iter()
            .flat_map(|(w, outcomes)| {
                outcomes[0].metrics.iter().enumerate().map(move |(i, m)| {
                    let values: Vec<f64> = outcomes.iter().map(|o| o.metrics[i].value).collect();
                    (
                        format!("{}/{}", w.name(), m.name),
                        m.unit,
                        stats::percentile_of(&values, 0.5),
                    )
                })
            })
            .collect(),
    };
    // JSON has no NaN or infinity: a metric that is not a number reads 0
    // and fails the run.
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            println!("  CHECK FAILED: metric {name} is {value}");
            correct = false;
        }
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

/// What every report records next to its numbers.
fn stamp(workload: Workload, seed: u64, opts: &Options, scale: inputs::Scale) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"nproc\": {nproc}, \"git_rev\": {}, \"daemon\": {}, \"sizes\": {}}}",
        quote(workload.name()),
        opts.seconds,
        opts.trace,
        opts.smoke,
        quote(&git_rev()),
        quote(&child::daemon_flags()),
        quote(&run::sizes(workload, scale)),
    )
}

/// The checked-out commit, read from `.git` when there is one.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or("unknown".into(), |rev| rev.trim().to_string()),
        None => head.to_string(),
    }
}

fn print_outcome(o: &Outcome) {
    println!(
        "{:<32} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let row = |m: &Metric| {
        let Metric {
            name,
            unit,
            value,
            samples,
        } = m;
        println!("{name:<32} {value:>16.6} {unit:<8} {samples:>8}");
    };
    o.metrics.iter().for_each(row);
    if !o.info.is_empty() {
        println!("as measured, unscaled, and the host's reference time (not in the JSON line):");
        o.info.iter().for_each(row);
    }
    println!(
        "operations: {} attempted, {} failed",
        o.attempted,
        o.failures.total()
    );
    for ((status, reason), n) in &o.failures.by_cause {
        println!("  failed {n} x status {status}: {reason}");
    }
    println!(
        "checks: {} passed, {} failed",
        o.checks.passed,
        o.checks.failed.len()
    );
    for failure in &o.checks.failed {
        println!("  CHECK FAILED: {failure}");
    }
}

/// The end-to-end bounds declared in `BENCHMARK.json`, when readable.
fn e2e_bounds(path: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    match doc.get("end_to_end") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `--repeat`: median and quartiles of each metric across the runs, and
/// its spread (interquartile range over median), flagged when over the
/// metric's bound or over 10%.
fn print_spread(workload: Workload, seed: u64, outcomes: &[Outcome], bounds: &[(String, f64)]) {
    println!(
        "== spread of {} over {} runs (seeds {seed}..{})",
        workload.name(),
        outcomes.len(),
        seed + outcomes.len() as u64 - 1
    );
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    let all = |o: &Outcome| o.metrics.iter().chain(&o.info).map(|m| m.value).collect();
    let values: Vec<Vec<f64>> = outcomes.iter().map(all).collect();
    for (i, m) in outcomes[0]
        .metrics
        .iter()
        .chain(&outcomes[0].info)
        .enumerate()
    {
        let values: Vec<f64> = values.iter().map(|v| v[i]).collect();
        let [q1, q2, q3] = stats::quartiles(&values);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let bound = bounds.iter().find(|(n, _)| n == m.name).map(|&(_, b)| b);
        let flag = if spread > 0.10 || bound.is_some_and(|b| spread > b) {
            "  OVER"
        } else {
            ""
        };
        let bound = bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "{:<32} {q2:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}{flag}",
            m.name
        );
    }
}
