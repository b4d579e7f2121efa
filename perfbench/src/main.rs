//! `perfbench` — the benchmark of the perf-taint pipeline and the
//! `pt-server` service. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload paper_lulesh|model_milc|serve_loop --seed N
//!           --seconds S --trace 0|1 --server-bin PATH --out DIR
//! ```
//!
//! Prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! check names its workload on standard error and makes the exit code 1.

mod checks;
mod common;
mod inputs;
mod layers;
mod milc;
mod paper;
mod serve;

use common::{median, Metrics, Tally};
use serde::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["paper_lulesh", "model_milc", "serve_loop"];

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Wall of each completed operation (s).
    pub op_s: Vec<f64>,
    /// Peak RSS of the process doing the work (MB).
    pub rss_mb: Option<f64>,
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        server_bin: PathBuf::from("pt-server"),
        out: PathBuf::from("perfbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag} requires {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("positive seconds"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--server-bin" => opts.server_bin = value.into(),
            "--out" => opts.out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            opts.workload
        ));
    }
    Ok(opts)
}

/// At most two worker threads (sweeps) or server workers: the load comes
/// from one process and stays within the reference host's two cores.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn run_workload(opts: &Opts, tally: &mut Tally) -> Outcome {
    match opts.workload.as_str() {
        "paper_lulesh" => paper::run(opts.seed, opts.seconds, threads(), tally),
        "model_milc" => milc::run(opts.seed, opts.seconds, threads(), tally),
        _ => serve::run(
            &opts.server_bin,
            &opts.out,
            opts.seed,
            opts.seconds,
            threads(),
            tally,
        ),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if opts.trace {
        pt_util::trace::force_enable();
        let outcome = run_workload(&opts, &mut tally);
        layers::measure(
            &opts.server_bin,
            &opts.out,
            opts.seed,
            threads(),
            &mut tally,
            &mut metrics,
        );
        metrics.put("traced.op_ms", median(&outcome.op_s) * 1e3, "ms");
        write_chrome_trace(&opts);
    } else {
        let outcome = run_workload(&opts, &mut tally);
        metrics.put("setup_s", median(&outcome.setup_s), "s");
        metrics.put("peak_rss_mb", outcome.rss_mb.unwrap_or(0.0), "MB");
        metrics.put("op_ms", median(&outcome.op_s) * 1e3, "ms");
        eprintln!(
            "perfbench: {}: {} operation(s) timed, {} set-up(s)",
            opts.workload,
            outcome.op_s.len(),
            outcome.setup_s.len()
        );
    }

    for (class, (attempted, failed)) in &tally.classes {
        eprintln!(
            "perfbench: {}: {class}: {attempted} attempted, {failed} failed",
            opts.workload
        );
    }
    for (check, (detail, times)) in &tally.check_failures {
        eprintln!("perfbench: {check} failed {times} time(s): {detail}");
    }
    let report = Value::obj(vec![
        ("correct", Value::Bool(tally.correct())),
        ("attempted", Value::int(tally.attempted as i64)),
        ("failed", Value::int(tally.failed as i64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .0
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Value::obj(vec![
                                ("value", Value::Num(*value)),
                                ("unit", Value::str(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report.render());
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the benchmark's own spans as a Chrome `trace_event` file.
fn write_chrome_trace(opts: &Opts) {
    let events: Vec<_> = pt_util::trace::drain_all()
        .into_iter()
        .filter(|e| e.cat == common::SPAN_CAT)
        .collect();
    let path = opts
        .out
        .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    match std::fs::write(&path, pt_util::trace::chrome_trace(&events).render()) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} span(s) to {}",
            events.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
