//! Per-layer metrics of the traced run. Each layer is timed from outside,
//! by calling its public functions inside the benchmark's own spans, on
//! fixed inputs (the fit set and the MILC noise follow the seed). Every
//! workload's traced run measures every layer, so the per-layer figures of
//! two commits compare on any workload.
//!
//! Which end-to-end figure each layer metric should move is mapped in
//! `perfbench/README.md`.

use crate::common::{median, timed, Metrics, Tally};
use crate::{checks, inputs, milc, paper, serve};
use perf_taint::{SessionBuilder, SessionCache};
use pt_bench::scenarios::{find, ScenarioCtx};
use pt_extrap::{fit_multi_param, SearchSpace};
use pt_measure::{run_point, run_sweep, Filter};
use pt_server::{ArtifactKind, Store};
use serde::json::Value;
use std::path::Path;

const W: &str = "layers";

/// Objects in the store before its puts and gets are timed: about what one
/// `serve_loop` round leaves (≈300 for LULESH, then ≈50 per cycle).
const STORE_FILL: usize = 1000;

/// Traced cycles of the server probe.
const SERVE_CYCLES: u64 = 4;

/// Median wall in ms of `n` calls of `f`, each inside a span `name`.
fn ms_of<R>(name: &'static str, n: usize, mut f: impl FnMut() -> R) -> f64 {
    let walls: Vec<f64> = (0..n).map(|_| timed(name, &mut f).1 * 1e3).collect();
    median(&walls)
}

pub fn measure(
    bin: &Path,
    out: &Path,
    seed: u64,
    threads: usize,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    scenarios(threads, tally, m);
    lulesh(threads, tally, m);
    modeling(seed, threads, tally, m);
    store(out, tally, m);
    server(bin, out, seed, threads, tally, m);
}

/// The three artifacts of `paper_lulesh` at the registry's quick scale.
fn scenarios(threads: usize, tally: &mut Tally, m: &mut Metrics) {
    let cx = ScenarioCtx::with_threads(true, threads);
    for (name, span) in paper::SCENARIOS {
        let (r, wall) = timed(span, || find(name).expect("registered").run(&cx));
        tally.check(W, name, r.map(|_| ()).map_err(|e| e.to_string()));
        m.put(format!("scenario.{name}_s"), wall, "s");
    }
}

/// Parse, static stage, taint run, incremental re-analysis, the
/// measure-mode engine and JSON, all on LULESH.
fn lulesh(threads: usize, tally: &mut Tally, m: &mut Metrics) {
    let app = pt_apps::lulesh::build();
    let text = pt_ir::printer::print_module(&app.module);
    let params = app.taint_run_params();

    m.put(
        "ir.parse_ms",
        ms_of("ir.parse", 5, || perf_taint::parse_module(&text)),
        "ms",
    );
    m.put(
        "analysis.static_ms",
        ms_of("analysis.static", 5, || {
            SessionBuilder::new(&app.module, &app.entry)
                .build()
                .static_analysis()
        }),
        "ms",
    );
    let session = SessionBuilder::new(&app.module, &app.entry).build();
    session.static_analysis();
    m.put(
        "taint.run_ms",
        ms_of("taint.run", 3, || session.taint_run(params.clone())),
        "ms",
    );
    let analysis = match session.taint_run(params.clone()) {
        Ok(a) => a,
        Err(e) => {
            tally.check(W, "lulesh_taint_run", Err(e.to_string()));
            return;
        }
    };

    // Incremental: in-place edits against a warm per-function cache.
    let cache = SessionCache::new();
    cache
        .get_or_compute(&app.module, &app.entry)
        .static_analysis();
    let sites = inputs::flops_sites(&text);
    let (mut walls, mut recomputed) = (Vec::new(), Vec::new());
    for k in 0..3 {
        let edited = inputs::edit_flops(&text, &sites, k * 61, 200_000 + k as i64);
        let Ok(module) = perf_taint::parse_module(&edited) else {
            tally.check(W, "edit_parses", Err(format!("edit {k} does not parse")));
            continue;
        };
        let before = cache.unit_reuse().recomputed;
        let (_, wall) = timed("incremental.edit_static", || {
            cache.get_or_compute(&module, &app.entry).static_analysis()
        });
        walls.push(wall * 1e3);
        recomputed.push((cache.unit_reuse().recomputed - before) as f64);
    }
    m.put("incremental.edit_static_ms", median(&walls), "ms");
    m.put("incremental.units_recomputed", median(&recomputed), "count");

    // Measure mode: one grid point native and fully instrumented, then the
    // native 25-point grid.
    let points = pt_bench::grid(
        &app,
        "size",
        &pt_bench::lulesh_sizes(),
        &pt_bench::lulesh_ranks(),
        &[("iters", 2)],
    );
    let mid = &points[points.len() / 2];
    let native = Filter::None.probe_vector(&app.module, pt_bench::PROBE_COST);
    let full = Filter::Full.probe_vector(&app.module, pt_bench::PROBE_COST);
    let point = |probe: &[f64]| run_point(&app.module, analysis.prepared(), &app.entry, mid, probe);
    m.put(
        "measure.point_native_ms",
        ms_of("measure.point_native", 3, || point(&native)),
        "ms",
    );
    m.put(
        "measure.point_full_ms",
        ms_of("measure.point_full", 3, || point(&full)),
        "ms",
    );
    let (profiles, wall) = timed("measure.grid", || {
        run_sweep(
            &app.module,
            analysis.prepared(),
            &app.entry,
            &points,
            &native,
            threads,
        )
    });
    let insts: u64 = profiles.iter().map(|p| p.insts).sum();
    m.put("measure.grid_insts", insts as f64, "count");
    m.put("measure.minsts_per_s", insts as f64 / 1e6 / wall, "Minst/s");

    // JSON: a submit_module line carrying LULESH, and its analysis summary.
    let line = pt_server::protocol::request_line(
        1,
        "submit_module",
        Value::obj(vec![("text", Value::str(&text))]),
    );
    m.put(
        "json.parse_submit_ms",
        ms_of("json.parse_submit", 3, || Value::parse(&line)),
        "ms",
    );
    let summary = perf_taint::report::analysis_summary(&analysis, &app.module);
    let rendered = summary.render();
    m.put(
        "json.render_summary_ms",
        ms_of("json.render_summary", 5, || summary.render()),
        "ms",
    );
    m.put(
        "json.parse_summary_ms",
        ms_of("json.parse_summary", 5, || Value::parse(&rendered)),
        "ms",
    );
}

/// One MILC pass split by stage, and one fit of the serve workload's fit
/// set.
fn modeling(seed: u64, threads: usize, tally: &mut Tally, m: &mut Metrics) {
    match milc::pass(&milc::build(), seed, threads) {
        Ok(p) => {
            milc::check(&p, tally);
            m.put("measure.sweep_s", p.sweep_s, "s");
            m.put("measure.sets_ms", p.sets_s * 1e3, "ms");
            m.put("extrap.hybrid_s", p.hybrid_s, "s");
            m.put("extrap.blackbox_s", p.blackbox_s, "s");
            m.put("extrap.functions", p.sets.len() as f64, "count");
        }
        Err(e) => tally.check(W, "milc_pass", Err(e)),
    }
    let case = inputs::fit_case(seed, 0);
    let mut rendered = String::new();
    m.put(
        "extrap.fit_ms",
        ms_of("extrap.fit", 5, || {
            rendered = fit_multi_param(&case.set, &SearchSpace::small(), None)
                .model
                .render(&case.names)
        }),
        "ms",
    );
    tally.check(
        W,
        "fit_recovers_terms",
        checks::fit_terms(&rendered, &case.terms),
    );
}

/// `pt_server::Store` holding as many objects as a serve run leaves.
fn store(out: &Path, tally: &mut Tally, m: &mut Metrics) {
    let dir = out.join(format!("layer-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match Store::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            tally.check(W, "store_open", Err(e.to_string()));
            return;
        }
    };
    let unit = "u".repeat(1024);
    for i in 0..STORE_FILL {
        let put = store.put(ArtifactKind::Functions, &format!("{i:032x}"), &unit);
        tally.check(W, "store_put", put.map_err(|e| e.to_string()));
    }
    let app = pt_apps::lulesh::build();
    let text = pt_ir::printer::print_module(&app.module);
    let keys: Vec<String> = (0..20u64)
        .map(|i| format!("{:032x}", 1u64 << 40 | i))
        .collect();
    let mut k = keys.iter();
    let mut puts = Vec::new();
    m.put(
        "store.put_ms",
        ms_of("store.put", keys.len(), || {
            puts.push(store.put(ArtifactKind::Modules, k.next().expect("key"), &text))
        }),
        "ms",
    );
    for put in puts {
        tally.check(W, "store_put", put.map_err(|e| e.to_string()));
    }
    let mut k = keys.iter();
    let mut gets = Vec::new();
    m.put(
        "store.get_ms",
        ms_of("store.get", keys.len(), || {
            gets.push(store.get(ArtifactKind::Modules, k.next().expect("key")))
        }),
        "ms",
    );
    for got in gets {
        let outcome = match got {
            Some(t) if t == text => Ok(()),
            _ => Err("wrong or missing object".to_string()),
        };
        tally.check(W, "store_get", outcome);
    }
    m.put("store.objects", store.total_objects() as f64, "count");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The request path: traced cycles against a fresh server whose own
/// whole-process trace yields the queue wait.
fn server(bin: &Path, out: &Path, seed: u64, threads: usize, tally: &mut Tally, m: &mut Metrics) {
    let store = out.join(format!("layer-serve-{}", std::process::id()));
    let trace_path = out.join(format!("server-trace-{}.json", std::process::id()));
    let mut l = match serve::Loop::start(bin, &store, threads, seed, Some(&trace_path)) {
        Ok(l) => l,
        Err(e) => {
            tally.check(W, "server_start", Err(e));
            return;
        }
    };
    let mut handler: [Vec<f64>; 4] = Default::default();
    let (mut wire, mut static_stage) = (Vec::new(), Vec::new());
    let (mut recomputed, mut reused, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in 0..SERVE_CYCLES {
        let cold = l.cold(cycle, true, tally);
        let warm = l.warm(true, tally);
        let before = ledger(&mut l, tally);
        let edit = l.edit(cycle, true, tally);
        if let (Some(before), Some(after)) = (before, ledger(&mut l, tally)) {
            recomputed.push(after[0] - before[0]);
            reused.push(after[1] - before[1]);
            writes.push(after[2] - before[2]);
        }
        let fit = l.fit(cycle, true, tally);
        for (class, t) in [cold, warm, edit, fit].into_iter().enumerate() {
            let Some(t) = t else { continue };
            handler[class].push(t.handler_ms);
            wire.push(t.latency_ms - t.handler_ms);
            if class == 2 {
                match t
                    .stages
                    .as_ref()
                    .and_then(|s| s.get("static_stage"))
                    .and_then(Value::as_f64)
                {
                    Some(ms) => static_stage.push(ms),
                    None => tally.check(
                        W,
                        "edit_static_stage",
                        Err("traced edit reports no static_stage".into()),
                    ),
                }
            }
        }
    }
    for (class, walls) in ["cold", "warm", "edit", "fit"].iter().zip(&handler) {
        m.put(format!("server.{class}_handler_ms"), median(walls), "ms");
    }
    m.put("server.wire_ms", median(&wire), "ms");
    m.put("server.edit_static_stage_ms", median(&static_stage), "ms");
    m.put("server.functions_recomputed", median(&recomputed), "count");
    m.put("server.functions_reused", median(&reused), "count");
    m.put("store.writes_per_edit", median(&writes), "count");
    // Dropping the loop stops the server, which writes its trace.
    drop(l);
    let waits = match std::fs::read_to_string(&trace_path) {
        Ok(t) => queue_waits_ms(&t),
        Err(e) => {
            tally.check(W, "server_trace", Err(e.to_string()));
            Vec::new()
        }
    };
    if waits.is_empty() {
        tally.check(W, "queue_wait_spans", Err("no queue_wait span".into()));
    }
    let _ = std::fs::remove_file(&trace_path);
    m.put(
        "server.queue_wait_ms",
        waits.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// The server's function-unit ledger and store writes from `stats`: units
/// recomputed, units reused (from memory or the store), objects written.
/// `None`, with a failed check, if `stats` fails or lacks a counter.
fn ledger(l: &mut serve::Loop, tally: &mut Tally) -> Option<[f64; 3]> {
    let stats = match l.client.stats() {
        Ok(s) => s,
        Err(e) => {
            tally.check(W, "stats", Err(e.to_string()));
            return None;
        }
    };
    let get = |a: &str, b: &str| stats.get(a).and_then(|v| v.get(b)).and_then(Value::as_f64);
    let counters = [
        get("functions", "recomputed"),
        get("functions", "reused_memory")
            .zip(get("functions", "reused_store"))
            .map(|(m, s)| m + s),
        get("store", "writes"),
    ];
    if counters.iter().any(Option::is_none) {
        tally.check(W, "stats", Err(format!("counter missing: {counters:?}")));
        return None;
    }
    Some(counters.map(|c| c.unwrap_or_default()))
}

/// Durations (ms) of the `queue_wait` spans in a Chrome trace export,
/// found by a plain scan (the export can be large).
fn queue_waits_ms(trace: &str) -> Vec<f64> {
    trace
        .match_indices("\"name\":\"queue_wait\"")
        .filter_map(|(at, _)| {
            let rest = &trace[at..];
            let dur = &rest[rest.find("\"dur\":")? + 6..];
            let end = dur.find([',', '}'])?;
            dur[..end].parse::<f64>().ok().map(|us| us / 1e3)
        })
        .collect()
}
