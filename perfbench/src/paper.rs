//! `paper_lulesh`: regenerate Figure 3, §B1 and §B2 in sequence through
//! the scenario registry, in one two-thread `ScenarioCtx`.
//!
//! One operation is one regeneration of the three artifacts. About 97% of
//! its wall is measurement sweeps: the 25-point LULESH grid runs 175 times
//! under four probe vectors, so the measure-mode engine dominates.

use crate::checks;
use crate::common::{mix, timed, Tally, Window};
use crate::Outcome;
use pt_bench::scenarios::{find, ScenarioCtx};
use pt_measure::{run_point, Filter};

const W: &str = "paper_lulesh";

/// The artifacts of one operation, with the benchmark span of each.
pub const SCENARIOS: [(&str, &str); 3] = [
    ("fig3_overhead_lulesh", "scenario.fig3_overhead_lulesh"),
    ("b1_noise_resilience", "scenario.b1_noise_resilience"),
    ("b2_intrusion", "scenario.b2_intrusion"),
];

/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 5;

/// One set-up: a fresh context with the LULESH taint analysis done (what
/// every artifact of the operation shares), and its filters checked on the
/// grid's middle point. The check makes a set-up long enough (≈1 s) to time
/// steadily: context and analysis alone take ≈12 ms, a figure that settles
/// at either ≈11 or ≈18 ms for the whole life of a process.
fn setup(threads: usize, tally: &mut Tally) -> Option<ScenarioCtx> {
    let cx = ScenarioCtx::with_threads(false, threads);
    if let Err(e) = cx.analysis(cx.lulesh()) {
        tally.check(W, "setup", Err(e.to_string()));
        return None;
    }
    let middle = cx.lulesh_sizes().len() * cx.lulesh_ranks().len() / 2;
    check_filters(&cx, &[middle as u64], tally);
    Some(cx)
}

/// Run the three artifacts once in `cx`, checking their outputs; `false`
/// if one failed.
fn regenerate(cx: &ScenarioCtx, tally: &mut Tally) -> bool {
    let mut all_ok = true;
    for (name, span) in SCENARIOS {
        let scenario = find(name).expect("registered scenario");
        let (result, _) = timed(span, || scenario.run(cx));
        tally.op("scenario", result.is_ok());
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {W}: {name} failed: {e}");
                all_ok = false;
                continue;
            }
        };
        match name {
            "fig3_overhead_lulesh" => {
                tally.check(W, "fig3_slowdowns", checks::fig3_slowdowns(&result.metrics))
            }
            "b1_noise_resilience" => tally.check(
                W,
                "b1_hybrid_truth_violations",
                checks::metric_is(&result.metrics, "hybrid_truth_violations", 0.0),
            ),
            _ => {}
        }
    }
    all_ok
}

/// On the grid points `picks` (taken modulo the grid size), each filter's
/// run executes the native instruction count with the native wall plus
/// Σ calls × probe.
fn check_filters(cx: &ScenarioCtx, picks: &[u64], tally: &mut Tally) {
    let app = cx.lulesh();
    let Ok(analysis) = cx.analysis(app) else {
        tally.check(W, "lulesh_analysis", Err("taint run failed".into()));
        return;
    };
    let points = pt_bench::grid(
        app,
        "size",
        &cx.lulesh_sizes(),
        &cx.lulesh_ranks(),
        &[("iters", 2)],
    );
    let native_probe = Filter::None.probe_vector(&app.module, pt_bench::PROBE_COST);
    for pick in picks {
        let point = &points[(pick % points.len() as u64) as usize];
        let run = |probe: &[f64]| {
            run_point(&app.module, analysis.prepared(), &app.entry, point, probe)
                .map_err(|e| e.to_string())
        };
        let native = match run(&native_probe) {
            Ok(p) => p,
            Err(e) => {
                tally.check(W, "probe_identity", Err(e));
                continue;
            }
        };
        for (_, filter) in pt_bench::standard_filters(&analysis, app) {
            let probe = filter.probe_vector(&app.module, pt_bench::PROBE_COST);
            let outcome =
                run(&probe).and_then(|p| checks::probe_identity(&app.module, &native, &probe, &p));
            tally.check(W, "probe_identity", outcome);
        }
    }
}

pub fn run(seed: u64, seconds: f64, threads: usize, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    let mut cx = None;
    for _ in 0..SETUPS {
        let (made, wall) = timed("paper_lulesh.setup", || setup(threads, tally));
        out.setup_s.push(wall);
        cx = made.or(cx);
    }
    let Some(cx) = cx else {
        return out;
    };
    // Once per run: the taint-based filter covers every known kernel, and
    // the filter identity holds on two seeded grid points.
    if let Ok(analysis) = cx.analysis(cx.lulesh()) {
        tally.check(
            W,
            "taint_filter_covers_kernels",
            checks::covers(
                &analysis.relevant_functions(&cx.lulesh().module),
                &pt_apps::lulesh::known_kernels(),
            ),
        );
    }
    check_filters(&cx, &[mix(seed, 0x1D), mix(seed, 0x1C)], tally);

    let mut window = Window::new(seconds);
    while window.next_round().is_some() {
        let (all_ok, wall) = timed("paper_lulesh.op", || regenerate(&cx, tally));
        if all_ok {
            out.op_s.push(wall);
        }
    }
    out.rss_mb = crate::common::peak_rss_mb("self");
    out
}
