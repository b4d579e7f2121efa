//! `model_milc`: the library user's Figure 2 flow on MILC, from public
//! calls. One operation (a pass) is: a cold session and taint run, one
//! taint-filtered sweep over the 5×5 (`nx`, `p`) grid, the per-function
//! measurement sets, and hybrid plus black-box models.
//!
//! About two thirds of a pass is the Extra-P search and one third the
//! sweep, with one filter per point.

use crate::checks;
use crate::common::{mix, timed, Tally, Window};
use crate::Outcome;
use perf_taint::{compare_against_truth, model_functions, FunctionModel, SessionBuilder};
use pt_apps::AppSpec;
use pt_extrap::{MeasurementSet, SearchSpace};
use pt_measure::{function_sets, run_sweep, Filter, NoiseModel, SweepPoint};
use std::collections::BTreeMap;

const W: &str = "model_milc";

/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 5;

/// The app and its sweep grid.
pub struct Milc {
    pub app: AppSpec,
    pub points: Vec<SweepPoint>,
}

pub fn build() -> Milc {
    let app = pt_apps::milc::build();
    let points = pt_bench::grid(
        &app,
        "nx",
        &pt_bench::milc_sizes(),
        &pt_bench::milc_ranks(),
        &[],
    );
    Milc { app, points }
}

/// What one pass produced, with the wall of its sweep, measurement-set
/// and fit stages (s).
pub struct Pass {
    pub sets: BTreeMap<String, MeasurementSet>,
    pub hybrid: BTreeMap<String, FunctionModel>,
    pub blackbox: BTreeMap<String, FunctionModel>,
    pub restrictions: BTreeMap<String, pt_extrap::Restriction>,
    pub sweep_s: f64,
    pub sets_s: f64,
    pub hybrid_s: f64,
    pub blackbox_s: f64,
}

/// One module-to-models pass; `seed` draws the measurement noise.
pub fn pass(milc: &Milc, seed: u64, threads: usize) -> Result<Pass, String> {
    let app = &milc.app;
    let (analysis, _) = timed("milc.taint", || {
        SessionBuilder::new(&app.module, &app.entry)
            .build()
            .taint_run(app.taint_run_params())
    });
    let analysis = analysis.map_err(|e| e.to_string())?;
    let filter = Filter::TaintBased {
        relevant: analysis
            .relevant_functions(&app.module)
            .into_iter()
            .collect(),
    };
    let probe = filter.probe_vector(&app.module, pt_bench::PROBE_COST);
    let (profiles, sweep_s) = timed("milc.sweep", || {
        run_sweep(
            &app.module,
            analysis.prepared(),
            &app.entry,
            &milc.points,
            &probe,
            threads,
        )
    });
    let (sets, sets_s) = timed("milc.sets", || {
        function_sets(
            &profiles,
            &app.model_params,
            pt_bench::REPS,
            &NoiseModel::CLUSTER,
            seed,
        )
    });
    let restrictions = analysis.restrictions(&app.module, &app.model_params);
    let space = SearchSpace::default();
    let (hybrid, hybrid_s) = timed("milc.hybrid", || {
        model_functions(&sets, Some(&restrictions), &space, 0.1)
    });
    let (blackbox, blackbox_s) = timed("milc.blackbox", || {
        model_functions(&sets, None, &space, 0.1)
    });
    Ok(Pass {
        sets,
        hybrid,
        blackbox,
        restrictions,
        sweep_s,
        sets_s,
        hybrid_s,
        blackbox_s,
    })
}

/// The pass's checks: hybrid models are clean against the taint truth and
/// every known kernel is modeled both ways.
pub fn check(p: &Pass, tally: &mut Tally) {
    let kernels = pt_apps::milc::known_kernels();
    tally.check(
        W,
        "hybrid_clean",
        checks::hybrid_clean(&compare_against_truth(&p.hybrid, &p.restrictions)),
    );
    tally.check(
        W,
        "kernels_modeled_hybrid",
        checks::modeled(&p.hybrid, &kernels),
    );
    tally.check(
        W,
        "kernels_modeled_blackbox",
        checks::modeled(&p.blackbox, &kernels),
    );
}

pub fn run(seed: u64, seconds: f64, threads: usize, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    let mut milc = None;
    // Set-up: build the app and its grid, then one checked warm-up pass.
    for k in 0..SETUPS {
        let (made, wall) = timed("model_milc.setup", || {
            let m = build();
            pass(&m, mix(seed, 0x5E7 + k as u64), threads).map(|p| (m, p))
        });
        out.setup_s.push(wall);
        match made {
            Ok((m, p)) => {
                check(&p, tally);
                milc = Some(m);
            }
            Err(e) => tally.check(W, "setup", Err(e)),
        }
    }
    let Some(milc) = milc else {
        return out;
    };

    let mut window = Window::new(seconds);
    while let Some(round) = window.next_round() {
        let (p, wall) = timed("model_milc.op", || pass(&milc, mix(seed, round), threads));
        tally.op("pass", p.is_ok());
        match p {
            Ok(p) => {
                out.op_s.push(wall);
                check(&p, tally);
            }
            Err(e) => eprintln!("perfbench: {W}: pass failed: {e}"),
        }
    }
    out.rss_mb = crate::common::peak_rss_mb("self");
    out
}
