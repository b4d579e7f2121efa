//! Output checks. Each compares what the program produced with a value
//! computed apart from it, or with a property the method must have, and
//! returns `Err(detail)` on a mismatch. The tests at the bottom feed every
//! check a wrong answer and confirm that it rejects it.

use perf_taint::{FunctionModel, ModelComparison};
use pt_ir::Module;
use pt_measure::PointProfile;
use serde::json::Value;
use std::collections::BTreeMap;

/// Figure 3: every slowdown is ≥ 1 and full instrumentation costs more
/// than both the default and the taint-based filter.
pub fn fig3_slowdowns(metrics: &BTreeMap<String, f64>) -> Result<(), String> {
    let mut seen = 0;
    for (name, &v) in metrics.iter().filter(|(n, _)| n.starts_with("slowdown_")) {
        seen += 1;
        if v.is_nan() || v < 1.0 {
            return Err(format!("{name} = {v} < 1"));
        }
    }
    if seen == 0 {
        return Err("no slowdown metrics reported".into());
    }
    for stat in ["geomean", "max"] {
        let get = |filter: &str| {
            metrics
                .get(&format!("slowdown_{filter}_{stat}_x"))
                .copied()
                .ok_or_else(|| format!("slowdown_{filter}_{stat}_x missing"))
        };
        let full = get("full")?;
        for other in ["default", "taint-based"] {
            let v = get(other)?;
            if full <= v {
                return Err(format!("full {stat} {full} does not exceed {other} {v}"));
            }
        }
    }
    Ok(())
}

/// A scenario metric that must read exactly `want`.
pub fn metric_is(metrics: &BTreeMap<String, f64>, name: &str, want: f64) -> Result<(), String> {
    match metrics.get(name) {
        Some(&v) if v == want => Ok(()),
        Some(&v) => Err(format!("{name} = {v}, expected {want}")),
        None => Err(format!("{name} missing")),
    }
}

/// Every known kernel is in `have`.
pub fn covers<'a>(
    have: impl IntoIterator<Item = &'a String>,
    kernels: &[&str],
) -> Result<(), String> {
    let have: Vec<&String> = have.into_iter().collect();
    let missing: Vec<&str> = kernels
        .iter()
        .copied()
        .filter(|k| !have.iter().any(|h| h.as_str() == *k))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("missing {missing:?}"))
    }
}

/// Probe-cost identity of one sweep point: an instrumented run executes
/// exactly the native instruction stream, and its simulated wall is the
/// native wall plus Σ calls × probe cost over the native profile.
pub fn probe_identity(
    module: &Module,
    native: &PointProfile,
    probe: &[f64],
    instrumented: &PointProfile,
) -> Result<(), String> {
    if native.insts != instrumented.insts {
        return Err(format!(
            "{}: {} instructions instrumented vs {} native",
            native.point.key(),
            instrumented.insts,
            native.insts
        ));
    }
    let mut index: BTreeMap<&str, usize> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let nfuncs = module.functions.len();
    for (j, name) in module.used_externals().into_iter().enumerate() {
        index.insert(name, nfuncs + j);
    }
    let mut charged = 0.0;
    for (name, timing) in &native.functions {
        let i = index
            .get(name.as_str())
            .ok_or_else(|| format!("profiled function {name} is not in the module"))?;
        charged += timing.calls as f64 * probe.get(*i).copied().unwrap_or(0.0);
    }
    let expected = native.wall + charged;
    let rel = (instrumented.wall - expected).abs() / expected.abs().max(f64::MIN_POSITIVE);
    if rel > 1e-8 {
        return Err(format!(
            "{}: wall {} vs native {} + probes {} (rel. error {rel:.3e})",
            native.point.key(),
            instrumented.wall,
            native.wall,
            charged
        ));
    }
    Ok(())
}

/// Hybrid models respect the taint structure: no false dependency and no
/// parametric model of a taint-proven constant function.
pub fn hybrid_clean(cmp: &ModelComparison) -> Result<(), String> {
    if cmp.false_dependencies.is_empty() && cmp.overfitted_constants.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "false dependencies {:?}, overfitted constants {:?}",
            cmp.false_dependencies, cmp.overfitted_constants
        ))
    }
}

/// Every known kernel has a model.
pub fn modeled(models: &BTreeMap<String, FunctionModel>, kernels: &[&str]) -> Result<(), String> {
    covers(models.keys(), kernels)
}

/// A served `taint_run` summary of a synthetic module reports, for every
/// kernel, exactly the generator's ground-truth monomials.
pub fn synth_deps(served: &Value, truth: &BTreeMap<String, Vec<u64>>) -> Result<(), String> {
    let names: Vec<String> = served
        .get("param_names")
        .and_then(Value::as_arr)
        .ok_or("summary has no param_names")?
        .iter()
        .filter_map(|v| v.as_str().map(String::from))
        .collect();
    let functions = served.get("functions").ok_or("summary has no functions")?;
    for (kernel, monomials) in truth {
        let want = perf_taint::DepStructure::from_monomials(
            monomials.iter().map(|&m| pt_taint::ParamSet(m)).collect(),
        )
        .render(&names);
        let got = functions
            .get(kernel)
            .and_then(|f| f.get("deps"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{kernel}: no deps served"))?;
        if got != want {
            return Err(format!(
                "{kernel}: served deps '{got}', ground truth '{want}'"
            ));
        }
    }
    Ok(())
}

/// Byte identity of two renderings.
pub fn same_bytes(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "differs at byte {at} ({} vs {} bytes)",
        expected.len(),
        got.len()
    ))
}

/// The rendered terms (coefficients and constant stripped) of a rendered
/// model, e.g. `1.2e-1 + 3.4e-3·size^2` → `["size^2"]`.
pub fn model_terms(rendered: &str) -> Vec<String> {
    let mut terms: Vec<String> = rendered
        .split(" + ")
        .filter_map(|part| part.split_once('·').map(|(_, term)| term.to_string()))
        .collect();
    terms.sort();
    terms
}

/// A fitted model recovers exactly the generating function's terms.
pub fn fit_terms(rendered: &str, expected: &[String]) -> Result<(), String> {
    let mut want = expected.to_vec();
    want.sort();
    let got = model_terms(rendered);
    if got == want {
        Ok(())
    } else {
        Err(format!("fitted '{rendered}', expected terms {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use perf_taint::SessionBuilder;
    use pt_extrap::{fit_multi_param, SearchSpace};
    use pt_measure::{run_point, Filter};

    #[test]
    fn synth_check_rejects_a_mutated_monomial() {
        let synth = pt_apps::synth::generate(&pt_apps::synth::SynthConfig {
            seed: 5,
            num_params: 3,
            num_kernels: 3,
            max_depth: 3,
            param_values: vec![3, 4, 5],
        });
        let analysis = SessionBuilder::new(&synth.app.module, &synth.app.entry)
            .build()
            .taint_run(synth.app.taint_run_params())
            .unwrap();
        let summary = perf_taint::report::analysis_summary(&analysis, &synth.app.module);
        let served = Value::parse(&summary.render()).unwrap();
        synth_deps(&served, &synth.truth).unwrap();

        let mut wrong = synth.truth.clone();
        let (_, monomials) = wrong.iter_mut().find(|(_, m)| !m.is_empty()).unwrap();
        monomials[0] ^= 0b100;
        if monomials[0] == 0 {
            monomials[0] = 0b001;
        }
        assert!(synth_deps(&served, &wrong).is_err());
    }

    #[test]
    fn cold_modules_recover_their_truth_on_many_seeds() {
        for seed in 0..40 {
            for cycle in 0..5 {
                let synth = inputs::cold_module(seed, cycle);
                let analysis = SessionBuilder::new(&synth.app.module, &synth.app.entry)
                    .build()
                    .taint_run(synth.app.taint_run_params())
                    .unwrap();
                let summary = perf_taint::report::analysis_summary(&analysis, &synth.app.module);
                synth_deps(&summary, &synth.truth)
                    .unwrap_or_else(|e| panic!("seed {seed} cycle {cycle}: {e}"));
            }
        }
    }

    #[test]
    fn fit_check_rejects_a_wrong_term() {
        let case = inputs::fit_case(3, 0);
        let fitted = fit_multi_param(&case.set, &SearchSpace::small(), None);
        let rendered = fitted.model.render(&case.names);
        fit_terms(&rendered, &case.terms).unwrap();

        let mut wrong = case.terms.clone();
        wrong[0] = format!("{}·log2(p)", wrong[0]);
        assert!(fit_terms(&rendered, &wrong).is_err());
        assert!(fit_terms("1.000e-1 + 2.000e-3·size^1.5", &case.terms).is_err());
    }

    #[test]
    fn fit_family_is_recovered_on_many_seeds() {
        for seed in 0..256 {
            for cycle in 0..4 {
                let case = inputs::fit_case(seed, cycle);
                let fitted = fit_multi_param(&case.set, &SearchSpace::small(), None);
                let rendered = fitted.model.render(&case.names);
                fit_terms(&rendered, &case.terms)
                    .unwrap_or_else(|e| panic!("seed {seed} cycle {cycle}: {e}"));
            }
        }
    }

    #[test]
    fn probe_check_rejects_a_perturbed_identity() {
        let app = pt_apps::lulesh::build();
        let analysis = SessionBuilder::new(&app.module, &app.entry)
            .build()
            .taint_run(app.taint_run_params())
            .unwrap();
        let point = &pt_bench::grid(&app, "size", &[8], &[8], &[("iters", 1)])[0];
        let native_probe = Filter::None.probe_vector(&app.module, pt_bench::PROBE_COST);
        let native = run_point(
            &app.module,
            analysis.prepared(),
            &app.entry,
            point,
            &native_probe,
        )
        .unwrap();
        let probe = Filter::Full.probe_vector(&app.module, pt_bench::PROBE_COST);
        let full = run_point(&app.module, analysis.prepared(), &app.entry, point, &probe).unwrap();
        probe_identity(&app.module, &native, &probe, &full).unwrap();

        let mut perturbed = full.clone();
        perturbed.wall *= 1.0 + 1e-6;
        assert!(probe_identity(&app.module, &native, &probe, &perturbed).is_err());
        let mut extra = full.clone();
        extra.insts += 1;
        assert!(probe_identity(&app.module, &native, &probe, &extra).is_err());
    }

    #[test]
    fn warm_check_rejects_a_one_byte_change() {
        let answer = r#"{"module":"m","functions":{"f":{"kind":"kernel","deps":"p"}}}"#;
        same_bytes(answer, answer).unwrap();
        let mut bytes = answer.as_bytes().to_vec();
        bytes[answer.len() / 2] ^= 1;
        let changed = String::from_utf8(bytes).unwrap();
        assert!(same_bytes(answer, &changed).is_err());
    }

    #[test]
    fn fig3_check_rejects_a_cheap_full_filter() {
        let mut m: BTreeMap<String, f64> = [
            ("slowdown_full_geomean_x", 30.0),
            ("slowdown_full_max_x", 31.0),
            ("slowdown_default_geomean_x", 1.01),
            ("slowdown_default_max_x", 1.02),
            ("slowdown_taint-based_geomean_x", 1.02),
            ("slowdown_taint-based_max_x", 1.03),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        fig3_slowdowns(&m).unwrap();
        m.insert("slowdown_full_max_x".into(), 1.0);
        assert!(fig3_slowdowns(&m).is_err());
        m.insert("slowdown_full_max_x".into(), 31.0);
        m.insert("slowdown_default_geomean_x".into(), 0.99);
        assert!(fig3_slowdowns(&m).is_err());
    }

    #[test]
    fn edit_replaces_exactly_one_constant() {
        let text = "call void @pt_work_flops(12)\ncall void @pt_work_flops(7)\n";
        let sites = inputs::flops_sites(text);
        assert_eq!(sites.len(), 2);
        let edited = inputs::edit_flops(text, &sites, 1, 100_003);
        assert_eq!(
            edited,
            "call void @pt_work_flops(12)\ncall void @pt_work_flops(100003)\n"
        );
    }
}
