//! Seeded inputs: the cold synthetic modules, the in-place LULESH edits,
//! and the fit sets drawn from known PMNF functions.
//!
//! Every generator is a pure function of `(seed, cycle)`, so a run is
//! reproducible from its `--seed` and two runs with different seeds share
//! no input.

use crate::common::mix;
use pt_apps::synth::{generate, SynthApp, SynthConfig};
use pt_extrap::{MeasurementSet, Term};
use pt_measure::{rng_for, NoiseModel};

/// Kernels per cold synthetic module: about 20 KB of IR text, the size
/// class of the evaluation apps' modules.
pub const SYNTH_KERNELS: usize = 40;

/// The cold request's module: a never-seen synthetic program with known
/// per-kernel monomials.
pub fn cold_module(seed: u64, cycle: u64) -> SynthApp {
    generate(&SynthConfig {
        seed: mix(seed, 0xC01D ^ cycle),
        num_params: 3,
        num_kernels: SYNTH_KERNELS,
        max_depth: 3,
        param_values: vec![3, 4, 5],
    })
}

/// Byte offsets of the integer literal of every `pt_work_flops` call in
/// printed IR text.
pub fn flops_sites(text: &str) -> Vec<(usize, usize)> {
    const CALL: &str = "@pt_work_flops(";
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(CALL) {
        let start = from + at + CALL.len();
        let len = text[start..]
            .bytes()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if len > 0 {
            sites.push((start, start + len));
        }
        from = start;
    }
    sites
}

/// `text` with the `site`-th `pt_work_flops` constant replaced by `value`:
/// an in-place edit of one function (names and call structure unchanged).
pub fn edit_flops(text: &str, sites: &[(usize, usize)], site: usize, value: i64) -> String {
    let (start, end) = sites[site % sites.len()];
    format!("{}{value}{}", &text[..start], &text[end..])
}

/// The edit of `cycle`: a seeded site and a constant no earlier cycle of
/// the run used, so every edit is a never-seen module.
pub fn edit_of(seed: u64, cycle: u64, sites: usize) -> (usize, i64) {
    let site = (mix(seed, 0xED17 ^ cycle) % sites as u64) as usize;
    (site, 100_000 + cycle as i64)
}

/// A two-parameter measurement set drawn from a known PMNF function, and
/// the rendered terms a correct fit must recover.
pub struct FitCase {
    pub names: Vec<String>,
    pub set: MeasurementSet,
    /// Rendered terms of the generating function (`Term::render`).
    pub terms: Vec<String>,
}

/// Axis values of the fit set (5 × 5 points).
pub const FIT_P: [f64; 5] = [4.0, 8.0, 16.0, 32.0, 64.0];
pub const FIT_SIZE: [f64; 5] = [10.0, 20.0, 30.0, 40.0, 50.0];
/// Repetitions per fit point.
pub const FIT_REPS: usize = 5;

/// The generating functions' term structures over (p, size): one term in
/// each parameter, added. (A lone product term such as `p·size` is left
/// out: the two-term search fits a spurious second term to its noise, and
/// so is `size^1.5 + log2(p)^2` on about one seed in 500.)
fn fit_family(k: u64) -> Vec<Term> {
    let p = |e: f64, l: u32| Term::single(0, e, l);
    let s = |e: f64, l: u32| Term::single(1, e, l);
    match k % 6 {
        0 => vec![s(2.0, 0), p(0.0, 1)],
        1 => vec![s(3.0, 0), p(1.0, 0)],
        2 => vec![s(1.0, 1), p(0.5, 0)],
        3 => vec![s(2.0, 0), p(1.0, 0)],
        4 => vec![s(3.0, 0), p(0.5, 1)],
        _ => vec![s(2.0, 1), p(1.5, 0)],
    }
}

/// The fit request of `cycle`: a seeded function from the family, seeded
/// coefficients, and 0.1% seeded multiplicative noise.
pub fn fit_case(seed: u64, cycle: u64) -> FitCase {
    let names = vec!["p".to_string(), "size".to_string()];
    let key = mix(seed, 0xF17 ^ cycle);
    let terms = fit_family(key);
    let unit = |salt: u64| (mix(key, salt) >> 11) as f64 / (1u64 << 53) as f64;
    let corner = [FIT_P[4], FIT_SIZE[4]];
    // Each term contributes 1–2 units at the largest point; the constant
    // a fifth of a unit.
    let coefs: Vec<f64> = terms
        .iter()
        .enumerate()
        .map(|(i, t)| (1.0 + unit(i as u64 + 1)) / t.eval(&corner))
        .collect();
    let constant = 0.1 + 0.1 * unit(99);
    let noise = NoiseModel {
        rel_sigma: 0.001,
        abs_floor: 0.0,
    };
    let mut set = MeasurementSet::new(names.clone());
    for &p in &FIT_P {
        for &size in &FIT_SIZE {
            let x = [p, size];
            let truth = constant
                + terms
                    .iter()
                    .zip(&coefs)
                    .map(|(t, c)| c * t.eval(&x))
                    .sum::<f64>();
            let mut rng = rng_for(key, &format!("{p},{size}"));
            set.push(x.to_vec(), noise.sample_reps(truth, FIT_REPS, &mut rng));
        }
    }
    let terms = terms.iter().map(|t| t.render(&names)).collect();
    FitCase { names, set, terms }
}
