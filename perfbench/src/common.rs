//! Shared plumbing: timing under the benchmark's own spans, sample
//! statistics, failure accounting, and process memory readouts.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span category of every span the benchmark opens itself; the Chrome
/// export keeps exactly these.
pub const SPAN_CAT: &str = "bench";

/// Run `f` inside a benchmark span named `name`; returns its result and
/// its wall time in seconds.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = pt_util::trace::span(SPAN_CAT, name);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// The measurement window of a run: whole rounds run while the next one
/// is expected (by the mean round so far) to end inside it; the first
/// round always runs.
pub struct Window {
    started: Instant,
    seconds: f64,
    rounds: u64,
}

impl Window {
    pub fn new(seconds: f64) -> Window {
        Window {
            started: Instant::now(),
            seconds,
            rounds: 0,
        }
    }

    /// Start the next round; `None` when it would overrun the window.
    pub fn next_round(&mut self) -> Option<u64> {
        let elapsed = self.started.elapsed().as_secs_f64();
        if self.rounds > 0 && elapsed * (self.rounds + 1) as f64 / self.rounds as f64 > self.seconds
        {
            return None;
        }
        self.rounds += 1;
        Some(self.rounds - 1)
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Operations attempted and failed, plus every failed check by name.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks: `"<workload>: check '<name>'"` → (first detail,
    /// times failed).
    pub check_failures: BTreeMap<String, (String, u64)>,
    /// Per-class `(attempted, failed)`, for the stderr summary.
    pub classes: BTreeMap<&'static str, (u64, u64)>,
}

impl Tally {
    /// Count one operation of `class`; `ok == false` counts it failed.
    pub fn op(&mut self, class: &'static str, ok: bool) {
        self.attempted += 1;
        let slot = self.classes.entry(class).or_default();
        slot.0 += 1;
        if !ok {
            self.failed += 1;
            slot.1 += 1;
        }
    }

    /// Record the outcome of a named check of `workload`.
    pub fn check(&mut self, workload: &str, name: &str, outcome: Result<(), String>) {
        if let Err(detail) = outcome {
            self.check_failures
                .entry(format!("{workload}: check '{name}'"))
                .or_insert((detail, 0))
                .1 += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Peak resident set size of process `pid` (`"self"` for this process)
/// in MB, from the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A splitmix64 step: derives independent per-purpose seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named metric values in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}
