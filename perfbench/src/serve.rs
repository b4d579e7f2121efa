//! `serve_loop`: the `pt-server` binary, started fresh on an empty store
//! with at most two workers, driven in a closed loop over one client
//! connection (the service's callers each wait for their reply).
//!
//! One operation is a cycle of four requests:
//!
//! * `cold`: submit a never-seen seeded synthetic module, then `taint_run`
//!   it;
//! * `warm`: repeat the answered LULESH `taint_run`;
//! * `edit`: submit LULESH with one `pt_work_flops` constant changed in
//!   place, then `taint_run` it;
//! * `fit`: `fit_model` on a 5×5 × 5-rep set drawn from a known function.
//!
//! A round starts a fresh server on an empty store, sets up (submits
//! LULESH and answers its `taint_run` once), runs a fixed number of cycles
//! and stops the server; the store fills over the round. Rounds repeat
//! while the window lasts, so every run sees the same store history.

use crate::checks;
use crate::common::{median, peak_rss_mb, timed, Tally, Window};
use crate::inputs;
use crate::Outcome;
use perf_taint::SessionBuilder;
use pt_server::Client;
use serde::json::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const W: &str = "serve_loop";

/// Cycles per round. Each round starts a fresh server on an empty store,
/// which then fills over the round's cycles.
pub const CYCLES_PER_ROUND: u64 = 15;

/// Set-ups timed before the window, on top of the one that opens each
/// round. One set-up's wall swings by a third or more from the next, so the
/// four or five of the rounds alone gave `setup_s` medians a fifth apart
/// between sets of runs.
const EXTRA_SETUPS: usize = 8;

/// A `pt-server` child process on an ephemeral loopback port.
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    store: PathBuf,
}

impl ServerProc {
    /// Start `bin` on an empty store at `store`. `trace_out` turns on the
    /// server's whole-process Chrome trace export.
    pub fn start(
        bin: &Path,
        store: &Path,
        workers: usize,
        trace_out: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(store);
        let mut cmd = Command::new(bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--trace-sample-every")
            .arg("0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("pt-server listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not come up (said {line:?})"));
        };
        Ok(ServerProc {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
            store: store.to_path_buf(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    /// Ask the server to shut down and wait for it to exit (killing it if
    /// it has not within ten seconds); then remove its store.
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Client-side latency in ms and, for traced requests, the handler's wall
/// in ms and its per-stage totals (`stages_ms` of the `trace` reply).
#[derive(Debug, Default, Clone)]
pub struct Timing {
    pub latency_ms: f64,
    pub handler_ms: f64,
    pub stages: Option<Value>,
}

/// A connected client plus the fixed inputs of a run.
pub struct Loop {
    pub server: ServerProc,
    pub client: Client,
    pub seed: u64,
    pub lulesh_text: String,
    pub lulesh_entry: String,
    pub lulesh_params: Vec<(String, i64)>,
    pub lulesh_key: String,
    pub sites: Vec<(usize, usize)>,
    /// The first answer of the warm key, the reference for every repeat.
    pub warm_answer: String,
}

fn params_json(params: &[(String, i64)]) -> Value {
    Value::Obj(
        params
            .iter()
            .map(|(n, v)| (n.clone(), Value::int(*v)))
            .collect(),
    )
}

impl Loop {
    /// Start a server on `store`, connect, submit LULESH and answer the
    /// warm key once.
    pub fn start(
        bin: &Path,
        store: &Path,
        workers: usize,
        seed: u64,
        trace_out: Option<&Path>,
    ) -> Result<Loop, String> {
        let server = ServerProc::start(bin, store, workers, trace_out)?;
        let mut client =
            Client::connect(&server.addr).map_err(|e| format!("cannot connect: {e}"))?;
        let app = pt_apps::lulesh::build();
        let lulesh_text = pt_ir::printer::print_module(&app.module);
        let lulesh_key = client
            .submit_module(&lulesh_text)
            .map_err(|e| format!("submit LULESH: {e}"))?;
        let lulesh_params = app.taint_run_params();
        let warm_answer = client
            .taint_run(&lulesh_key, &app.entry, &lulesh_params)
            .map_err(|e| format!("first LULESH taint_run: {e}"))?
            .render();
        Ok(Loop {
            server,
            client,
            seed,
            sites: inputs::flops_sites(&lulesh_text),
            lulesh_text,
            lulesh_entry: app.entry.clone(),
            lulesh_params,
            lulesh_key,
            warm_answer,
        })
    }

    /// Send one request, wrapped in the protocol's `trace` method when
    /// `traced`; returns the inner result and its timing.
    pub fn call(
        &mut self,
        method: &str,
        params: Value,
        traced: bool,
    ) -> Result<(Value, Timing), String> {
        let started = Instant::now();
        let reply = if traced {
            self.client.trace(method, params)
        } else {
            self.client.request(method, params)
        }
        .map_err(|e| format!("{method}: {e}"))?;
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        if !traced {
            let timing = Timing {
                latency_ms,
                ..Timing::default()
            };
            return Ok((reply, timing));
        }
        let result = reply
            .get("result")
            .cloned()
            .ok_or_else(|| format!("{method}: trace reply without result"))?;
        let timing = Timing {
            latency_ms,
            handler_ms: reply.get("wall_us").and_then(Value::as_f64).unwrap_or(0.0) / 1e3,
            stages: reply.get("stages_ms").cloned(),
        };
        Ok((result, timing))
    }

    /// Submit `text` and `taint_run` it: the cold and edit requests.
    fn submit_and_run(
        &mut self,
        text: &str,
        entry: &str,
        params: &[(String, i64)],
        traced: bool,
    ) -> Result<(Value, Timing), String> {
        let (submitted, submit) = self.call(
            "submit_module",
            Value::obj(vec![("text", Value::str(text))]),
            traced,
        )?;
        let key = submitted
            .get("module")
            .and_then(Value::as_str)
            .ok_or("submit_module result without module")?
            .to_string();
        let (served, run) = self.call(
            "taint_run",
            Value::obj(vec![
                ("module", Value::str(key)),
                ("entry", Value::str(entry)),
                ("params", params_json(params)),
            ]),
            traced,
        )?;
        let timing = Timing {
            latency_ms: submit.latency_ms + run.latency_ms,
            handler_ms: submit.handler_ms + run.handler_ms,
            stages: run.stages,
        };
        Ok((served, timing))
    }

    /// `cold`: a never-seen synthetic module, checked against the
    /// generator's ground truth.
    pub fn cold(&mut self, cycle: u64, traced: bool, tally: &mut Tally) -> Option<Timing> {
        let synth = inputs::cold_module(self.seed, cycle);
        let text = pt_ir::printer::print_module(&synth.app.module);
        let params = synth.app.taint_run_params();
        let (r, _) = timed("serve.cold", || {
            self.submit_and_run(&text, &synth.app.entry, &params, traced)
        });
        let (served, timing) = settle(tally, "cold", r)?;
        tally.check(
            W,
            "cold_deps_match_truth",
            checks::synth_deps(&served, &synth.truth),
        );
        Some(timing)
    }

    /// `warm`: the answered LULESH key again, byte-identical to its first
    /// answer.
    pub fn warm(&mut self, traced: bool, tally: &mut Tally) -> Option<Timing> {
        let params = Value::obj(vec![
            ("module", Value::str(&self.lulesh_key)),
            ("entry", Value::str(&self.lulesh_entry)),
            ("params", params_json(&self.lulesh_params)),
        ]);
        let (r, _) = timed("serve.warm", || self.call("taint_run", params, traced));
        let (served, timing) = settle(tally, "warm", r)?;
        tally.check(
            W,
            "warm_bytes_identical",
            checks::same_bytes(&self.warm_answer, &served.render()),
        );
        Some(timing)
    }

    /// `edit`: LULESH with one constant changed in place, equal to a fresh
    /// in-process recompute of the edited text.
    pub fn edit(&mut self, cycle: u64, traced: bool, tally: &mut Tally) -> Option<Timing> {
        let (site, value) = inputs::edit_of(self.seed, cycle, self.sites.len());
        let text = inputs::edit_flops(&self.lulesh_text, &self.sites, site, value);
        let (entry, params) = (self.lulesh_entry.clone(), self.lulesh_params.clone());
        let (r, _) = timed("serve.edit", || {
            self.submit_and_run(&text, &entry, &params, traced)
        });
        let (served, timing) = settle(tally, "edit", r)?;
        tally.check(
            W,
            "edit_matches_recompute",
            recompute(&text, &entry, &params)
                .and_then(|want| checks::same_bytes(&want, &served.render())),
        );
        Some(timing)
    }

    /// `fit`: a set drawn from a known function; the fit must recover its
    /// terms.
    pub fn fit(&mut self, cycle: u64, traced: bool, tally: &mut Tally) -> Option<Timing> {
        let case = inputs::fit_case(self.seed, cycle);
        let (r, _) = timed("serve.fit", || {
            self.call("fit_model", fit_request(&case), traced)
        });
        let (served, timing) = settle(tally, "fit", r)?;
        let model = served.get("model").and_then(Value::as_str).unwrap_or("");
        tally.check(
            W,
            "fit_recovers_terms",
            checks::fit_terms(model, &case.terms),
        );
        Some(timing)
    }

    /// One untraced four-request cycle, checked: the latencies of cold,
    /// warm, edit and fit in ms, or `None` if a request failed. Input
    /// generation and checks sit outside the request timings.
    pub fn cycle(&mut self, cycle: u64, tally: &mut Tally) -> Option<[f64; 4]> {
        let cold = self.cold(cycle, false, tally);
        let warm = self.warm(false, tally);
        let edit = self.edit(cycle, false, tally);
        let fit = self.fit(cycle, false, tally);
        Some([
            cold?.latency_ms,
            warm?.latency_ms,
            edit?.latency_ms,
            fit?.latency_ms,
        ])
    }
}

/// Count a request class's outcome; on success hand back its result.
fn settle(
    tally: &mut Tally,
    class: &'static str,
    r: Result<(Value, Timing), String>,
) -> Option<(Value, Timing)> {
    tally.op(class, r.is_ok());
    r.map_err(|e| eprintln!("perfbench: {W}: {class} request failed: {e}"))
        .ok()
}

/// The `fit_model` request of a fit case.
pub fn fit_request(case: &inputs::FitCase) -> Value {
    let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
    Value::obj(vec![
        (
            "param_names",
            Value::Arr(case.names.iter().map(Value::str).collect()),
        ),
        (
            "points",
            Value::Arr(
                case.set
                    .points
                    .iter()
                    .map(|p| Value::obj(vec![("coords", nums(&p.coords)), ("reps", nums(&p.reps))]))
                    .collect(),
            ),
        ),
    ])
}

/// A fresh in-process recompute of a module's `taint_run` summary.
pub fn recompute(text: &str, entry: &str, params: &[(String, i64)]) -> Result<String, String> {
    let module = perf_taint::parse_module(text).map_err(|e| e.to_string())?;
    let analysis = SessionBuilder::new(&module, entry)
        .build()
        .taint_run(params.to_vec())
        .map_err(|e| e.to_string())?;
    Ok(perf_taint::report::analysis_summary(&analysis, &module).render())
}

pub fn run(
    bin: &Path,
    out_dir: &Path,
    seed: u64,
    seconds: f64,
    workers: usize,
    tally: &mut Tally,
) -> Outcome {
    let mut out = Outcome::default();
    let mut by_class: [Vec<f64>; 4] = Default::default();
    let mut rss = Vec::new();
    let store = out_dir.join(format!("store-{}", std::process::id()));
    for _ in 0..EXTRA_SETUPS {
        let (made, wall) = timed("serve_loop.setup", || {
            Loop::start(bin, &store, workers, seed, None)
        });
        out.setup_s.push(wall);
        // Dropping the loop stops its server.
        if let Err(e) = made {
            tally.check(W, "setup", Err(e));
        }
    }
    let mut window = Window::new(seconds);
    while let Some(round) = window.next_round() {
        let (made, wall) = timed("serve_loop.setup", || {
            Loop::start(bin, &store, workers, seed, None)
        });
        out.setup_s.push(wall);
        let mut l = match made {
            Ok(l) => l,
            Err(e) => {
                tally.check(W, "setup", Err(e));
                continue;
            }
        };
        for c in 0..CYCLES_PER_ROUND {
            let ms = l.cycle(round * CYCLES_PER_ROUND + c, tally);
            if let Some(ms) = ms {
                out.op_s.push(ms.iter().sum::<f64>() / 1e3);
                for (class, v) in by_class.iter_mut().zip(ms) {
                    class.push(v);
                }
            }
        }
        rss.extend(peak_rss_mb(&l.server.pid().to_string()));
    }
    out.rss_mb = Some(median(&rss));
    let [cold, warm, edit, fit] = by_class.map(|v| median(&v));
    eprintln!(
        "perfbench: {W}: median cold {cold:.1} ms, warm {warm:.1} ms, edit {edit:.1} ms, fit {fit:.2} ms"
    );
    out
}
