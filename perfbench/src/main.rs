//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|search|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), a run repeats workload passes for `--seconds`,
//! each after a few set-ups (their median is `setup_s`), and reports
//! every end-to-end metric. Traced (`--trace 1`), it spends half
//! the time untraced and half with spans around every call it makes into
//! a layer, runs the layer probes, writes the spans as trace-event JSON
//! under `perfbench/out/` and reports every per-layer metric. Either way
//! it checks every output, prints a readable summary, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use edc_core::json::Json;
use perfbench::calib::{self, HostSpeed};
use perfbench::search::{self, SearchSetup};
use perfbench::serve;
use perfbench::stats::{median, quantile};
use perfbench::sweep;
use perfbench::trace::{self, Tracer};
use perfbench::{probes, repeat_for, THREADS};

/// Before each pass the set-up repeats for this long (at least once).
const SETUP_SLICE_S: f64 = 0.02;

/// Reference units timed between the sweep-engine calls and searches of
/// an untraced sweep or search pass (about a seventh of the run) and
/// between serve windows (about a sixth).
const PASS_UNITS: u64 = 600;
const WINDOW_UNITS: u64 = 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Extra readable lines for the summary.
    notes: Vec<String>,
}

impl Outcome {
    /// Records a measured value; a non-finite one (a median of no
    /// samples) leaves the metric unmeasured.
    fn set(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        } else {
            self.notes.push(format!("{name}: no sample"));
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Scratch stores of this process, removed when it ends; the process id
/// keeps concurrent runs in one checkout apart.
fn scratch_dir() -> PathBuf {
    out_dir().join(format!("scratch-{}", std::process::id()))
}

/// Empties `path` of files, keeping the directory itself (see
/// [`perfbench::reset_dir`] for why serve does not re-create it).
fn emptied_dir(path: &Path) -> PathBuf {
    std::fs::create_dir_all(path).expect("the directory can be created");
    for entry in std::fs::read_dir(path).expect("the directory reads") {
        let entry = entry.expect("the directory entry reads");
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::remove_file(entry.path()).expect("the file can be removed");
        }
    }
    path.to_path_buf()
}

fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("the output directory can be created");
    }
    path.to_path_buf()
}

/// Set-up times, sampled before every pass so that `setup_s` — their
/// median — reflects the whole run rather than its first half second.
#[derive(Default)]
struct Setups(Vec<f64>);

impl Setups {
    /// Repeats `setup` for [`SETUP_SLICE_S`] (at least once), recording
    /// each time, and returns the last result.
    fn run<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let started = Instant::now();
        loop {
            let t = Instant::now();
            let result = setup();
            self.0.push(t.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                return result;
            }
        }
    }

    fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Scales the set-up times recorded since `mark` by `factor`.
    fn scale_since(&mut self, mark: usize, factor: f64) {
        for t in &mut self.0[mark..] {
            *t *= factor;
        }
    }
}

/// The host-speed scaling of an untraced run; a traced run's timings stay
/// as measured.
fn host_speed(args: &Args, units: u64) -> HostSpeed {
    HostSpeed::new(if args.trace { 0 } else { units })
}

/// States the scaling in the summary, with the pass times as measured;
/// a reference slice that computed a wrong result fails the run.
fn host_note(out: &mut Outcome, host: &HostSpeed, raw_run_s: &[f64]) {
    if host.wrong > 0 {
        out.problems
            .push(format!("{} reference slices computed wrongly", host.wrong));
    }
    if host.factors.is_empty() {
        return;
    }
    out.notes.push(format!(
        "timings scaled to the reference host speed: {} slices, median {:.1} us per unit \
         (reference {:.1} us); factor median {:.4}, range {:.4}..{:.4}; \
         run_s as measured {:.6} s",
        host.unit_s.len(),
        median(&host.unit_s) * 1e6,
        calib::REF_UNIT_S * 1e6,
        median(&host.factors),
        host.factors.iter().copied().fold(f64::INFINITY, f64::min),
        host.factors.iter().copied().fold(0.0, f64::max),
        median(raw_run_s),
    ));
}

/// Per-layer self time, coverage and overhead from the traced passes.
fn trace_metrics(
    out: &mut Outcome,
    spans: &[trace::Span],
    traced_passes: usize,
    untraced_run_s: f64,
    traced_run_s: f64,
) {
    let per_pass = traced_passes.max(1) as f64;
    let self_time = trace::self_time_by_layer(spans);
    let total: f64 = self_time.values().sum::<f64>() / per_pass;
    for (layer, s) in &self_time {
        out.set(&format!("{layer}.self_s"), s / per_pass);
    }
    out.set("trace.spans", spans.len() as f64 / per_pass);
    out.set("trace.coverage", total / (untraced_run_s * THREADS as f64));
    out.set("trace.overhead_s", traced_run_s - untraced_run_s);
}

/// The probes every traced run makes, whatever the workload.
fn run_probes(out: &mut Outcome) {
    let catalog = search::catalog();
    let specs = search::space(&catalog).all_specs();
    let document = std::fs::read_to_string(committed_bound()).unwrap_or_default();
    let report = serve::pool()[0]
        .run()
        .expect("a pool design runs")
        .to_json();
    probes::mcu(&mut out.metrics);
    probes::harvest(&catalog, &mut out.metrics);
    probes::telemetry(&mut out.metrics);
    probes::core(&specs[0], &document, &mut out.metrics);
    probes::store(
        &specs,
        &report,
        &fresh_dir(&scratch_dir().join("probe-store")),
        &mut out.metrics,
    );
    probes::lint_and_bound(&specs, &catalog, &mut out.metrics);
}

fn committed_bound() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_bound.json")
}

fn pass_note(out: &mut Outcome, what: &str, times: &[f64]) {
    let list: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    let list = if list.len() > 12 {
        format!(
            "{} ... {}",
            list[..6].join(" "),
            list[list.len() - 6..].join(" ")
        )
    } else {
        list.join(" ")
    };
    out.notes.push(format!("{} {what}, s: {list}", times.len()));
}

/// Request latency percentiles: `(p50, p99)` per window — every sweep
/// cell of the run, one search pass, or a few serve episodes — with the
/// median over windows reported, so one burst of host jitter does not
/// move them.
fn latency_metrics(out: &mut Outcome, windows: &[(f64, f64)], samples: u64) {
    out.set(
        "req_p50_us",
        median(&windows.iter().map(|w| w.0).collect::<Vec<_>>()),
    );
    out.set(
        "req_p99_us",
        median(&windows.iter().map(|w| w.1).collect::<Vec<_>>()),
    );
    out.notes.push(format!(
        "{samples} latency samples in {} windows",
        windows.len()
    ));
}

/// `(p50, p99)` of one window of equally weighted samples, µs.
fn percentiles(us: &[f64]) -> (f64, f64) {
    (quantile(us, 0.5), quantile(us, 0.99))
}

/// Runs and checks a sweep pass; only the first pass keeps its reports,
/// so memory stays flat however many passes a run makes.
fn checked_sweep_pass(
    out: &mut Outcome,
    specs: &[edc_core::experiment::ExperimentSpec],
    tracer: &Tracer,
    host: &mut HostSpeed,
    i: u64,
) -> sweep::SweepPass {
    let mut p = sweep::pass(specs, tracer, host, i);
    let (failed, problems) = sweep::failed_cells(specs, &p);
    out.attempted += p.reports.len() as u64;
    out.failed += failed as u64;
    out.problems.extend(problems);
    if i > 0 {
        p.reports = Vec::new();
    }
    p
}

fn run_sweep(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let setup = || {
        let specs = sweep::specs();
        for spec in &specs {
            spec.validate().expect("the catalogue grid validates");
        }
        specs
    };
    let specs = setup();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let off = Tracer::new(false);
    let mut host = host_speed(args, PASS_UNITS);
    let passes = repeat_for(untraced_s, |i| {
        let mark = setups.0.len();
        let specs = setups.run(setup);
        let p = checked_sweep_pass(&mut out, &specs, &off, &mut host, i);
        setups.scale_since(mark, p.total_s / p.raw_total_s);
        p
    });
    let raw_run_s: Vec<f64> = passes.iter().map(|p| p.raw_total_s).collect();
    host_note(&mut out, &host, &raw_run_s);
    out.set("setup_s", setups.median());
    let each =
        |f: &dyn Fn(&sweep::SweepPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let run_s = each(&|p| p.total_s);
    out.set("run_s", run_s);
    out.set(
        "sim_minstr_per_s",
        each(&|p| p.registry_instructions as f64 / p.total_s / 1e6),
    );
    out.set(
        "sim_mticks_per_s",
        each(&|p| p.registry_ticks as f64 / p.total_s / 1e6),
    );
    // A sweep request is one cell of the grid, all submitted when the
    // pass starts: its latency runs until the cell's result is out. One
    // pass has too few cells beyond its p99, so every cell of every pass
    // is one window.
    out.set("req_per_s", each(&|p| p.cell_s.len() as f64 / p.total_s));
    let cell_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| sweep::completion_s(&p.cell_s, THREADS))
        .map(|s| s * 1e6)
        .collect();
    latency_metrics(&mut out, &[percentiles(&cell_us)], cell_us.len() as u64);
    pass_note(
        &mut out,
        "passes over 462 cells",
        &passes.iter().map(|p| p.total_s).collect::<Vec<_>>(),
    );
    if !args.trace {
        return out;
    }

    let c = sweep::counts(&specs, &passes[0].reports);
    out.set(
        "bench.worker_idle_share",
        each(&|p| 1.0 - p.cell_s.iter().sum::<f64>() / (p.total_s * THREADS as f64)),
    );
    out.set(
        "bench.cell_s_max",
        each(&|p| p.cell_s.iter().copied().fold(0.0, f64::max)),
    );
    out.set("transient.ticks", c.ticks as f64);
    out.set("transient.ticks_dead", c.dead_ticks as f64);
    out.set("transient.dnf_cells", c.dnf_cells as f64);
    out.set(
        "transient.slowest_cell_share",
        each(&|p| p.cell_s.iter().copied().fold(0.0, f64::max) / p.cell_s.iter().sum::<f64>()),
    );
    out.set("mcu.instructions", passes[0].registry_instructions as f64);
    out.set("telemetry.events", c.telemetry_events as f64);
    out.set("metrics.render_us", each(&|p| p.render_s * 1e6));
    let cell_s: Vec<f64> = (0..specs.len())
        .map(|i| median(&passes.iter().map(|p| p.cell_s[i]).collect::<Vec<_>>()))
        .collect();
    if let Some(([dead, active, instr], err)) = sweep::cost_fit(&passes[0].reports, &cell_s) {
        out.set("transient.ns_per_tick_dead", dead);
        out.set("transient.ns_per_tick_active", active);
        out.set("mcu.ns_per_instr_fit", instr);
        out.set("transient.fit_rel_err", err);
    }

    let tracer = Tracer::new(true);
    let traced = repeat_for(args.seconds / 2.0, |i| {
        checked_sweep_pass(&mut out, &specs, &tracer, &mut host, i)
    });
    let traced_run_s = median(&traced.iter().map(|p| p.total_s).collect::<Vec<_>>());
    trace_metrics(&mut out, &tracer.spans(), traced.len(), run_s, traced_run_s);
    write_trace("sweep", args.seed, &tracer.spans(), &mut out);
    out
}

/// Checks a search pass; only the first pass keeps its traces.
fn check_search_pass(out: &mut Outcome, setup: &SearchSetup, p: &mut search::SearchPass, i: u64) {
    let (failed, problems) = search::failed_designs(setup, p);
    out.attempted += search::designs(p);
    out.failed += failed;
    out.problems.extend(problems);
    if i > 0 {
        p.grid.trace = Vec::new();
        p.halving.trace = Vec::new();
    }
}

fn run_search(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let store_dir = scratch_dir().join("search-store");
    let setup = match search::setup(&committed_bound()) {
        Ok(setup) => setup,
        Err(e) => {
            out.problems.push(e);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let mut setups = Setups::default();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let off = Tracer::new(false);
    let pass =
        |out: &mut Outcome, setups: &mut Setups, tracer: &Tracer, host: &mut HostSpeed, i: u64| {
            let mark = setups.0.len();
            let setup = setups
                .run(|| search::setup(&committed_bound()))
                .expect("BENCH_bound.json reads as it did when the run started");
            let mut p = search::pass(&setup, &fresh_dir(&store_dir), tracer, host, i);
            setups.scale_since(mark, (p.grid_s + p.halving_s) / p.raw_s);
            let _ = std::fs::remove_dir_all(&store_dir);
            check_search_pass(out, &setup, &mut p, i);
            p
        };
    let mut host = host_speed(args, PASS_UNITS);
    let passes = repeat_for(untraced_s, |i| {
        pass(&mut out, &mut setups, &off, &mut host, i)
    });
    let raw_run_s: Vec<f64> = passes.iter().map(|p| p.raw_s).collect();
    host_note(&mut out, &host, &raw_run_s);
    out.set("setup_s", setups.median());
    let each =
        |f: &dyn Fn(&search::SearchPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let run_s = each(&|p| p.grid_s + p.halving_s);
    out.set("run_s", run_s);
    out.set(
        "sim_minstr_per_s",
        each(&|p| p.instructions as f64 / (p.grid_s + p.halving_s) / 1e6),
    );
    out.set(
        "sim_mticks_per_s",
        each(&|p| p.ticks as f64 / (p.grid_s + p.halving_s) / 1e6),
    );
    // A search request is one `Explorer::run`; with two per pass, the
    // window "p50" is the faster searcher's time and "p99" the slower's.
    out.set("req_per_s", each(&|p| 2.0 / (p.grid_s + p.halving_s)));
    let windows: Vec<(f64, f64)> = passes
        .iter()
        .map(|p| percentiles(&[p.grid_s * 1e6, p.halving_s * 1e6]))
        .collect();
    latency_metrics(&mut out, &windows, 2 * passes.len() as u64);
    pass_note(
        &mut out,
        "passes of grid + halving",
        &passes
            .iter()
            .map(|p| p.grid_s + p.halving_s)
            .collect::<Vec<_>>(),
    );
    if !args.trace {
        return out;
    }

    let p0 = &passes[0];
    let (grid, halving) = (&p0.grid, &p0.halving);
    out.set(
        "lint.checks",
        (grid.lint_checks + halving.lint_checks) as f64,
    );
    out.set(
        "lint.pruned",
        (grid.lint_pruned + halving.lint_pruned) as f64,
    );
    out.set(
        "bound.checks",
        (grid.bound_checks + halving.bound_checks) as f64,
    );
    out.set(
        "bound.pruned",
        (grid.bound_pruned + halving.bound_pruned) as f64,
    );
    let sims = grid.evaluations + halving.evaluations;
    out.set("explore.simulations", sims as f64);
    out.set("explore.cost_units", grid.cost_units + halving.cost_units);
    out.set(
        "explore.sim_ratio",
        sims as f64 / search::designs(p0) as f64,
    );
    out.set("explore.searcher_s.grid", each(&|p| p.grid_s));
    out.set("explore.searcher_s.halving", each(&|p| p.halving_s));
    // Wall time predicted in proportion to cost units, with one pooled
    // seconds-per-unit rate over every search run.
    let runs: Vec<(f64, f64)> = passes
        .iter()
        .flat_map(|p| {
            [
                (p.grid_s, p.grid.cost_units),
                (p.halving_s, p.halving.cost_units),
            ]
        })
        .collect();
    let rate = runs.iter().map(|r| r.0).sum::<f64>() / runs.iter().map(|r| r.1).sum::<f64>();
    let errors: Vec<f64> = runs.iter().map(|(s, c)| (rate * c - s).abs() / s).collect();
    out.set("explore.cost_pred_err", median(&errors));
    out.set("transient.ticks", p0.ticks as f64);
    out.set("mcu.instructions", p0.instructions as f64);
    out.set("store.entries", p0.store_entries as f64);
    out.set("store.bytes", p0.store_bytes as f64);
    out.set("metrics.render_us", each(&|p| p.render_s * 1e6));

    let tracer = Tracer::new(true);
    let traced = repeat_for(args.seconds / 2.0, |i| {
        pass(&mut out, &mut setups, &tracer, &mut host, i)
    });
    let traced_run_s = median(
        &traced
            .iter()
            .map(|p| p.grid_s + p.halving_s)
            .collect::<Vec<_>>(),
    );
    trace_metrics(&mut out, &tracer.spans(), traced.len(), run_s, traced_run_s);

    let mut stages = search::StageTimes::default();
    let replay_store = fresh_dir(&scratch_dir().join("replay-store"));
    let mismatches = search::replay(
        &setup,
        grid,
        Some(&replay_store),
        true,
        &tracer,
        &mut stages,
    ) + search::replay(&setup, halving, None, false, &tracer, &mut stages);
    let _ = std::fs::remove_dir_all(&replay_store);
    out.attempted += sims;
    out.failed += mismatches;
    if mismatches > 0 {
        out.problems
            .push(format!("{mismatches} replayed designs scored differently"));
    }
    for stage in [
        "key",
        "store",
        "lint",
        "bound",
        "simulate",
        "score",
        "writeback",
    ] {
        if let Some(&s) = stages.0.get(stage) {
            out.set(&format!("explore.stage_s.{stage}"), s);
        }
    }
    write_trace("search", args.seed, &tracer.spans(), &mut out);
    out
}

fn write_trace(name: &str, seed: u64, spans: &[trace::Span], out: &mut Outcome) {
    let path = out_dir().join(format!("trace-{name}-{seed}.json"));
    match std::fs::write(&path, trace::trace_event_json(spans)) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

fn run_serve(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let template = scratch_dir().join("serve-template");
    let episode_dir = scratch_dir().join("serve-episode");
    let mut setup = match serve::setup(args.seed, &fresh_dir(&template)) {
        Ok(setup) => setup,
        Err(e) => {
            out.problems.push(e);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    // Before each window the template is seeded afresh; the prior
    // session must store the same keys with the same scores every time.
    let mut setups = Setups::default();
    let reseed = |out: &mut Outcome, setups: &mut Setups, setup: &serve::ServeSetup| {
        let again = setups.run(|| serve::setup(args.seed, &emptied_dir(&template)));
        let seeded = setup.keys.len() as u64;
        out.attempted += seeded;
        let same = again.as_ref().is_ok_and(|again| {
            again.keys == setup.keys
                && setup
                    .keys
                    .iter()
                    .all(|k| again.reference.get(k) == setup.reference.get(k))
        });
        if !same {
            out.failed += seeded;
            out.problems
                .push("re-seeding the store gave other keys or scores".into());
        }
    };
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let off = Tracer::new(false);
    let mut first = None;
    let mut host = host_speed(args, WINDOW_UNITS);
    let mut raw_run_s = Vec::new();
    let windows = repeat_for(untraced_s, |i| {
        let mark = setups.0.len();
        let ((mut w, e), f) = host.around(|| {
            reseed(&mut out, &mut setups, &setup);
            serve::window(&mut setup, &template, &episode_dir, i, &off)
        });
        setups.scale_since(mark, f);
        raw_run_s.extend(&w.episode_s);
        w.scale(f);
        first.get_or_insert(e);
        w
    });
    host_note(&mut out, &host, &raw_run_s);
    let e0 = first.expect("at least one window");
    out.set("setup_s", setups.median());
    let summarize = |out: &mut Outcome, windows: &[serve::Window]| {
        for w in windows {
            out.attempted += w.requests;
            out.failed += w.failed;
        }
        let errors: u64 = windows.iter().map(|w| w.errors).sum();
        if errors > 0 {
            out.problems
                .push(format!("{errors} answers were \"ok\":false"));
        }
    };
    summarize(&mut out, &windows);
    let episode_s: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.episode_s.iter().copied())
        .collect();
    let run_s = median(&episode_s);
    out.set("run_s", run_s);
    let each =
        |f: &dyn Fn(&serve::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    out.set(
        "sim_minstr_per_s",
        each(&|w| w.instructions as f64 / w.busy_s / 1e6),
    );
    out.set(
        "sim_mticks_per_s",
        each(&|w| w.ticks as f64 / w.busy_s / 1e6),
    );
    out.set("req_per_s", each(&|w| w.requests as f64 / w.busy_s));
    let latency: Vec<(f64, f64)> = windows.iter().map(|w| (w.p50_us, w.p99_us)).collect();
    latency_metrics(&mut out, &latency, windows.iter().map(|w| w.requests).sum());
    pass_note(&mut out, "episodes", &episode_s);
    out.notes.push(format!(
        "{} requests per episode; episode 0 sources simulated/store/memo/inflight = {:?}",
        serve::REQUESTS,
        e0.sources
    ));
    if !args.trace {
        return out;
    }

    for (i, name) in ["simulated", "store", "memo", "inflight"]
        .iter()
        .enumerate()
    {
        out.set(&format!("serve.source.{name}"), e0.sources[i] as f64);
    }
    let mut op_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for w in &windows {
        for (class, samples) in &w.op_us {
            op_us.entry(class).or_default().extend(samples);
        }
    }
    for class in [
        "evaluate_memo",
        "evaluate_store",
        "evaluate_miss",
        "fetch",
        "lint",
        "search",
        "metrics",
    ] {
        let samples = op_us.get(class).map(Vec::as_slice).unwrap_or(&[]);
        out.set(&format!("serve.op_us.{class}"), median(samples));
    }
    let sum = |f: &dyn Fn(&serve::Window) -> u64| windows.iter().map(f).sum::<u64>() as f64;
    let hits = sum(&|w| w.sources[1]);
    out.set("store.hit_ratio", hits / (hits + sum(&|w| w.sources[0])));
    out.set("store.entries", e0.store_entries as f64);
    out.set("store.bytes", e0.store_bytes as f64);
    out.set("transient.ticks", e0.ticks as f64);
    out.set("mcu.instructions", e0.instructions as f64);
    let render: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.render_s.iter().map(|s| s * 1e6))
        .collect();
    out.set("metrics.render_us", median(&render));

    let tracer = Tracer::new(true);
    let traced = repeat_for(args.seconds / 2.0, |i| {
        serve::window(&mut setup, &template, &episode_dir, i, &tracer).0
    });
    summarize(&mut out, &traced);
    let traced_s: Vec<f64> = traced
        .iter()
        .flat_map(|w| w.episode_s.iter().copied())
        .collect();
    let traced_run_s = median(&traced_s);
    trace_metrics(
        &mut out,
        &tracer.spans(),
        traced_s.len(),
        run_s,
        traced_run_s,
    );
    write_trace("serve", args.seed, &tracer.spans(), &mut out);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !committed_bound().is_file() {
        eprintln!("perfbench: {} is missing", committed_bound().display());
        return ExitCode::from(2);
    }
    std::fs::create_dir_all(out_dir()).expect("the output directory can be created");
    // Bound before any other thread starts, so every thread inherits it.
    let cpu = calib::bind_to_current_cpu();
    let mut out = match args.workload.as_str() {
        "sweep" => run_sweep(&args),
        "search" => run_search(&args),
        "serve" => run_serve(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (sweep, search, serve)");
            return ExitCode::from(2);
        }
    };
    out.notes.push(match cpu {
        Some(cpu) => format!("every thread bound to vCPU {cpu}"),
        None => "threads not bound to a vCPU: the system refused".into(),
    });
    out.set("peak_rss_mb", perfbench::peak_rss_mb());
    if args.trace {
        run_probes(&mut out);
    }
    let _ = std::fs::remove_dir_all(scratch_dir());
    if !args.trace {
        for m in perfbench::end_to_end() {
            if !out.metrics.contains_key(&m.name) {
                out.problems
                    .push(format!("end-to-end metric {} unmeasured", m.name));
            }
        }
    }

    for p in &out.problems {
        eprintln!("perfbench: FAIL: {p}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  {:<36} {:>16} ratio",
        "failed_frac",
        format!("{failed_frac}")
    );
    // The JSON line carries every listed metric; one this workload does
    // not measure reads 0 there and is named as such in the summary.
    let listed = if args.trace {
        perfbench::per_layer()
    } else {
        perfbench::end_to_end()
    };
    let mut metrics = Vec::new();
    let mut unmeasured = Vec::new();
    for m in &listed {
        let value = match out.metrics.get(&m.name) {
            Some(&value) => {
                println!("  {:<36} {value:>16.6} {}", m.name, m.unit);
                value
            }
            None => {
                unmeasured.push(m.name.as_str());
                0.0
            }
        };
        metrics.push((
            m.name.as_str(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    if !unmeasured.is_empty() {
        println!(
            "  not measured on {} (0 in the JSON line): {}",
            args.workload,
            unmeasured.join(" ")
        );
    }
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(out.failed == 0 && out.problems.is_empty()),
        ),
        ("attempted", Json::Uint(out.attempted.max(1))),
        ("failed", Json::Uint(out.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
