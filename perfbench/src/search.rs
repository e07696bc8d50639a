//! The `search` workload: `bench_bound`'s 224-design space searched twice
//! in a row — an exhaustive grid with prefilter and branch-and-bound into
//! a fresh store, then successive halving with the prefilter and no store
//! — plus the single-threaded stage replay of the traced run.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::TraceCatalog;
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::{
    BrownoutCount, CompletionTime, EnergyPerTask, ExhaustiveGrid, ExploreReport, Explorer,
    Objective, SpecSpace, Store, SuccessiveHalving,
};
use edc_lint::Linter;
use edc_units::{Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

use crate::calib::HostSpeed;
use crate::trace::Tracer;
use crate::{counter_total, THREADS};

/// Exact counters of the grid search on this space.
pub const GRID: SearchCounts = SearchCounts {
    simulations: 86,
    lint_pruned: 1,
    bound_pruned: 137,
    cost_units: 54.5,
};
/// Exact counters of the halving search on this space.
pub const HALVING: SearchCounts = SearchCounts {
    simulations: 145,
    lint_pruned: 149,
    bound_pruned: 0,
    cost_units: 17.21875,
};

/// The counters a search is checked against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCounts {
    /// Simulations run.
    pub simulations: u64,
    /// Designs the lint prefilter scored statically.
    pub lint_pruned: u64,
    /// Designs branch-and-bound pruned.
    pub bound_pruned: u64,
    /// Full-fidelity-equivalent cost.
    pub cost_units: f64,
}

impl SearchCounts {
    fn of(report: &ExploreReport) -> Self {
        Self {
            simulations: report.evaluations,
            lint_pruned: report.lint_pruned,
            bound_pruned: report.bound_pruned,
            cost_units: report.cost_units,
        }
    }
}

/// `bench_bound`'s two synthetic recordings: a rectified mains cycle and
/// a bursty office profile.
pub fn catalog() -> TraceCatalog {
    let mut catalog = TraceCatalog::new();
    let mains: Vec<(f64, f64)> = (0..20)
        .map(|i| {
            let phase = (i as f64 / 20.0) * std::f64::consts::TAU;
            (i as f64 * 1e-3, 8e-3 * phase.sin().max(0.0))
        })
        .collect();
    catalog
        .register("mains-cycle", mains)
        .expect("valid recording");
    let bursty: Vec<(f64, f64)> = (0..16)
        .map(|i| (i as f64 * 2e-3, if i % 4 < 2 { 6e-3 } else { 0.5e-3 }))
        .collect();
    catalog
        .register("bursty-office", bursty)
        .expect("valid recording");
    catalog
}

/// `bench_bound`'s 224-design space: (2 recordings × 2 decimations × 2
/// loop modes) × {Fourier(256), Endless} × 7 strategies × 2 capacitances.
pub fn space(catalog: &TraceCatalog) -> SpecSpace {
    let sources: Vec<SourceKind> = catalog
        .ids()
        .into_iter()
        .flat_map(|id| {
            [1u64, 4].into_iter().flat_map(move |decimate| {
                [true, false]
                    .into_iter()
                    .map(move |looped| SourceKind::Trace {
                        id,
                        decimate,
                        looped,
                    })
            })
        })
        .collect();
    let decoupling =
        sizing_seeded_decoupling_axis(Joules::from_micro(5.0), Volts(2.0), Volts(3.6), 0.1, 8.0, 2)
            .expect("canonical rails are valid");
    let base = ExperimentSpec::new(
        sources[0],
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .deadline(Seconds(4.0));
    SpecSpace::over(base)
        .sources(&sources)
        .workloads(&[WorkloadKind::Fourier(256), WorkloadKind::Endless])
        .strategies(&StrategyKind::ALL)
        .decoupling(&decoupling)
}

/// A search's objectives: completion time and energy per task, plus
/// brownouts for the grid (`bench_bound`'s set; halving uses
/// `bench_lint`'s pair).
pub fn objectives(brownouts: bool) -> Vec<Box<dyn Objective>> {
    let mut objectives: Vec<Box<dyn Objective>> =
        vec![Box::new(CompletionTime), Box::new(EnergyPerTask)];
    if brownouts {
        objectives.push(Box::new(BrownoutCount));
    }
    objectives
}

fn explorer(catalog: &TraceCatalog, registry: &edc_metrics::Registry) -> Explorer {
    Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .prefilter(true)
        .threads(THREADS)
        .catalog(catalog.clone())
        .metrics(registry.clone())
}

/// Everything a search pass needs, built before timing starts.
pub struct SearchSetup {
    /// The recordings.
    pub catalog: TraceCatalog,
    /// The design space.
    pub space: SpecSpace,
    /// The committed `bounded` front from `BENCH_bound.json`, as text.
    pub committed_front: String,
}

/// Builds the catalog and space and reads the committed front.
///
/// # Errors
///
/// When `BENCH_bound.json` cannot be read or lacks the bounded front.
pub fn setup(committed: &Path) -> Result<SearchSetup, String> {
    let text = std::fs::read_to_string(committed)
        .map_err(|e| format!("cannot read {}: {e}", committed.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", committed.display()))?;
    let front = json
        .get("bounded")
        .and_then(|b| b.get("front"))
        .ok_or("committed artifact has no bounded front")?;
    let catalog = catalog();
    let space = space(&catalog);
    Ok(SearchSetup {
        committed_front: front.to_string(),
        space,
        catalog,
    })
}

/// One search pass: both searches, their wall times and the runner's
/// simulated work.
pub struct SearchPass {
    /// The exhaustive-grid report.
    pub grid: ExploreReport,
    /// The successive-halving report.
    pub halving: ExploreReport,
    /// Wall time of the grid search, scaled to the reference host speed.
    pub grid_s: f64,
    /// Wall time of the halving search, scaled to the reference host
    /// speed.
    pub halving_s: f64,
    /// Wall time of both searches as measured.
    pub raw_s: f64,
    /// Instructions the runner recorded across both searches.
    pub instructions: u64,
    /// Ticks the runner recorded across both searches.
    pub ticks: u64,
    /// Entries in the grid search's store afterwards.
    pub store_entries: usize,
    /// Bytes of the grid search's store afterwards.
    pub store_bytes: u64,
    /// Time to render the pass's metrics registry.
    pub render_s: f64,
}

/// Runs both searches, each between two of `host`'s reference slices and
/// timed at the reference host speed. `store_dir` must not exist yet; the
/// grid search fills a fresh store there.
pub fn pass(
    setup: &SearchSetup,
    store_dir: &Path,
    tracer: &Tracer,
    host: &mut HostSpeed,
    pass_id: u64,
) -> SearchPass {
    let registry = edc_metrics::Registry::new();
    let store = Store::open(store_dir)
        .expect("a fresh store opens")
        .into_handle();
    let grid_explorer = explorer(&setup.catalog, &registry)
        .objective(BrownoutCount)
        .bound(true)
        .store(store.clone());
    let ((grid, grid_raw_s), grid_factor) = host.around(|| {
        let started = Instant::now();
        let grid = tracer.span("explore", "Explorer::run", 0, pass_id, |_| {
            grid_explorer.run(&setup.space, &ExhaustiveGrid)
        });
        (grid, started.elapsed().as_secs_f64())
    });
    let halving_explorer = explorer(&setup.catalog, &registry);
    let ((halving, halving_raw_s), halving_factor) = host.around(|| {
        let started = Instant::now();
        let halving = tracer.span("explore", "Explorer::run", 0, pass_id, |_| {
            halving_explorer.run(&setup.space, &SuccessiveHalving::new())
        });
        (halving, started.elapsed().as_secs_f64())
    });
    let store_entries = store.lock().expect("store lock").len();
    let started = Instant::now();
    let text = std::hint::black_box(registry.render_text());
    let render_s = started.elapsed().as_secs_f64();
    SearchPass {
        grid: grid.expect("the grid search runs"),
        halving: halving.expect("the halving search runs"),
        grid_s: grid_raw_s * grid_factor,
        halving_s: halving_raw_s * halving_factor,
        raw_s: grid_raw_s + halving_raw_s,
        instructions: counter_total(&text, "edc_runner_instructions_total"),
        ticks: counter_total(&text, "edc_runner_ticks_total"),
        store_entries,
        store_bytes: crate::dir_bytes(store_dir),
        render_s,
    }
}

/// Designs a pass visited (one trace entry each).
pub fn designs(pass: &SearchPass) -> u64 {
    (pass.grid.trace.len() + pass.halving.trace.len()) as u64
}

/// How every visited design was resolved: simulated, lint-pruned,
/// bound-pruned, store hit or memo hit. The five always sum to the
/// designs visited.
pub fn resolution(report: &ExploreReport) -> [u64; 5] {
    let mut out = [0; 5];
    for t in &report.trace {
        let slot = if t.cached {
            4
        } else if t.store_hit {
            3
        } else if t.bound_pruned {
            2
        } else if t.pruned {
            1
        } else {
            0
        };
        out[slot] += 1;
    }
    out
}

/// Designs of a pass that count as failed: all of a search's designs when
/// its counters differ from the recorded ones, its visit resolution does
/// not reconcile with them, or (for the grid) its front is not
/// byte-identical to the committed `bounded` front.
pub fn failed_designs(setup: &SearchSetup, pass: &SearchPass) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    for (name, report, want) in [
        ("grid", &pass.grid, GRID),
        ("halving", &pass.halving, HALVING),
    ] {
        let got = SearchCounts::of(report);
        let r = resolution(report);
        let reconciles = r[0] == report.evaluations
            && r[1] == report.lint_pruned
            && r[2] == report.bound_pruned
            && r[3] == report.store_hits
            && r[4] == report.cache_hits;
        let front_ok = name != "grid"
            || report.front.to_json(&report.objectives).to_string() == setup.committed_front;
        if got != want || !reconciles || !front_ok {
            failed += report.trace.len() as u64;
            problems.push(format!(
                "{name}: counters {got:?} (expected {want:?}), resolution {r:?} reconciles: \
                 {reconciles}, front matches BENCH_bound.json: {front_ok}"
            ));
        }
    }
    (failed, problems)
}

/// Wall time per stage of the replay, in seconds.
#[derive(Debug, Clone, Default)]
pub struct StageTimes(pub BTreeMap<&'static str, f64>);

/// The stage replay: every design a search resolved without the memo
/// cache goes, single-threaded and in trace order, through the stages the
/// evaluator ran for it — canonical key, store lookup, lint, bound,
/// simulation, objective scoring and store write-back — each call in its
/// own span. Replayed scores must equal the search's; returns the number
/// of designs whose scores differ.
pub fn replay(
    setup: &SearchSetup,
    report: &ExploreReport,
    with_store: Option<&Path>,
    bound: bool,
    tracer: &Tracer,
    stages: &mut StageTimes,
) -> u64 {
    let objectives = objectives(report.objectives.len() == 3);
    let mut linter = Linter::with_catalog(setup.catalog.clone());
    let mut store = with_store.map(|dir| Store::open(dir).expect("a fresh replay store opens"));
    let mut seen: HashSet<String> = HashSet::new();
    let mut mismatches = 0;
    let timed = |stages: &mut StageTimes, stage: &'static str, started: Instant| {
        *stages.0.entry(stage).or_insert(0.0) += started.elapsed().as_secs_f64();
    };
    for (i, entry) in report.trace.iter().enumerate() {
        let item = i as u64;
        tracer.span("explore", "evaluate", 0, item, |parent| {
            let started = Instant::now();
            let key = tracer.span("core", "to_json", parent, item, |_| {
                entry.spec.to_json().to_string()
            });
            timed(stages, "key", started);
            if entry.cached || !seen.insert(key.clone()) {
                return;
            }
            if let Some(store) = &store {
                let started = Instant::now();
                let hit = tracer.span("store", "Store::get", parent, item, |_| {
                    store.get(&key).is_some()
                });
                timed(stages, "store", started);
                assert!(!hit, "the replay store starts empty");
            }
            let started = Instant::now();
            let infeasible = tracer.span("lint", "lint_spec", parent, item, |_| {
                linter.lint_spec(&entry.spec).has_errors()
            });
            timed(stages, "lint", started);
            if infeasible && entry.pruned {
                return;
            }
            if bound {
                let started = Instant::now();
                tracer.span("bound", "bound_spec", parent, item, |_| {
                    std::hint::black_box(linter.bounder().bound_spec(&entry.spec));
                });
                timed(stages, "bound", started);
            }
            if entry.pruned || entry.bound_pruned || entry.store_hit {
                return;
            }
            let started = Instant::now();
            let run = tracer.span("transient", "run_in", parent, item, |_| {
                entry.spec.run_in(&setup.catalog)
            });
            timed(stages, "simulate", started);
            let Ok(run) = run else {
                mismatches += 1;
                return;
            };
            let started = Instant::now();
            let scores: Vec<f64> = tracer.span("explore", "score", parent, item, |_| {
                objectives
                    .iter()
                    .map(|o| o.score(&entry.spec, &run))
                    .collect()
            });
            timed(stages, "score", started);
            let same = scores.len() == entry.scores.len()
                && scores
                    .iter()
                    .zip(&entry.scores)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                mismatches += 1;
            }
            if let Some(store) = &mut store {
                let started = Instant::now();
                tracer.span("store", "Store::put", parent, item, |_| {
                    let named: BTreeMap<String, f64> = objectives
                        .iter()
                        .zip(&scores)
                        .filter(|(_, s)| !s.is_nan())
                        .filter_map(|(o, &s)| Some((o.store_key()?, s)))
                        .collect();
                    store
                        .put(&entry.spec.to_json(), run.to_json(), named, 1.0)
                        .expect("the replay store accepts the write")
                });
                timed(stages, "writeback", started);
            }
        });
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_visited_design_is_resolved_exactly_once() {
        let base = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(150),
        )
        .deadline(Seconds(0.2));
        let space = SpecSpace::over(base)
            .sources(&[
                SourceKind::Dc { volts: 3.3 },
                SourceKind::Interrupted { hz: 10.0 },
            ])
            .workloads(&[WorkloadKind::BusyLoop(150), WorkloadKind::Endless])
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
        let dir = std::env::temp_dir().join(format!("perfbench-resolution-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = edc_metrics::Registry::new();
        let catalog = TraceCatalog::new();
        let mut reports = Vec::new();
        for _ in 0..2 {
            let store = Store::open(&dir).expect("store opens").into_handle();
            let explorer = explorer(&catalog, &registry)
                .objective(BrownoutCount)
                .bound(true)
                .store(store);
            reports.push(explorer.run(&space, &ExhaustiveGrid).expect("grid runs"));
        }
        let explorer = explorer(&catalog, &registry);
        reports.push(
            explorer
                .run(&space, &SuccessiveHalving::new())
                .expect("halving runs"),
        );
        let _ = std::fs::remove_dir_all(&dir);
        let mut seen = [0; 5];
        for report in &reports {
            let r = resolution(report);
            assert_eq!(r.iter().sum::<u64>(), report.trace.len() as u64);
            assert_eq!(
                r,
                [
                    report.evaluations,
                    report.lint_pruned,
                    report.bound_pruned,
                    report.store_hits,
                    report.cache_hits
                ]
            );
            for (s, v) in seen.iter_mut().zip(r) {
                *s += v;
            }
        }
        // Simulation, lint prunes and store hits occur here; bound prunes
        // reconcile on the benchmark's own space, where neither search
        // repeats a request, so memo hits stay 0 there too.
        assert!([0, 1, 3].iter().all(|&slot| seen[slot] > 0), "{seen:?}");
    }
}
