//! Lint-prefilter benchmark: identical Pareto fronts at lower cost.
//!
//! The space is `bench_trace`'s search space *extended with designs the
//! static analyzer can prove infeasible*: non-looped trace variants (the
//! mains recording decays to 0 W and is then held there — `E004`, the
//! supply bound can never fund the workload) and the `endless` workload
//! (`E005`, no completion state). The same exhaustive grid is run twice —
//! prefilter off, then on — and the artifact proves the tentpole claim:
//!
//! - the Pareto fronts are **byte-identical** (the prefilter only replaces
//!   simulations whose scores are statically known);
//! - the prefiltered run's simulation cost is **strictly lower**, with the
//!   lint work billed separately (`lint.checks` / `lint.pruned`).
//!
//! The binary exits non-zero if either property fails, so CI regression
//! checks are the assertions themselves. `BENCH_lint.json` layout: the
//! catalog, the space-level lint report, both `ExploreReport` sections
//! (deterministic, byte-diffable), the comparison, and wall-clock timing
//! (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-bench --bin bench_lint`
//! Output path override: `bench_lint <path>` (default `BENCH_lint.json`).
//!
//! `--store DIR` runs both searches against a persistent evaluation
//! store and hard-asserts each front byte-identical to the committed
//! cold `BENCH_lint.json`. Store hits bypass the lint prefilter (a
//! stored score needs no static analysis), so the prune-count and
//! cost-strictness assertions only apply to store-less runs.

use std::time::Instant;

use edc_bench::banner;
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::{lint_space, CompletionTime, EnergyPerTask, ExhaustiveGrid, Explorer, SpecSpace};
use edc_lint::Linter;
use edc_units::{Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// The same two synthetic "recordings" as `bench_trace` (see that binary
/// for provenance): a rectified mains cycle and a bursty office profile.
fn catalog() -> TraceCatalog {
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

/// `bench_trace`'s space, extended along two axes with statically
/// infeasible designs: non-looped trace playback (the 19 ms mains
/// recording ends on a 0 W sample held for the remaining ~4 s → `E004`)
/// and the `endless` workload (→ `E005`). (2 recordings × 2 decimations ×
/// 2 loop modes) × 2 workloads × 7 strategies × 2 capacitances = 224
/// designs, a large fraction of them provably dead weight.
fn space(catalog: &TraceCatalog) -> SpecSpace {
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

fn main() {
    let args = edc_bench::bench_args("BENCH_lint.json");
    let path = args.path.clone();
    let catalog = catalog();
    let space = space(&catalog);

    // The space-level static report, committed alongside the search: which
    // designs the analyzer flags, and where.
    let space_lint = lint_space(&space, &mut Linter::with_catalog(catalog.clone()));

    let mut explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .catalog(catalog.clone());
    if let Some(dir) = &args.store {
        match edc_explore::Store::open(dir) {
            Ok(store) => explorer = explorer.store(store.into_handle()),
            Err(e) => {
                eprintln!("cannot open store at {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    let started = Instant::now();
    let baseline = explorer.run(&space, &ExhaustiveGrid).unwrap_or_else(|e| {
        eprintln!("baseline exploration failed: {e}");
        std::process::exit(1);
    });
    let baseline_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let prefiltered = explorer
        .prefilter(true)
        .run(&space, &ExhaustiveGrid)
        .unwrap_or_else(|e| {
            eprintln!("prefiltered exploration failed: {e}");
            std::process::exit(1);
        });
    let prefiltered_s = started.elapsed().as_secs_f64();

    banner("Space: bench_trace extended with statically-infeasible designs");
    println!(
        "{} designs; space lint: {} error(s), {} warning(s)",
        space.len(),
        space_lint.error_count(),
        space_lint.warning_count(),
    );
    banner("Prefilter effect");
    println!(
        " baseline: {} sims ({:.2} cost units) in {baseline_s:.3} s",
        baseline.evaluations, baseline.cost_units
    );
    println!(
        "prefilter: {} sims ({:.2} cost units) in {prefiltered_s:.3} s \
         ({} lint checks, {} pruned)",
        prefiltered.evaluations,
        prefiltered.cost_units,
        prefiltered.lint_checks,
        prefiltered.lint_pruned,
    );

    // The tentpole's two load-bearing properties, asserted hard: the front
    // is byte-identical and the simulation cost strictly lower.
    let objectives: Vec<String> = baseline.objectives.clone();
    let front_a_json = baseline.front.to_json(&objectives);
    let front_b_json = prefiltered.front.to_json(&objectives);
    let fronts_identical = front_a_json.to_string() == front_b_json.to_string();
    if !fronts_identical {
        eprintln!("FAIL: prefilter changed the Pareto front");
        std::process::exit(1);
    }
    if args.store.is_none() {
        // Store hits bypass the prefilter entirely (a stored score needs
        // no static analysis), so these only hold for store-less runs.
        if prefiltered.lint_pruned == 0 {
            eprintln!(
                "FAIL: prefilter pruned nothing — the extended space must contain E-flagged designs"
            );
            std::process::exit(1);
        }
        if prefiltered.cost_units >= baseline.cost_units {
            eprintln!(
                "FAIL: prefiltered cost {} is not strictly below baseline {}",
                prefiltered.cost_units, baseline.cost_units
            );
            std::process::exit(1);
        }
        println!(
            "fronts byte-identical; cost {:.2} → {:.2} units ({:.0}% saved)",
            baseline.cost_units,
            prefiltered.cost_units,
            (1.0 - prefiltered.cost_units / baseline.cost_units) * 100.0
        );
    } else {
        println!(
            "store: baseline {} hits, prefiltered {} hits",
            baseline.store_hits, prefiltered.store_hits
        );
        edc_bench::assert_front_matches("BENCH_lint.json", "baseline", &front_a_json);
        edc_bench::assert_front_matches("BENCH_lint.json", "prefiltered", &front_b_json);
    }

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "lint",
        vec![
            ("catalog", catalog.to_json()),
            ("space_lint", space_lint.to_json()),
            ("baseline", baseline.to_json()),
            ("prefiltered", prefiltered.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("fronts_identical", Json::Bool(fronts_identical)),
                    ("baseline_simulations", Json::Uint(baseline.evaluations)),
                    (
                        "prefiltered_simulations",
                        Json::Uint(prefiltered.evaluations),
                    ),
                    ("baseline_cost_units", Json::Num(baseline.cost_units)),
                    ("prefiltered_cost_units", Json::Num(prefiltered.cost_units)),
                    ("lint_checks", Json::Uint(prefiltered.lint_checks)),
                    ("lint_pruned", Json::Uint(prefiltered.lint_pruned)),
                ]),
            ),
            // Non-deterministic section, deliberately outside both reports.
            (
                "timing",
                Json::obj(vec![
                    ("baseline_s", Json::Num(baseline_s)),
                    ("prefiltered_s", Json::Num(prefiltered_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
}
