//! Branch-and-bound benchmark: identical Pareto fronts at lower cost than
//! the lint prefilter alone.
//!
//! The space is `bench_lint`'s 224-design space, but the objective set
//! adds `BrownoutCount` — which has no static DNF score, so the lint
//! prefilter alone can prune *nothing*: a flagged design's brownout count
//! still depends on how the run fails. The interval engine closes exactly
//! that gap. The same exhaustive grid is run twice — lint prefilter only,
//! then with score-bracket branch-and-bound on top — and the artifact
//! proves the tentpole claim:
//!
//! - the Pareto fronts are **byte-identical** (a candidate is only pruned
//!   when an incumbent's exact scores dominate its whole bracket, so no
//!   front point can be lost);
//! - the bounded run's simulation cost is **strictly lower**, with the
//!   bounding work billed separately (`bound.checks` / `bound.pruned`).
//!
//! The binary exits non-zero if either property fails, so CI regression
//! checks are the assertions themselves. `BENCH_bound.json` layout: the
//! catalog, the space-level lint report, both `ExploreReport` sections
//! (deterministic, byte-diffable), the comparison, and wall-clock timing
//! under `bound_timing` (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-bench --bin bench_bound`
//! Output path override: `bench_bound <path>` (default `BENCH_bound.json`).
//!
//! `--store DIR` runs both searches against a persistent evaluation
//! store and hard-asserts each front byte-identical to the committed
//! cold `BENCH_bound.json`. Store hits bypass the interval engine (a
//! stored score needs no bounding), so the prune-count and
//! cost-strictness assertions only apply to store-less runs.

use std::time::Instant;

use edc_bench::banner;
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::{
    lint_space, BrownoutCount, CompletionTime, EnergyPerTask, ExhaustiveGrid, Explorer, SpecSpace,
};
use edc_lint::Linter;
use edc_units::{Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// The same two synthetic "recordings" as `bench_lint` (see `bench_trace`
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

/// `bench_lint`'s 224-design space, byte for byte: (2 recordings × 2
/// decimations × 2 loop modes) × 2 workloads × 7 strategies × 2
/// capacitances, a large fraction of them provably dead weight (`E004`
/// non-looped starvation, `E005` endless workloads).
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
    let args = edc_bench::bench_args("BENCH_bound.json");
    let path = args.path.clone();
    let catalog = catalog();
    let space = space(&catalog);

    // The space-level static report, committed alongside the search.
    let space_lint = lint_space(&space, &mut Linter::with_catalog(catalog.clone()));

    let mut explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .objective(BrownoutCount)
        .prefilter(true)
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
    let lint_only = explorer.run(&space, &ExhaustiveGrid).unwrap_or_else(|e| {
        eprintln!("lint-only exploration failed: {e}");
        std::process::exit(1);
    });
    let lint_only_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let bounded = explorer
        .bound(true)
        .run(&space, &ExhaustiveGrid)
        .unwrap_or_else(|e| {
            eprintln!("bounded exploration failed: {e}");
            std::process::exit(1);
        });
    let bounded_s = started.elapsed().as_secs_f64();

    banner("Space: bench_lint's 224 designs, with a brownout objective");
    println!(
        "{} designs; space lint: {} error(s), {} warning(s)",
        space.len(),
        space_lint.error_count(),
        space_lint.warning_count(),
    );
    banner("Branch-and-bound effect");
    println!(
        "lint only: {} sims ({:.2} cost units) in {lint_only_s:.3} s \
         ({} lint pruned — brownouts have no DNF score)",
        lint_only.evaluations, lint_only.cost_units, lint_only.lint_pruned,
    );
    println!(
        "  bounded: {} sims ({:.2} cost units) in {bounded_s:.3} s \
         ({} bound checks, {} pruned, {} lint pruned)",
        bounded.evaluations,
        bounded.cost_units,
        bounded.bound_checks,
        bounded.bound_pruned,
        bounded.lint_pruned,
    );

    // The tentpole's load-bearing properties, asserted hard: the front is
    // byte-identical, something was bound-pruned, and the simulation cost
    // is strictly lower than the lint prefilter could manage alone.
    let objectives: Vec<String> = lint_only.objectives.clone();
    let front_a_json = lint_only.front.to_json(&objectives);
    let front_b_json = bounded.front.to_json(&objectives);
    let fronts_identical = front_a_json.to_string() == front_b_json.to_string();
    if !fronts_identical {
        eprintln!("FAIL: branch-and-bound changed the Pareto front");
        std::process::exit(1);
    }
    if args.store.is_none() {
        // Store hits bypass the interval engine entirely (a stored score
        // needs no bounding), so these only hold for store-less runs.
        if bounded.bound_pruned == 0 {
            eprintln!("FAIL: nothing was bound-pruned — the space must contain dominated brackets");
            std::process::exit(1);
        }
        if bounded.cost_units >= lint_only.cost_units {
            eprintln!(
                "FAIL: bounded cost {} is not strictly below lint-only {}",
                bounded.cost_units, lint_only.cost_units
            );
            std::process::exit(1);
        }
        println!(
            "fronts byte-identical; cost {:.2} → {:.2} units ({:.0}% saved)",
            lint_only.cost_units,
            bounded.cost_units,
            (1.0 - bounded.cost_units / lint_only.cost_units) * 100.0
        );
    } else {
        println!(
            "store: lint-only {} hits, bounded {} hits",
            lint_only.store_hits, bounded.store_hits
        );
        edc_bench::assert_front_matches("BENCH_bound.json", "lint_only", &front_a_json);
        edc_bench::assert_front_matches("BENCH_bound.json", "bounded", &front_b_json);
    }

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "bound",
        vec![
            ("catalog", catalog.to_json()),
            ("space_lint", space_lint.to_json()),
            ("lint_only", lint_only.to_json()),
            ("bounded", bounded.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("fronts_identical", Json::Bool(fronts_identical)),
                    ("lint_only_simulations", Json::Uint(lint_only.evaluations)),
                    ("bounded_simulations", Json::Uint(bounded.evaluations)),
                    ("lint_only_cost_units", Json::Num(lint_only.cost_units)),
                    ("bounded_cost_units", Json::Num(bounded.cost_units)),
                    ("bound_checks", Json::Uint(bounded.bound_checks)),
                    ("bound_pruned", Json::Uint(bounded.bound_pruned)),
                    ("lint_pruned", Json::Uint(bounded.lint_pruned)),
                ]),
            ),
            // Non-deterministic section, deliberately outside both
            // reports; BENCH_policy.json shape-checks it.
            (
                "bound_timing",
                Json::obj(vec![
                    ("lint_only_s", Json::Num(lint_only_s)),
                    ("bounded_s", Json::Num(bounded_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
}
