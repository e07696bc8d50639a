//! Exploration benchmark: exhaustive grid vs. successive halving on the
//! capacitor-sizing trade-off, at matched front quality.
//!
//! The space is the paper's Fig. 7 stimulus (half-wave rectified sine)
//! with a sizing-seeded decoupling axis (the Eq. 4 feasibility floor up to
//! 32× it) crossed with every checkpoint strategy. Both searchers
//! minimise completion time and energy per task; the artifact records how
//! much of the exhaustive grid's budget the multi-fidelity search needed
//! to land on the grid's own Pareto front.
//!
//! `BENCH_explore.json` layout: the two deterministic `ExploreReport`
//! sections (byte-diffable between commits), the budget comparison, and
//! wall-clock timing (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-bench --bin bench_explore`
//! Output path override: `bench_explore <path>` (default
//! `BENCH_explore.json` in the working directory).
//!
//! `--store DIR` runs both searches against a persistent evaluation
//! store: misses are simulated once and written back, repeats are served
//! from disk, and each front is hard-asserted byte-identical to the
//! committed cold `BENCH_explore.json` — a warm store must change the
//! budget, never the result.

use std::time::Instant;

use edc_bench::{banner, TextTable};
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::{
    CompletionTime, EnergyPerTask, ExhaustiveGrid, ExploreReport, Explorer, SpecSpace,
    SuccessiveHalving,
};
use edc_units::{Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// The benchmark space: 8 sizing-seeded capacitances × all 7 strategies
/// over the Fig. 7 supply (56 designs).
fn space() -> SpecSpace {
    let decoupling = sizing_seeded_decoupling_axis(
        Joules::from_micro(5.0), // snapshot cost scale of the paper's platform
        Volts(2.0),              // MSP430 V_min
        Volts(3.6),              // rail V_max
        0.1,                     // 10% safety margin
        32.0,                    // bracket the floor up to 32×
        8,
    )
    .expect("canonical rails are valid");
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .deadline(Seconds(10.0));
    SpecSpace::over(base)
        .strategies(&StrategyKind::ALL)
        .decoupling(&decoupling)
}

fn front_table(report: &ExploreReport) -> String {
    let mut t = TextTable::new(&[
        "decoupling (µF)",
        "strategy",
        "completion (s)",
        "energy (mJ)",
    ]);
    for p in report.front.points() {
        t.row(&[
            format!("{:.2}", p.spec.decoupling.as_micro()),
            p.spec.strategy.name().to_string(),
            if p.scores[0].is_finite() {
                format!("{:.3}", p.scores[0])
            } else {
                "DNF".to_string()
            },
            if p.scores[1].is_finite() {
                format!("{:.4}", p.scores[1] * 1e3)
            } else {
                "DNF".to_string()
            },
        ]);
    }
    t.render()
}

fn main() {
    let args = edc_bench::bench_args("BENCH_explore.json");
    let path = args.path.clone();
    let space = space();
    let mut explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask);
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
    let grid = explorer.run(&space, &ExhaustiveGrid).unwrap_or_else(|e| {
        eprintln!("exhaustive exploration failed: {e}");
        std::process::exit(1);
    });
    let grid_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let halving = explorer
        .run(&space, &SuccessiveHalving::new())
        .unwrap_or_else(|e| {
            eprintln!("successive-halving exploration failed: {e}");
            std::process::exit(1);
        });
    let halving_s = started.elapsed().as_secs_f64();

    banner("Design space: Fig. 7 supply, sizing-seeded capacitance x strategy");
    println!(
        "{} designs; exhaustive grid = {} simulations",
        space.len(),
        grid.evaluations
    );
    banner("Exhaustive Pareto front (completion time vs energy per task)");
    print!("{}", front_table(&grid));
    banner("Successive-halving front");
    print!("{}", front_table(&halving));

    let cost_ratio = halving.cost_units / grid.cost_units;
    // Simulations halving ran at the grid's own fidelity (its final rung);
    // the coarse prefilter rungs run 4-16x cheaper and are accounted in
    // cost units.
    let fine = space.finest_timestep();
    let halving_full_fidelity = halving
        .trace
        .iter()
        .filter(|t| !t.cached && t.spec.timestep == fine)
        .count();
    let best_on_grid_front = halving
        .best()
        .map(|p| grid.front.contains_key(&p.key))
        .unwrap_or(false);
    let front_overlap = halving
        .front
        .points()
        .iter()
        .filter(|p| grid.front.contains_key(&p.key))
        .count();
    banner("Budget");
    println!(
        "exhaustive: {} sims ({:.1} cost units) in {grid_s:.3} s",
        grid.evaluations, grid.cost_units
    );
    println!(
        "   halving: {} sims, {halving_full_fidelity} at full fidelity ({:.1} cost units) in {halving_s:.3} s",
        halving.evaluations, halving.cost_units
    );
    println!(
        "cost ratio {:.3} ({} of the halving front's {} points sit on the grid front)",
        cost_ratio,
        front_overlap,
        halving.front.len()
    );

    // The --store warm-start contract: the store may change the budget,
    // never the result. Both fronts must match the committed cold run.
    if args.store.is_some() {
        println!(
            "store: grid {} hits, halving {} hits",
            grid.store_hits, halving.store_hits
        );
        let objectives: Vec<String> = grid.objectives.clone();
        edc_bench::assert_front_matches(
            "BENCH_explore.json",
            "exhaustive",
            &grid.front.to_json(&objectives),
        );
        edc_bench::assert_front_matches(
            "BENCH_explore.json",
            "halving",
            &halving.front.to_json(&objectives),
        );
    }

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "explore",
        vec![
            ("exhaustive", grid.to_json()),
            ("halving", halving.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("grid_simulations", Json::Uint(grid.evaluations)),
                    ("halving_simulations", Json::Uint(halving.evaluations)),
                    (
                        "halving_full_fidelity_simulations",
                        Json::Uint(halving_full_fidelity as u64),
                    ),
                    ("grid_cost_units", Json::Num(grid.cost_units)),
                    ("halving_cost_units", Json::Num(halving.cost_units)),
                    ("cost_ratio", Json::Num(cost_ratio)),
                    ("halving_best_on_grid_front", Json::Bool(best_on_grid_front)),
                    ("front_overlap", Json::Uint(front_overlap as u64)),
                ]),
            ),
            // Non-deterministic section, deliberately outside both reports.
            (
                "timing",
                Json::obj(vec![
                    ("grid_s", Json::Num(grid_s)),
                    ("halving_s", Json::Num(halving_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
}
