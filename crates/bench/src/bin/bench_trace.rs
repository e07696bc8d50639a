//! Trace benchmark: sizing search over *recorded* power sources.
//!
//! The scenario is the capability this artifact pins down: register two
//! synthetic "recordings" (a rectified mains cycle and a bursty office
//! profile) in a [`TraceCatalog`], enumerate them — with decimation as a
//! budgeted fidelity knob — on a `SpecSpace` source axis next to a
//! sizing-seeded capacitance ladder and every checkpoint strategy, and
//! compare the exhaustive grid against successive halving whose early
//! rungs coarsen the timestep *and* shorten the deadline.
//!
//! `BENCH_trace.json` layout: the catalog (name + hash + samples, the
//! lossless half of trace spec JSON), the two deterministic
//! `ExploreReport` sections (byte-diffable between commits), the budget
//! comparison, and wall-clock timing (non-deterministic, kept outside the
//! reports).
//!
//! Run: `cargo run --release -p edc-bench --bin bench_trace`
//! Output path override: `bench_trace <path>` (default `BENCH_trace.json`
//! in the working directory).
//!
//! `--store DIR` runs both searches against a persistent evaluation
//! store and hard-asserts each front byte-identical to the committed
//! cold `BENCH_trace.json` — a warm store must change the budget, never
//! the result.

use std::time::Instant;

use edc_bench::{banner, TextTable};
use edc_core::catalog::TraceCatalog;
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

/// The two deterministic synthetic "recordings". Offline stand-ins for
/// the paper's published traces (DOI 10.5258/SOTON/404058), generated
/// rather than downloaded, so the artifact stays reproducible.
fn catalog() -> TraceCatalog {
    let mut catalog = TraceCatalog::new();
    // One rectified mains cycle of harvested power, 1 ms sampling.
    let mains: Vec<(f64, f64)> = (0..20)
        .map(|i| {
            let phase = (i as f64 / 20.0) * std::f64::consts::TAU;
            (i as f64 * 1e-3, 8e-3 * phase.sin().max(0.0))
        })
        .collect();
    catalog
        .register("mains-cycle", mains)
        .expect("valid recording");
    // A bursty office profile: strong bursts with weak troughs, 2 ms
    // sampling — the duty pattern that separates eager from lazy
    // checkpoint strategies.
    let bursty: Vec<(f64, f64)> = (0..16)
        .map(|i| (i as f64 * 2e-3, if i % 4 < 2 { 6e-3 } else { 0.5e-3 }))
        .collect();
    catalog
        .register("bursty-office", bursty)
        .expect("valid recording");
    catalog
}

/// The benchmark space: (2 recordings × 2 decimation levels) × all 7
/// strategies × 2 sizing-seeded capacitances = 56 designs.
fn space(catalog: &TraceCatalog) -> SpecSpace {
    let sources: Vec<SourceKind> = catalog
        .ids()
        .into_iter()
        .flat_map(|id| {
            [1u64, 4]
                .into_iter()
                .map(move |decimate| SourceKind::Trace {
                    id,
                    decimate,
                    looped: true,
                })
        })
        .collect();
    let decoupling = sizing_seeded_decoupling_axis(
        Joules::from_micro(5.0), // snapshot cost scale of the paper's platform
        Volts(2.0),              // MSP430 V_min
        Volts(3.6),              // rail V_max
        0.1,                     // 10% safety margin
        8.0,                     // bracket the floor up to 8×
        2,
    )
    .expect("canonical rails are valid");
    let base = ExperimentSpec::new(
        sources[0],
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .deadline(Seconds(4.0));
    SpecSpace::over(base)
        .sources(&sources)
        .strategies(&StrategyKind::ALL)
        .decoupling(&decoupling)
}

fn front_table(report: &ExploreReport) -> String {
    let mut t = TextTable::new(&[
        "source",
        "decimate",
        "decoupling (µF)",
        "strategy",
        "completion (s)",
        "energy (mJ)",
    ]);
    for p in report.front.points() {
        let (name, decimate) = match p.spec.source {
            SourceKind::Trace { id, decimate, .. } => (id.name(), decimate),
            other => (other.name(), 1),
        };
        t.row(&[
            name.to_string(),
            format!("{decimate}x"),
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
    let args = edc_bench::bench_args("BENCH_trace.json");
    let path = args.path.clone();
    let catalog = catalog();
    let space = space(&catalog);
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
    let grid = explorer.run(&space, &ExhaustiveGrid).unwrap_or_else(|e| {
        eprintln!("exhaustive exploration failed: {e}");
        std::process::exit(1);
    });
    let grid_s = started.elapsed().as_secs_f64();

    // Early rungs coarsen the timestep *and* shorten the deadline; the
    // evaluator charges both discounts, compounding the budget saving.
    let halving_searcher = SuccessiveHalving::new().deadline_divisors(&[4.0, 2.0, 1.0]);
    let started = Instant::now();
    let halving = explorer.run(&space, &halving_searcher).unwrap_or_else(|e| {
        eprintln!("successive-halving exploration failed: {e}");
        std::process::exit(1);
    });
    let halving_s = started.elapsed().as_secs_f64();

    banner("Design space: recorded traces x decimation x strategy x capacitance");
    println!(
        "{} registered recordings, {} designs; exhaustive grid = {} simulations",
        catalog.len(),
        space.len(),
        grid.evaluations
    );
    banner("Exhaustive Pareto front (completion time vs energy per task)");
    print!("{}", front_table(&grid));
    banner("Successive-halving front (short-deadline, coarse-dt prefilters)");
    print!("{}", front_table(&halving));

    let cost_ratio = halving.cost_units / grid.cost_units;
    let front_overlap = halving
        .front
        .points()
        .iter()
        .filter(|p| grid.front.contains_key(&p.key))
        .count();
    banner("Budget");
    println!(
        "exhaustive: {} sims ({:.2} cost units) in {grid_s:.3} s",
        grid.evaluations, grid.cost_units
    );
    println!(
        "   halving: {} sims ({:.2} cost units) in {halving_s:.3} s",
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
            "BENCH_trace.json",
            "exhaustive",
            &grid.front.to_json(&objectives),
        );
        edc_bench::assert_front_matches(
            "BENCH_trace.json",
            "halving",
            &halving.front.to_json(&objectives),
        );
    }

    banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "trace",
        vec![
            ("catalog", catalog.to_json()),
            ("exhaustive", grid.to_json()),
            ("halving", halving.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("grid_simulations", Json::Uint(grid.evaluations)),
                    ("halving_simulations", Json::Uint(halving.evaluations)),
                    ("grid_cost_units", Json::Num(grid.cost_units)),
                    ("halving_cost_units", Json::Num(halving.cost_units)),
                    ("cost_ratio", Json::Num(cost_ratio)),
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
