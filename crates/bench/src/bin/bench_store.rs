//! Store benchmark: cold vs. warm search over the persistent evaluation
//! store, on `bench_lint`'s 224-design space.
//!
//! The scenario is the tentpole claim of the store layer, asserted hard:
//!
//! - a **cold** run (fresh store) simulates every design and writes each
//!   result back;
//! - a **fully-warm** run over the *reopened* store performs **zero**
//!   simulations yet produces a byte-identical Pareto front;
//! - a **half-warm** run (a second store seeded with every other entry)
//!   simulates exactly the missing half, same front again;
//! - an **independent rebuild** (a third store, cold) followed by
//!   deterministic compaction leaves all three store directories
//!   **byte-identical** — entry insertion order never leaks into the
//!   serialized files.
//!
//! The binary exits non-zero if any property fails, so CI regression
//! checks are the assertions themselves. `BENCH_store.json` layout: the
//! catalog, the three deterministic `ExploreReport` sections
//! (byte-diffable between commits), the comparison, and wall-clock
//! timing (non-deterministic, kept outside the reports).
//!
//! Run: `cargo run --release -p edc-bench --bin bench_store`
//! Output path override: `bench_store <path>` (default `BENCH_store.json`).
//! Store directories live under the system temp dir and are rebuilt from
//! scratch on every run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use edc_bench::banner;
use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::{
    CompletionTime, EnergyPerTask, ExhaustiveGrid, ExploreReport, Explorer, SpecSpace, Store,
    StoreHandle,
};
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
/// capacitances.
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

fn open_handle(dir: &Path) -> StoreHandle {
    match Store::open(dir) {
        Ok(store) => store.into_handle(),
        Err(e) => {
            eprintln!("cannot open store at {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// One exhaustive grid over the space, backed by `store`.
fn run(catalog: &TraceCatalog, space: &SpecSpace, store: StoreHandle) -> (ExploreReport, f64) {
    let explorer = Explorer::new()
        .objective(CompletionTime)
        .objective(EnergyPerTask)
        .catalog(catalog.clone())
        .store(store);
    let started = Instant::now();
    let report = explorer.run(space, &ExhaustiveGrid).unwrap_or_else(|e| {
        eprintln!("exploration failed: {e}");
        std::process::exit(1);
    });
    (report, started.elapsed().as_secs_f64())
}

/// Compacts the store at `dir` so its file bytes are a pure function of
/// its contents.
fn compact(dir: &Path) {
    let mut store = Store::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot reopen store at {}: {e}", dir.display());
        std::process::exit(1);
    });
    if let Err(e) = store.compact() {
        eprintln!("compaction failed at {}: {e}", dir.display());
        std::process::exit(1);
    }
}

/// Every file in `dir` as sorted `(name, bytes)` pairs — the directory's
/// identity for byte-level comparison.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("cannot list {}: {e}", dir.display());
        std::process::exit(1);
    });
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| {
            eprintln!("cannot list {}: {e}", dir.display());
            std::process::exit(1);
        });
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(entry.path()).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", entry.path().display());
            std::process::exit(1);
        });
        out.push((name, bytes));
    }
    out.sort();
    out
}

fn fail(message: &str) -> ! {
    eprintln!("FAIL: {message}");
    std::process::exit(1);
}

fn main() {
    let path = edc_bench::artifact_path("BENCH_store.json");
    let root: PathBuf = std::env::temp_dir().join("edc-bench-store");
    let _ = std::fs::remove_dir_all(&root);
    let (dir_a, dir_b, dir_c) = (root.join("cold"), root.join("half"), root.join("rebuild"));

    let catalog = catalog();
    let space = space(&catalog);
    let designs = space.len() as u64;

    // Cold: a fresh store simulates everything and writes it all back.
    let (cold, cold_s) = run(&catalog, &space, open_handle(&dir_a));
    if (cold.evaluations, cold.store_hits) != (designs, 0) {
        fail("cold run must simulate every design with zero store hits");
    }

    // Fully warm: reopen the store from disk — zero simulations, same
    // front. This is the tentpole claim: persistence replaces simulation
    // without perturbing the result.
    let (warm, warm_s) = run(&catalog, &space, open_handle(&dir_a));
    if (warm.evaluations, warm.store_hits) != (0, designs) {
        fail("fully-warm run must hit the store for every design and simulate nothing");
    }
    let objectives: Vec<String> = cold.objectives.clone();
    let cold_front = cold.front.to_json(&objectives);
    if warm.front.to_json(&objectives).to_string() != cold_front.to_string() {
        fail("fully-warm front differs from the cold front");
    }

    // Half-warm: a second store seeded with every other entry simulates
    // exactly the missing half.
    let seeded = {
        let source = Store::open(&dir_a).unwrap_or_else(|e| {
            eprintln!("cannot reopen store at {}: {e}", dir_a.display());
            std::process::exit(1);
        });
        let mut target = Store::open(&dir_b).unwrap_or_else(|e| {
            eprintln!("cannot open store at {}: {e}", dir_b.display());
            std::process::exit(1);
        });
        let mut seeded = 0u64;
        for entry in source.sorted_entries().iter().step_by(2) {
            let spec = Json::parse(&entry.spec_json).unwrap_or_else(|e| {
                eprintln!("stored spec is not valid JSON: {e}");
                std::process::exit(1);
            });
            let scores: BTreeMap<String, f64> = entry.scores.clone();
            match target.put(&spec, entry.report.clone(), scores, entry.cost) {
                Ok(true) => seeded += 1,
                Ok(false) => fail("seeding a fresh store must append every entry"),
                Err(e) => {
                    eprintln!("seeding failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        seeded
    };
    let (half, half_s) = run(&catalog, &space, open_handle(&dir_b));
    if (half.evaluations, half.store_hits) != (designs - seeded, seeded) {
        fail("half-warm run must simulate exactly the unseeded half");
    }
    if half.front.to_json(&objectives).to_string() != cold_front.to_string() {
        fail("half-warm front differs from the cold front");
    }

    // Independent rebuild: a third store built from scratch, in whatever
    // order the parallel evaluator writes back.
    let (rebuild, rebuild_s) = run(&catalog, &space, open_handle(&dir_c));
    if (rebuild.evaluations, rebuild.store_hits) != (designs, 0) {
        fail("rebuild run must simulate every design with zero store hits");
    }

    // Deterministic compaction: all three stores now hold the same runs,
    // inserted in different orders; their files must end up
    // byte-identical.
    for dir in [&dir_a, &dir_b, &dir_c] {
        compact(dir);
    }
    let (files_a, files_b, files_c) = (files(&dir_a), files(&dir_b), files(&dir_c));
    let stores_identical = files_a == files_b && files_a == files_c;
    if !stores_identical {
        fail("compacted stores are not byte-identical");
    }
    let store_bytes: u64 = files_a.iter().map(|(_, bytes)| bytes.len() as u64).sum();

    banner("Store warm-start on bench_lint's 224-design space");
    println!(
        "cold:      {} sims, {} hits in {cold_s:.3} s",
        cold.evaluations, cold.store_hits
    );
    println!(
        "warm:      {} sims, {} hits in {warm_s:.3} s (front byte-identical)",
        warm.evaluations, warm.store_hits
    );
    println!(
        "half-warm: {} sims, {} hits in {half_s:.3} s ({seeded} entries seeded)",
        half.evaluations, half.store_hits
    );
    println!(
        "rebuild:   {} sims in {rebuild_s:.3} s; 3 compacted stores byte-identical \
         ({} files, {store_bytes} bytes each)",
        rebuild.evaluations,
        files_a.len()
    );

    edc_bench::banner("Metrics");
    print!("{}", edc_metrics::global().render_text());

    let artifact = edc_bench::artifact(
        "store",
        vec![
            ("catalog", catalog.to_json()),
            ("cold", cold.to_json()),
            ("warm", warm.to_json()),
            ("half_warm", half.to_json()),
            (
                "comparison",
                Json::obj(vec![
                    ("designs", Json::Uint(designs)),
                    ("fronts_identical", Json::Bool(true)),
                    ("cold_simulations", Json::Uint(cold.evaluations)),
                    ("warm_simulations", Json::Uint(warm.evaluations)),
                    ("warm_store_hits", Json::Uint(warm.store_hits)),
                    ("half_seeded", Json::Uint(seeded)),
                    ("half_simulations", Json::Uint(half.evaluations)),
                    ("half_store_hits", Json::Uint(half.store_hits)),
                    ("rebuild_simulations", Json::Uint(rebuild.evaluations)),
                    ("stores_identical", Json::Bool(stores_identical)),
                    ("store_files", Json::Uint(files_a.len() as u64)),
                    ("store_bytes", Json::Uint(store_bytes)),
                ]),
            ),
            // Non-deterministic section, deliberately outside the reports.
            (
                "timing",
                Json::obj(vec![
                    ("cold_s", Json::Num(cold_s)),
                    ("warm_s", Json::Num(warm_s)),
                    ("half_s", Json::Num(half_s)),
                    ("rebuild_s", Json::Num(rebuild_s)),
                ]),
            ),
        ],
    );
    edc_bench::write_artifact(&path, &artifact);
}
