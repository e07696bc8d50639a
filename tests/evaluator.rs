//! A golden pin of the evaluator's observable output: one fixed call
//! sequence run under all eight combinations of the lint prefilter,
//! branch-and-bound pruning and a persistent store. For each combination
//! the golden file records every trace entry's flags and scores, the
//! getter totals, the per-call profile counters and the metrics
//! exposition, so any restructuring of `Evaluator::evaluate` must keep
//! all four byte-identical. Regenerate deliberately with
//! `BLESS=1 cargo test --test evaluator`.

use std::fmt::Write as _;
use std::path::PathBuf;

use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::explore::{CompletionTime, EnergyPerTask, Evaluator, Objective, Store};
use energy_driven::metrics::Registry;
use energy_driven::units::Seconds;
use energy_driven::workloads::WorkloadKind;

/// A DC-supplied restart design running `BusyLoop(n)`.
fn dc(volts: f64, n: u16) -> ExperimentSpec {
    ExperimentSpec::new(
        SourceKind::Dc { volts },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(n),
    )
    .deadline(Seconds(1.0))
}

/// The design the store is seeded with before the sequence starts.
fn seeded() -> ExperimentSpec {
    dc(3.3, 150)
}

/// The call sequence: (phase, batch). It covers in-batch duplicates, a
/// store-seeded key, a spec the lint prefilter proves dead (1.5 V never
/// boots), a long loop dominated at its lower bounds by the short ones, a
/// coarse-timestep run, and cross-call repeats of every one of them.
fn sequence() -> Vec<(&'static str, Vec<ExperimentSpec>)> {
    let dark = dc(1.5, 100);
    let long = dc(3.3, 4000);
    let coarse = dc(3.3, 300).timestep(Seconds(80e-6));
    vec![
        (
            "first",
            vec![
                dc(3.3, 100),
                dc(3.3, 200),
                dc(3.3, 100),
                seeded(),
                dark,
                seeded(),
                dark,
            ],
        ),
        (
            "second",
            vec![dc(3.3, 200), long, seeded(), dark, coarse, coarse],
        ),
        ("third", vec![long, dc(3.3, 100), dark, seeded(), coarse]),
        ("fourth", vec![dc(3.3, 250), long]),
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edc-tests-evaluator-golden-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the sequence under one combination and renders everything it
/// observably produced.
fn run_combination(prefilter: bool, bound: bool, store: bool) -> String {
    let tag = format!("prefilter={prefilter} bound={bound} store={store}");
    let objectives: Vec<Box<dyn Objective>> =
        vec![Box::new(CompletionTime), Box::new(EnergyPerTask)];
    let registry = Registry::new();
    let mut eval = Evaluator::new(&objectives, 2, None, Seconds(20e-6))
        .with_prefilter(prefilter)
        .with_bound(bound)
        .with_metrics(registry.clone());
    if store {
        let dir = scratch_dir(&format!("{prefilter}-{bound}"));
        let handle = Store::open(&dir).expect("store opens").into_handle();
        // Seed with one objective only, so the main run has to recompute
        // the missing score from the stored report and merge it back.
        let seed_objectives: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
        Evaluator::new(&seed_objectives, 1, None, Seconds(20e-6))
            .with_metrics(Registry::new())
            .with_store(handle.clone())
            .evaluate(vec![seeded()], "seed")
            .expect("seed evaluates");
        eval = eval.with_store(handle);
    }
    for (phase, batch) in sequence() {
        eval.evaluate(batch, phase).expect("evaluates");
    }

    let mut out = format!("=== {tag}\n--- trace\n");
    for entry in eval.trace() {
        writeln!(
            out,
            "{} cached={} pruned={} bound_pruned={} store_hit={} scores={:?} spec={}",
            entry.phase,
            entry.cached,
            entry.pruned,
            entry.bound_pruned,
            entry.store_hit,
            entry.scores,
            entry.spec.to_json(),
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "--- totals\nsimulations={} cache_hits={} cost_units={} lint_checks={} lint_pruned={} \
         bound_checks={} bound_pruned={} store_hits={}",
        eval.simulations(),
        eval.cache_hits(),
        eval.cost_units(),
        eval.lint_checks(),
        eval.lint_pruned(),
        eval.bound_checks(),
        eval.bound_pruned(),
        eval.store_hits(),
    )
    .expect("write to string");
    writeln!(out, "--- profile\n{}", eval.profile().counters_json()).expect("write to string");
    write!(out, "--- metrics\n{}", registry.render_text()).expect("write to string");
    out
}

#[test]
fn evaluator_output_matches_the_golden_file_under_every_combination() {
    let mut exposed = String::new();
    for prefilter in [false, true] {
        for bound in [false, true] {
            for store in [false, true] {
                exposed.push_str(&run_combination(prefilter, bound, store));
            }
        }
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/evaluator.golden.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &exposed).expect("golden file writable");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file present (BLESS=1 to regenerate)");
    assert_eq!(
        exposed, golden,
        "evaluator output drifted from the golden file; if the change is \
         intentional, re-bless with BLESS=1 cargo test --test evaluator"
    );
}
