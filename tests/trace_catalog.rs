//! Integration tests for the trace catalog and `SourceKind::Trace`:
//! the spec-driven path for recorded power sources.
//!
//! The contract under test, matching ISSUE/README claims:
//! 1. A trace-backed `ExperimentSpec` produces a `SystemReport`
//!    **byte-identical** to the same recording run through the boxed
//!    `Experiment::source` path.
//! 2. Trace specs are lossless: spec JSON names the recording (name +
//!    content hash), catalog JSON carries the samples, and a catalog
//!    rebuilt from its own JSON replays the run byte-identically.
//! 3. Decimation follows `TracePlayback::decimated` semantics exactly.
//! 4. Fleet envelope *and* trace fields execute through the single
//!    spec-driven `run_specs_timed_metered` path with identical per-node
//!    results to hand-built boxed sources.

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::{Experiment, ExperimentSpec};
use energy_driven::core::fleet::{FieldSpec, FleetSpec, Placement};
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::fleet::Fleet;
use energy_driven::harvest::{FieldView, TracePlayback};
use energy_driven::units::{Seconds, Watts};
use energy_driven::workloads::WorkloadKind;

/// A deterministic synthetic "recording": one mains cycle of harvested
/// power, 1 ms sampling, a few milliwatts.
fn mains_samples() -> Vec<(f64, f64)> {
    (0..20)
        .map(|i| {
            let t = i as f64 * 1e-3;
            let phase = (i as f64 / 20.0) * std::f64::consts::TAU;
            (t, 8e-3 * phase.sin().max(0.0))
        })
        .collect()
}

fn playback(looped: bool) -> TracePlayback {
    let series = mains_samples()
        .into_iter()
        .map(|(t, w)| (Seconds(t), Watts(w)))
        .collect();
    let trace = TracePlayback::from_power_series("mains-cycle", series);
    if looped {
        trace.looping()
    } else {
        trace
    }
}

fn design() -> ExperimentSpec {
    ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 }, // placeholder, replaced per test
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(64),
    )
    .deadline(Seconds(4.0))
}

#[test]
fn trace_spec_report_is_byte_identical_to_the_boxed_source_path() {
    let mut catalog = TraceCatalog::new();
    let id = catalog
        .register("mains-cycle", mains_samples())
        .expect("valid trace");
    let spec = design().source(SourceKind::Trace {
        id,
        decimate: 1,
        looped: true,
    });
    let via_spec = spec.run_in(&catalog).expect("trace spec runs");
    let via_box = Experiment::from_spec(&design())
        .source(playback(true))
        .run(design().deadline)
        .expect("boxed source runs");
    assert!(via_spec.succeeded(), "the recording powers the run");
    assert_eq!(
        via_spec.to_json().to_string(),
        via_box.to_json().to_string(),
        "spec-driven and boxed paths must be byte-identical"
    );
}

#[test]
fn trace_specs_are_lossless_through_catalog_json() {
    let mut catalog = TraceCatalog::new();
    let id = catalog
        .register("mains-cycle", mains_samples())
        .expect("valid trace");
    let spec = design().source(SourceKind::Trace {
        id,
        decimate: 2,
        looped: true,
    });

    // The spec JSON names the recording: name + content hash + knobs.
    let spec_json = spec.to_json().to_string();
    assert!(spec_json.contains("\"kind\":\"trace\""), "{spec_json}");
    assert!(
        spec_json.contains("\"name\":\"mains-cycle\""),
        "{spec_json}"
    );
    assert!(
        spec_json.contains(&format!("\"hash\":{}", id.content_hash())),
        "{spec_json}"
    );
    assert!(
        !spec_json.contains("samples"),
        "samples live in the catalog, not in every spec: {spec_json}"
    );

    // The catalog JSON carries the samples; a rebuilt catalog resolves the
    // same id and replays byte-identically.
    let catalog_json = catalog.to_json().to_string();
    assert!(catalog_json.contains("\"samples\""), "{catalog_json}");
    let rebuilt =
        TraceCatalog::from_json(&Json::parse(&catalog_json).expect("valid")).expect("round-trips");
    assert!(rebuilt.contains(id), "name + hash resolve after the trip");
    assert_eq!(rebuilt.to_json().to_string(), catalog_json);
    let original = spec.run_in(&catalog).expect("runs");
    let replayed = spec.run_in(&rebuilt).expect("runs through rebuilt catalog");
    assert_eq!(
        original.to_json().to_string(),
        replayed.to_json().to_string()
    );
}

#[test]
fn spec_decimation_matches_trace_playback_semantics() {
    let mut catalog = TraceCatalog::new();
    let id = catalog
        .register("mains-cycle", mains_samples())
        .expect("valid trace");
    for decimate in [1u64, 3, 4] {
        let via_spec = design()
            .source(SourceKind::Trace {
                id,
                decimate,
                looped: true,
            })
            .run_in(&catalog)
            .expect("decimated trace spec runs");
        let via_box = Experiment::from_spec(&design())
            .source(playback(true).decimated(decimate))
            .run(design().deadline)
            .expect("boxed decimated source runs");
        assert_eq!(
            via_spec.to_json().to_string(),
            via_box.to_json().to_string(),
            "decimate = {decimate}"
        );
    }
    // Decimation genuinely changes the stimulus (it is a fidelity knob,
    // not a no-op): the interpolated waveform between kept anchors moves.
    let mut fine = catalog.playback(id, 1, true).expect("resolves");
    let mut coarse = catalog.playback(id, 8, true).expect("resolves");
    use energy_driven::harvest::EnergySource as _;
    let diverges = (0..20).any(|i| {
        let t = Seconds(i as f64 * 1.3e-3);
        fine.sample(t) != coarse.sample(t)
    });
    assert!(diverges, "8× decimation must alter the waveform");
}

#[test]
fn unknown_trace_handles_fail_as_values_not_panics() {
    let mut other = TraceCatalog::new();
    let id = other
        .register("elsewhere", vec![(0.0, 1e-3), (1.0, 2e-3)])
        .expect("valid trace");
    let spec = design().source(SourceKind::trace(id));
    // Catalog-free entry points reject the unresolvable handle.
    let err = spec.run().expect_err("no catalog supplied");
    assert!(err.to_string().contains("not registered"), "{err}");
    let err = spec
        .run_in(&TraceCatalog::new())
        .expect_err("empty catalog");
    assert!(err.to_string().contains("not registered"), "{err}");
    // The owning catalog still works.
    assert!(spec.run_in(&other).expect("resolves").succeeded());
}

#[test]
fn trace_fleet_runs_spec_driven_and_matches_boxed_node_sources() {
    let fleet_spec = FleetSpec::new(
        FieldSpec::PowerTrace {
            name: "mains-cycle".into(),
            samples: mains_samples(),
            looping: true,
        },
        design().timestep(Seconds(50e-6)),
        3,
    )
    .placement(Placement::Line {
        near: 1.0,
        far: 0.75,
    })
    .stagger(Seconds(0.004));

    let report = Fleet::new(fleet_spec.clone())
        .threads(2)
        .run()
        .expect("trace fleet runs through run_specs_timed_metered");
    assert_eq!(report.nodes.len(), 3);

    // The per-node specs really are plain data (FieldView over Trace).
    let mut catalog = TraceCatalog::new();
    let specs = fleet_spec
        .node_specs_in(&mut catalog)
        .expect("trace fields expand to specs");
    assert_eq!(specs.len(), 3);
    assert!(matches!(specs[0].source, SourceKind::FieldView { .. }));

    // And each node matches a hand-built boxed FieldView over the same
    // recording, byte for byte.
    for (i, node) in report.nodes.iter().enumerate() {
        let design = fleet_spec.design;
        let boxed = Experiment::from_spec(&design)
            .source(FieldView::new(
                playback(true),
                fleet_spec.attenuation(i),
                fleet_spec.phase(i),
            ))
            .run(design.deadline)
            .expect("boxed node runs");
        assert_eq!(
            node.to_json().to_string(),
            boxed.to_json().to_string(),
            "node {i}"
        );
    }

    // Determinism across thread counts and repeats, as for envelope fleets.
    let serial = Fleet::new(fleet_spec.clone()).threads(1).run().unwrap();
    assert_eq!(
        report.to_json().to_string(),
        serial.to_json().to_string(),
        "serial == parallel"
    );
}

#[test]
fn sweeps_carry_trace_axes_through_the_catalog() {
    use energy_driven::core::TelemetryKind;
    let mut catalog = TraceCatalog::new();
    let mains = catalog
        .register("mains-cycle", mains_samples())
        .expect("valid");
    let steady = catalog
        .register_uniform("steady", Seconds(0.01), &[3e-3, 3e-3, 3e-3])
        .expect("valid");
    let base = design().telemetry(TelemetryKind::Stats);
    let sweep = || {
        edc_bench::sweep::Sweep::over(base)
            .sources(&[
                SourceKind::Trace {
                    id: mains,
                    decimate: 1,
                    looped: true,
                },
                SourceKind::Trace {
                    id: steady,
                    decimate: 1,
                    looped: true,
                },
            ])
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .catalog(catalog.clone())
    };
    let parallel = sweep().threads(4).run().expect("trace sweep runs");
    let serial = sweep().threads(1).run().expect("trace sweep runs");
    assert_eq!(parallel.len(), 4);
    assert_eq!(
        edc_bench::sweep::render_json(&parallel),
        edc_bench::sweep::render_json(&serial)
    );
    // Without the catalog the same grid fails up front, as a value.
    let err = edc_bench::sweep::run_specs_timed_metered(
        sweep().specs(),
        2,
        &TraceCatalog::new(),
        &energy_driven::metrics::Registry::new(),
    )
    .expect_err("no catalog");
    assert!(err.to_string().contains("not registered"), "{err}");
}
