//! Integration tests for the fallible Experiment/Sweep API: build errors
//! are values not panics, parallel sweeps are deterministic and match
//! serial execution, and reports round-trip through JSON.

use edc_bench::sweep::{render_json, render_text, Sweep};
use energy_driven::core::experiment::{BuildError, Experiment, ExperimentSpec};
use energy_driven::core::json::Json;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::core::system::Topology;
use energy_driven::harvest::DcSupply;
use energy_driven::units::{Farads, Seconds, Volts};
use energy_driven::workloads::WorkloadKind;

#[test]
fn missing_components_surface_as_build_errors() {
    assert_eq!(
        Experiment::new().build().err(),
        Some(BuildError::MissingSource)
    );
    assert_eq!(
        Experiment::new()
            .source(DcSupply::new(Volts(3.3)))
            .build()
            .err(),
        Some(BuildError::MissingStrategy)
    );
    assert_eq!(
        Experiment::new()
            .source(DcSupply::new(Volts(3.3)))
            .strategy_kind(StrategyKind::Restart)
            .build()
            .err(),
        Some(BuildError::MissingWorkload)
    );
    // Physical-parameter validation is part of the same contract.
    let bad_efficiency = ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 },
        StrategyKind::Restart,
        WorkloadKind::BusyLoop(10),
    )
    .topology(Topology::Buffered {
        storage: Farads::from_micro(100.0),
        efficiency: 0.0,
    });
    assert_eq!(
        bad_efficiency.run().err(),
        Some(BuildError::InvalidEfficiency(0.0))
    );
}

/// Out-of-domain kind parameters must surface as `BuildError`s, not
/// constructor panics — including through a parallel `Sweep`, where a
/// worker panic would kill the whole scope.
#[test]
fn invalid_kind_parameters_are_errors_not_panics() {
    let base = |workload| {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            workload,
        )
    };
    assert_eq!(
        base(WorkloadKind::BusyLoop(0)).run().err(),
        Some(BuildError::InvalidWorkload(
            "busy-loop iterations must be in 1..=32767"
        ))
    );
    assert!(matches!(
        base(WorkloadKind::Fourier(100)).build().err(),
        Some(BuildError::InvalidWorkload(_))
    ));
    assert!(matches!(
        base(WorkloadKind::Crc16(64))
            .source(SourceKind::RectifiedSine { hz: f64::NAN })
            .run()
            .err(),
        Some(BuildError::InvalidSource(_))
    ));
    assert_eq!(
        base(WorkloadKind::Crc16(64)).trace(0).build().err(),
        Some(BuildError::InvalidTrace)
    );
    assert_eq!(
        base(WorkloadKind::Crc16(64))
            .leakage(energy_driven::units::Ohms(0.0))
            .build()
            .err(),
        Some(BuildError::InvalidLeakage(0.0))
    );
    // Through the sweep engine: the grid fails fast with the error value.
    let err = Sweep::over(base(WorkloadKind::BusyLoop(40_000)).deadline(Seconds(1.0)))
        .strategies(&StrategyKind::ALL)
        .run()
        .expect_err("invalid grid point");
    assert!(matches!(err, BuildError::InvalidWorkload(_)));
}

/// The full `StrategyKind::ALL × workloads` grid: parallel execution must
/// be deterministic across repeated runs and identical to serial execution.
#[test]
fn full_strategy_sweep_is_deterministic_and_matches_serial() {
    // A 50 Hz rectified sine forces real checkpointing for the multi-window
    // workloads, so determinism is tested on the interesting paths.
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Crc16(256),
    )
    .deadline(Seconds(3.0));
    let sweep = Sweep::over(base)
        .strategies(&StrategyKind::ALL)
        .workloads(&[WorkloadKind::Crc16(256), WorkloadKind::MatMul]);

    let parallel_a = sweep.clone().run().expect("grid assembles");
    let parallel_b = sweep.clone().threads(5).run().expect("grid assembles");
    let serial = sweep.clone().threads(1).run().expect("grid assembles");

    assert_eq!(parallel_a.len(), StrategyKind::ALL.len() * 2);
    let json_a = render_json(&parallel_a);
    assert_eq!(json_a, render_json(&parallel_b), "run-to-run determinism");
    assert_eq!(json_a, render_json(&serial), "parallel == serial");

    // Rows arrive in grid order regardless of scheduling.
    for (i, row) in parallel_a.iter().enumerate() {
        assert_eq!(row.index, i);
        assert_eq!(
            row.spec.strategy,
            StrategyKind::ALL[i % StrategyKind::ALL.len()]
        );
        assert_eq!(row.report.strategy, row.spec.strategy.name());
    }

    // The text renderer covers every row of the same grid.
    let text = render_text(&parallel_a);
    assert_eq!(text.lines().count(), 2 + parallel_a.len());
}

#[test]
fn system_report_json_round_trips() {
    let report = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 20.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(64),
    )
    .deadline(Seconds(5.0))
    .run()
    .expect("spec assembles");
    assert!(report.succeeded());

    let emitted = report.to_json().to_string();
    let parsed = Json::parse(&emitted).expect("report emits valid JSON");
    assert_eq!(
        parsed.to_string(),
        emitted,
        "parse → emit is byte-identical"
    );

    // The parsed tree carries the real component names and the stats.
    assert_eq!(parsed.get("strategy"), Some(&Json::Str("hibernus".into())));
    assert_eq!(parsed.get("workload"), Some(&Json::Str("fourier".into())));
    assert_eq!(parsed.get("verified"), Some(&Json::Bool(true)));
    let stats = parsed.get("stats").expect("stats object");
    match stats.get("snapshots") {
        Some(Json::Uint(n)) => assert!(*n >= 1, "sine dips force snapshots"),
        other => panic!("expected snapshot count, got {other:?}"),
    }
}
