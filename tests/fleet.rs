//! Integration tests for the fleet subsystem (`edc-fleet`) and its
//! explorer adapters.
//!
//! The pillars, matching ISSUE/README claims:
//! 1. `FleetReport` JSON is byte-identical across repeated runs and across
//!    serial-vs-parallel execution, for synthetic-envelope *and*
//!    trace-backed shared fields.
//! 2. Fleet metrics behave like population metrics: coverage accrues with
//!    nodes, and `nodes_to_cover` really is the smallest covering prefix.
//! 3. An `edc-explore` searcher answers a fleet sizing question
//!    end-to-end through a `FleetObjective`, deterministically.

use proptest::prelude::*;

use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::fleet::{FieldSpec, FleetSpec, Placement};
use energy_driven::core::scenarios::{FieldEnvelope, SourceKind, StrategyKind};
use energy_driven::core::system::Topology;
use energy_driven::core::TelemetryKind;
use energy_driven::explore::{
    ExhaustiveGrid, Explorer, FleetCoverageShortfall, FleetNodesToCover, FleetTemplate, SpecSpace,
};
use energy_driven::fleet::Fleet;
use energy_driven::units::{Farads, Ohms, Seconds};
use energy_driven::workloads::WorkloadKind;

/// A fast per-node design: coarse timestep, small workload, short deadline.
fn design() -> ExperimentSpec {
    ExperimentSpec::new(
        SourceKind::Dc { volts: 3.3 }, // replaced by each node's field view
        StrategyKind::Hibernus,
        WorkloadKind::BusyLoop(300),
    )
    .timestep(Seconds(50e-6))
    .deadline(Seconds(1.0))
    .telemetry(TelemetryKind::Stats)
}

fn envelope_fleet(nodes: usize) -> FleetSpec {
    FleetSpec::new(
        FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
        design(),
        nodes,
    )
    .placement(Placement::Line {
        near: 1.0,
        far: 0.8,
    })
    .stagger(Seconds(0.004))
    .duty_period(Seconds(0.5))
}

fn trace_fleet(nodes: usize) -> FleetSpec {
    // One synthetic "recorded" cycle of harvested power, looped.
    let samples: Vec<(f64, f64)> = (0..25)
        .map(|i| {
            let t = i as f64 * 1e-3;
            (
                t,
                6e-3 * (i as f64 / 25.0 * std::f64::consts::TAU).sin().max(0.0),
            )
        })
        .collect();
    FleetSpec::new(
        FieldSpec::PowerTrace {
            name: "recorded-cycle".into(),
            samples,
            looping: true,
        },
        design(),
        nodes,
    )
    .placement(Placement::Line {
        near: 1.0,
        far: 0.8,
    })
    .stagger(Seconds(0.004))
    .duty_period(Seconds(0.5))
}

#[test]
fn envelope_fleet_report_json_is_byte_identical_serial_vs_parallel() {
    let parallel = Fleet::new(envelope_fleet(4))
        .threads(4)
        .run()
        .expect("fleet runs")
        .to_json()
        .to_string();
    let serial = Fleet::new(envelope_fleet(4))
        .threads(1)
        .run()
        .expect("fleet runs")
        .to_json()
        .to_string();
    let again = Fleet::new(envelope_fleet(4))
        .threads(3)
        .run()
        .expect("fleet runs")
        .to_json()
        .to_string();
    assert_eq!(parallel, serial, "serial != parallel");
    assert_eq!(parallel, again, "repeat differs");
    for key in ["\"fleet\"", "\"metrics\"", "\"aggregate\"", "\"nodes\""] {
        assert!(parallel.contains(key), "missing {key}");
    }
}

#[test]
fn trace_fleet_report_json_is_byte_identical_serial_vs_parallel() {
    let parallel = Fleet::new(trace_fleet(3))
        .threads(4)
        .run()
        .expect("fleet runs")
        .to_json()
        .to_string();
    let serial = Fleet::new(trace_fleet(3))
        .threads(1)
        .run()
        .expect("fleet runs")
        .to_json()
        .to_string();
    assert_eq!(parallel, serial, "trace fields: serial != parallel");
    assert!(parallel.contains("\"power-trace\""));
    assert!(parallel.contains("\"recorded-cycle\""));
}

#[test]
fn coverage_accrues_with_population_and_prefix_is_minimal() {
    let small = Fleet::new(envelope_fleet(1)).run().expect("fleet runs");
    let large = Fleet::new(envelope_fleet(6)).run().expect("fleet runs");
    assert!(large.metrics.task_rate_hz >= small.metrics.task_rate_hz);
    assert!(large.metrics.coverage >= small.metrics.coverage);
    if let Some(k) = large.metrics.nodes_to_cover {
        // The k-prefix covers...
        let rate = |upto: usize| -> f64 {
            large.nodes[..upto]
                .iter()
                .filter(|r| r.succeeded())
                .filter_map(|r| r.stats.completed_at)
                .map(|t| 1.0 / t.0)
                .sum()
        };
        assert!(rate(k) * large.spec.duty_period.0 >= 1.0);
        // ...and no smaller prefix does.
        assert!(rate(k - 1) * large.spec.duty_period.0 < 1.0);
    }
}

#[test]
fn a_searcher_answers_the_sizing_question_through_fleet_objectives() {
    // How many staggered nodes cover the duty cycle, and which strategy
    // needs fewest? Scored entirely through fleet objectives; the space
    // varies the design's strategy.
    let template = FleetTemplate::new(
        FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
        4,
    )
    .placement(Placement::Line {
        near: 1.0,
        far: 0.8,
    })
    .stagger(Seconds(0.004))
    .duty_period(Seconds(0.5))
    .threads(2);
    let space = SpecSpace::over(design())
        .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
        .decoupling(&[Farads::from_micro(10.0), Farads::from_micro(22.0)]);

    let run = || {
        Explorer::new()
            .objective(FleetNodesToCover(template.clone()))
            .objective(FleetCoverageShortfall(template.clone()))
            .threads(2)
            .run(&space, &ExhaustiveGrid)
            .expect("explores")
    };
    let report = run();
    assert_eq!(report.evaluations, space.len() as u64);
    let best = report.best().expect("candidates scored");
    assert!(
        best.scores[0].is_finite(),
        "some design covers the duty cycle: {:?}",
        report
            .front
            .points()
            .iter()
            .map(|p| &p.scores)
            .collect::<Vec<_>>()
    );
    assert!((1.0..=4.0).contains(&best.scores[0]));
    assert!((0.0..=1.0).contains(&best.scores[1]));

    // The whole exploration — fleets included — replays byte-identically.
    assert_eq!(
        report.to_json().to_string(),
        run().to_json().to_string(),
        "fleet-scored exploration must be deterministic"
    );
}

#[test]
fn fleet_spec_json_round_trips_through_the_parser() {
    use energy_driven::core::json::Json;
    for spec in [envelope_fleet(2), trace_fleet(2)] {
        let json = spec.to_json().to_string();
        assert_eq!(
            Json::parse(&json).expect("valid JSON").to_string(),
            json,
            "parse → emit round-trips byte-identically"
        );
    }
}

/// One fault (or none, at index 0) applied to a per-node design.
fn mutate_design(design: ExperimentSpec, fault: usize) -> ExperimentSpec {
    match fault {
        1 => design.timestep(Seconds(0.0)),
        2 => design.decoupling(Farads(-1.0)),
        3 => design.workload(WorkloadKind::Crc16(0)),
        4 => design.topology(Topology::Buffered {
            storage: Farads(f64::NAN),
            efficiency: 1.5,
        }),
        5 => design.leakage(Ohms(0.0)),
        6 => design.trace(0),
        7 => design.deadline(Seconds(0.0)),
        8 => design.deadline(Seconds(f64::NAN)),
        _ => design,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// `validate` reports exactly the first entry of the collect-all
    /// `violations` list, whatever mix of fleet-level and design faults a
    /// spec carries. Compared through `Debug`, since NaN payloads are
    /// never `==` themselves.
    #[test]
    fn fleet_validate_is_the_first_violation(
        nodes in 0usize..4,
        stagger in 0usize..3,
        duty in 0usize..3,
        placement in 0usize..6,
        field in 0usize..6,
        faults in (0usize..9, 0usize..9),
    ) {
        let stagger = [0.0, 0.01, -1.0][stagger];
        let duty = [1.0, 0.0, f64::INFINITY][duty];
        let placement = match placement {
            0 => Placement::Colocated,
            1 => Placement::Line { near: 1.0, far: 0.5 },
            2 => Placement::Line { near: 1.0, far: 0.0 },
            3 => Placement::Explicit(vec![0.5; nodes]),
            4 => Placement::Explicit(vec![0.5; nodes.saturating_sub(1)]),
            _ => Placement::Explicit(vec![1.5; nodes + 1]),
        };
        let trace = |samples: Vec<(f64, f64)>| FieldSpec::PowerTrace {
            name: "site".into(),
            samples,
            looping: true,
        };
        let field = match field {
            0 => FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: 50.0 }),
            1 => FieldSpec::Envelope(FieldEnvelope::RectifiedSine { hz: -4.0 }),
            2 => trace(vec![(0.0, 1e-3), (1.0, 3e-3)]),
            3 => trace(vec![(0.0, 1e-3)]),
            4 => trace(vec![(0.0, 1e-3), (0.0, 3e-3)]),
            _ => trace(vec![(0.0, 1e-3), (f64::NAN, 3e-3)]),
        };
        let design = mutate_design(mutate_design(design(), faults.0), faults.1);
        let fleet = FleetSpec::new(field, design, nodes)
            .placement(placement)
            .stagger(Seconds(stagger))
            .duty_period(Seconds(duty));
        prop_assert_eq!(
            format!("{:?}", fleet.validate().err()),
            format!("{:?}", fleet.violations().first())
        );
    }
}
