//! The `sweep` workload: the full catalogue grid (every source × strategy
//! × workload kind, 462 cells) with a 20 s simulated deadline and stats
//! telemetry, fanned out on the `edc-bench` sweep engine.

use std::time::Instant;

use edc_bench::sweep::{par_map, run_specs_timed_metered, Sweep};
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_core::{SystemReport, TelemetryKind, TelemetryReport, TraceCatalog};
use edc_units::Seconds;
use edc_workloads::WorkloadKind;

use crate::calib::HostSpeed;
use crate::trace::Tracer;
use crate::{counter_total, THREADS};

/// Cells in the grid.
pub const CELLS: usize = 462;
/// Cells that never retire an instruction.
pub const DEAD_CELLS: usize = 110;
/// `restart` cells that do not finish by the deadline.
pub const RESTART_DNF_CELLS: usize = 14;
/// FNV-1a digest of every cell's exact counters, in grid order (see
/// [`digest`]).
pub const DIGEST: u64 = 0x4204_a875_9375_7c0a;
/// Cells per sweep-engine call of an untraced pass; a reference slice
/// runs between calls.
pub const CHUNK_CELLS: usize = 66;

/// The grid's specs in the sweep engine's row order.
pub fn specs() -> Vec<ExperimentSpec> {
    let base = ExperimentSpec::new(
        SourceKind::RectifiedSine { hz: 50.0 },
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(64),
    )
    .deadline(Seconds(20.0))
    .telemetry(TelemetryKind::Stats);
    Sweep::over(base)
        .sources(&SourceKind::ALL)
        .strategies(&StrategyKind::ALL)
        .workloads(&WorkloadKind::ALL)
        .specs()
}

/// One pass over the grid.
pub struct SweepPass {
    /// Reports in grid order.
    pub reports: Vec<SystemReport>,
    /// Per-cell wall time, in grid order, scaled to the reference host
    /// speed.
    pub cell_s: Vec<f64>,
    /// Wall time of the whole pass, scaled to the reference host speed.
    pub total_s: f64,
    /// Wall time of the whole pass as measured.
    pub raw_total_s: f64,
    /// Instructions the runner recorded into the pass's metrics registry.
    pub registry_instructions: u64,
    /// Ticks the runner recorded into the pass's metrics registry.
    pub registry_ticks: u64,
    /// Time to render the pass's metrics registry.
    pub render_s: f64,
}

/// Runs the grid once. Untraced, this is the sweep engine itself, called
/// on [`CHUNK_CELLS`] cells at a time between `host`'s reference slices,
/// each call's timings scaled by its own factor; traced, it is the
/// engine's fan-out primitive with one span per cell around the same
/// per-cell call the engine makes, timed as measured.
pub fn pass(
    specs: &[ExperimentSpec],
    tracer: &Tracer,
    host: &mut HostSpeed,
    pass_id: u64,
) -> SweepPass {
    let catalog = TraceCatalog::new();
    let registry = edc_metrics::Registry::new();
    let (reports, cell_s, total_s, raw_total_s) = if tracer.on() {
        let started = Instant::now();
        let cells: Vec<(usize, ExperimentSpec)> = specs.iter().copied().enumerate().collect();
        let results = tracer.span("bench", "par_map", 0, pass_id, |root| {
            par_map(&cells, THREADS, |(index, spec)| {
                let cell_started = Instant::now();
                let report =
                    tracer.span("transient", "run_metered_in", root, *index as u64, |_| {
                        spec.run_metered_in(&catalog, &registry)
                    });
                (report, cell_started.elapsed().as_secs_f64())
            })
        });
        let total_s = started.elapsed().as_secs_f64();
        let (reports, cell_s): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let reports = reports
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("the catalogue grid validates");
        (reports, cell_s, total_s, total_s)
    } else {
        let mut reports = Vec::with_capacity(specs.len());
        let mut cell_s = Vec::with_capacity(specs.len());
        let (mut total_s, mut raw_total_s) = (0.0, 0.0);
        for chunk in specs.chunks(CHUNK_CELLS) {
            let (run, factor) = host.around(|| {
                run_specs_timed_metered(chunk.to_vec(), THREADS, &catalog, &registry)
                    .expect("the catalogue grid validates")
            });
            raw_total_s += run.timing.total_s;
            total_s += run.timing.total_s * factor;
            cell_s.extend(run.timing.per_cell_s.iter().map(|s| s * factor));
            reports.extend(run.rows.into_iter().map(|row| row.report));
        }
        (reports, cell_s, total_s, raw_total_s)
    };
    let started = Instant::now();
    let text = std::hint::black_box(registry.render_text());
    let render_s = started.elapsed().as_secs_f64();
    SweepPass {
        reports,
        cell_s,
        total_s,
        raw_total_s,
        registry_instructions: counter_total(&text, "edc_runner_instructions_total"),
        registry_ticks: counter_total(&text, "edc_runner_ticks_total"),
        render_s,
    }
}

/// Exact counters of a pass, for the output check and the layer ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridCounts {
    /// Cells run.
    pub cells: usize,
    /// Cells that retired no instruction.
    pub dead_cells: usize,
    /// Cells that did not complete by the deadline.
    pub dnf_cells: usize,
    /// `restart` cells that did not complete.
    pub restart_dnf_cells: usize,
    /// Completed cells whose golden-model verification failed.
    pub unverified_cells: usize,
    /// Σ ticks.
    pub ticks: u64,
    /// Σ ticks of cells that retired no instruction.
    pub dead_ticks: u64,
    /// Σ instructions.
    pub instructions: u64,
    /// Σ telemetry records seen by the cells' stats sinks.
    pub telemetry_events: u64,
}

/// Counts a pass's reports.
pub fn counts(specs: &[ExperimentSpec], reports: &[SystemReport]) -> GridCounts {
    let mut c = GridCounts {
        cells: reports.len(),
        ..GridCounts::default()
    };
    for (spec, report) in specs.iter().zip(reports) {
        let s = &report.stats;
        c.ticks += s.ticks;
        c.instructions += s.instructions;
        if s.instructions == 0 {
            c.dead_cells += 1;
            c.dead_ticks += s.ticks;
        }
        if s.completed_at.is_none() {
            c.dnf_cells += 1;
            if spec.strategy == StrategyKind::Restart {
                c.restart_dnf_cells += 1;
            }
        } else if report.verification.is_err() {
            c.unverified_cells += 1;
        }
        if let Some(TelemetryReport::Stats(stats)) = &report.telemetry {
            c.telemetry_events += stats.counts().records;
        }
    }
    c
}

/// FNV-1a over one line of exact counters per cell: outcome, ticks,
/// instructions, cycles, boots, brownouts, snapshots (sealed and torn),
/// restores, cycle-carry activations, and the bits of the completion time
/// and consumed energy.
pub fn digest(reports: &[SystemReport]) -> u64 {
    let mut text = String::new();
    for r in reports {
        let s = &r.stats;
        text.push_str(&format!(
            "{:?} {} {} {} {} {} {} {} {} {} {:x} {:x}\n",
            r.outcome,
            s.ticks,
            s.instructions,
            s.cycles,
            s.boots,
            s.brownouts,
            s.snapshots,
            s.torn_snapshots,
            s.restores,
            s.carry_activations,
            s.completed_at.map_or(0, |t| t.0.to_bits()),
            s.energy_consumed.0.to_bits(),
        ));
    }
    edc_store::key_hash(&text)
}

/// Cells of a pass that count as failed: completed cells that fail
/// verification, plus every cell when the grid's exact counters differ
/// from the recorded ones.
pub fn failed_cells(specs: &[ExperimentSpec], pass: &SweepPass) -> (usize, Vec<String>) {
    let c = counts(specs, &pass.reports);
    let mut problems = Vec::new();
    if c.unverified_cells > 0 {
        problems.push(format!(
            "{} completed cells failed verification",
            c.unverified_cells
        ));
    }
    let expected = (CELLS, DEAD_CELLS, RESTART_DNF_CELLS);
    let got = (c.cells, c.dead_cells, c.restart_dnf_cells);
    let d = digest(&pass.reports);
    if got != expected || d != DIGEST {
        problems.push(format!(
            "grid counters (cells, dead, restart DNF) = {got:?}, expected {expected:?}; \
             digest {d:016x}, expected {DIGEST:016x}"
        ));
        return (c.cells, problems);
    }
    if pass.registry_instructions != c.instructions || pass.registry_ticks != c.ticks {
        problems.push("runner metrics disagree with the cells' own counters".into());
        return (c.cells, problems);
    }
    (c.unverified_cells, problems)
}

/// When each cell's result is out, counted from the start of the pass,
/// given the cells' wall times in grid order: the sweep engine hands the
/// next cell to whichever of its `workers` is free first.
pub fn completion_s(cell_s: &[f64], workers: usize) -> Vec<f64> {
    let mut free_at = vec![0.0_f64; workers.max(1)];
    cell_s
        .iter()
        .map(|s| {
            let first = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one worker");
            free_at[first] += s;
            free_at[first]
        })
        .collect()
}

/// The per-cell cost fit: wall time ≈ `a`·(ticks of dead cells) +
/// `b`·(ticks of live cells) + `c`·instructions, by least squares. Returns
/// `(a, b, c)` in ns and the relative RMS error `√(Σ r²) / √(Σ y²)`.
pub fn cost_fit(reports: &[SystemReport], cell_s: &[f64]) -> Option<([f64; 3], f64)> {
    let xs: Vec<[f64; 3]> = reports
        .iter()
        .map(|r| {
            let (t, i) = (r.stats.ticks as f64, r.stats.instructions as f64);
            if r.stats.instructions == 0 {
                [t, 0.0, 0.0]
            } else {
                [0.0, t, i]
            }
        })
        .collect();
    let ys: Vec<f64> = cell_s.iter().map(|s| s * 1e9).collect();
    let coef = crate::stats::least_squares(&xs, &ys)?;
    let (mut res2, mut y2) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(&ys) {
        let fit: f64 = x.iter().zip(&coef).map(|(x, c)| x * c).sum();
        res2 += (y - fit).powi(2);
        y2 += y * y;
    }
    Some((coef, (res2 / y2).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_complete_on_the_first_free_worker() {
        assert_eq!(completion_s(&[1.0, 2.0, 3.0], 1), vec![1.0, 3.0, 6.0]);
        assert_eq!(
            completion_s(&[1.0, 2.0, 3.0, 1.0], 2),
            vec![1.0, 2.0, 4.0, 3.0]
        );
    }

    fn small_grid() -> Vec<ExperimentSpec> {
        let base = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(150),
        )
        .deadline(Seconds(0.2))
        .telemetry(TelemetryKind::Stats);
        Sweep::over(base)
            .sources(&[
                SourceKind::Dc { volts: 3.3 },
                SourceKind::Interrupted { hz: 10.0 },
            ])
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .workloads(&[WorkloadKind::BusyLoop(150), WorkloadKind::Crc16(16)])
            .specs()
    }

    #[test]
    fn cell_counters_reconcile_with_the_runner_metrics() {
        let specs = small_grid();
        for tracing in [false, true] {
            let tracer = Tracer::new(tracing);
            let pass = pass(&specs, &tracer, &mut HostSpeed::new(0), 0);
            let c = counts(&specs, &pass.reports);
            assert_eq!(c.cells, specs.len());
            assert!(c.instructions > 0);
            assert_eq!(c.instructions, pass.registry_instructions);
            assert_eq!(c.ticks, pass.registry_ticks);
            assert_eq!(pass.cell_s.len(), specs.len());
            assert_eq!(
                tracer.spans().len(),
                if tracing { specs.len() + 1 } else { 0 }
            );
        }
    }

    #[test]
    fn digest_covers_every_cell_counter() {
        let specs = small_grid();
        let mut reports = pass(&specs, &Tracer::new(false), &mut HostSpeed::new(0), 0).reports;
        let before = digest(&reports);
        reports[1].stats.restores += 1;
        assert_ne!(digest(&reports), before);
    }
}
