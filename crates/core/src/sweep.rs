//! The sweep engine: explicit lists of [`ExperimentSpec`]s fanned out
//! across threads, with deterministic, ordered results.
//!
//! [`run_specs_timed_metered`] is the one execution primitive under every
//! grid, search batch and fleet: it validates the whole list, runs each
//! spec through [`ExperimentSpec::run_metered_in`] on scoped workers that
//! claim rows by index, and returns rows in input order. Thread count
//! therefore affects wall-clock time only, never results.
//!
//! # Examples
//!
//! ```
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_core::sweep::run_specs_timed_metered;
//! use edc_core::TraceCatalog;
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let base = ExperimentSpec::new(
//!     SourceKind::Dc { volts: 3.3 },
//!     StrategyKind::Restart,
//!     WorkloadKind::BusyLoop(120),
//! )
//! .deadline(Seconds(1.0));
//! let specs = vec![base, base.strategy(StrategyKind::Hibernus)];
//! let registry = edc_metrics::Registry::new();
//! let run = run_specs_timed_metered(specs, 2, &TraceCatalog::new(), &registry)?;
//! assert_eq!(run.rows.len(), 2);
//! assert_eq!(run.rows[1].report.strategy, "hibernus");
//! # Ok::<(), edc_core::experiment::BuildError>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use edc_telemetry::StatsSink;

use crate::catalog::TraceCatalog;
use crate::experiment::{BuildError, ExperimentSpec};
use crate::json::Json;
use crate::telemetry::{stats_json, TelemetryReport};
use crate::SystemReport;

/// One grid point's result: the spec that produced it, its position in the
/// grid, and the run's report.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Stable position in the grid's row order.
    pub index: usize,
    /// The spec this row ran.
    pub spec: ExperimentSpec,
    /// The run's report.
    pub report: SystemReport,
}

impl SweepRow {
    /// The row as a JSON value with deterministic field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::Uint(self.index as u64)),
            ("spec", self.spec.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

/// Wall-clock timing of a sweep. **Not deterministic** — keep it out of
/// any output that is diffed byte-for-byte (the row/telemetry sections
/// are; timing is reported alongside, never inside, them).
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// End-to-end wall-clock of the sweep, including scheduling.
    pub total_s: f64,
    /// Per-cell wall-clock, in grid row order.
    pub per_cell_s: Vec<f64>,
}

impl SweepTiming {
    /// The timing as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_s", Json::Num(self.total_s)),
            (
                "per_cell_s",
                Json::Arr(self.per_cell_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }
}

/// A completed sweep: ordered rows plus wall-clock timing.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The grid's rows, in stable order.
    pub rows: Vec<SweepRow>,
    /// Wall-clock timing (non-deterministic).
    pub timing: SweepTiming,
}

impl SweepRun {
    /// Folds every cell's [`StatsSink`] telemetry into one grid-level
    /// sink (deterministic: merge happens in row order). `None` when no
    /// cell ran with stats telemetry.
    pub fn aggregate_stats(&self) -> Option<StatsSink> {
        let mut merged: Option<StatsSink> = None;
        for row in &self.rows {
            if let Some(TelemetryReport::Stats(cell)) = &row.report.telemetry {
                merged.get_or_insert_with(StatsSink::new).merge(cell);
            }
        }
        merged
    }

    /// The deterministic part of the sweep's output: rows (per-cell specs,
    /// reports and telemetry summaries) plus the grid-level aggregate.
    /// Byte-identical across repeated runs of the same grid, serial or
    /// parallel.
    pub fn telemetry_json(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Uint(self.rows.len() as u64)),
            (
                "aggregate",
                Json::option(self.aggregate_stats(), |s| stats_json(&s)),
            ),
            (
                "rows",
                Json::Arr(self.rows.iter().map(SweepRow::to_json).collect()),
            ),
        ])
    }

    /// The full sweep artifact: the deterministic telemetry section plus
    /// wall-clock timing.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("telemetry", self.telemetry_json()),
            ("timing", self.timing.to_json()),
        ])
    }
}

/// Histogram bounds for fan-out batch sizes (cells per `par_map` batch,
/// nodes per fleet): powers of two out to 256, `+Inf` beyond.
pub const BATCH_SIZE_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Runs an explicit spec list (one worker per thread, rows claimed by
/// index) and returns rows in input order, resolving trace-backed sources
/// through `catalog` (shared read-only across the workers). Records
/// batch-level sweep counters (batches, cells, the batch-size histogram)
/// and every cell's runner lifecycle counters into `metrics`, and the
/// batch's wall-clock total into a quarantined wall gauge. The returned
/// rows are unchanged — metrics are an aggregate side channel.
///
/// # Errors
///
/// Returns the first (by input order) [`BuildError`]. Validation is pure
/// and cheap, so the whole list (catalog resolution included) is checked
/// before any simulation starts or any metric is recorded — a doomed
/// sweep fails immediately instead of after minutes of wasted runs.
pub fn run_specs_timed_metered(
    specs: Vec<ExperimentSpec>,
    threads: usize,
    catalog: &TraceCatalog,
    metrics: &edc_metrics::Registry,
) -> Result<SweepRun, BuildError> {
    // `violations_in` also checks the deadline, which `validate_in` leaves
    // to `run`: a bad one must fail here, not after the cells before it.
    for spec in &specs {
        if let Some(e) = spec.violations_in(catalog).into_iter().next() {
            return Err(e);
        }
    }
    metrics
        .counter("edc_sweep_batches", "Spec batches fanned out.", &[])
        .inc();
    metrics
        .counter("edc_sweep_cells", "Grid cells simulated.", &[])
        .inc_by(specs.len() as u64);
    metrics
        .histogram(
            "edc_sweep_batch_cells",
            "Cells per fanned-out batch.",
            &[],
            &BATCH_SIZE_BOUNDS,
        )
        .observe(specs.len() as f64);
    let started = Instant::now();
    let results = par_map(&specs, threads, |spec| {
        let cell_started = Instant::now();
        let result = spec.run_metered_in(catalog, metrics);
        (result, cell_started.elapsed().as_secs_f64())
    });
    let total_s = started.elapsed().as_secs_f64();
    metrics
        .wall_gauge(
            "edc_sweep_wall_seconds",
            "Cumulative wall-clock of fanned-out batches (quarantined).",
            &[],
        )
        .add(total_s);
    let mut per_cell_s = Vec::with_capacity(specs.len());
    let rows = specs
        .into_iter()
        .zip(results)
        .enumerate()
        .map(|(index, (spec, (result, elapsed)))| {
            per_cell_s.push(elapsed);
            Ok(SweepRow {
                index,
                spec,
                report: result?,
            })
        })
        .collect::<Result<Vec<_>, BuildError>>()?;
    Ok(SweepRun {
        rows,
        timing: SweepTiming {
            total_s,
            per_cell_s,
        },
    })
}

/// Deterministic scoped fan-out: workers claim items by index and results
/// come back in input order, so thread count affects wall-clock only,
/// never results. The primitive under [`run_specs_timed_metered`], kept
/// public for harnesses whose work items are not experiment specs at all.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled before the scope exits")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{SourceKind, StrategyKind};
    use crate::TelemetryKind;
    use edc_units::Seconds;
    use edc_workloads::WorkloadKind;

    fn small_base() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(200),
        )
        .deadline(Seconds(1.0))
    }

    /// `base` under restart and hibernus, for each workload in turn.
    fn grid(base: ExperimentSpec, workloads: &[WorkloadKind]) -> Vec<ExperimentSpec> {
        workloads
            .iter()
            .flat_map(|&w| {
                [StrategyKind::Restart, StrategyKind::Hibernus]
                    .map(|strategy| base.workload(w).strategy(strategy))
            })
            .collect()
    }

    fn run(specs: Vec<ExperimentSpec>, threads: usize) -> SweepRun {
        let registry = edc_metrics::Registry::new();
        run_specs_timed_metered(specs, threads, &TraceCatalog::new(), &registry)
            .expect("sweep runs")
    }

    #[test]
    fn parallel_matches_serial_and_is_deterministic() {
        let specs = grid(
            small_base(),
            &[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)],
        );
        let parallel = run(specs.clone(), 4).telemetry_json().to_string();
        let serial = run(specs.clone(), 1).telemetry_json().to_string();
        assert_eq!(parallel, serial);
        assert_eq!(parallel, run(specs, 3).telemetry_json().to_string());
    }

    #[test]
    fn timed_run_measures_every_cell() {
        let run = run(grid(small_base(), &[small_base().workload]), 2);
        assert_eq!(run.timing.per_cell_s.len(), run.rows.len());
        assert!(run.timing.per_cell_s.iter().all(|&s| s > 0.0));
        assert!(run.timing.total_s > 0.0);
        let json = run.to_json().to_string();
        assert!(json.contains("\"timing\""));
        assert!(json.contains("\"per_cell_s\""));
    }

    #[test]
    fn stats_telemetry_aggregates_across_cells() {
        let base = small_base().telemetry(TelemetryKind::Stats);
        let specs = grid(base, &[base.workload]);
        let first = run(specs.clone(), 2);
        let merged = first.aggregate_stats().expect("stats cells present");
        let per_cell: u64 = first
            .rows
            .iter()
            .filter_map(|r| match &r.report.telemetry {
                Some(TelemetryReport::Stats(s)) => Some(s.counts().boots),
                _ => None,
            })
            .sum();
        assert_eq!(merged.counts().boots, per_cell);
        assert!(merged.counts().completions >= 1);
        // The deterministic section is deterministic; timing is not part
        // of it.
        let telemetry = first.telemetry_json().to_string();
        assert!(!telemetry.contains("per_cell_s"));
        assert_eq!(telemetry, run(specs, 2).telemetry_json().to_string());
    }
}
