//! Cartesian grids of [`ExperimentSpec`]s on the core sweep engine
//! ([`edc_core::sweep`], whose names this module re-exports), plus the
//! grid-level lint, store write-back and text/JSON renderers.
//!
//! A sweep is defined by a base spec plus the axes to vary (sources,
//! strategies, workloads). Row order is fixed by the grid — source-major,
//! then workload, then strategy — and is **independent of scheduling**:
//! workers pull rows by index, so repeated runs of the same grid produce
//! byte-identical [`render_json`] output no matter how many threads raced.
//!
//! # Examples
//!
//! ```
//! use edc_bench::sweep::Sweep;
//! use edc_core::experiment::ExperimentSpec;
//! use edc_core::scenarios::{SourceKind, StrategyKind};
//! use edc_units::Seconds;
//! use edc_workloads::WorkloadKind;
//!
//! let base = ExperimentSpec::new(
//!     SourceKind::RectifiedSine { hz: 50.0 },
//!     StrategyKind::Hibernus,
//!     WorkloadKind::Crc16(64),
//! )
//! .deadline(Seconds(3.0));
//! let rows = Sweep::over(base)
//!     .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
//!     .run()?;
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[1].report.strategy, "hibernus");
//! # Ok::<(), edc_core::experiment::BuildError>(())
//! ```

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::{BuildError, ExperimentSpec};
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_workloads::WorkloadKind;

pub use edc_core::sweep::{
    par_map, run_specs_timed_metered, SweepRow, SweepRun, SweepTiming, BATCH_SIZE_BOUNDS,
};

use crate::TextTable;

/// A cartesian sweep over experiment axes.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: ExperimentSpec,
    sources: Vec<SourceKind>,
    strategies: Vec<StrategyKind>,
    workloads: Vec<WorkloadKind>,
    threads: Option<usize>,
    catalog: TraceCatalog,
    metrics: Option<edc_metrics::Registry>,
}

impl Sweep {
    /// A sweep whose axes all start as the base spec's own kinds; widen
    /// them with [`Sweep::sources`], [`Sweep::strategies`] and
    /// [`Sweep::workloads`].
    pub fn over(base: ExperimentSpec) -> Self {
        Self {
            sources: vec![base.source],
            strategies: vec![base.strategy],
            workloads: vec![base.workload],
            base,
            threads: None,
            catalog: TraceCatalog::new(),
            metrics: None,
        }
    }

    /// Supplies the trace catalog the grid's [`SourceKind::Trace`] (and
    /// trace-backed field-view) entries resolve through. Grids without
    /// trace sources never need one.
    pub fn catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Sets the source axis.
    pub fn sources(mut self, axis: &[SourceKind]) -> Self {
        self.sources = axis.to_vec();
        self
    }

    /// Sets the strategy axis.
    pub fn strategies(mut self, axis: &[StrategyKind]) -> Self {
        self.strategies = axis.to_vec();
        self
    }

    /// Sets the workload axis.
    pub fn workloads(mut self, axis: &[WorkloadKind]) -> Self {
        self.workloads = axis.to_vec();
        self
    }

    /// Caps the worker count (defaults to the machine's parallelism).
    /// Thread count never affects results, only wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Records sweep and runner counters into `registry` instead of the
    /// process-global [`edc_metrics::global`] one — the registry
    /// counterpart of [`Sweep::catalog`], used by determinism tests that
    /// need an isolated exposition.
    pub fn metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The grid in its stable row order: source-major, then workload, then
    /// strategy.
    pub fn specs(&self) -> Vec<ExperimentSpec> {
        let mut specs =
            Vec::with_capacity(self.sources.len() * self.workloads.len() * self.strategies.len());
        for &source in &self.sources {
            for &workload in &self.workloads {
                for &strategy in &self.strategies {
                    specs.push(
                        self.base
                            .source(source)
                            .workload(workload)
                            .strategy(strategy),
                    );
                }
            }
        }
        specs
    }

    /// Runs every grid point, fanning out across scoped worker threads.
    ///
    /// # Errors
    ///
    /// Returns the first (by grid order) [`BuildError`]; rows are only
    /// returned when the entire grid assembled and ran.
    pub fn run(&self) -> Result<Vec<SweepRow>, BuildError> {
        Ok(self.run_timed()?.rows)
    }

    /// Like [`Sweep::run`], but also measures wall-clock time (total and
    /// per cell) for `BENCH` artifacts.
    ///
    /// # Errors
    ///
    /// Returns the first (by grid order) [`BuildError`].
    pub fn run_timed(&self) -> Result<SweepRun, BuildError> {
        let threads = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        let registry = self.metrics.clone().unwrap_or_else(edc_metrics::global);
        run_specs_timed_metered(self.specs(), threads, &self.catalog, &registry)
    }

    /// Statically lints every grid point without simulating anything.
    /// Diagnostics are located at `$.specs[i]` in grid-row order, so a
    /// flagged row is directly addressable in [`Sweep::run`]'s output.
    /// Running this before a long sweep catches provably-infeasible rows
    /// (`E0xx`) and simulation-wasting hazards (`W1xx`) for the cost of a
    /// few closed-form checks per row.
    pub fn lint(&self) -> edc_lint::LintReport {
        let mut linter = edc_lint::Linter::with_catalog(self.catalog.clone());
        let mut report = edc_lint::LintReport::new();
        for (i, spec) in self.specs().iter().enumerate() {
            report.merge_prefixed(&format!("$.specs[{i}]"), linter.lint_spec(spec));
        }
        report
    }
}

/// Writes every row back into a persistent evaluation store, making
/// the sweep a **producer** for later searches and serving sessions:
/// a subsequent [`edc_store::Store`]-backed search over specs this
/// grid covered re-scores the stored reports instead of simulating.
/// Sweeps themselves always simulate — rows carry full
/// in-memory reports the store's JSON envelope cannot reconstruct.
///
/// Each entry is keyed by the row's canonical spec JSON and carries
/// the report JSON, no objective scores (searches recompute and merge
/// them back on first use), and a full-fidelity cost of `1.0` per
/// cell. Returns the number of entries actually appended (rows a
/// previous run already stored merge instead), counted by the
/// `edc_store_writes` metric under `phase="sweep"`.
///
/// # Errors
///
/// Any [`edc_store::StoreError`] from the underlying
/// [`Store::put`](edc_store::Store::put) — an I/O failure, or a
/// conflicting entry already stored under a row's spec.
///
/// ```
/// use edc_bench::sweep::{store_into, Sweep};
/// use edc_core::experiment::ExperimentSpec;
/// use edc_core::scenarios::{SourceKind, StrategyKind};
/// use edc_store::Store;
/// use edc_units::Seconds;
/// use edc_workloads::WorkloadKind;
///
/// let dir = std::env::temp_dir().join("edc-sweep-doc-store");
/// let _ = std::fs::remove_dir_all(&dir);
/// let base = ExperimentSpec::new(
///     SourceKind::Dc { volts: 3.3 },
///     StrategyKind::Restart,
///     WorkloadKind::BusyLoop(120),
/// )
/// .deadline(Seconds(1.0));
/// let run = Sweep::over(base)
///     .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
///     .run_timed()?;
///
/// let store = Store::open(&dir)?.into_handle();
/// let registry = edc_metrics::Registry::new();
/// assert_eq!(store_into(&run, &store, &registry)?, 2);
/// // Storing the same rows again merges instead of appending.
/// assert_eq!(store_into(&run, &store, &registry)?, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn store_into(
    run: &SweepRun,
    store: &edc_store::StoreHandle,
    metrics: &edc_metrics::Registry,
) -> Result<u64, edc_store::StoreError> {
    let mut appended = 0;
    let mut guard = store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for row in &run.rows {
        if guard.put(
            &row.spec.to_json(),
            row.report.to_json(),
            std::collections::BTreeMap::new(),
            1.0,
        )? {
            appended += 1;
        }
    }
    drop(guard);
    if appended > 0 {
        metrics
            .counter(
                "edc_store_writes",
                "Simulated evaluations written back to the persistent store, per search phase.",
                &[("phase", "sweep")],
            )
            .inc_by(appended);
    }
    Ok(appended)
}

/// Renders rows as an aligned text table.
pub fn render_text(rows: &[SweepRow]) -> String {
    let mut t = TextTable::new(&[
        "source",
        "workload",
        "strategy",
        "done (s)",
        "snaps",
        "torn",
        "restores",
        "brownouts",
        "reboots",
        "verified",
    ]);
    for row in rows {
        let stats = &row.report.stats;
        t.row(&[
            row.spec.source.name().to_string(),
            row.report.workload.clone(),
            row.report.strategy.clone(),
            stats
                .completed_at
                .map(|s| format!("{:.3}", s.0))
                .unwrap_or_else(|| "DNF".to_string()),
            stats.snapshots.to_string(),
            stats.torn_snapshots.to_string(),
            stats.restores.to_string(),
            stats.brownouts.to_string(),
            stats.boots.to_string(),
            match &row.report.verification {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAIL({e})"),
            },
        ]);
    }
    t.render()
}

/// Renders rows as a JSON array — byte-identical across repeated runs of
/// the same grid.
pub fn render_json(rows: &[SweepRow]) -> String {
    Json::Arr(rows.iter().map(SweepRow::to_json).collect()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_units::Seconds;

    fn small_base() -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(200),
        )
        .deadline(Seconds(1.0))
    }

    #[test]
    fn grid_order_is_source_major_then_workload_then_strategy() {
        let sweep = Sweep::over(small_base())
            .sources(&[SourceKind::Dc { volts: 3.3 }, SourceKind::Dc { volts: 2.8 }])
            .workloads(&[WorkloadKind::BusyLoop(100), WorkloadKind::Crc16(32)])
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
        let specs = sweep.specs();
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].strategy, StrategyKind::Restart);
        assert_eq!(specs[1].strategy, StrategyKind::Hibernus);
        assert_eq!(specs[1].workload, WorkloadKind::BusyLoop(100));
        assert_eq!(specs[2].workload, WorkloadKind::Crc16(32));
        assert_eq!(specs[3].source, SourceKind::Dc { volts: 3.3 });
        assert_eq!(specs[4].source, SourceKind::Dc { volts: 2.8 });
    }

    #[test]
    fn invalid_grid_point_surfaces_first_error() {
        let err = Sweep::over(small_base().timestep(Seconds(0.0)))
            .run()
            .expect_err("bad timestep");
        assert_eq!(err, BuildError::InvalidTimestep(0.0));

        // A valid grid whose last spec is invalid fails before any cell
        // simulates: no sweep or runner family reaches the registry.
        let mut specs = Sweep::over(small_base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .specs();
        specs.push(small_base().deadline(Seconds(-1.0)));
        let registry = edc_metrics::Registry::new();
        let err = run_specs_timed_metered(specs, 2, &TraceCatalog::new(), &registry)
            .expect_err("bad deadline");
        assert_eq!(err, BuildError::InvalidDeadline(-1.0));
        let exposition = registry.render_text();
        assert!(!exposition.contains("edc_sweep_"), "{exposition}");
        assert!(!exposition.contains("edc_runner_"), "{exposition}");
    }

    #[test]
    fn renderers_cover_every_row() {
        let rows = Sweep::over(small_base())
            .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus])
            .run()
            .expect("sweep runs");
        let text = render_text(&rows);
        assert!(text.contains("restart") && text.contains("hibernus"));
        let json = render_json(&rows);
        let parsed = Json::parse(&json).expect("valid JSON");
        match parsed {
            Json::Arr(items) => assert_eq!(items.len(), rows.len()),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
