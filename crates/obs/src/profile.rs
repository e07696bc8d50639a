//! Wall-clock profiling of the search stack, with determinism preserved.
//!
//! Every span has two faces: *counters* (how many cache hits, how many
//! prunes, how much budgeted cost — pure functions of the work done) and
//! *wall-clock time* (how long it really took — different every run). A
//! [`ProfileReport`] keeps them apart: [`ProfileReport::counters_json`]
//! is byte-deterministic and safe to embed in committed artifacts, while
//! [`ProfileReport::timing_json`] is quarantined exactly like
//! `SweepRun.timing`, for logs and local inspection only.

use edc_core::json::Json;
use edc_core::sweep::SweepRun;

/// One profiled region: a name, deterministic counters, and a quarantined
/// wall-clock reading.
///
/// # Examples
///
/// ```
/// use edc_obs::ProfileSpan;
///
/// let span = ProfileSpan::new("rung0@8x")
///     .counter("requests", 56.0)
///     .counter("cache_hits", 12.0)
///     .wall(0.0314);
/// assert_eq!(span.name, "rung0@8x");
/// assert_eq!(span.counters[1], ("cache_hits".to_string(), 12.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpan {
    /// What was profiled (e.g. an evaluator phase or a sweep cell).
    pub name: String,
    /// Deterministic counters, in insertion order.
    pub counters: Vec<(String, f64)>,
    /// Wall-clock seconds the region took (quarantined from deterministic
    /// JSON).
    pub wall_s: f64,
}

impl ProfileSpan {
    /// A span with no counters and zero wall time.
    ///
    /// # Examples
    ///
    /// ```
    /// let span = edc_obs::ProfileSpan::new("evaluate");
    /// assert!(span.counters.is_empty());
    /// ```
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            counters: Vec::new(),
            wall_s: 0.0,
        }
    }

    /// Appends one deterministic counter.
    ///
    /// # Examples
    ///
    /// ```
    /// let span = edc_obs::ProfileSpan::new("evaluate").counter("misses", 44.0);
    /// assert_eq!(span.counters.len(), 1);
    /// ```
    pub fn counter(mut self, key: impl Into<String>, value: f64) -> Self {
        self.counters.push((key.into(), value));
        self
    }

    /// Sets the wall-clock reading.
    ///
    /// # Examples
    ///
    /// ```
    /// let span = edc_obs::ProfileSpan::new("evaluate").wall(1.5);
    /// assert_eq!(span.wall_s, 1.5);
    /// ```
    pub fn wall(mut self, seconds: f64) -> Self {
        self.wall_s = seconds;
        self
    }
}

/// An ordered collection of [`ProfileSpan`]s covering one search, sweep,
/// or fleet run.
///
/// # Examples
///
/// ```
/// use edc_obs::{ProfileReport, ProfileSpan};
///
/// let mut profile = ProfileReport::new();
/// profile.push(ProfileSpan::new("rung0@8x").counter("misses", 32.0).wall(0.8));
/// profile.push(ProfileSpan::new("rung1@4x").counter("misses", 16.0).wall(0.5));
/// let counters = profile.counters_json().to_string();
/// assert!(counters.contains("rung0@8x") && !counters.contains("wall_s"));
/// let timing = profile.timing_json().to_string();
/// assert!(timing.contains("wall_s") && timing.contains("total_s"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    spans: Vec<ProfileSpan>,
}

impl ProfileReport {
    /// An empty report.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(edc_obs::ProfileReport::new().is_empty());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a span.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::{ProfileReport, ProfileSpan};
    ///
    /// let mut profile = ProfileReport::new();
    /// profile.push(ProfileSpan::new("evaluate"));
    /// assert_eq!(profile.spans().len(), 1);
    /// ```
    pub fn push(&mut self, span: ProfileSpan) {
        self.spans.push(span);
    }

    /// A sweep as a per-cell profile: one span per grid row, named
    /// `cell{index}/{label}`, carrying deterministic run counters (boots,
    /// brownouts, snapshots, restores, retired cycles) and the cell's
    /// quarantined wall-clock reading.
    pub fn from_sweep(run: &SweepRun) -> Self {
        let mut profile = Self::new();
        for (row, &wall_s) in run.rows.iter().zip(&run.timing.per_cell_s) {
            let s = &row.report.stats;
            profile.push(
                ProfileSpan::new(format!("cell{}/{}", row.index, row.spec.label()))
                    .counter("boots", s.boots as f64)
                    .counter("brownouts", s.brownouts as f64)
                    .counter("snapshots", s.snapshots as f64)
                    .counter("restores", s.restores as f64)
                    .counter("cycles", s.cycles as f64)
                    .wall(wall_s),
            );
        }
        profile
    }

    /// The recorded spans, in insertion order.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::{ProfileReport, ProfileSpan};
    ///
    /// let mut profile = ProfileReport::new();
    /// profile.push(ProfileSpan::new("a").wall(0.25));
    /// assert_eq!(profile.spans()[0].wall_s, 0.25);
    /// ```
    pub fn spans(&self) -> &[ProfileSpan] {
        &self.spans
    }

    /// `true` when nothing has been profiled.
    ///
    /// # Examples
    ///
    /// ```
    /// assert!(edc_obs::ProfileReport::new().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total wall-clock seconds across all spans.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::{ProfileReport, ProfileSpan};
    ///
    /// let mut profile = ProfileReport::new();
    /// profile.push(ProfileSpan::new("a").wall(1.0));
    /// profile.push(ProfileSpan::new("b").wall(0.5));
    /// assert_eq!(profile.total_s(), 1.5);
    /// ```
    pub fn total_s(&self) -> f64 {
        self.spans.iter().map(|s| s.wall_s).sum()
    }

    /// The deterministic section: span names and counters only, safe to
    /// embed in committed artifacts.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::{ProfileReport, ProfileSpan};
    ///
    /// let mut profile = ProfileReport::new();
    /// profile.push(ProfileSpan::new("evaluate").counter("requests", 8.0).wall(3.0));
    /// let json = profile.counters_json().to_string();
    /// assert_eq!(json, r#"[{"name":"evaluate","counters":{"requests":8}}]"#);
    /// ```
    pub fn counters_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.clone())),
                        (
                            "counters",
                            Json::obj(
                                s.counters
                                    .iter()
                                    .map(|(k, v)| (k.as_str(), Json::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// The quarantined wall-clock section (`total_s` plus per-span
    /// `wall_s`), for logs — never byte-stable.
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::{ProfileReport, ProfileSpan};
    ///
    /// let mut profile = ProfileReport::new();
    /// profile.push(ProfileSpan::new("evaluate").wall(0.5));
    /// let json = profile.timing_json().to_string();
    /// assert!(json.contains("\"total_s\":0.5"));
    /// ```
    pub fn timing_json(&self) -> Json {
        Json::obj(vec![
            ("total_s", Json::Num(self.total_s())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.clone())),
                                ("wall_s", Json::Num(s.wall_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Both sections under one object: `{"spans": ..., "timing": ...}`.
    /// Only the `spans` half is deterministic; keep whole-report JSON out
    /// of committed artifacts (or strip `timing` first).
    ///
    /// # Examples
    ///
    /// ```
    /// use edc_obs::{ProfileReport, ProfileSpan};
    ///
    /// let mut profile = ProfileReport::new();
    /// profile.push(ProfileSpan::new("evaluate"));
    /// let doc = profile.to_json();
    /// assert!(doc.get("spans").is_some() && doc.get("timing").is_some());
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spans", self.counters_json()),
            ("timing", self.timing_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_json_is_deterministic_and_excludes_wall_clock() {
        let build = |wall: f64| {
            let mut p = ProfileReport::new();
            p.push(
                ProfileSpan::new("rung0@8x")
                    .counter("requests", 56.0)
                    .counter("misses", 44.0)
                    .wall(wall),
            );
            p.push(
                ProfileSpan::new("rung1@4x")
                    .counter("requests", 28.0)
                    .wall(wall * 2.0),
            );
            p
        };
        // Different wall-clock readings, identical deterministic section.
        let fast = build(0.001);
        let slow = build(123.456);
        assert_eq!(
            fast.counters_json().to_string(),
            slow.counters_json().to_string()
        );
        assert_ne!(
            fast.timing_json().to_string(),
            slow.timing_json().to_string()
        );
        assert!(!fast.counters_json().to_string().contains("wall"));
    }

    #[test]
    fn sweep_profile_has_one_span_per_cell_with_deterministic_counters() {
        use edc_core::experiment::ExperimentSpec;
        use edc_core::scenarios::{SourceKind, StrategyKind};
        use edc_units::Seconds;
        use edc_workloads::WorkloadKind;

        let base = ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(200),
        )
        .deadline(Seconds(1.0));
        let run = || {
            let specs = vec![base, base.strategy(StrategyKind::Hibernus)];
            let registry = edc_metrics::Registry::new();
            edc_core::sweep::run_specs_timed_metered(
                specs,
                2,
                &edc_core::TraceCatalog::new(),
                &registry,
            )
            .expect("sweep runs")
        };
        let a = run();
        let profile = ProfileReport::from_sweep(&a);
        assert_eq!(profile.spans().len(), a.rows.len());
        assert!(profile.spans()[0].name.starts_with("cell0/"));
        assert!(profile.spans().iter().all(|s| s.wall_s > 0.0));
        // Counters are a pure function of the grid; wall-clock is not.
        let b = run();
        assert_eq!(
            profile.counters_json().to_string(),
            ProfileReport::from_sweep(&b).counters_json().to_string()
        );
    }

    #[test]
    fn totals_sum_spans() {
        let mut p = ProfileReport::new();
        assert_eq!(p.total_s(), 0.0);
        p.push(ProfileSpan::new("a").wall(0.25));
        p.push(ProfileSpan::new("b").wall(0.75));
        assert_eq!(p.total_s(), 1.0);
        let json = p.to_json().to_string();
        assert_eq!(Json::parse(&json).unwrap().to_string(), json);
    }
}
