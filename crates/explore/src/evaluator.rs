//! The shared evaluation engine: memoised, budgeted, parallel.
//!
//! Every searcher funds its simulations through one [`Evaluator`]. Each
//! [`Evaluator::evaluate`] call canonicalises its candidates (forcing
//! stats telemetry when an objective needs it), keys each on its canonical
//! spec JSON, and runs the batch through ordered resolver stages. Each
//! stage settles some pending entries into the memo, tagged with the
//! stage, and hands the rest on:
//!
//! 1. **memo** — keys an earlier call resolved, and repeats within the
//!    batch, go no further. The timestep is part of the key, so a design is
//!    never simulated twice at one fidelity, within a search or across rungs.
//! 2. **store** ([`Evaluator::with_store`]) — entries the persistent store
//!    holds are served at zero cost.
//! 3. **lint** ([`Evaluator::with_prefilter`]) — statically-infeasible
//!    entries are scored without simulating.
//! 4. **bound** ([`Evaluator::with_bound`]) — each entry gets static score
//!    lower bounds; before every simulation chunk, entries an exact
//!    incumbent dominates at those bounds are pruned.
//! 5. **simulate** — the rest fan out over worker threads through the sweep
//!    engine's [`run_specs_timed_metered`], whose results come back in input
//!    order (thread count affects wall-clock only), then are scored, written
//!    back to the store and charged `(reference_dt / dt) × (deadline /
//!    reference_deadline) ÷ trace decimation × objective cost scale`
//!    full-fidelity-equivalent units against the budget. Without bound
//!    pruning the batch is one chunk, admitted or rejected with
//!    [`ExploreError::BudgetExhausted`] before anything runs.
//!
//! The call records one trace entry per request, in request order, which
//! makes [`ExploreReport`](crate::ExploreReport) JSON byte-identical across
//! repeated and serial-vs-parallel runs. Its counts go into one per-call
//! ledger, added into the evaluator's totals and projected into the
//! `edc_eval_*` / `edc_store_*` metrics and one [`ProfileSpan`].

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::HashSet;
use std::time::Instant;

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::sweep::run_specs_timed_metered;
use edc_core::TelemetryKind;
use edc_lint::Linter;
use edc_obs::{ProfileReport, ProfileSpan};
use edc_store::StoreHandle;
use edc_units::Seconds;

use crate::objective::Objective;
use crate::pareto::dominates;
use crate::ExploreError;

/// One evaluated candidate: its (canonicalised) spec, the cache key, and
/// one score per objective.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The candidate spec, after canonicalisation.
    pub spec: ExperimentSpec,
    /// The spec's canonical JSON — the memo-cache key.
    pub key: String,
    /// One score per objective, in objective order; lower is better.
    pub scores: Vec<f64>,
}

/// One trace entry: an evaluation request and whether the cache served it.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Which search phase requested the evaluation (e.g. `grid`,
    /// `rung0@16x`, `round1/decoupling`).
    pub phase: String,
    /// The candidate spec.
    pub spec: ExperimentSpec,
    /// One score per objective.
    pub scores: Vec<f64>,
    /// `true` when the memo cache served the request without simulating.
    pub cached: bool,
    /// `true` when the lint prefilter scored the candidate statically —
    /// it was never simulated and its scores are the objectives' DNF
    /// values.
    pub pruned: bool,
    /// `true` when branch-and-bound dominance pruned the candidate — it
    /// was never simulated and its scores are its objectives' static
    /// lower bounds (sound optimistic stand-ins; an already-simulated
    /// incumbent dominates even these, so the true scores cannot reach
    /// the Pareto front).
    pub bound_pruned: bool,
    /// `true` when the persistent store served the request without
    /// simulating (first request for the key only; repeats within the
    /// process hit the memo cache as usual).
    pub store_hit: bool,
}

/// The resolver stage a memoised score vector came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Store,
    Lint,
    Bound,
    Simulated,
}

/// What one [`Evaluator::evaluate`] call did. The evaluator's running
/// totals are the same type, summed over calls.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    requests: u64,
    /// Entries that reached the bound/simulate stage, bound-pruned ones
    /// included.
    misses: u64,
    cache_hits: u64,
    lint_checks: u64,
    lint_pruned: u64,
    bound_checks: u64,
    bound_pruned: u64,
    store_hits: u64,
    store_misses: u64,
    simulations: u64,
    /// The budget meter: cumulative full-fidelity-equivalent cost. A call's
    /// ledger starts at the totals' reading and charges each run onto it
    /// in turn, so the budget check and the totals see exactly the sums
    /// charging run by run produces.
    spent: f64,
}

/// The counts both the profile span and the `edc_eval_<count>` metrics
/// carry, in span order, with each metric's HELP text.
const EVAL_COUNTS: [(&str, &str); 7] = [
    ("requests", "Evaluation requests, per search phase."),
    (
        "misses",
        "Evaluation requests that simulated (memo-cache misses), per search phase.",
    ),
    (
        "cache_hits",
        "Evaluation requests served by the memo cache, per search phase.",
    ),
    (
        "lint_checks",
        "Cache misses the lint prefilter examined, per search phase.",
    ),
    (
        "lint_pruned",
        "Cache misses the lint prefilter scored statically, per search phase.",
    ),
    (
        "bound_checks",
        "Cache misses branch-and-bound derived static lower bounds for, per search phase.",
    ),
    (
        "bound_pruned",
        "Cache misses branch-and-bound dominance-pruned without simulating, per search phase.",
    ),
];

impl Ledger {
    /// The counts [`EVAL_COUNTS`] names, in its order.
    fn eval_counts(&self) -> [u64; 7] {
        [
            self.requests,
            self.misses,
            self.cache_hits,
            self.lint_checks,
            self.lint_pruned,
            self.bound_checks,
            self.bound_pruned,
        ]
    }

    /// Adds a call's ledger into these totals.
    fn absorb(&mut self, call: &Ledger) {
        self.requests += call.requests;
        self.misses += call.misses;
        self.cache_hits += call.cache_hits;
        self.lint_checks += call.lint_checks;
        self.lint_pruned += call.lint_pruned;
        self.bound_checks += call.bound_checks;
        self.bound_pruned += call.bound_pruned;
        self.store_hits += call.store_hits;
        self.store_misses += call.store_misses;
        self.simulations += call.simulations;
        self.spent = call.spent;
    }
}

/// The memoised, budgeted, parallel evaluation engine.
pub struct Evaluator<'a> {
    objectives: &'a [Box<dyn Objective>],
    force_stats: bool,
    threads: usize,
    budget: Option<u64>,
    reference_dt: Seconds,
    reference_deadline: Option<Seconds>,
    cost_scale: f64,
    catalog: TraceCatalog,
    prefilter: bool,
    bound: bool,
    linter: Option<Linter>,
    metrics: Option<edc_metrics::Registry>,
    store: Option<StoreHandle>,
    /// Every resolved key's scores and the stage that resolved them.
    memo: HashMap<String, (Vec<f64>, Origin)>,
    /// Exact score vectors (simulated, stored or statically exact) that
    /// serve as dominance incumbents for branch-and-bound pruning. Never
    /// contains a bound-pruned candidate's lower-bound stand-in.
    incumbents: Vec<Vec<f64>>,
    totals: Ledger,
    trace: Vec<TraceEntry>,
    profile: ProfileReport,
}

/// Histogram bounds for per-miss simulation cost in
/// full-fidelity-equivalent units: powers of four from a 64×-discounted
/// prefilter run up to a 64-node fleet deployment, `+Inf` beyond.
pub const COST_UNIT_BOUNDS: [f64; 7] = [0.015625, 0.0625, 0.25, 1.0, 4.0, 16.0, 64.0];

/// Chunk size for branch-and-bound evaluation: surviving cache misses are
/// simulated in fixed input-order chunks of this many specs, with a
/// dominance-pruning pass over the remaining misses between chunks.
/// Input-order chunking keeps results thread-independent and repeatable.
const BOUND_CHUNK: usize = 16;

impl<'a> Evaluator<'a> {
    /// An evaluator scoring with `objectives`, fanning cache misses out
    /// over `threads` workers, optionally capped at a `budget` of
    /// full-fidelity-equivalent cost units.
    ///
    /// `reference_dt` is the full-fidelity timestep used to normalise
    /// [`Evaluator::cost_units`] and the budget: a run at
    /// `k × reference_dt` costs `1/k` units, because simulation cost
    /// scales inversely with the timestep. A budget of `N` therefore
    /// admits exactly an `N`-point exhaustive grid at full fidelity, or a
    /// proportionally larger number of cheap coarse runs.
    ///
    /// The scale also reflects what the objectives *do* with each miss:
    /// every cache miss is charged `max` over the objectives of
    /// [`Objective::cost_multiplier`], so a fleet objective that deploys
    /// the candidate as an `n`-node population charges ≈ `n` units where a
    /// single-node objective charges 1.
    pub fn new(
        objectives: &'a [Box<dyn Objective>],
        threads: usize,
        budget: Option<u64>,
        reference_dt: Seconds,
    ) -> Self {
        Self {
            force_stats: objectives.iter().any(|o| o.requires_stats()),
            cost_scale: objectives
                .iter()
                .map(|o| o.cost_multiplier())
                .fold(1.0, f64::max),
            objectives,
            threads: threads.max(1),
            budget,
            reference_dt,
            reference_deadline: None,
            catalog: TraceCatalog::new(),
            prefilter: false,
            bound: false,
            linter: None,
            metrics: None,
            store: None,
            memo: HashMap::new(),
            incumbents: Vec::new(),
            totals: Ledger::default(),
            trace: Vec::new(),
            profile: ProfileReport::new(),
        }
    }

    /// Supplies the catalog trace-backed candidate specs resolve through.
    pub fn with_catalog(mut self, catalog: TraceCatalog) -> Self {
        self.catalog = catalog;
        self.linter = None; // rebuilt lazily against the new catalog
        self
    }

    /// Enables the static lint prefilter: before simulating a cache miss,
    /// the spec is linted ([`Linter::lint_spec`]) and, if any `E`-severity
    /// diagnostic fires, scored with the objectives' [DNF
    /// values](crate::objective::Objective::dnf_score) at zero simulation
    /// cost. Without bound pruning the prefilter only runs when *every*
    /// objective declares a DNF score — otherwise (brownout counts,
    /// outage percentiles) flagged candidates are simulated as usual, so
    /// enabling the prefilter never changes any score, only what it costs
    /// to obtain them. Lint work is billed separately
    /// ([`Evaluator::lint_checks`] / [`Evaluator::lint_pruned`]), never
    /// against the simulation budget.
    pub fn with_prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }

    /// Enables branch-and-bound dominance pruning on top of (and
    /// independently of) the lint prefilter. Before simulating, every
    /// cache miss gets a vector of static score *lower* bounds — one
    /// [`Objective::static_bracket`] `lo` per objective, from the shared
    /// interval engine. Misses are then simulated in fixed input-order
    /// chunks; between chunks, any pending miss whose lower-bound vector
    /// is dominated by an already-exact incumbent score is cached at its
    /// lower bounds without simulating (billed as
    /// [`Evaluator::bound_pruned`]). Sound by construction: the true
    /// score is no better than its lower bound, so a candidate dominated
    /// *at its lower bounds* is dominated at its true scores too and can
    /// never reach the Pareto front.
    ///
    /// With bound pruning enabled, the prefilter runs whatever the
    /// objectives, and can also statically score `E`-flagged candidates
    /// whose objectives lack a constant [`Objective::dnf_score`] whenever
    /// their brackets are *exact* (e.g. a proven never-boot pins the
    /// brownout count to zero).
    ///
    /// Two behavioural caveats versus the plain path, both only when
    /// enabled: a batch is budget-checked chunk by chunk (a mid-batch
    /// exhaustion can leave earlier chunks simulated and charged), and a
    /// bound-pruned candidate's recorded scores are its lower bounds, not
    /// its true scores — fine for front construction (it provably cannot
    /// be on the front), misleading if read as measurements.
    pub fn with_bound(mut self, on: bool) -> Self {
        self.bound = on;
        self
    }

    /// Routes this evaluator's process metrics into `registry` instead of
    /// [`edc_metrics::global`]: per-phase request/hit/miss/lint/bound
    /// counters, a per-miss cost histogram, and the sweep-layer counters
    /// of every miss batch it fans out. `edc_eval_misses` counts every
    /// entry that reached the bound/simulate stage, so bound-pruned
    /// entries are included; [`Evaluator::simulations`] counts only the
    /// runs. Point different evaluators at different registries to
    /// compare their expositions in isolation.
    ///
    /// ```
    /// use edc_explore::evaluator::Evaluator;
    /// use edc_explore::objective::CompletionTime;
    /// use edc_explore::objective::Objective;
    /// use edc_units::Seconds;
    ///
    /// let objectives: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
    /// let registry = edc_metrics::Registry::new();
    /// let eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6))
    ///     .with_metrics(registry.clone());
    /// ```
    pub fn with_metrics(mut self, registry: edc_metrics::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Connects a persistent evaluation store. Before simulating, every
    /// memo-cache miss is looked up by its canonical-spec key; a hit is
    /// billed at **zero** cost, never simulated, and (in bound mode)
    /// becomes a dominance incumbent, so searches warm-started from a
    /// fully-populated store run zero simulations yet produce
    /// byte-identical Pareto fronts. Scores the stored entry lacks are
    /// recomputed bit-exactly from its stored report via
    /// [`Objective::score_json`] and merged back into the store; misses
    /// that do simulate are written back, so every process enriches the
    /// store for the next one. Store traffic is counted by the
    /// `edc_store_hits` / `edc_store_misses` / `edc_store_writes`
    /// metrics.
    ///
    /// ```
    /// use edc_explore::evaluator::Evaluator;
    /// use edc_explore::objective::{CompletionTime, Objective};
    /// use edc_store::Store;
    /// use edc_units::Seconds;
    ///
    /// let dir = std::env::temp_dir().join("edc-eval-doc-store");
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let store = Store::open(&dir).unwrap().into_handle();
    /// let objectives: Vec<Box<dyn Objective>> = vec![Box::new(CompletionTime)];
    /// let eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6))
    ///     .with_store(store);
    /// ```
    pub fn with_store(mut self, store: StoreHandle) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the full-horizon deadline cost is normalised against: a run
    /// whose spec deadline is `d` charges a further factor `d /
    /// reference_deadline`, so rung-shortened deadlines (see
    /// [`SuccessiveHalving::deadline_divisors`](crate::SuccessiveHalving::deadline_divisors))
    /// compound with coarse timesteps in the budget. Without a reference,
    /// deadlines do not enter the cost model.
    pub fn with_reference_deadline(mut self, deadline: Seconds) -> Self {
        self.reference_deadline = Some(deadline);
        self
    }

    /// What one cache miss of `spec` costs, in full-fidelity-equivalent
    /// units: timestep ratio × deadline ratio ÷ trace-decimation discount,
    /// scaled by the objectives' per-miss multiplier.
    fn cost_of(&self, spec: &ExperimentSpec) -> f64 {
        let dt_ratio = self.reference_dt.0 / spec.timestep.0;
        let deadline_ratio = self
            .reference_deadline
            .map(|d| spec.deadline.0 / d.0)
            .unwrap_or(1.0);
        dt_ratio * deadline_ratio / spec.source.fidelity_discount() * self.cost_scale
    }

    /// Evaluates a batch of candidates, serving repeats from the memo
    /// cache and simulating the rest in parallel. Results come back in
    /// input order; one trace entry is recorded per input.
    ///
    /// # Errors
    ///
    /// [`ExploreError::BudgetExhausted`] when the batch's cache misses
    /// would exceed the budget — denominated in full-fidelity-equivalent
    /// cost units, so coarse prefilter runs are charged fractionally, the
    /// same currency as [`Evaluator::cost_units`] (nothing is simulated in
    /// that case) — or the first
    /// [`BuildError`](edc_core::experiment::BuildError) if a candidate
    /// fails validation.
    pub fn evaluate(
        &mut self,
        specs: Vec<ExperimentSpec>,
        phase: &str,
    ) -> Result<Vec<Evaluation>, ExploreError> {
        let started = Instant::now();
        let registry = self.metrics.clone().unwrap_or_else(edc_metrics::global);
        let prepared: Vec<ExperimentSpec> = specs
            .into_iter()
            .map(|s| {
                if self.force_stats {
                    s.telemetry(TelemetryKind::Stats)
                } else {
                    s
                }
            })
            .collect();
        let keys: Vec<String> = prepared.iter().map(|s| s.to_json().to_string()).collect();
        let mut ledger = Ledger {
            spent: self.totals.spent,
            ..Ledger::default()
        };
        let evaluations = self
            .resolve(&prepared, &keys, phase, &registry, &mut ledger)
            .map(|first| self.record(prepared, keys, &first, phase, &mut ledger));
        let cost = ledger.spent - self.totals.spent;
        // A failed call keeps what it resolved and counted, but projects
        // nothing.
        self.totals.absorb(&ledger);
        let evaluations = evaluations?;

        let phase_label = [("phase", phase)];
        let mut span = ProfileSpan::new(phase);
        for ((count, help), value) in EVAL_COUNTS.iter().zip(ledger.eval_counts()) {
            registry
                .counter(&format!("edc_eval_{count}"), help, &phase_label)
                .inc_by(value);
            span = span.counter(*count, value as f64);
        }
        span = span.counter("cost", cost);
        if self.store.is_some() {
            registry
                .counter(
                    "edc_store_hits",
                    "Memo-cache misses served by the persistent store, per search phase.",
                    &phase_label,
                )
                .inc_by(ledger.store_hits);
            registry
                .counter(
                    "edc_store_misses",
                    "Memo-cache misses the persistent store could not serve, per search phase.",
                    &phase_label,
                )
                .inc_by(ledger.store_misses);
            // Appended so store-less profiles keep their exact shape.
            span = span.counter("store_hits", ledger.store_hits as f64);
        }
        self.profile
            .push(span.wall(started.elapsed().as_secs_f64()));
        Ok(evaluations)
    }

    /// Runs the resolver stages — memo, store, lint, bound, simulate — so
    /// every key in the batch ends up in the memo. Returns, per input,
    /// whether this call resolved it: the first occurrence of a key the
    /// memo lacked.
    fn resolve(
        &mut self,
        prepared: &[ExperimentSpec],
        keys: &[String],
        phase: &str,
        registry: &edc_metrics::Registry,
        ledger: &mut Ledger,
    ) -> Result<Vec<bool>, ExploreError> {
        let objectives = self.objectives;

        // Memo: only the first occurrence of an unresolved key goes on.
        let mut first = vec![false; keys.len()];
        let mut queued: HashSet<&str> = HashSet::new();
        let mut pending: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if !self.memo.contains_key(key) && queued.insert(key) {
                first[i] = true;
                pending.push(i);
            }
        }

        // Store: serve entries a prior process already evaluated, merging
        // back any score the stored entry lacked.
        if let Some(store) = self.store.clone() {
            let mut guard = store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut found = Vec::with_capacity(pending.len());
            for &i in &pending {
                let Some(entry) = guard.get(&keys[i]) else {
                    found.push(None);
                    continue;
                };
                let scores: Option<Vec<f64>> = objectives
                    .iter()
                    .map(|o| {
                        o.store_key()
                            .and_then(|k| entry.scores.get(&k).copied())
                            .or_else(|| o.score_json(&entry.report))
                    })
                    .collect();
                if let Some(scores) = &scores {
                    let missing =
                        persistable(objectives, scores, |k| !entry.scores.contains_key(k));
                    if !missing.is_empty() {
                        let (report, cost) = (entry.report.clone(), entry.cost);
                        guard.put(&prepared[i].to_json(), report, missing, cost)?;
                    }
                }
                found.push(scores);
            }
            drop(guard);
            ledger.store_hits = self.settle(keys, &mut pending, found, Origin::Store);
            ledger.store_misses = pending.len() as u64;
        }

        // Lint: score statically-infeasible entries without simulating.
        // Only sound when every objective's static score is exact — a
        // declared constant DNF score, or (in bound mode) a degenerate
        // `lo == hi` bracket from the shared engine.
        if self.prefilter && (self.bound || objectives.iter().all(|o| o.dnf_score().is_some())) {
            let bound = self.bound;
            let linter = self
                .linter
                .get_or_insert_with(|| Linter::with_catalog(self.catalog.clone()));
            let statics: Vec<Option<Vec<f64>>> = pending
                .iter()
                .map(|&i| {
                    if !linter.lint_spec(&prepared[i]).has_errors() {
                        return None;
                    }
                    objectives
                        .iter()
                        .map(|o| {
                            o.dnf_score().or_else(|| {
                                bound
                                    .then(|| o.static_bracket(&prepared[i], linter.bounder()))
                                    .flatten()
                                    .filter(|b| b.is_exact())
                                    .map(|b| b.lo)
                            })
                        })
                        .collect()
                })
                .collect();
            ledger.lint_checks = pending.len() as u64;
            ledger.lint_pruned = self.settle(keys, &mut pending, statics, Origin::Lint);
        }

        ledger.misses = pending.len() as u64;
        if pending.is_empty() {
            return Ok(first);
        }
        let miss_cost = registry.histogram(
            "edc_eval_miss_cost_units",
            "Per-miss simulation cost in full-fidelity-equivalent units.",
            &[("phase", phase)],
            &COST_UNIT_BOUNDS,
        );

        // Bound: one static lower-bound vector per entry (none without
        // bound pruning, which also makes the whole batch one chunk).
        let mut lower: HashMap<usize, Vec<f64>> = HashMap::new();
        let chunk_len = if self.bound {
            ledger.bound_checks = pending.len() as u64;
            let linter = self
                .linter
                .get_or_insert_with(|| Linter::with_catalog(self.catalog.clone()));
            for &i in &pending {
                let lo: Option<Vec<f64>> = objectives
                    .iter()
                    .map(|o| {
                        o.static_bracket(&prepared[i], linter.bounder())
                            .map(|b| b.lo)
                    })
                    .collect();
                if let Some(lo) = lo {
                    lower.insert(i, lo);
                }
            }
            BOUND_CHUNK
        } else {
            pending.len()
        };

        // Simulate, chunk by chunk. Before each chunk, an entry an exact
        // incumbent dominates even at its optimistic lower bounds can
        // never reach the front: its bounds are memoised as a sound
        // stand-in instead of simulating it.
        let store = self.store.clone();
        while !pending.is_empty() {
            let dominated: Vec<Option<Vec<f64>>> = pending
                .iter()
                .map(|i| {
                    lower
                        .get(i)
                        .filter(|lo| self.incumbents.iter().any(|inc| dominates(inc, lo)))
                        .cloned()
                })
                .collect();
            ledger.bound_pruned += self.settle(keys, &mut pending, dominated, Origin::Bound);
            if pending.is_empty() {
                break;
            }
            let mut chunk: Vec<usize> = pending.drain(..pending.len().min(chunk_len)).collect();
            if let Some(budget) = self.budget {
                let chunk_cost: f64 = chunk.iter().map(|&i| self.cost_of(&prepared[i])).sum();
                let needed = ledger.spent + chunk_cost;
                if needed > budget as f64 {
                    return Err(ExploreError::BudgetExhausted { budget, needed });
                }
            }
            let batch: Vec<ExperimentSpec> = chunk.iter().map(|&i| prepared[i]).collect();
            let rows = run_specs_timed_metered(batch, self.threads, &self.catalog, registry)?.rows;
            let mut guard = store
                .as_ref()
                .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
            let mut simulated = Vec::with_capacity(chunk.len());
            for (&i, row) in chunk.iter().zip(rows) {
                let spec = &prepared[i];
                let scores: Vec<f64> = objectives
                    .iter()
                    .map(|o| o.score(spec, &row.report))
                    .collect();
                let cost = self.cost_of(spec);
                if let Some(guard) = guard.as_mut() {
                    let named = persistable(objectives, &scores, |_| true);
                    if guard.put(&spec.to_json(), row.report.to_json(), named, cost)? {
                        registry
                            .counter(
                                "edc_store_writes",
                                "Simulated evaluations written back to the persistent store, \
                                 per search phase.",
                                &[("phase", phase)],
                            )
                            .inc();
                    }
                }
                ledger.simulations += 1;
                ledger.spent += cost;
                miss_cost.observe(cost);
                simulated.push(Some(scores));
            }
            self.settle(keys, &mut chunk, simulated, Origin::Simulated);
        }
        Ok(first)
    }

    /// Memoises every pending entry `resolved` holds scores for (in bound
    /// mode, exact ones also become dominance incumbents) and leaves the
    /// rest pending, in order. Returns how many it settled.
    fn settle(
        &mut self,
        keys: &[String],
        pending: &mut Vec<usize>,
        resolved: Vec<Option<Vec<f64>>>,
        origin: Origin,
    ) -> u64 {
        let before = pending.len();
        let mut resolved = resolved.into_iter();
        pending.retain(|&i| {
            let Some(scores) = resolved.next().flatten() else {
                return true;
            };
            if self.bound && origin != Origin::Bound {
                self.incumbents.push(scores.clone());
            }
            self.memo.insert(keys[i].clone(), (scores, origin));
            false
        });
        (before - pending.len()) as u64
    }

    /// Records one trace entry and one evaluation per input, in input
    /// order, counting memo hits. Lint- and bound-pruned keys stay
    /// flagged as such on every later request; store-resolved and
    /// simulated keys count as cache hits from their second request on.
    fn record(
        &mut self,
        prepared: Vec<ExperimentSpec>,
        keys: Vec<String>,
        first: &[bool],
        phase: &str,
        ledger: &mut Ledger,
    ) -> Vec<Evaluation> {
        ledger.requests = keys.len() as u64;
        let mut evaluations = Vec::with_capacity(keys.len());
        for ((spec, key), &first) in prepared.into_iter().zip(keys).zip(first) {
            let (scores, origin) = &self.memo[&key];
            let pruned = *origin == Origin::Lint;
            let bound_pruned = *origin == Origin::Bound;
            let store_hit = first && *origin == Origin::Store;
            let cached = !first && !pruned && !bound_pruned;
            ledger.cache_hits += u64::from(cached);
            self.trace.push(TraceEntry {
                phase: phase.to_string(),
                spec,
                scores: scores.clone(),
                cached,
                pruned,
                bound_pruned,
                store_hit,
            });
            evaluations.push(Evaluation {
                spec,
                key,
                scores: scores.clone(),
            });
        }
        evaluations
    }

    /// Number of objectives each evaluation is scored on.
    pub fn objective_count(&self) -> usize {
        self.objectives.len()
    }

    /// Number of simulations actually run (cache misses).
    pub fn simulations(&self) -> u64 {
        self.totals.simulations
    }

    /// Number of evaluation requests served from the memo cache.
    pub fn cache_hits(&self) -> u64 {
        self.totals.cache_hits
    }

    /// Full-fidelity-equivalent simulation cost: each run contributes
    /// `(reference_dt / its_dt) × (deadline / reference_deadline) ÷
    /// trace decimation × objective cost scale` — coarse, short-horizon or
    /// decimated prefilter runs are cheap, fleet-objective misses are
    /// charged per node.
    pub fn cost_units(&self) -> f64 {
        self.totals.spent
    }

    /// Number of specs the lint prefilter examined: cache misses the
    /// store did not serve, seen while the prefilter was enabled and
    /// either bound pruning was on or every objective had a DNF score.
    pub fn lint_checks(&self) -> u64 {
        self.totals.lint_checks
    }

    /// Number of specs the lint prefilter scored statically instead of
    /// simulating.
    pub fn lint_pruned(&self) -> u64 {
        self.totals.lint_pruned
    }

    /// Number of cache misses branch-and-bound examined for static lower
    /// bounds (bound pruning enabled; misses where an objective produced
    /// no bracket are still counted, they just can never be pruned).
    pub fn bound_checks(&self) -> u64 {
        self.totals.bound_checks
    }

    /// Number of cache misses branch-and-bound dominance-pruned: scored
    /// at their static lower bounds instead of simulating, because an
    /// already-exact incumbent dominates even their most optimistic
    /// possible scores.
    pub fn bound_pruned(&self) -> u64 {
        self.totals.bound_pruned
    }

    /// Number of memo-cache misses the persistent store served without
    /// simulating (each billed at zero cost). Always zero without
    /// [`Evaluator::with_store`].
    pub fn store_hits(&self) -> u64 {
        self.totals.store_hits
    }

    /// The recorded trace, in evaluation-request order.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Per-phase profiling: one [`ProfileSpan`] per successful
    /// [`Evaluator::evaluate`] call, named after its search phase, whose
    /// counters (`requests`, `misses`, `cache_hits`, `lint_checks`,
    /// `lint_pruned`, `bound_checks`, `bound_pruned`, `cost`, and
    /// `store_hits` when a store is attached) are the call's own counts —
    /// deterministic — while `wall_s` carries the call's real duration,
    /// quarantined by [`ProfileReport`]. `misses` counts every entry that
    /// reached the bound/simulate stage, bound-pruned ones included.
    /// Calls that fail (budget exhaustion, validation) record no span.
    pub fn profile(&self) -> &ProfileReport {
        &self.profile
    }

    /// Consumes the evaluator, yielding its trace.
    pub fn into_trace(self) -> Vec<TraceEntry> {
        self.trace
    }
}

/// The scores worth persisting, by [`Objective::store_key`]: never NaN,
/// and only under store keys `keep` accepts.
fn persistable(
    objectives: &[Box<dyn Objective>],
    scores: &[f64],
    keep: impl Fn(&str) -> bool,
) -> BTreeMap<String, f64> {
    let mut named = BTreeMap::new();
    for (o, &s) in objectives.iter().zip(scores) {
        if let Some(key) = o.store_key() {
            if !s.is_nan() && keep(&key) {
                named.insert(key, s);
            }
        }
    }
    named
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BrownoutCount, CompletionTime, P99Outage};
    use edc_core::scenarios::{SourceKind, StrategyKind};
    use edc_workloads::WorkloadKind;

    fn spec(n: u16) -> ExperimentSpec {
        ExperimentSpec::new(
            SourceKind::Dc { volts: 3.3 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(n),
        )
        .deadline(Seconds(1.0))
    }

    fn objectives() -> Vec<Box<dyn Objective>> {
        vec![Box::new(CompletionTime), Box::new(BrownoutCount)]
    }

    #[test]
    fn repeats_hit_the_cache() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, Seconds(20e-6));
        let first = eval
            .evaluate(vec![spec(100), spec(200), spec(100)], "a")
            .expect("evaluates");
        assert_eq!(first.len(), 3);
        assert_eq!(eval.simulations(), 2, "dup within the batch memoises");
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(first[0].scores, first[2].scores);

        let again = eval.evaluate(vec![spec(200)], "b").expect("evaluates");
        assert_eq!(eval.simulations(), 2, "cross-batch repeat memoises");
        assert_eq!(eval.cache_hits(), 2);
        assert_eq!(again[0].scores, first[1].scores);
        assert_eq!(eval.trace().len(), 4);
        assert!(eval.trace()[3].cached);
    }

    #[test]
    fn budget_rejects_before_simulating() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, Some(1), Seconds(20e-6));
        eval.evaluate(vec![spec(100)], "a").expect("within budget");
        let err = eval
            .evaluate(vec![spec(200), spec(300)], "b")
            .expect_err("over budget");
        match err {
            ExploreError::BudgetExhausted { budget, needed } => {
                assert_eq!(budget, 1);
                assert!((needed - 3.0).abs() < 1e-12);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(eval.simulations(), 1, "the doomed batch never ran");
        // Cached repeats stay free even at the budget's edge.
        eval.evaluate(vec![spec(100)], "c").expect("cache is free");
    }

    #[test]
    fn budget_charges_coarse_runs_fractionally() {
        // Budget 1 admits four quarter-cost coarse runs but not a fifth
        // full-fidelity one: budget and cost_units share a currency.
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, Some(1), Seconds(20e-6));
        let coarse: Vec<ExperimentSpec> = (0..4u16)
            .map(|i| spec(100 + i).timestep(Seconds(80e-6)))
            .collect();
        eval.evaluate(coarse, "rung")
            .expect("4 × 1/4 fits budget 1");
        assert!((eval.cost_units() - 1.0).abs() < 1e-12);
        eval.evaluate(vec![spec(500)], "fine")
            .expect_err("budget spent");
    }

    #[test]
    fn stats_objectives_force_stats_telemetry() {
        let objectives: Vec<Box<dyn Objective>> = vec![Box::new(P99Outage)];
        let mut eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6));
        let evals = eval.evaluate(vec![spec(100)], "a").expect("evaluates");
        assert_eq!(evals[0].spec.telemetry, TelemetryKind::Stats);
        assert!(evals[0].key.contains("\"telemetry\""));
        assert!(evals[0].scores[0].is_finite());
    }

    #[test]
    fn profile_records_one_span_per_call_with_delta_counters() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 2, None, Seconds(20e-6));
        eval.evaluate(vec![spec(100), spec(200), spec(100)], "grid")
            .expect("evaluates");
        eval.evaluate(vec![spec(200)], "rung0@4x")
            .expect("evaluates");
        let spans = eval.profile().spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "grid");
        assert_eq!(
            spans[0].counters,
            vec![
                ("requests".to_string(), 3.0),
                ("misses".to_string(), 2.0),
                ("cache_hits".to_string(), 1.0),
                ("lint_checks".to_string(), 0.0),
                ("lint_pruned".to_string(), 0.0),
                ("bound_checks".to_string(), 0.0),
                ("bound_pruned".to_string(), 0.0),
                ("cost".to_string(), 2.0),
            ]
        );
        // The second call is a pure cache hit: no misses, no new cost.
        assert_eq!(spans[1].name, "rung0@4x");
        assert_eq!(spans[1].counters[1], ("misses".to_string(), 0.0));
        assert_eq!(spans[1].counters[2], ("cache_hits".to_string(), 1.0));
        assert_eq!(spans[1].counters[7], ("cost".to_string(), 0.0));
        assert!(spans.iter().all(|s| s.wall_s >= 0.0));
    }

    #[test]
    fn bound_prunes_dominated_misses_without_simulating() {
        let objectives: Vec<Box<dyn Objective>> =
            vec![Box::new(CompletionTime), Box::new(BrownoutCount)];
        let mut eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6)).with_bound(true);
        let seeded = eval.evaluate(vec![spec(100)], "seed").expect("evaluates");
        assert_eq!(eval.simulations(), 1);
        assert!(seeded[0].scores[0].is_finite());
        assert_eq!(seeded[0].scores[1], 0.0, "DC supply never browns out");

        // 1.5 V provably never boots: bracket (∞, [0,0]) — dominated by
        // the completed zero-brownout incumbent, so it is never simulated.
        let dark = ExperimentSpec::new(
            SourceKind::Dc { volts: 1.5 },
            StrategyKind::Restart,
            WorkloadKind::BusyLoop(100),
        )
        .deadline(Seconds(1.0));
        let evals = eval.evaluate(vec![dark], "probe").expect("evaluates");
        assert_eq!(eval.simulations(), 1, "dominated candidate skipped");
        assert_eq!(eval.bound_checks(), 2);
        assert_eq!(eval.bound_pruned(), 1);
        assert_eq!(evals[0].scores, vec![f64::INFINITY, 0.0]);
        let entry = &eval.trace()[1];
        assert!(entry.bound_pruned && !entry.cached && !entry.pruned);
    }

    #[test]
    fn coarse_runs_cost_fractional_units() {
        let objectives = objectives();
        let mut eval = Evaluator::new(&objectives, 1, None, Seconds(20e-6));
        eval.evaluate(vec![spec(100).timestep(Seconds(80e-6))], "coarse")
            .expect("evaluates");
        assert!((eval.cost_units() - 0.25).abs() < 1e-12);
        eval.evaluate(vec![spec(100)], "fine").expect("evaluates");
        assert!((eval.cost_units() - 1.25).abs() < 1e-12);
    }
}
