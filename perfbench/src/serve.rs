//! The `serve` workload: one closed-loop client drives
//! [`ServeSession::handle_line`] in-process with a seeded request stream.
//!
//! The client runs consecutive sessions ("episodes") of [`REQUESTS`]
//! requests each. Every episode starts a fresh session on the store a
//! prior session seeded during set-up, reset in place to its seeded
//! contents ([`crate::reset_dir`]), so each episode sees the
//! same mix of first sightings (simulate and write back), store hits and
//! memo hits. Most requests are `evaluate` lines, sent in batches of 1–8
//! followed by a blank line; the client waits for every answer before
//! sending more. Popularity is Zipf-skewed over a pool of cheap designs.
//! A few `fetch`, `lint`, tiny `search` and `metrics` requests ride along.
//!
//! The traffic is assumed, not recorded: no recorded `edc_serve` traffic
//! exists (the 8-request golden transcript under `tests/golden/` is a
//! correctness fixture). [`REQUESTS`], [`SEEDED_SHARE`], [`ZIPF_S`],
//! [`MIX`], [`MAX_BATCH`] and the [`pool`] are choices. What the
//! request latencies depend on is the share of evaluate answers by
//! source they produce — per episode about 25 % simulated, 7–10 % store,
//! 60–70 % memo and 1 % in-flight — and the op mix; these are the
//! constants to replace once real traffic is recorded.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_explore::{ServeSession, SpecSpace, Store};
use edc_units::Seconds;
use edc_workloads::WorkloadKind;

use crate::rng::Rng;
use crate::stats::weighted_quantile;
use crate::trace::Tracer;
use crate::{counter_total, THREADS};

/// Requests per episode. A session's memo only grows, so one long session
/// would drift towards all memo hits as a run gets longer; resetting it
/// every 256 requests keeps the source shares the same whatever the run
/// length. The length itself is assumed.
pub const REQUESTS: usize = 256;
/// Episodes per latency window: 1024 requests, 10 of them beyond the
/// window's p99.
pub const WINDOW_EPISODES: usize = 4;
/// Share of the pool a prior session writes to the store during set-up.
pub const SEEDED_SHARE: f64 = 0.25;
/// Zipf exponent of design popularity.
pub const ZIPF_S: f64 = 1.0;
/// Step mix: cumulative probabilities of an evaluate batch, a fetch, a
/// lint and a metrics request; the rest are searches.
pub const MIX: [f64; 4] = [0.90, 0.94, 0.97, 0.99];
/// Largest evaluate batch.
pub const MAX_BATCH: usize = 8;

/// The design pool: DC and interrupted supplies, small kernels, a 1 s
/// deadline, and every strategy but Hibernus++, whose hibernation
/// threshold these supplies never reach (such a design idles to the
/// deadline, taking ~50× longer than the rest). Every design completes.
pub fn pool() -> Vec<ExperimentSpec> {
    let sources = [
        SourceKind::Dc { volts: 3.3 },
        SourceKind::Interrupted { hz: 4.0 },
        SourceKind::Interrupted { hz: 10.0 },
        SourceKind::Interrupted { hz: 20.0 },
    ];
    let strategies = StrategyKind::ALL
        .into_iter()
        .filter(|&s| s != StrategyKind::HibernusPP);
    debug_assert_eq!(sources.len(), POOL_SOURCES);
    debug_assert_eq!(strategies.clone().count(), POOL_STRATEGIES);
    let mut pool = Vec::new();
    for kernel in KERNELS {
        for source in sources {
            for strategy in strategies.clone() {
                pool.push(ExperimentSpec::new(source, strategy, kernel).deadline(Seconds(1.0)));
            }
        }
    }
    pool
}

/// Supplies per kernel in the [`pool`].
pub const POOL_SOURCES: usize = 4;
/// Strategies per kernel and supply in the [`pool`].
pub const POOL_STRATEGIES: usize = 6;

/// The pool's kernels; [`pool`] lists designs kernel-major, then by
/// supply, then by strategy.
pub const KERNELS: [WorkloadKind; 8] = [
    WorkloadKind::BusyLoop(60),
    WorkloadKind::BusyLoop(150),
    WorkloadKind::Crc16(16),
    WorkloadKind::Crc16(48),
    WorkloadKind::DotProduct(8),
    WorkloadKind::DotProduct(32),
    WorkloadKind::InsertionSort(12),
    WorkloadKind::RunLength(24),
];

/// One client step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A batch of evaluate requests (pool indices), then a blank line.
    Evaluate(Vec<usize>),
    /// Fetch the stored entry of a seeded design (index into the seeded
    /// list).
    Fetch(usize),
    /// Lint a pool design.
    Lint(usize),
    /// The session's metrics exposition.
    Metrics,
    /// An exhaustive search over a pool design × {restart, hibernus}.
    Search(usize),
}

impl Step {
    /// Requests the step sends.
    pub fn requests(&self) -> usize {
        match self {
            Step::Evaluate(batch) => batch.len(),
            _ => 1,
        }
    }
}

/// Per-run stream parameters drawn from the seed: which pool design has
/// which popularity rank, and which designs the prior session stored.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The run's seed.
    pub seed: u64,
    /// Pool index of each popularity rank (rank 0 most popular).
    pub by_rank: Vec<usize>,
    /// Cumulative Zipf weights over ranks, ending at 1.
    cdf: Vec<f64>,
    /// Pool indices the prior session stored, in storing order.
    pub seeded: Vec<usize>,
}

impl Plan {
    /// The plan for `seed` over [`pool`]. Popularity ranks are stratified
    /// so that a seed moves which designs are popular but not what kind:
    /// rank `r` draws kernel `r mod 8`, and its `j = r / 8`-th variant;
    /// any 6 consecutive variants of a kernel cover its 6 strategies, and
    /// any 4 within one half cover its 4 sources. In every band of 8
    /// ranks, the designs of 2 kernels are the seeded ones, so the store
    /// holds a quarter of every popularity band. The seed permutes the
    /// strategy and source labels per kernel and picks the seeded offset.
    pub fn new(seed: u64, pool_len: usize) -> Self {
        let kernels = KERNELS.len();
        let (strategies, sources) = (POOL_STRATEGIES, POOL_SOURCES);
        assert_eq!(pool_len, kernels * sources * strategies);
        let mut rng = Rng::new(seed);
        let mut by_rank = vec![0; pool_len];
        for k in 0..kernels {
            let mut strategy: Vec<usize> = (0..strategies).collect();
            let mut source: Vec<usize> = (0..sources).collect();
            rng.shuffle(&mut strategy);
            rng.shuffle(&mut source);
            for j in 0..strategies * sources {
                // (j mod 6, j mod 4) meets 12 pairs; the shift in the
                // second half meets the other 12.
                let src = source[(j + j / (strategies * sources / 2)) % sources];
                by_rank[j * kernels + k] =
                    (k * sources + src) * strategies + strategy[j % strategies];
            }
        }
        // Band j seeds the kernels k with (k + offset) mod 8 in the
        // (j mod 4)-th quarter of 0..8.
        let cycle = (1.0 / SEEDED_SHARE).round() as usize;
        let offset = rng.below(kernels);
        let mut seeded: Vec<usize> = (0..pool_len)
            .filter(|r| (r % kernels + offset) % kernels * cycle / kernels == r / kernels % cycle)
            .map(|r| by_rank[r])
            .collect();
        rng.shuffle(&mut seeded);
        let weights: Vec<f64> = (1..=pool_len).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Plan {
            seed,
            by_rank,
            cdf,
            seeded,
        }
    }

    fn design(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.by_rank[rank]
    }

    /// The steps of episode `episode`: a function of the seed and the
    /// episode number only.
    pub fn episode(&self, episode: u64) -> Vec<Step> {
        let mut rng = Rng::new(self.seed ^ episode.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut steps = Vec::new();
        let mut sent = 0;
        while sent < REQUESTS {
            let u = rng.unit();
            let step = if u < MIX[0] {
                let size = (1 + rng.below(MAX_BATCH)).min(REQUESTS - sent);
                Step::Evaluate((0..size).map(|_| self.design(&mut rng)).collect())
            } else if u < MIX[1] {
                Step::Fetch(rng.below(self.seeded.len()))
            } else if u < MIX[2] {
                Step::Lint(self.design(&mut rng))
            } else if u < MIX[3] {
                Step::Metrics
            } else {
                Step::Search(self.design(&mut rng))
            };
            sent += step.requests();
            steps.push(step);
        }
        steps
    }
}

/// The lines a step sends. Request ids number the episode's requests.
pub fn lines(
    step: &Step,
    first_id: usize,
    pool: &[ExperimentSpec],
    keys: &[String],
) -> Vec<String> {
    match step {
        Step::Evaluate(batch) => {
            let mut out: Vec<String> = batch
                .iter()
                .enumerate()
                .map(|(k, &i)| {
                    format!(
                        r#"{{"id":{},"op":"evaluate","spec":{}}}"#,
                        first_id + k,
                        pool[i].to_json()
                    )
                })
                .collect();
            out.push(String::new());
            out
        }
        Step::Fetch(i) => vec![format!(
            r#"{{"id":{first_id},"op":"fetch","key":"{}"}}"#,
            keys[*i]
        )],
        Step::Lint(i) => vec![format!(
            r#"{{"id":{first_id},"op":"lint","spec":{}}}"#,
            pool[*i].to_json()
        )],
        Step::Metrics => vec![format!(r#"{{"id":{first_id},"op":"metrics"}}"#)],
        Step::Search(i) => {
            let space = SpecSpace::over(pool[*i])
                .strategies(&[StrategyKind::Restart, StrategyKind::Hibernus]);
            vec![format!(
                r#"{{"id":{first_id},"op":"search","searcher":"exhaustive-grid","space":{}}}"#,
                space.axes_json()
            )]
        }
    }
}

/// The store key a session reports for `spec` under its default
/// objectives (which need no stats telemetry).
pub fn store_key(spec: &ExperimentSpec) -> String {
    edc_store::hex16(edc_store::key_hash(&spec.to_json().to_string()))
}

/// The state set-up leaves for the episodes.
pub struct ServeSetup {
    /// The pool.
    pub pool: Vec<ExperimentSpec>,
    /// The stream plan.
    pub plan: Plan,
    /// Store keys of the seeded designs, in plan order.
    pub keys: Vec<String>,
    /// Scores of every answered key (`key → scores JSON`), starting with
    /// the prior session's simulated answers.
    pub reference: HashMap<String, String>,
}

/// Seeds `template` (which must be empty or missing) through a prior session that
/// evaluates the plan's seeded designs.
///
/// # Errors
///
/// When the prior session's answers are not all fresh simulations whose
/// keys match [`store_key`].
pub fn setup(seed: u64, template: &Path) -> Result<ServeSetup, String> {
    let pool = pool();
    debug_assert_eq!(pool.len() % KERNELS.len(), 0);
    let plan = Plan::new(seed, pool.len());
    let store = Store::open(template)
        .map_err(|e| format!("template store: {e}"))?
        .into_handle();
    let mut session = ServeSession::new().threads(THREADS).store(store);
    let mut reference = HashMap::new();
    let mut keys = Vec::new();
    for chunk in plan.seeded.chunks(MAX_BATCH) {
        let step = Step::Evaluate(chunk.to_vec());
        let mut answers = Vec::new();
        for line in lines(&step, 0, &pool, &[]) {
            answers.extend(session.handle_line(&line));
        }
        if answers.len() != chunk.len() {
            return Err("prior session dropped answers".into());
        }
        for (&i, answer) in chunk.iter().zip(&answers) {
            let a = Answer::parse(answer).ok_or_else(|| format!("bad answer {answer}"))?;
            let key = store_key(&pool[i]);
            if !a.ok || a.source != "simulated" || a.key != key {
                return Err(format!("prior session answered {answer}"));
            }
            reference.insert(key.clone(), a.scores);
            keys.push(key);
        }
    }
    Ok(ServeSetup {
        pool,
        plan,
        keys,
        reference,
    })
}

/// The fields of a response the checks read.
struct Answer {
    ok: bool,
    op: String,
    key: String,
    source: String,
    scores: String,
}

impl Answer {
    fn parse(line: &str) -> Option<Answer> {
        let json = Json::parse(line).ok()?;
        let text = |field: &str| match json.get(field) {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        };
        Some(Answer {
            ok: json.get("ok") == Some(&Json::Bool(true)),
            op: text("op"),
            key: text("key"),
            source: text("source"),
            scores: json.get("scores").map(Json::to_string).unwrap_or_default(),
        })
    }
}

/// What one episode measured.
#[derive(Debug, Clone, Default)]
pub struct EpisodeResult {
    /// Latency from batch send to answer, µs, with the number of
    /// requests the step carried (each of them waited that long).
    pub step_us: Vec<(f64, u64)>,
    /// Time spent in the session, s.
    pub busy_s: f64,
    /// Evaluate answers by source: simulated, store, memo, inflight.
    pub sources: [u64; 4],
    /// Evaluate requests sent.
    pub evaluates: u64,
    /// Requests sent.
    pub requests: u64,
    /// Requests answered wrongly (`"ok":false`, a missing answer, or
    /// scores that differ from the key's first answer).
    pub failed: u64,
    /// `"ok":false` answers.
    pub errors: u64,
    /// Latency samples per operation class (single-request evaluate
    /// batches by source, and each other op).
    pub op_us: BTreeMap<&'static str, Vec<f64>>,
    /// Instructions the runner retired for this episode's simulations.
    pub instructions: u64,
    /// Ticks the runner simulated for this episode's simulations.
    pub ticks: u64,
    /// Entries in the episode's store at the end.
    pub store_entries: usize,
    /// Bytes of the episode's store at the end.
    pub store_bytes: u64,
    /// Time to render the session's metrics registry, s.
    pub render_s: f64,
}

const SOURCES: [&str; 4] = ["simulated", "store", "memo", "inflight"];

/// Runs episode `episode` on a copy of `template` made at `dir`.
pub fn episode(
    setup: &mut ServeSetup,
    template: &Path,
    dir: &Path,
    episode: u64,
    tracer: &Tracer,
) -> EpisodeResult {
    crate::reset_dir(template, dir);
    let mut out = EpisodeResult::default();
    let store = Store::open(dir)
        .expect("the episode store opens")
        .into_handle();
    let registry = edc_metrics::Registry::new();
    let mut session = ServeSession::new()
        .threads(THREADS)
        .store(store.clone())
        .metrics(registry.clone());
    let mut id = 0;
    for step in setup.plan.episode(episode) {
        let sent = lines(&step, id, &setup.pool, &setup.keys);
        let n = step.requests();
        let started = Instant::now();
        let mut answers = Vec::with_capacity(n);
        for (k, line) in sent.iter().enumerate() {
            let item = (episode << 32) | (id + k.min(n - 1)) as u64;
            answers.extend(tracer.span("serve", "handle_line", 0, item, |_| {
                session.handle_line(line)
            }));
        }
        let elapsed = started.elapsed().as_secs_f64();
        out.busy_s += elapsed;
        out.requests += n as u64;
        out.step_us.push((elapsed * 1e6, n as u64));
        if answers.len() != n {
            out.failed += n as u64;
            id += n;
            continue;
        }
        let class = check_step(setup, &step, &answers, &mut out);
        if let Some(class) = class {
            out.op_us.entry(class).or_default().push(elapsed * 1e6);
        }
        id += n;
    }
    let started = Instant::now();
    let text = std::hint::black_box(registry.render_text());
    out.render_s = started.elapsed().as_secs_f64();
    out.instructions = counter_total(&text, "edc_runner_instructions_total");
    out.ticks = counter_total(&text, "edc_runner_ticks_total");
    out.store_entries = store.lock().expect("store lock").len();
    out.store_bytes = crate::dir_bytes(dir);
    out
}

/// A window of [`WINDOW_EPISODES`] consecutive episodes, reduced to
/// fixed-size figures so memory stays flat however long a run is.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Median request latency, µs.
    pub p50_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Requests sent.
    pub requests: u64,
    /// Time spent in the session, s.
    pub busy_s: f64,
    /// Instructions the runner retired.
    pub instructions: u64,
    /// Ticks the runner simulated.
    pub ticks: u64,
    /// Requests answered wrongly.
    pub failed: u64,
    /// `"ok":false` answers.
    pub errors: u64,
    /// Evaluate answers by source: simulated, store, memo, inflight.
    pub sources: [u64; 4],
    /// Busy time of each episode, s.
    pub episode_s: Vec<f64>,
    /// Registry render time of each episode, s.
    pub render_s: Vec<f64>,
    /// Latency samples per operation class, µs.
    pub op_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Window {
    /// Multiplies every timing by `factor`.
    pub fn scale(&mut self, factor: f64) {
        self.p50_us *= factor;
        self.p99_us *= factor;
        self.busy_s *= factor;
        let samples = self.op_us.values_mut().flatten();
        for t in self
            .episode_s
            .iter_mut()
            .chain(self.render_s.iter_mut())
            .chain(samples)
        {
            *t *= factor;
        }
    }
}

/// Runs window `index` (episodes `index × WINDOW_EPISODES …`) and returns
/// it with its first episode in full.
pub fn window(
    setup: &mut ServeSetup,
    template: &Path,
    dir: &Path,
    index: u64,
    tracer: &Tracer,
) -> (Window, EpisodeResult) {
    let first = index * WINDOW_EPISODES as u64;
    let episodes: Vec<EpisodeResult> = (first..first + WINDOW_EPISODES as u64)
        .map(|e| episode(setup, template, dir, e, tracer))
        .collect();
    let steps: Vec<(f64, u64)> = episodes
        .iter()
        .flat_map(|e| e.step_us.iter().copied())
        .collect();
    let mut w = Window {
        p50_us: weighted_quantile(&steps, 0.5),
        p99_us: weighted_quantile(&steps, 0.99),
        ..Window::default()
    };
    for e in &episodes {
        w.requests += e.requests;
        w.busy_s += e.busy_s;
        w.instructions += e.instructions;
        w.ticks += e.ticks;
        w.failed += e.failed;
        w.errors += e.errors;
        for (total, n) in w.sources.iter_mut().zip(e.sources) {
            *total += n;
        }
        w.episode_s.push(e.busy_s);
        w.render_s.push(e.render_s);
        for (class, samples) in &e.op_us {
            w.op_us.entry(class).or_default().extend(samples);
        }
    }
    let first = episodes.into_iter().next().expect("a window has episodes");
    (w, first)
}

/// Checks a step's answers, counting sources, errors and failures, and
/// names the step's latency class when it has one.
fn check_step(
    setup: &mut ServeSetup,
    step: &Step,
    answers: &[String],
    out: &mut EpisodeResult,
) -> Option<&'static str> {
    let parsed: Vec<Option<Answer>> = answers.iter().map(|a| Answer::parse(a)).collect();
    for a in &parsed {
        if !a.as_ref().is_some_and(|a| a.ok) {
            out.errors += 1;
        }
    }
    match step {
        Step::Evaluate(batch) => {
            out.evaluates += batch.len() as u64;
            let mut class = None;
            for (&i, a) in batch.iter().zip(&parsed) {
                let Some(a) = a.as_ref().filter(|a| a.ok && a.op == "evaluate") else {
                    out.failed += 1;
                    continue;
                };
                let Some(slot) = SOURCES.iter().position(|s| *s == a.source) else {
                    out.failed += 1;
                    continue;
                };
                out.sources[slot] += 1;
                class = Some(
                    [
                        "evaluate_miss",
                        "evaluate_store",
                        "evaluate_memo",
                        "evaluate_inflight",
                    ][slot],
                );
                let key = store_key(&setup.pool[i]);
                let first = setup
                    .reference
                    .entry(key.clone())
                    .or_insert(a.scores.clone());
                if a.key != key || *first != a.scores {
                    out.failed += 1;
                }
            }
            // Only a single-request batch times one source in isolation.
            if batch.len() == 1 {
                class
            } else {
                None
            }
        }
        other => {
            let (op, class) = match other {
                Step::Fetch(_) => ("fetch", "fetch"),
                Step::Lint(_) => ("lint", "lint"),
                Step::Metrics => ("metrics", "metrics"),
                _ => ("search", "search"),
            };
            let good = parsed[0].as_ref().is_some_and(|a| {
                a.ok && a.op == op && (op != "fetch" || answers[0].contains(r#""spec""#))
            });
            if !good {
                out.failed += 1;
            }
            Some(class)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn keys(plan: &Plan, pool: &[ExperimentSpec]) -> Vec<String> {
        plan.seeded.iter().map(|&i| store_key(&pool[i])).collect()
    }

    /// The whole request text of an episode, as the client sends it.
    fn episode_text(plan: &Plan, episode: u64, pool: &[ExperimentSpec], keys: &[String]) -> String {
        let mut text = String::new();
        let mut id = 0;
        for step in plan.episode(episode) {
            for line in lines(&step, id, pool, keys) {
                text.push_str(&line);
                text.push('\n');
            }
            id += step.requests();
        }
        text
    }

    #[test]
    fn same_seed_same_stream_byte_for_byte() {
        let pool = pool();
        let a = Plan::new(7, pool.len());
        let b = Plan::new(7, pool.len());
        let c = Plan::new(8, pool.len());
        for episode in 0..3 {
            let text_a = episode_text(&a, episode, &pool, &keys(&a, &pool));
            let text_b = episode_text(&b, episode, &pool, &keys(&b, &pool));
            let text_c = episode_text(&c, episode, &pool, &keys(&c, &pool));
            assert_eq!(text_a, text_b);
            assert_ne!(text_a, text_c);
        }
        assert_ne!(
            episode_text(&a, 0, &pool, &keys(&a, &pool)),
            episode_text(&a, 1, &pool, &keys(&a, &pool))
        );
    }

    #[test]
    fn generated_mix_hits_its_stated_proportions() {
        let pool = pool();
        let plan = Plan::new(11, pool.len());
        assert_eq!(
            plan.seeded.len(),
            (pool.len() as f64 * SEEDED_SHARE).round() as usize
        );
        // Every band of 8 ranks holds one design per kernel, 2 of them
        // seeded; a kernel's variants are distinct, any 6 consecutive
        // ones cover its strategies and any 4 within a half its sources.
        let per_kernel = POOL_SOURCES * POOL_STRATEGIES;
        for band in plan.by_rank.chunks(KERNELS.len()) {
            let kernels: BTreeSet<usize> = band.iter().map(|i| i / per_kernel).collect();
            assert_eq!(kernels.len(), KERNELS.len());
            let seeded = band.iter().filter(|i| plan.seeded.contains(i)).count();
            assert_eq!(seeded, 2);
        }
        for k in 0..KERNELS.len() {
            let variants: Vec<usize> = plan.by_rank[k..]
                .iter()
                .step_by(KERNELS.len())
                .copied()
                .collect();
            assert_eq!(variants.iter().collect::<BTreeSet<_>>().len(), per_kernel);
            for w in variants.windows(POOL_STRATEGIES) {
                let strategies: BTreeSet<usize> = w.iter().map(|i| i % POOL_STRATEGIES).collect();
                assert_eq!(strategies.len(), POOL_STRATEGIES);
            }
            for half in variants.chunks(per_kernel / 2) {
                for w in half.windows(POOL_SOURCES) {
                    let sources: BTreeSet<usize> = w
                        .iter()
                        .map(|i| i / POOL_STRATEGIES % POOL_SOURCES)
                        .collect();
                    assert_eq!(sources.len(), POOL_SOURCES);
                }
            }
        }
        let mut kinds = [0usize; 5];
        let (mut evaluates, mut requests, mut top) = (0usize, 0usize, 0usize);
        let episodes = 400;
        for e in 0..episodes {
            let steps = plan.episode(e);
            assert_eq!(steps.iter().map(Step::requests).sum::<usize>(), REQUESTS);
            for step in steps {
                requests += step.requests();
                let kind = match &step {
                    Step::Evaluate(batch) => {
                        assert!((1..=MAX_BATCH).contains(&batch.len()));
                        evaluates += batch.len();
                        top += batch.iter().filter(|&&i| i == plan.by_rank[0]).count();
                        0
                    }
                    Step::Fetch(_) => 1,
                    Step::Lint(_) => 2,
                    Step::Metrics => 3,
                    Step::Search(_) => 4,
                };
                kinds[kind] += 1;
            }
        }
        let steps: usize = kinds.iter().sum();
        let bounds = [
            MIX[0],
            MIX[1] - MIX[0],
            MIX[2] - MIX[1],
            MIX[3] - MIX[2],
            1.0 - MIX[3],
        ];
        for (count, p) in kinds.iter().zip(bounds) {
            let share = *count as f64 / steps as f64;
            assert!((share - p).abs() < 0.01, "step share {share} vs {p}");
        }
        // Evaluate lines: batch sizes uniform on 1..=8 (mean 4.5).
        let mean_batch = evaluates as f64 / kinds[0] as f64;
        assert!((mean_batch - 4.5).abs() < 0.1, "mean batch {mean_batch}");
        assert!(evaluates as f64 / requests as f64 > 0.95);
        // The most popular design gets its Zipf share of evaluates.
        let h: f64 = (1..=pool.len()).map(|r| (r as f64).powf(-ZIPF_S)).sum();
        let share = top as f64 / evaluates as f64;
        assert!(
            (share - 1.0 / h).abs() < 0.01,
            "top share {share} vs {}",
            1.0 / h
        );
    }

    #[test]
    fn an_episode_answers_every_request_and_sources_reconcile() {
        let root = std::env::temp_dir().join(format!("perfbench-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let template = root.join("template");
        let mut setup = setup(5, &template).expect("the prior session seeds the store");
        assert_eq!(setup.keys.len(), setup.plan.seeded.len());
        let tracer = Tracer::new(true);
        let result = episode(&mut setup, &template, &root.join("episode"), 0, &tracer);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(result.requests, REQUESTS as u64);
        assert_eq!((result.failed, result.errors), (0, 0));
        assert_eq!(result.sources.iter().sum::<u64>(), result.evaluates);
        assert!(result.sources[0] > 0 && result.sources[1] > 0 && result.sources[2] > 0);
        assert_eq!(
            result.step_us.iter().map(|s| s.1).sum::<u64>(),
            REQUESTS as u64
        );
        // One span per line sent: every request, plus one blank line per batch.
        let batches = setup
            .plan
            .episode(0)
            .iter()
            .filter(|s| matches!(s, Step::Evaluate(_)))
            .count();
        assert_eq!(tracer.spans().len(), REQUESTS + batches);
    }
}
