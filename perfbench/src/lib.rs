//! End-to-end and per-layer benchmark of the energy-driven workspace.
//!
//! Three workloads — [`sweep`], [`search`] and [`serve`] — call the
//! workspace crates' public functions; [`probes`] time single layers in
//! isolation; [`trace`] records the traced run's spans. `main` ties them
//! to the command line.

pub mod calib;
pub mod probes;
pub mod rng;
pub mod search;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use edc_core::json::Json;

/// Worker threads every workload uses: the sweep engine's workers, the
/// explorer's and every serve session's. One, although the reference
/// machine has two cores: on a shared host the second vCPU stalls now and
/// then, and a pass that waits for it measures the host rather than the
/// program; one thread also matches the one-thread reference slices
/// ([`calib`]) that scale every timing.
pub const THREADS: usize = 1;

/// `BENCHMARK.json`, which lists every metric's name, unit and direction.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// One metric `BENCHMARK.json` lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name; a per-layer name is prefixed by its crate.
    pub name: String,
    /// Unit.
    pub unit: String,
}

fn listed(section: &str) -> Vec<Metric> {
    let json = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = json.get(section) else {
        panic!("BENCHMARK.json has a {section} array");
    };
    let text = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => s.clone(),
        _ => panic!("a {section} entry lacks {key}"),
    };
    items
        .iter()
        .map(|item| Metric {
            name: text(item, "name"),
            unit: text(item, "unit"),
        })
        .collect()
}

/// The end-to-end metrics, printed on every untraced run.
pub fn end_to_end() -> Vec<Metric> {
    listed("end_to_end")
}

/// The per-layer ledger, printed on every traced run.
pub fn per_layer() -> Vec<Metric> {
    listed("per_layer")
}

/// Sums every series of a counter family in an OpenMetrics exposition.
pub fn counter_total(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| {
            line.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Makes the regular files directly inside `to` equal to those inside
/// `from`, keeping `to` itself. A file that has only grown since — an
/// append-only store shard — is cut back to the length of its source, any
/// other is copied afresh, and files `from` lacks are removed.
///
/// Removing and re-creating the directory for every serve episode made the
/// file system discard a directory block per episode, and the episode's
/// store appends then waited on those discards whenever the host's disk was
/// busy. Cutting back only drops the appended tail, which the file system
/// has usually not even allocated yet.
pub fn reset_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("the directory can be created");
    let mut kept = Vec::new();
    for entry in std::fs::read_dir(from).expect("the source directory reads") {
        let entry = entry.expect("the directory entry reads");
        if !entry.file_type().is_ok_and(|t| t.is_file()) {
            continue;
        }
        let source = std::fs::read(entry.path()).expect("the source file reads");
        let target = to.join(entry.file_name());
        if std::fs::read(&target).is_ok_and(|t| t.starts_with(&source)) {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&target)
                .and_then(|f| f.set_len(source.len() as u64))
                .expect("the file can be cut back");
        } else {
            std::fs::write(&target, &source).expect("the file copies");
        }
        kept.push(entry.file_name());
    }
    for entry in std::fs::read_dir(to).expect("the directory reads") {
        let entry = entry.expect("the directory entry reads");
        if entry.file_type().is_ok_and(|t| t.is_file()) && !kept.contains(&entry.file_name()) {
            std::fs::remove_file(entry.path()).expect("the file can be removed");
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `pass(i)` for `i = 0, 1, …` until `seconds` have elapsed, at
/// least once, and returns every result.
pub fn repeat_for<T>(seconds: f64, mut pass: impl FnMut(u64) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len() as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_dir_cuts_grown_files_back_and_drops_new_ones() {
        let root = std::env::temp_dir().join(format!("perfbench-reset-{}", std::process::id()));
        let (from, to) = (root.join("from"), root.join("to"));
        std::fs::create_dir_all(&from).unwrap();
        std::fs::write(from.join("a"), "head\n").unwrap();
        std::fs::write(from.join("b"), "other\n").unwrap();
        reset_dir(&from, &to);
        std::fs::write(to.join("a"), "head\nappended\n").unwrap();
        std::fs::write(to.join("b"), "rewritten\n").unwrap();
        std::fs::write(to.join("c"), "new shard\n").unwrap();
        reset_dir(&from, &to);
        assert_eq!(std::fs::read_to_string(to.join("a")).unwrap(), "head\n");
        assert_eq!(std::fs::read_to_string(to.join("b")).unwrap(), "other\n");
        assert!(!to.join("c").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn counter_totals_sum_every_labelled_series() {
        let text = "# HELP edc_runner_ticks Ticks.\n# TYPE edc_runner_ticks counter\n\
                    edc_runner_ticks_total{strategy=\"nvp\"} 5\n\
                    edc_runner_ticks_total{strategy=\"restart\"} 7\n\
                    edc_runner_ticks_totally 100\n";
        assert_eq!(counter_total(text, "edc_runner_ticks_total"), 12);
    }

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        let end_to_end: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        let Ok(Json::Obj(layers)) = Json::parse(include_str!("../layers.json")) else {
            panic!("layers.json is an object");
        };
        for (name, layer) in &layers {
            let (Some(Json::Str(moves)), Some(Json::Str(on))) =
                (layer.get("moves"), layer.get("on"))
            else {
                panic!("{name} lacks moves or on");
            };
            assert!(end_to_end.contains(moves), "{name} moves unknown {moves}");
            assert!(
                ["sweep", "search", "serve", "all"].contains(&on.as_str()),
                "{name} names an unknown workload {on}"
            );
        }
        let names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(
            layers.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            names
        );
    }
}
