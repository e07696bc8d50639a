//! Layer probes: isolated calls into single layers for the per-layer
//! numbers no workload call exposes. Each probe repeats its call enough
//! to take well over a millisecond and reports the median of a few
//! repetitions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use edc_bound::Bounder;
use edc_core::experiment::ExperimentSpec;
use edc_core::json::Json;
use edc_core::scenarios::SourceKind;
use edc_core::TraceCatalog;
use edc_explore::Store;
use edc_lint::Linter;
use edc_mcu::Mcu;
use edc_telemetry::{Event, Record, Sink, StatsSink};
use edc_units::{Joules, Seconds};
use edc_workloads::WorkloadKind;

use crate::stats::median;

const REPEATS: usize = 3;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&samples)
}

/// ns per retired instruction of an isolated `Mcu::run` per kernel.
pub fn mcu(out: &mut BTreeMap<String, f64>) {
    for (name, kind) in [
        ("fourier64", WorkloadKind::Fourier(64)),
        ("crc16_1024", WorkloadKind::Crc16(1024)),
        ("fourier256", WorkloadKind::Fourier(256)),
        ("busy150", WorkloadKind::BusyLoop(150)),
    ] {
        let program = kind.make().program();
        let ns = median_of(|| {
            let (mut instructions, mut elapsed) = (0u64, 0.0);
            while elapsed < 5e-3 {
                let mut mcu = Mcu::new(program.clone());
                mcu.cold_boot();
                let started = Instant::now();
                while !mcu.is_halted() {
                    let report = mcu.run(1 << 24, false);
                    assert!(report.instructions > 0, "{name} makes progress");
                    instructions += report.instructions;
                }
                elapsed += started.elapsed().as_secs_f64();
            }
            elapsed * 1e9 / instructions as f64
        });
        out.insert(format!("mcu.ns_per_instr.{name}"), ns);
    }
}

/// ns per `EnergySource::sample` for each catalogue source and a trace.
pub fn harvest(catalog: &TraceCatalog, out: &mut BTreeMap<String, f64>) {
    const SAMPLES: usize = 100_000;
    let trace = SourceKind::Trace {
        id: catalog.ids()[0],
        decimate: 1,
        looped: true,
    };
    for kind in SourceKind::ALL.into_iter().chain([trace]) {
        let ns = median_of(|| {
            let mut source = kind.make_in(catalog);
            let started = Instant::now();
            for i in 0..SAMPLES {
                black_box(source.sample(Seconds(i as f64 * 20e-6)));
            }
            started.elapsed().as_secs_f64() * 1e9 / SAMPLES as f64
        });
        out.insert(format!("harvest.ns_per_sample.{}", kind.name()), ns);
    }
}

/// ns per `StatsSink::record`, over a repeating outage cycle.
pub fn telemetry(out: &mut BTreeMap<String, f64>) {
    const RECORDS: usize = 100_000;
    let cycle = [
        Event::SupplyCrossing { rising: true },
        Event::Boot,
        Event::Snapshot {
            sealed: true,
            cost: Joules(2e-7),
        },
        Event::Brownout,
        Event::Restore,
    ];
    let ns = median_of(|| {
        let mut sink = StatsSink::new();
        let started = Instant::now();
        for i in 0..RECORDS {
            sink.record(Record {
                t: Seconds(i as f64 * 1e-3),
                energy: Joules(i as f64 * 1e-6),
                event: cycle[i % cycle.len()],
            });
        }
        black_box(&sink);
        started.elapsed().as_secs_f64() * 1e9 / RECORDS as f64
    });
    out.insert("telemetry.ns_per_record.stats".into(), ns);
}

/// Canonical spec key, and JSON parse and emit per byte of `document`.
pub fn core(spec: &ExperimentSpec, document: &str, out: &mut BTreeMap<String, f64>) {
    const KEYS: usize = 2_000;
    let us = median_of(|| {
        let started = Instant::now();
        for _ in 0..KEYS {
            black_box(black_box(spec).to_json().to_string());
        }
        started.elapsed().as_secs_f64() * 1e6 / KEYS as f64
    });
    out.insert("core.spec_key_us".into(), us);
    let parsed = Json::parse(document).expect("the document parses");
    let parse = median_of(|| {
        let started = Instant::now();
        black_box(Json::parse(black_box(document)).expect("parses"));
        started.elapsed().as_secs_f64() * 1e9 / document.len() as f64
    });
    out.insert("core.json_parse_ns_per_byte".into(), parse);
    let emit = median_of(|| {
        let started = Instant::now();
        let text = black_box(&parsed).to_string();
        let ns = started.elapsed().as_secs_f64() * 1e9;
        ns / text.len() as f64
    });
    out.insert("core.json_emit_ns_per_byte".into(), emit);
}

/// `Store` put, compact, open and get per entry, on a scratch store at
/// `dir` filled with one entry per spec.
pub fn store(specs: &[ExperimentSpec], report: &Json, dir: &Path, out: &mut BTreeMap<String, f64>) {
    let keys: Vec<Json> = specs.iter().map(ExperimentSpec::to_json).collect();
    let texts: Vec<String> = keys.iter().map(Json::to_string).collect();
    let n = specs.len() as f64;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPEATS {
        let _ = std::fs::remove_dir_all(dir);
        let mut store = Store::open(dir).expect("a scratch store opens");
        let started = Instant::now();
        for (i, key) in keys.iter().enumerate() {
            let mut scores = BTreeMap::new();
            scores.insert("completion_s".to_string(), i as f64);
            store
                .put(key, report.clone(), scores, 1.0)
                .expect("a scratch put succeeds");
        }
        let put = started.elapsed().as_secs_f64();
        let started = Instant::now();
        store.compact().expect("compaction succeeds");
        let compact = started.elapsed().as_secs_f64();
        drop(store);
        let started = Instant::now();
        let store = Store::open(dir).expect("the scratch store reopens");
        let open = started.elapsed().as_secs_f64();
        let started = Instant::now();
        for text in &texts {
            assert!(store.get(black_box(text)).is_some());
        }
        let get = started.elapsed().as_secs_f64();
        samples
            .entry("store.put_us")
            .or_default()
            .push(put * 1e6 / n);
        samples
            .entry("store.compact_us_per_entry")
            .or_default()
            .push(compact * 1e6 / n);
        samples.entry("store.open_ms").or_default().push(open * 1e3);
        samples
            .entry("store.get_us")
            .or_default()
            .push(get * 1e6 / n);
    }
    let _ = std::fs::remove_dir_all(dir);
    for (name, values) in samples {
        out.insert(name.into(), median(&values));
    }
}

/// `Linter::lint_spec` and `Bounder::bound_spec` per spec, each pass on a
/// fresh linter or bounder (so workload cycle floors are recomputed, as a
/// fresh search does).
pub fn lint_and_bound(
    specs: &[ExperimentSpec],
    catalog: &TraceCatalog,
    out: &mut BTreeMap<String, f64>,
) {
    let n = specs.len() as f64;
    let lint = median_of(|| {
        let mut linter = Linter::with_catalog(catalog.clone());
        let started = Instant::now();
        for spec in specs {
            black_box(linter.lint_spec(spec));
        }
        started.elapsed().as_secs_f64() * 1e6 / n
    });
    out.insert("lint.us_per_spec".into(), lint);
    let bound = median_of(|| {
        let mut bounder = Bounder::with_catalog(catalog.clone());
        let started = Instant::now();
        for spec in specs {
            black_box(bounder.bound_spec(spec));
        }
        started.elapsed().as_secs_f64() * 1e6 / n
    });
    out.insert("bound.us_per_spec".into(), bound);
}
