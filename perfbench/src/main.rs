//! The LoCEC benchmark: one command, three workloads, layered metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_xgb|offline_cnn|serve_live --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds all of its inputs from `--seed` in set-up, runs
//! for about `--seconds`, checks the program's outputs, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The line before it carries the provenance.
//! Traced runs also write their bench-side spans to
//! `.perfbench-out/trace-<workload>-<seed>.json`. The metrics printed are
//! the ones `BENCHMARK.json` lists.

mod common;
mod layers;
mod offline;
mod schedule;
mod serve_live;
mod stats;
mod trace;

use common::{commit, hardware_threads, out_dir, peak_rss_mb, Gates};
use layers::{registry, Values, OFFLINE_CNN, OFFLINE_XGB, SERVE_LIVE};
use locec_core::CommunityModelKind;
use locec_obs::json::Value;
use stats::Percentile;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget (default 20, `run_seconds` of `BENCHMARK.json`).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload hands back.
pub struct Report {
    /// Operation tally and gate outcomes.
    pub gates: Gates,
    /// End-to-end metrics (untraced figures).
    pub e2e: Values,
    /// Per-layer metrics (traced runs).
    pub layers: Values,
    /// Inputs and sample counts behind the numbers.
    pub provenance: Vec<(String, Value)>,
    /// Bench-side spans, one object per thread.
    pub traces: Vec<Value>,
}

/// A provenance entry for a percentile: its value, the quantile it really
/// is and the samples behind it.
pub fn percentile_field(name: &str, p: Option<Percentile>) -> (String, Value) {
    let v = match p {
        Some(p) => Value::Object(vec![
            ("value".to_owned(), Value::Float(p.value)),
            ("quantile".to_owned(), Value::Float(p.quantile)),
            ("samples".to_owned(), Value::Uint(p.samples as u64)),
        ]),
        None => Value::Null,
    };
    (name.to_owned(), v)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn metrics_object(rows: Vec<(String, f64, String)>) -> Value {
    Value::Object(
        rows.into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Value::Object(vec![
                        ("value".to_owned(), Value::Float(value)),
                        ("unit".to_owned(), Value::Str(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        OFFLINE_XGB => offline::run(
            &offline::OfflineSpec {
                users: 20_000,
                model: CommunityModelKind::Xgb,
            },
            args,
        ),
        OFFLINE_CNN => offline::run(
            &offline::OfflineSpec {
                users: 5_000,
                model: CommunityModelKind::Cnn,
            },
            args,
        ),
        SERVE_LIVE => serve_live::run(args),
        other => Err(format!(
            "unknown workload '{other}' ({OFFLINE_XGB}|{OFFLINE_CNN}|{SERVE_LIVE})"
        )),
    }
}

fn main() {
    let (args, end_to_end, per_layer) =
        match (parse_args(), registry("end_to_end"), registry("per_layer")) {
            (Ok(args), Ok(e2e), Ok(layers)) => (args, e2e, layers),
            (a, e, l) => {
                let why = [a.err(), e.err(), l.err()].into_iter().flatten();
                eprintln!("perfbench: {}", why.collect::<Vec<_>>().join("; "));
                std::process::exit(2);
            }
        };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let gates = &report.gates;
    let error_rate = gates.failed as f64 / gates.attempted.max(1) as f64;
    report.e2e.set("peak_rss_mb", peak_rss_mb());
    report.layers.set("error_rate", error_rate);
    let mut unknown = report.e2e.unknown(&end_to_end);
    unknown.extend(report.layers.unknown(&per_layer));
    if !unknown.is_empty() {
        eprintln!("perfbench: internal: metrics {unknown:?} are not in BENCHMARK.json");
        std::process::exit(1);
    }

    let mut provenance = vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), Value::Uint(args.seed)),
        ("seconds".to_owned(), Value::Float(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("commit".to_owned(), Value::Str(commit())),
        (
            "hardware_threads".to_owned(),
            Value::Uint(hardware_threads() as u64),
        ),
        ("error_rate".to_owned(), Value::Float(error_rate)),
    ];
    provenance.append(&mut report.provenance);
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        let doc = Value::Object(vec![
            ("provenance".to_owned(), Value::Object(provenance.clone())),
            (
                "threads".to_owned(),
                Value::Array(std::mem::take(&mut report.traces)),
            ),
        ]);
        match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.render()))
        {
            Ok(()) => provenance.push((
                "trace_file".to_owned(),
                Value::Str(path.display().to_string()),
            )),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        report.layers.render(&per_layer)
    } else {
        report.e2e.render(&end_to_end)
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<30} {value:>14.6} {unit}");
    }
    let correct = gates.failed == 0;
    println!(
        "{}",
        Value::Object(vec![("provenance".to_owned(), Value::Object(provenance))]).render()
    );
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::Uint(gates.attempted.max(1))),
        ("failed".to_owned(), Value::Uint(gates.failed)),
        ("metrics".to_owned(), metrics_object(metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
