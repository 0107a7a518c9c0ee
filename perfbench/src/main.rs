//! Runs one workload and prints its metrics.
//!
//! ```text
//! symbreak-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric, with `--trace 1`
//! every per-layer metric, one line each, followed by one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. A run whose outputs all
//! verify also replaces `results/<workload>.trace<t>.json` (and, traced,
//! `results/<workload>.spans.jsonl`) next to this package's manifest; a
//! failed run leaves the previous files untouched and exits with code 1.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use symbreak_perfbench::run::{traced, untraced};
use symbreak_perfbench::workloads::{Record, Spec, NAMES};

const USAGE: &str =
    "usage: symbreak-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins the engine: every `CONGEST_*` knob is cleared so nothing from the
/// environment reaches the runs, and the thread count is fixed for the
/// configs that resolve it from `CONGEST_THREADS`.
fn pin_engine(threads: usize) {
    for (key, _) in std::env::vars() {
        if key.starts_with("CONGEST_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("CONGEST_THREADS", threads.to_string());
}

/// Writes `contents` to a temporary file, syncs it and renames it over
/// `path`, so readers see either the old file or the whole new one.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().expect("result paths have a parent");
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(contents.as_bytes())?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()
}

fn result_line(correct: bool, total: &Record, metrics: &[(String, f64, &'static str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::full(&args.workload) else {
        eprintln!(
            "unknown workload {}; one of {}\n{USAGE}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    pin_engine(spec.threads);
    let out = if args.trace {
        traced(&spec, args.seed, args.seconds)
    } else {
        untraced(&spec, args.seed, args.seconds)
    };

    println!("context {}", out.context);
    for (name, value, unit) in &out.metrics {
        println!("{name:<44} {value:>20} {unit}");
    }
    for note in &out.notes {
        println!("{note}");
    }
    if !out.consistent {
        println!("counts differ between repetitions that must be identical");
    }
    let correct = out.correct();
    let line = result_line(correct, &out.total, &out.metrics);
    if correct {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let stem = format!("{}.trace{}", spec.name, u8::from(args.trace));
        let record = format!("{{\"context\": {}, \"result\": {line}}}\n", out.context);
        // Spans first, so the result file never points at stale spans.
        let written = match &out.spans {
            Some(spans) => write_atomic(&dir.join(format!("{}.spans.jsonl", spec.name)), spans),
            None => Ok(()),
        }
        .and_then(|()| write_atomic(&dir.join(format!("{stem}.json")), &record));
        if let Err(e) = written {
            eprintln!("could not write results: {e}");
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
