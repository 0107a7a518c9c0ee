//! Running a workload: untraced for the end-to-end metrics, traced for the
//! per-layer ones.

use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

use crate::stats::{median, per_draw_mean, quantile};
use crate::trace::{summarize, Layer, SpanSummary, Stage, Tracer};
use crate::workloads::{
    danner_probe, draw_seed, run_job, sequential_sweep, setup, Alg, Record, Shape, Spec, State,
};
use crate::{per_layer, END_TO_END};

/// An untraced run sets up `SETUP_BATCHES` batches of `Spec::setup_batch`
/// setups each; `setup_s` is the median over batches of the mean setup time
/// in a batch. A fixed batch of millisecond setups times a fixed amount of
/// work, whatever the host's speed.
const SETUP_BATCHES: usize = 5;

/// A `/proc/self/status` field in MB (`VmHWM` is the peak resident set).
fn proc_status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value, unit)` of every metric of the run's mode, in order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed after the metrics.
    pub notes: Vec<String>,
    /// Attempted and failed ops of the whole run.
    pub total: Record,
    /// Counts repeated exactly across repetitions of the same draw (and, for
    /// the sweep, between batched and single-seed calls).
    pub consistent: bool,
    /// The context stamp, a JSON object.
    pub context: String,
    /// The spans as JSON lines (traced runs only).
    pub spans: Option<String>,
}

impl Outcome {
    /// Every output verified and every count repeated.
    pub fn correct(&self) -> bool {
        self.consistent && self.total.failed == 0
    }
}

fn job_secs(rec: &Record) -> f64 {
    rec.op_secs.iter().sum()
}

/// Runs whole cycles through the draws: one cycle always, then another
/// while it still fits in `seconds`. Repetition `i` runs draw
/// `i % spec.draws`; the first cycle verifies every churn batch.
fn repeat_job(spec: &Spec, state: &State, seed: u64, seconds: f64) -> Vec<Record> {
    let mut off = Tracer::new(false);
    let mut reps = Vec::new();
    let start = Instant::now();
    loop {
        for draw in 0..spec.draws {
            let verify_each = reps.len() < spec.draws;
            reps.push(run_job(
                spec,
                state,
                draw_seed(seed, draw),
                verify_each,
                &mut off,
            ));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cycles = (reps.len() / spec.draws) as f64;
        if elapsed * (cycles + 1.0) / cycles > seconds {
            return reps;
        }
    }
}

/// Whether every repetition recorded the same counts as the first
/// repetition of its draw.
fn same_counts(reps: &[Record], draws: usize) -> bool {
    reps.iter()
        .enumerate()
        .all(|(i, r)| r.tally == reps[i % draws].tally)
}

/// Each count: the setup's plus the median over draws of the job's.
fn median_counts(setup: &Record, reps: &[Record], draws: usize) -> BTreeMap<String, f64> {
    let firsts = &reps[..draws.min(reps.len())];
    let mut keys: Vec<&String> = firsts
        .iter()
        .chain([setup])
        .flat_map(|r| r.tally.keys())
        .collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            let per_draw: Vec<f64> = firsts.iter().map(|r| r.count(key) as f64).collect();
            (key.clone(), setup.count(key) as f64 + median(&per_draw))
        })
        .collect()
}

fn context(
    spec: &Spec,
    (seed, seconds, traced): (u64, f64, bool),
    state: &State,
    reps: usize,
    setup_reps: usize,
) -> String {
    let instances: Vec<String> = state
        .instances
        .iter()
        .map(|inst| {
            let (n, m, delta) = inst.shape();
            format!("{{\"n\":{n},\"m\":{m},\"max_degree\":{delta}}}")
        })
        .collect();
    let ops_per_rep = match &spec.shape {
        Shape::Gnp { .. } | Shape::PowerLaw { .. } => Alg::ALL.len(),
        Shape::Sweep { ns, .. } => ns.len() * Alg::ALL.len(),
        Shape::Churn { batches, .. } => *batches,
    };
    let lanes = match &spec.shape {
        Shape::Sweep { lanes, .. } => *lanes,
        _ => 1,
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"engine_threads\":{},\"profile\":\"{}\",\"rustc\":\"{}\",\"instances\":[{}],\"lanes\":{},\"ops_per_rep\":{},\"reps\":{},\"setup_reps\":{}}}",
        spec.name,
        seed,
        seconds,
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        spec.threads,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("PERFBENCH_RUSTC"),
        instances.join(","),
        lanes,
        ops_per_rep,
        reps,
        setup_reps
    )
}

/// The untraced run: set up several times, then repeat the job for
/// `seconds`; reports the end-to-end metrics.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut off = Tracer::new(false);
    let mut batch_secs = Vec::new();
    let mut setups: Vec<Record> = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_BATCHES {
        let mut secs = 0.0;
        for _ in 0..spec.setup_batch {
            drop(state.take());
            let start = Instant::now();
            let s = setup(spec, seed, &mut off);
            secs += start.elapsed().as_secs_f64();
            setups.push(s.setup.clone());
            state = Some(s);
        }
        batch_secs.push(secs / spec.setup_batch as f64);
    }
    let state = state.expect("at least one setup ran");
    let reps = repeat_job(spec, &state, seed, seconds);

    let mut total = state.setup.clone();
    reps.iter().for_each(|r| total.merge(r));
    let counts = median_counts(&state.setup, &reps, spec.draws);
    let count = |key: &str| counts.get(key).copied().unwrap_or(0.0);
    let walls: Vec<f64> = reps.iter().map(job_secs).collect();
    let values = [
        median(&batch_secs),
        per_draw_mean(&walls, spec.draws),
        proc_status_mb("VmHWM:"),
        count("simulated_messages"),
        count("charged_messages"),
        count("rounds"),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();

    let mut notes = vec![format!(
        "failed_frac {} ({} of {} ops failed)",
        total.failed as f64 / total.attempted.max(1) as f64,
        total.failed,
        total.attempted
    )];
    if let Shape::Churn { .. } = spec.shape {
        let latencies: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.op_secs.iter().copied())
            .collect();
        notes.push(format!(
            "repair_ms_p50 {} ms, repair_ms_p99 {} ms ({} batches pooled over {} repetitions)",
            quantile(&latencies, 0.5) * 1e3,
            quantile(&latencies, 0.99) * 1e3,
            latencies.len(),
            reps.len()
        ));
    }
    Outcome {
        metrics,
        notes,
        total,
        consistent: same_counts(&reps, spec.draws)
            && setups.windows(2).all(|w| w[0].tally == w[1].tally),
        context: context(
            spec,
            (seed, seconds, false),
            &state,
            reps.len(),
            setups.len(),
        ),
        spans: None,
    }
}

fn sum_of(s: &SpanSummary, name: &str) -> f64 {
    s.by_name.get(name).map_or(0.0, |v| v.iter().sum())
}

fn p_ms(s: &SpanSummary, name: &str, q: f64) -> f64 {
    s.by_name.get(name).map_or(0.0, |v| quantile(v, q) * 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer timings of one traced job repetition.
fn rep_metrics(spec: &Spec, job: &SpanSummary, setup: &SpanSummary) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("trace.wall_s".to_string(), job.root_secs);
    for layer in Layer::ALL {
        let secs = job.self_secs.get(&layer).copied().unwrap_or(0.0);
        m.insert(format!("{}.self_s", layer.name()), secs);
    }
    for alg in Alg::ALL {
        // Churn computes its initial state with single calls during setup.
        let single = sum_of(job, alg.span()) + sum_of(setup, alg.span());
        m.insert(format!("{}_s", alg.span()), single);
        m.insert(
            format!("{}_s", alg.batch_span()),
            sum_of(job, alg.batch_span()),
        );
    }
    m.insert(
        "graphs.overlay_apply_ms_p50".into(),
        p_ms(job, "graphs.overlay_apply", 0.5),
    );
    m.insert(
        "core.repair_coloring_ms_p50".into(),
        p_ms(job, "core.repair_coloring", 0.5),
    );
    m.insert(
        "core.repair_mis_ms_p50".into(),
        p_ms(job, "core.repair_mis", 0.5),
    );
    if let Shape::Churn { .. } = spec.shape {
        m.insert("core.repair_ms_p50".into(), p_ms(job, "op", 0.5));
        m.insert("core.repair_ms_p99".into(), p_ms(job, "op", 0.99));
    }
    m
}

/// The traced run: one traced setup, untraced and traced job repetitions
/// for `seconds`, then the probes; reports the per-layer metrics.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut tracer = Tracer::new(true);
    tracer.enter(Stage::Setup, 0);
    let state = setup(spec, seed, &mut tracer);
    let rss_after_setup = proc_status_mb("VmRSS:");

    // Untraced and traced repetitions alternate in pairs, each pair in the
    // opposite order of the last, so warm-up and drift hit both sides.
    let mut off = Tracer::new(false);
    let mut untraced_reps = Vec::new();
    let mut traced_reps = Vec::new();
    let start = Instant::now();
    // Whole cycles through the draws, as in the untraced run, so every draw
    // counts the same however fast the host is.
    while traced_reps.is_empty()
        || traced_reps.len() % spec.draws != 0
        || start.elapsed().as_secs_f64() < seconds
    {
        let pair = traced_reps.len();
        let seed = draw_seed(seed, pair % spec.draws);
        for traced in [pair % 2 == 0, pair % 2 == 1] {
            if traced {
                tracer.enter(Stage::Job, pair);
                traced_reps.push(run_job(spec, &state, seed, false, &mut tracer));
            } else {
                let verify_each = pair < spec.draws;
                untraced_reps.push(run_job(spec, &state, seed, verify_each, &mut off));
            }
        }
    }
    tracer.enter(Stage::Probe, 0);
    let danner = danner_probe(&state, &mut tracer);

    let mut total = state.setup.clone();
    untraced_reps
        .iter()
        .chain(&traced_reps)
        .for_each(|r| total.merge(r));
    total.merge(&danner.record);
    let mut consistent = same_counts(&untraced_reps, spec.draws)
        && untraced_reps
            .iter()
            .zip(&traced_reps)
            .all(|(u, t)| u.tally == t.tally);
    let mut notes = Vec::new();

    // Lockstep gain: single-seed calls over the batched job's op times.
    let mut gains = [0.0; 5];
    if let Shape::Sweep { ns, .. } = &spec.shape {
        let (seq_secs, seq) = sequential_sweep(spec, &state, seed);
        consistent &= seq.tally == untraced_reps[0].tally;
        total.merge(&seq);
        for (a, gain) in gains.iter_mut().enumerate() {
            let batched: Vec<f64> = untraced_reps
                .iter()
                .map(|r| {
                    (0..ns.len())
                        .map(|c| r.op_secs[c * Alg::ALL.len() + a])
                        .sum()
                })
                .collect();
            *gain = ratio(seq_secs[a], median(&batched));
        }
    }

    let setup_sum = summarize(tracer.spans(), Stage::Setup, 0);
    let probe_sum = summarize(tracer.spans(), Stage::Probe, 0);
    let per_rep: Vec<BTreeMap<String, f64>> = (0..traced_reps.len())
        .map(|rep| {
            rep_metrics(
                spec,
                &summarize(tracer.spans(), Stage::Job, rep),
                &setup_sum,
            )
        })
        .collect();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for key in per_rep[0].keys() {
        let samples: Vec<f64> = per_rep.iter().map(|m| m[key]).collect();
        values.insert(key.clone(), per_draw_mean(&samples, spec.draws));
    }

    let counts = median_counts(&state.setup, &traced_reps, spec.draws);
    let count = |key: &str| counts.get(key).copied().unwrap_or(0.0);
    for (key, &v) in &counts {
        values.insert(key.clone(), v);
        if key.contains(".other_") {
            notes.push(format!("warning: unknown cost phase counted as {key}"));
        }
    }
    values.insert(
        "core.repair_yield".into(),
        ratio(
            count("core.repair_repaired_nodes"),
            count("core.repair_frontier_nodes"),
        ),
    );
    values.insert("graphs.build_s".into(), sum_of(&setup_sum, "graphs.build"));
    values.insert("graphs.rss_mb".into(), rss_after_setup);
    values.insert(
        "danner.setup_s".into(),
        sum_of(&probe_sum, "danner.setup_plan"),
    );
    values.insert("danner.edges".into(), danner.edges as f64);
    values.insert(
        "danner.charged_messages".into(),
        danner.charged_messages as f64,
    );
    let alg1_secs = values["core.alg1_s"] + values["core.alg1_batch_s"];
    let alg2_secs = values["core.alg2_s"] + values["core.alg2_batch_s"];
    values.insert(
        "congest.sim_msgs_per_s".into(),
        ratio(count("core.alg1.simulated_messages"), alg1_secs),
    );
    values.insert(
        "congest.rounds_per_s".into(),
        ratio(count("core.alg2.simulated_rounds"), alg2_secs),
    );
    for (alg, gain) in Alg::ALL.into_iter().zip(gains) {
        values.insert(format!("congest.lockstep_gain_{}", alg.key()), gain);
    }
    for layer in Layer::ALL {
        let failed = total.failed_by_layer.get(&layer).copied().unwrap_or(0);
        values.insert(format!("{}.failed", layer.name()), failed as f64);
    }
    let untraced_walls: Vec<f64> = untraced_reps.iter().map(job_secs).collect();
    let untraced_wall = per_draw_mean(&untraced_walls, spec.draws);
    let traced_wall = values["trace.wall_s"];
    values.insert("trace.untraced_wall_s".into(), untraced_wall);
    values.insert("trace.overhead_s".into(), traced_wall - untraced_wall);

    let self_sum: f64 = Layer::ALL
        .iter()
        .map(|l| values[&format!("{}.self_s", l.name())])
        .sum();
    notes.push(format!(
        "per-layer self times sum to {self_sum} s of traced wall_s {traced_wall} s; tracing overhead {} s over untraced wall_s {untraced_wall} s",
        traced_wall - untraced_wall
    ));
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    Outcome {
        metrics,
        notes,
        total,
        consistent,
        context: context(spec, (seed, seconds, true), &state, traced_reps.len(), 1),
        spans: Some(tracer.to_jsonl(spec.name)),
    }
}
