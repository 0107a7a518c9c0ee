//! The four workloads: how each builds its instances (setup), what its timed
//! job calls, and how every output is verified outside the timed region.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symbreak_classic::coloring::{self, verify::is_proper_coloring, verify::uses_colors_below};
use symbreak_classic::mis::{self, verify::is_mis};
use symbreak_congest::{BatchSimulator, CostAccount, ExecutionReport, KtLevel, SyncConfig};
use symbreak_core::repair::{ChurnSession, ColoringRepairDriver, MisRepairDriver, RepairReport};
use symbreak_core::{
    alg1_coloring, alg2_coloring, alg3_mis, Alg1Config, Alg2Config, Alg2Outcome, Alg3Config,
    ColoringOutcome, CoreError, MisOutcome,
};
use symbreak_danner::setup::SetupPlan;
use symbreak_graphs::generators::{self, ChurnStream};
use symbreak_graphs::{properties, ChurnBatch, Graph, GraphOverlay, IdAssignment, IdSpace, NodeId};

use crate::trace::{Layer, Tracer};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fig1_dense", "sparse_scale", "seed_sweep", "churn_stream"];

/// Algorithm 2's ε on every workload.
const EPSILON: f64 = 0.5;

/// A fully verifying churn job checks every batch locally and every this
/// many batches (and the last) against a freshly materialized CSR.
const FULL_CHECK_EVERY: usize = 100;

/// Danner parameter δ of the direct `SetupPlan::new` probe (the default of
/// Algorithms 1 and 2).
const DANNER_DELTA: f64 = 0.5;

/// How a workload's instances are generated.
#[derive(Debug, Clone)]
pub enum Shape {
    /// One `G(n, p)` instance conditioned on connectivity; one call of each
    /// algorithm per job.
    Gnp { n: usize, p: f64 },
    /// One preferential-attachment instance; one call of each algorithm per
    /// job.
    PowerLaw { n: usize, attach: usize },
    /// One connected `G(n, c·ln n / n)` cell per `n`; every algorithm runs
    /// batched over `lanes` seeds per cell.
    Sweep {
        ns: Vec<usize>,
        c: f64,
        lanes: usize,
    },
    /// `random_near_regular(n, d)` under `batches` churn batches of 0.25%
    /// of m each (half deletes, half inserts), repaired after every batch.
    Churn { n: usize, d: usize, batches: usize },
}

/// A workload: its name, its pinned engine thread count, its shape, and how
/// many algorithm-seed draws a run makes on its instances.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub threads: usize,
    pub shape: Shape,
    /// Job repetitions cycle through this many algorithm-seed draws (see
    /// [`draw_seed`]) and counts are medians over them. Odd, so a median
    /// count is one draw's count.
    pub draws: usize,
    /// Setups per timed setup batch: enough that one batch is a few tenths
    /// of a second of work.
    pub setup_batch: usize,
}

impl Spec {
    /// The full-size workload `name`, as the benchmark runs it.
    pub fn full(name: &str) -> Option<Spec> {
        // fig1_dense's single calls vary most from one draw to the next:
        // alg3's inform work grows with the few dozen nodes that join in its
        // first round, times d³. At average degree 50 one alg3 call takes
        // about 0.4 s, so a run averages over 15 draws; at degree 100 a call
        // takes 3 to 5 s, too long for enough draws to fit in a run. The
        // other jobs average over many lanes, batches or nodes within one
        // draw.
        let (name, threads, draws, setup_batch, shape) = match name {
            "fig1_dense" => ("fig1_dense", 1, 15, 32, Shape::Gnp { n: 1000, p: 0.05 }),
            "sparse_scale" => (
                "sparse_scale",
                2,
                1,
                2,
                Shape::PowerLaw {
                    n: 100_000,
                    attach: 4,
                },
            ),
            "seed_sweep" => (
                "seed_sweep",
                1,
                1,
                8,
                Shape::Sweep {
                    ns: vec![1024, 2048, 4096],
                    c: 2.0,
                    lanes: 8,
                },
            ),
            "churn_stream" => (
                "churn_stream",
                1,
                1,
                1,
                Shape::Churn {
                    n: 100_000,
                    d: 8,
                    batches: 1000,
                },
            ),
            _ => return None,
        };
        Some(Spec {
            name,
            threads,
            shape,
            draws,
            setup_batch,
        })
    }

    /// The same workload at a size that runs in about a second, for tests.
    pub fn reduced(name: &str) -> Option<Spec> {
        let mut spec = Spec::full(name)?;
        spec.shape = match spec.shape {
            Shape::Gnp { p, .. } => Shape::Gnp { n: 150, p },
            Shape::PowerLaw { attach, .. } => Shape::PowerLaw { n: 3000, attach },
            Shape::Sweep { c, .. } => Shape::Sweep {
                ns: vec![64, 128],
                c,
                lanes: 3,
            },
            Shape::Churn { d, .. } => Shape::Churn {
                n: 2000,
                d,
                batches: 40,
            },
        };
        Some(spec)
    }

    /// The same workload with a different engine thread count.
    pub fn with_threads(mut self, threads: usize) -> Spec {
        self.threads = threads;
        self
    }

    fn sync(&self) -> SyncConfig {
        SyncConfig::default().with_threads(self.threads)
    }
}

/// `splitmix64` of `a` salted with `b`: derives every instance and
/// algorithm seed from the workload seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The job seed of draw `draw`: the workload seed itself for draw 0. The
/// instances depend only on the workload seed, so every draw runs on the
/// same inputs with fresh algorithm randomness.
pub fn draw_seed(seed: u64, draw: usize) -> u64 {
    if draw == 0 {
        seed
    } else {
        mix(seed, 0xD4A7_0000 + draw as u64)
    }
}

/// The algorithms every read-only workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    Alg1,
    Alg2,
    Alg3,
    ColoringBaseline,
    Luby,
}

impl Alg {
    /// Every algorithm, in job order.
    pub const ALL: [Alg; 5] = [
        Alg::Alg1,
        Alg::Alg2,
        Alg::Alg3,
        Alg::ColoringBaseline,
        Alg::Luby,
    ];

    /// Short name used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Alg::Alg1 => "alg1",
            Alg::Alg2 => "alg2",
            Alg::Alg3 => "alg3",
            Alg::ColoringBaseline => "coloring_baseline",
            Alg::Luby => "luby",
        }
    }

    /// The crate whose public call runs this algorithm.
    pub fn layer(self) -> Layer {
        match self {
            Alg::Alg1 | Alg::Alg2 | Alg::Alg3 => Layer::Core,
            Alg::ColoringBaseline | Alg::Luby => Layer::Classic,
        }
    }

    /// Span name of a single-seed call.
    pub fn span(self) -> &'static str {
        match self {
            Alg::Alg1 => "core.alg1",
            Alg::Alg2 => "core.alg2",
            Alg::Alg3 => "core.alg3",
            Alg::ColoringBaseline => "classic.coloring_baseline",
            Alg::Luby => "classic.luby",
        }
    }

    /// Span name of a batched call.
    pub fn batch_span(self) -> &'static str {
        match self {
            Alg::Alg1 => "core.alg1_batch",
            Alg::Alg2 => "core.alg2_batch",
            Alg::Alg3 => "core.alg3_batch",
            Alg::ColoringBaseline => "classic.coloring_baseline_batch",
            Alg::Luby => "classic.luby_batch",
        }
    }

    /// The normalised `CostAccount` phase names this algorithm reports
    /// (empty for the baselines, which report one phase each).
    pub fn phases(self) -> &'static [&'static str] {
        match self {
            Alg::Alg1 => &[
                "charged_danner",
                "charged_election",
                "seed_broadcast",
                "delta_convergecast",
                "delta_broadcast",
                "edge_check",
                "bucket_coloring",
                "final_stage",
            ],
            Alg::Alg2 => &[
                "charged_danner",
                "charged_election",
                "seed_broadcast",
                "delta_convergecast",
                "delta_broadcast",
                "colour_trials",
            ],
            Alg::Alg3 => &["sample_announce", "sample_greedy", "inform", "remnant_luby"],
            Alg::ColoringBaseline | Alg::Luby => &[],
        }
    }
}

/// `CostAccount` label prefixes and the metric-name phase they map to.
/// Per-level labels (`…, level 2`) fold into one phase, so the set of names
/// does not depend on how many levels a run used.
const PHASE_LABELS: [(&str, &str); 13] = [
    ("setup/danner construction", "charged_danner"),
    ("setup/leader election", "charged_election"),
    ("setup/seed broadcast", "seed_broadcast"),
    ("Δ convergecast", "delta_convergecast"),
    ("Δ broadcast", "delta_broadcast"),
    ("|E(G[L])| check", "edge_check"),
    ("bucket coloring", "bucket_coloring"),
    ("final-stage coloring", "final_stage"),
    ("colour trial phases", "colour_trials"),
    ("S announces membership", "sample_announce"),
    ("parallel greedy MIS", "sample_greedy"),
    ("inform 2-hop", "inform"),
    ("Luby on remnant", "remnant_luby"),
];

/// The metric-name phase of a `CostAccount` label; `other` for a label this
/// benchmark does not know (reported as a warning by the runner).
pub fn phase_name(label: &str) -> &'static str {
    PHASE_LABELS
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map_or("other", |&(_, name)| name)
}

/// A connected graph with its ID assignment.
#[derive(Debug, Clone)]
pub struct Instance {
    pub graph: Graph,
    pub ids: IdAssignment,
}

impl Instance {
    /// `(n, m, Δ)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (
            self.graph.num_nodes(),
            self.graph.num_edges(),
            self.graph.max_degree(),
        )
    }
}

/// What an algorithm call produced.
enum Solution {
    Coloring {
        colors: Vec<Option<u64>>,
        palette: u64,
    },
    Mis(Vec<bool>),
}

struct Output {
    solution: Solution,
    costs: CostAccount,
    levels_used: u64,
}

impl Output {
    /// Algorithm 1 colours from `{0, …, Δ}`: `palette` is the graph's Δ + 1.
    fn alg1(out: ColoringOutcome, palette: u64) -> Output {
        Output {
            solution: Solution::Coloring {
                colors: out.colors,
                palette,
            },
            costs: out.costs,
            levels_used: out.levels_used as u64,
        }
    }

    fn alg2(out: Alg2Outcome) -> Output {
        Output {
            solution: Solution::Coloring {
                colors: out.colors,
                palette: out.palette_size,
            },
            costs: out.costs,
            levels_used: 0,
        }
    }

    fn alg3(out: MisOutcome) -> Output {
        Output {
            solution: Solution::Mis(out.in_mis),
            costs: out.costs,
            levels_used: 0,
        }
    }

    /// A baseline's output, failing if its run hit the round limit.
    fn baseline(
        solution: Solution,
        label: &str,
        report: &ExecutionReport,
    ) -> Result<Output, String> {
        if !report.completed {
            return Err(format!("{label} did not complete"));
        }
        let mut costs = CostAccount::new();
        costs.charge_report(label, report);
        Ok(Output {
            solution,
            costs,
            levels_used: 0,
        })
    }

    fn verify(&self, graph: &Graph) -> bool {
        match &self.solution {
            Solution::Coloring { colors, palette } => {
                is_proper_coloring(graph, colors) && uses_colors_below(colors, *palette)
            }
            Solution::Mis(in_set) => is_mis(graph, in_set),
        }
    }
}

/// Counts, timings and failures of the ops of one setup or job repetition.
#[derive(Debug, Default, Clone)]
pub struct Record {
    /// Ops attempted (an algorithm call, a batched call or a churn batch).
    pub attempted: u64,
    /// Ops that returned `Err`, panicked or failed verification.
    pub failed: u64,
    /// Failed calls and verifications, by the crate that produced them.
    pub failed_by_layer: BTreeMap<Layer, u64>,
    /// Exact counts: messages, rounds, per-phase costs, repair work.
    pub tally: BTreeMap<String, u64>,
    /// Host time of each op, in seconds, in op order.
    pub op_secs: Vec<f64>,
}

impl Record {
    /// Adds `value` to the count `key`.
    pub fn add(&mut self, key: &str, value: u64) {
        *self.tally.entry(key.to_string()).or_default() += value;
    }

    /// The count `key` (0 if never added).
    pub fn count(&self, key: &str) -> u64 {
        self.tally.get(key).copied().unwrap_or(0)
    }

    fn fail(&mut self, layer: Layer) {
        *self.failed_by_layer.entry(layer).or_default() += 1;
    }

    /// Folds another record's counts and failures into this one.
    pub fn merge(&mut self, other: &Record) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (&layer, &n) in &other.failed_by_layer {
            *self.failed_by_layer.entry(layer).or_default() += n;
        }
        for (key, &v) in &other.tally {
            self.add(key, v);
        }
    }

    fn add_costs(&mut self, alg: Alg, out: &Output) {
        let costs = &out.costs;
        self.add("simulated_messages", costs.simulated_messages());
        self.add("charged_messages", costs.charged_messages());
        self.add("rounds", costs.simulated_rounds());
        let key = alg.key();
        match alg.layer() {
            Layer::Classic => {
                self.add(&format!("classic.{key}_messages"), costs.total_messages());
                self.add(&format!("classic.{key}_rounds"), costs.total_rounds());
            }
            _ => {
                for (label, cost) in costs.phases() {
                    let phase = phase_name(label);
                    self.add(
                        &format!("core.{key}.{phase}_messages"),
                        cost.total_messages(),
                    );
                    self.add(&format!("core.{key}.{phase}_rounds"), cost.total_rounds());
                }
                self.add(
                    &format!("core.{key}.simulated_messages"),
                    costs.simulated_messages(),
                );
                self.add(
                    &format!("core.{key}.simulated_rounds"),
                    costs.simulated_rounds(),
                );
            }
        }
        if alg == Alg::Alg1 {
            self.add("core.alg1.levels_used", out.levels_used);
        }
    }

    fn add_repair(&mut self, report: &RepairReport) {
        self.add("simulated_messages", report.messages);
        self.add("rounds", report.rounds);
        self.add("core.repair_messages", report.messages);
        self.add("core.repair_rounds", report.rounds);
        self.add("core.repair_iterations", report.iterations as u64);
        self.add("core.repair_frontier_nodes", report.total_frontier() as u64);
        self.add("core.repair_repaired_nodes", report.repaired_nodes as u64);
    }
}

/// Runs `f` inside a span, turning a panic into `None`.
fn guarded<T>(
    tracer: &mut Tracer,
    layer: Layer,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> Option<T> {
    let span = tracer.begin(layer, name);
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    tracer.end(span);
    out
}

fn alg1_config(threads: usize) -> Alg1Config {
    Alg1Config {
        threads,
        ..Alg1Config::default()
    }
}

fn alg2_config(threads: usize) -> Alg2Config {
    Alg2Config {
        epsilon: EPSILON,
        threads,
        ..Alg2Config::default()
    }
}

fn alg3_config(threads: usize) -> Alg3Config {
    Alg3Config {
        threads,
        ..Alg3Config::default()
    }
}

/// One single-seed call of `alg` on `inst`.
fn run_alg(alg: Alg, inst: &Instance, seed: u64, threads: usize) -> Result<Output, String> {
    let (g, ids) = (&inst.graph, &inst.ids);
    let sync = SyncConfig::default().with_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let palette = g.max_degree() as u64 + 1;
    let err = |e: CoreError| e.to_string();
    match alg {
        Alg::Alg1 => alg1_coloring::run(g, ids, alg1_config(threads), &mut rng)
            .map(|out| Output::alg1(out, palette))
            .map_err(err),
        Alg::Alg2 => alg2_coloring::run(g, ids, alg2_config(threads), &mut rng)
            .map(Output::alg2)
            .map_err(err),
        Alg::Alg3 => alg3_mis::run(g, ids, alg3_config(threads), &mut rng)
            .map(Output::alg3)
            .map_err(err),
        Alg::ColoringBaseline => {
            let (colors, report) = coloring::baseline::run(g, ids, seed, sync);
            Output::baseline(Solution::Coloring { colors, palette }, "baseline", &report)
        }
        Alg::Luby => {
            let (in_set, report) = mis::luby::run(g, ids, seed, sync);
            Output::baseline(Solution::Mis(in_set), "luby", &report)
        }
    }
}

/// One batched call of `alg` on `inst`, lane `k` seeded with `seeds[k]`
/// (`None` if it panicked). Lane `k` is bit-identical to
/// `run_alg(alg, inst, seeds[k], _)`.
fn run_alg_batch(
    alg: Alg,
    inst: &Instance,
    seeds: &[u64],
    threads: usize,
    tracer: &mut Tracer,
) -> Option<Result<Vec<Output>, String>> {
    let (g, ids) = (&inst.graph, &inst.ids);
    let sync = SyncConfig::default().with_threads(threads);
    let palette = g.max_degree() as u64 + 1;
    let span = alg.batch_span();
    fn lanes<T>(
        outs: Result<Vec<T>, CoreError>,
        f: impl Fn(T) -> Output,
    ) -> Result<Vec<Output>, String> {
        outs.map(|outs| outs.into_iter().map(f).collect())
            .map_err(|e| e.to_string())
    }
    match alg {
        Alg::Alg1 => guarded(tracer, Layer::Core, span, || {
            alg1_coloring::run_batch(g, ids, alg1_config(threads), seeds)
        })
        .map(|outs| lanes(outs, |out| Output::alg1(out, palette))),
        Alg::Alg2 => guarded(tracer, Layer::Core, span, || {
            alg2_coloring::run_batch(g, ids, alg2_config(threads), seeds)
        })
        .map(|outs| lanes(outs, Output::alg2)),
        Alg::Alg3 => guarded(tracer, Layer::Core, span, || {
            alg3_mis::run_batch(g, ids, alg3_config(threads), seeds)
        })
        .map(|outs| lanes(outs, Output::alg3)),
        Alg::ColoringBaseline | Alg::Luby => {
            let sim = guarded(tracer, Layer::Congest, "congest.batch_simulator", || {
                BatchSimulator::new(g, ids, KtLevel::KT1)
            })?;
            guarded(tracer, Layer::Classic, span, || {
                if alg == Alg::Luby {
                    mis::luby::run_batch(&sim, seeds, sync)
                        .into_iter()
                        .map(|(in_set, report)| {
                            Output::baseline(Solution::Mis(in_set), "luby", &report)
                        })
                        .collect()
                } else {
                    coloring::baseline::run_batch(&sim, seeds, sync)
                        .into_iter()
                        .map(|(colors, report)| {
                            let solution = Solution::Coloring { colors, palette };
                            Output::baseline(solution, "baseline", &report)
                        })
                        .collect()
                }
            })
        }
    }
}

/// The lane seeds of one sweep cell.
fn lane_seeds(seed: u64, n: usize, lanes: usize) -> Vec<u64> {
    (0..lanes as u64)
        .map(|k| mix(mix(seed, n as u64), k))
        .collect()
}

/// The state a job starts from: instances, plus the churn stream's initial
/// colouring, MIS and pre-generated batches.
#[derive(Debug)]
pub struct State {
    pub instances: Vec<Instance>,
    pub churn: Option<ChurnStart>,
    /// The ops run during setup (churn's initial colouring and MIS).
    pub setup: Record,
}

/// Where every churn job starts.
#[derive(Debug)]
pub struct ChurnStart {
    colors: Vec<Option<u64>>,
    in_mis: Vec<bool>,
    /// Palette bound of the initial colouring (Δ + 1 of the base graph).
    palette: u64,
    pub batches: Vec<ChurnBatch>,
}

fn build(tracer: &mut Tracer, seed: u64, generate: impl FnOnce(&mut StdRng) -> Graph) -> Instance {
    let span = tracer.begin(Layer::Graphs, "graphs.build");
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generate(&mut rng);
    let ids = IdAssignment::random(&graph, IdSpace::CUBIC, &mut rng);
    tracer.end(span);
    Instance { graph, ids }
}

/// Generates the workload's instances and initial state from `seed`.
pub fn setup(spec: &Spec, seed: u64, tracer: &mut Tracer) -> State {
    let mut state = State {
        instances: Vec::new(),
        churn: None,
        setup: Record::default(),
    };
    match &spec.shape {
        &Shape::Gnp { n, p } => state.instances.push(build(tracer, seed, |rng| {
            generators::connected_gnp(n, p, rng)
        })),
        &Shape::PowerLaw { n, attach } => state.instances.push(build(tracer, seed, |rng| {
            generators::power_law(n, attach, rng)
        })),
        Shape::Sweep { ns, c, .. } => {
            for &n in ns {
                let p = c * (n as f64).ln() / n as f64;
                state
                    .instances
                    .push(build(tracer, mix(seed, n as u64), |rng| {
                        generators::connected_gnp(n, p, rng)
                    }));
            }
        }
        &Shape::Churn { n, d, batches } => {
            // Superimposed matchings are connected with high probability;
            // redraw deterministically in the rare case they are not
            // (Algorithm 1 needs a connected graph).
            let inst = build(tracer, seed, |rng| loop {
                let g = generators::random_near_regular(n, d, rng);
                if properties::is_connected(&g) {
                    break g;
                }
            });
            let span = tracer.begin(Layer::Graphs, "graphs.churn_stream");
            let half = (inst.graph.num_edges() / 800).max(1);
            let mut stream = ChurnStream::new(&inst.graph, mix(seed, 0xC4));
            let stream_batches: Vec<ChurnBatch> = (0..batches)
                .map(|_| stream.next_batch(half, half))
                .collect();
            tracer.end(span);
            state.churn =
                initial_state(spec, &inst, seed, stream_batches, &mut state.setup, tracer);
            state.instances.push(inst);
        }
    }
    state
}

/// Computes churn's initial colouring with Algorithm 1 and its initial MIS
/// with Algorithm 3, as two verified ops.
fn initial_state(
    spec: &Spec,
    inst: &Instance,
    seed: u64,
    batches: Vec<ChurnBatch>,
    rec: &mut Record,
    tracer: &mut Tracer,
) -> Option<ChurnStart> {
    let mut solutions = Vec::new();
    for alg in [Alg::Alg1, Alg::Alg3] {
        rec.attempted += 1;
        let out = guarded(tracer, alg.layer(), alg.span(), || {
            run_alg(alg, inst, mix(seed, alg as u64), spec.threads)
        });
        match out {
            Some(Ok(out)) if out.verify(&inst.graph) => {
                rec.add_costs(alg, &out);
                solutions.push(out.solution);
            }
            _ => {
                rec.failed += 1;
                rec.fail(alg.layer());
            }
        }
    }
    match (solutions.pop(), solutions.pop()) {
        (Some(Solution::Mis(in_mis)), Some(Solution::Coloring { colors, palette })) => {
            Some(ChurnStart {
                colors,
                in_mis,
                palette,
                batches,
            })
        }
        _ => None,
    }
}

/// Times one op: `body` runs inside an op root span, and its host time is
/// appended to `rec.op_secs`. Returns what `body` returned.
fn timed_op<T>(
    rec: &mut Record,
    tracer: &mut Tracer,
    op: usize,
    body: impl FnOnce(&mut Tracer) -> T,
) -> T {
    tracer.set_op(op);
    rec.attempted += 1;
    let start = Instant::now();
    let root = tracer.begin(Layer::Bench, "op");
    let out = body(tracer);
    tracer.end(root);
    rec.op_secs.push(start.elapsed().as_secs_f64());
    out
}

/// Verifies `outs` on `graph`, tallying their costs; false if any fails.
fn check(rec: &mut Record, alg: Alg, graph: &Graph, outs: &[Output]) -> bool {
    let mut ok = true;
    for out in outs {
        rec.add_costs(alg, out);
        if !out.verify(graph) {
            rec.fail(alg.layer());
            ok = false;
        }
    }
    ok
}

fn settle(rec: &mut Record, alg: Alg, graph: &Graph, result: Option<Result<Vec<Output>, String>>) {
    let ok = match result {
        Some(Ok(outs)) => check(rec, alg, graph, &outs),
        Some(Err(e)) => {
            eprintln!("{}: {e}", alg.key());
            rec.fail(alg.layer());
            false
        }
        None => {
            rec.fail(alg.layer());
            false
        }
    };
    if !ok {
        rec.failed += 1;
    }
}

/// Runs one repetition of the workload's timed job on `state`, with
/// algorithm seeds derived from `seed`. Every output is verified between
/// ops, outside their timing. For churn, `verify_each` checks every batch
/// (see [`verify_local`]); otherwise only the final state is checked, and
/// the runner compares such a repetition's counts with a fully verified one.
pub fn run_job(
    spec: &Spec,
    state: &State,
    seed: u64,
    verify_each: bool,
    tracer: &mut Tracer,
) -> Record {
    let mut rec = Record::default();
    match &spec.shape {
        Shape::Gnp { .. } | Shape::PowerLaw { .. } => {
            let inst = &state.instances[0];
            for (op, alg) in Alg::ALL.into_iter().enumerate() {
                let out = timed_op(&mut rec, tracer, op, |tracer| {
                    guarded(tracer, alg.layer(), alg.span(), || {
                        run_alg(alg, inst, mix(seed, alg as u64), spec.threads)
                    })
                });
                settle(&mut rec, alg, &inst.graph, out.map(|r| r.map(|o| vec![o])));
            }
        }
        Shape::Sweep { lanes, .. } => {
            for (cell, inst) in state.instances.iter().enumerate() {
                let seeds = lane_seeds(seed, inst.graph.num_nodes(), *lanes);
                for (a, alg) in Alg::ALL.into_iter().enumerate() {
                    let out = timed_op(&mut rec, tracer, cell * Alg::ALL.len() + a, |tracer| {
                        run_alg_batch(alg, inst, &seeds, spec.threads, tracer)
                    });
                    settle(&mut rec, alg, &inst.graph, out);
                }
            }
        }
        Shape::Churn { .. } => {
            if let Some(start) = &state.churn {
                churn_job(
                    spec,
                    &state.instances[0],
                    start,
                    seed,
                    verify_each,
                    tracer,
                    &mut rec,
                );
            }
        }
    }
    rec
}

fn churn_job(
    spec: &Spec,
    inst: &Instance,
    start: &ChurnStart,
    seed: u64,
    verify_each: bool,
    tracer: &mut Tracer,
    rec: &mut Record,
) {
    let mut session = ChurnSession::new(inst.graph.clone(), inst.ids.clone(), spec.sync());
    let mut colors = start.colors.clone();
    let mut in_mis = start.in_mis.clone();
    // Repaired nodes take colours up to their degree at repair time, so the
    // palette bound is one above the largest Δ the stream has reached.
    let mut palette = start.palette;
    let last = start.batches.len().saturating_sub(1);
    for (b, batch) in start.batches.iter().enumerate() {
        let before = verify_each.then(|| (colors.clone(), in_mis.clone()));
        let (applied, col, mis) = timed_op(rec, tracer, b, |tracer| {
            let applied = guarded(tracer, Layer::Graphs, "graphs.overlay_apply", || {
                session.apply(batch)
            });
            let col = guarded(tracer, Layer::Core, "core.repair_coloring", || {
                session.repair_coloring(
                    batch,
                    &mut colors,
                    ColoringRepairDriver::Johansson,
                    mix(seed, 2 * b as u64),
                )
            });
            let mis = guarded(tracer, Layer::Core, "core.repair_mis", || {
                session.repair_mis(
                    batch,
                    &mut in_mis,
                    MisRepairDriver::Luby,
                    mix(seed, 2 * b as u64 + 1),
                )
            });
            (applied, col, mis)
        });
        let mut ok = true;
        if applied.is_none() {
            rec.fail(Layer::Graphs);
            ok = false;
        }
        for report in [&col, &mis] {
            match report {
                Some(report) => rec.add_repair(report),
                None => {
                    rec.fail(Layer::Core);
                    ok = false;
                }
            }
        }
        palette = palette.max(session.overlay().max_degree() as u64 + 1);
        if ok {
            if let Some((old_colors, old_mis)) = &before {
                ok = verify_local(
                    session.overlay(),
                    batch,
                    old_colors,
                    old_mis,
                    &colors,
                    &in_mis,
                    palette,
                );
            }
            if ok && (b == last || (verify_each && (b + 1) % FULL_CHECK_EVERY == 0)) {
                let current = session.overlay().materialize();
                ok = is_proper_coloring(&current, &colors)
                    && uses_colors_below(&colors, palette)
                    && is_mis(&current, &in_mis);
            }
            if !ok {
                rec.fail(Layer::Core);
            }
        }
        if !ok {
            rec.failed += 1;
        }
    }
    rec.add(
        "graphs.overlay_delta_len",
        session.overlay().delta_len() as u64,
    );
}

/// Checks one repaired batch against the live overlay, given the previous
/// batch's outputs were valid: a colour conflict or an MIS violation can
/// only appear at an endpoint of a changed edge or at a node whose output
/// changed (colouring), or next to one (MIS), so those are the nodes checked.
fn verify_local(
    overlay: &GraphOverlay,
    batch: &ChurnBatch,
    old_colors: &[Option<u64>],
    old_mis: &[bool],
    colors: &[Option<u64>],
    in_mis: &[bool],
    palette: u64,
) -> bool {
    let mut touched: Vec<NodeId> = batch
        .inserts
        .iter()
        .chain(&batch.deletes)
        .flat_map(|&(u, v)| [u, v])
        .collect();
    touched.extend(
        (0..colors.len())
            .filter(|&i| old_colors[i] != colors[i] || old_mis[i] != in_mis[i])
            .map(|i| NodeId(i as u32)),
    );
    touched.sort_unstable();
    touched.dedup();
    let proper = touched.iter().all(|&v| {
        let c = colors[v.index()];
        c.is_some_and(|c| c < palette) && overlay.neighbors(v).all(|u| colors[u.index()] != c)
    });
    let mut around = touched.clone();
    for &v in &touched {
        around.extend(overlay.neighbors(v));
    }
    around.sort_unstable();
    around.dedup();
    proper
        && around.iter().all(|&v| {
            let covered = overlay.neighbors(v).any(|u| in_mis[u.index()]);
            in_mis[v.index()] != covered
        })
}

/// What the direct `SetupPlan::new` probe measured, summed over instances.
#[derive(Debug, Default)]
pub struct DannerProbe {
    pub edges: u64,
    pub charged_messages: u64,
    pub record: Record,
}

/// Builds a danner setup plan on every instance (span
/// `danner.setup_plan`), as Algorithms 1 and 2 do once per call and the
/// batched drivers once per cell.
pub fn danner_probe(state: &State, tracer: &mut Tracer) -> DannerProbe {
    let mut probe = DannerProbe::default();
    for (i, inst) in state.instances.iter().enumerate() {
        tracer.set_op(i);
        probe.record.attempted += 1;
        let plan = guarded(tracer, Layer::Danner, "danner.setup_plan", || {
            SetupPlan::new(&inst.graph, &inst.ids, DANNER_DELTA)
        });
        match plan {
            Some(Ok(plan)) => {
                probe.edges += plan.danner().num_edges() as u64;
                probe.charged_messages += plan.base_costs().charged_messages();
            }
            _ => {
                probe.record.failed += 1;
                probe.record.fail(Layer::Danner);
            }
        }
    }
    probe
}

/// The sweep's cells run lane by lane with single-seed calls: host seconds
/// per algorithm (in [`Alg::ALL`] order) and the record of those calls,
/// whose counts must equal the batched job's.
pub fn sequential_sweep(spec: &Spec, state: &State, seed: u64) -> ([f64; 5], Record) {
    let mut secs = [0.0; 5];
    let mut rec = Record::default();
    let mut off = Tracer::new(false);
    if let Shape::Sweep { lanes, .. } = spec.shape {
        for inst in &state.instances {
            let seeds = lane_seeds(seed, inst.graph.num_nodes(), lanes);
            for (a, alg) in Alg::ALL.into_iter().enumerate() {
                let start = Instant::now();
                let outs: Option<Result<Vec<Output>, String>> =
                    guarded(&mut off, alg.layer(), alg.span(), || {
                        seeds
                            .iter()
                            .map(|&s| run_alg(alg, inst, s, spec.threads))
                            .collect()
                    });
                secs[a] += start.elapsed().as_secs_f64();
                rec.attempted += 1;
                settle(&mut rec, alg, &inst.graph, outs);
            }
        }
    }
    (secs, rec)
}
