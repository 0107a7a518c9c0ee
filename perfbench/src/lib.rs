//! End-to-end and per-layer benchmark of the symbreak workspace.
//!
//! Four workloads drive the public APIs of `graphs`, `danner`, `classic`
//! and `core` (`congest` is measured through them). End-to-end metrics come
//! from an untraced run; a separate traced run wraps every public call in a
//! span and derives the per-layer metrics. See `README.md` for the workloads,
//! the layers each one loads and bypasses, and how to run it.

pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::Alg;

/// End-to-end metrics: `(name, unit)`. Lower is better for all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("simulated_messages", "count"),
    ("charged_messages", "count"),
    ("rounds", "count"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by crate.
/// A metric of a layer the workload bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    push("graphs.build_s", "s");
    push("graphs.rss_mb", "MB");
    push("graphs.self_s", "s");
    push("graphs.overlay_apply_ms_p50", "ms");
    push("graphs.overlay_delta_len", "count");
    push("graphs.failed", "count");
    push("danner.setup_s", "s");
    push("danner.edges", "count");
    push("danner.charged_messages", "count");
    push("danner.failed", "count");
    push("classic.self_s", "s");
    for alg in [Alg::ColoringBaseline, Alg::Luby] {
        let key = alg.key();
        push(&format!("classic.{key}_s"), "s");
        push(&format!("classic.{key}_batch_s"), "s");
        push(&format!("classic.{key}_messages"), "count");
        push(&format!("classic.{key}_rounds"), "count");
    }
    push("classic.failed", "count");
    push("core.self_s", "s");
    for alg in [Alg::Alg1, Alg::Alg2, Alg::Alg3] {
        let key = alg.key();
        push(&format!("core.{key}_s"), "s");
        push(&format!("core.{key}_batch_s"), "s");
        for phase in alg.phases() {
            push(&format!("core.{key}.{phase}_messages"), "count");
            push(&format!("core.{key}.{phase}_rounds"), "count");
        }
    }
    push("core.alg1.levels_used", "count");
    push("core.repair_ms_p50", "ms");
    push("core.repair_ms_p99", "ms");
    push("core.repair_coloring_ms_p50", "ms");
    push("core.repair_mis_ms_p50", "ms");
    push("core.repair_frontier_nodes", "count");
    push("core.repair_iterations", "count");
    push("core.repair_yield", "ratio");
    push("core.repair_messages", "count");
    push("core.repair_rounds", "count");
    push("core.failed", "count");
    push("congest.self_s", "s");
    push("congest.sim_msgs_per_s", "1/s");
    push("congest.rounds_per_s", "1/s");
    for alg in Alg::ALL {
        push(&format!("congest.lockstep_gain_{}", alg.key()), "ratio");
    }
    push("congest.failed", "count");
    push("bench.self_s", "s");
    push("trace.wall_s", "s");
    push("trace.untraced_wall_s", "s");
    push("trace.overhead_s", "s");
    out
}
