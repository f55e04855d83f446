//! `snabench` — the repository's end-to-end benchmark.
//!
//! ```text
//! snabench --workload <cold_flow|warm_align|serve_edit|paper_accuracy>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the program only through public functions of `sna-flow`,
//! `sna-core` and `sna-obs`, with at most two worker threads. The first
//! stdout line is run metadata; the last is the machine-readable result.
//! With `--trace 0` it carries the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a separate traced run. See README.md for what
//! each workload and metric means.

mod accuracy;
mod flows;
mod kernel;
mod meta;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{result_json, Metrics, Tally};

/// Every end-to-end metric, printed by every workload with `--trace 0`.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "clusters_per_s",
    "queries_per_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "peak_rss_mb",
    "macro_peak_err_max_pct",
    "macro_peak_err_mean_pct",
    "macro_area_err_max_pct",
    "macro_area_err_mean_pct",
];

/// Every per-layer metric, printed by every workload with `--trace 1`.
pub const PER_LAYER: &[&str] = &[
    "flow.pool.idle_frac",
    "flow.cluster_p50_ms",
    "flow.cluster_max_ms",
    "flow.cache.load_ms",
    "flow.cache.save_ms",
    "flow.cache.bytes",
    "flow.output.render_ms",
    "flow.serve.refit_p50_ms",
    "flow.serve.engine_p50_ms",
    "flow.serve.switch_p50_ms",
    "flow.serve.frame_p50_ms",
    "flow.serve.analyze_all_p50_ms",
    "flow.serve.reanalyzed",
    "flow.serve.memo_hit_ratio",
    "library.load_curve.hits",
    "library.load_curve.misses",
    "library.load_curve.disk_hits",
    "library.holding_r.hits",
    "library.holding_r.misses",
    "library.holding_r.disk_hits",
    "library.prop_table.hits",
    "library.prop_table.misses",
    "library.prop_table.disk_hits",
    "library.thevenin.hits",
    "library.thevenin.misses",
    "library.thevenin.disk_hits",
    "library.nrc.hits",
    "library.nrc.misses",
    "library.nrc.disk_hits",
    "library.hit_ratio",
    "library.stale_rejected",
    "library.misses_range",
    "characterize.load_curve_ms",
    "characterize.holding_r_ms",
    "characterize.prop_table_ms",
    "characterize.thevenin_ms",
    "characterize.nrc_ms",
    "cluster.assemble_ms",
    "engine.simulate_ms",
    "engine.calls",
    "alignment.search_ms",
    "alignment.evaluations",
    "frame.eval_ms",
    "frame.considered",
    "frame.pruned_window",
    "frame.pruned_mexcl",
    "frame.simulated",
    "frame.prune_ratio",
    "golden.simulate_ms",
    "superposition.simulate_ms",
    "zolotov.simulate_ms",
    "accuracy.build_ms",
    "accuracy.speedup_x",
    "spice.tran.calls",
    "spice.tran.steps",
    "spice.tran.newton_iterations",
    "spice.tran.rejected_steps",
    "spice.tran.steps_range",
    "spice.dc.solves",
    "spice.solver.factors",
    "spice.solver.refactors",
    "spice.solver.solves",
    "spice.sweep.calls",
    "spice.sweep.lanes",
    "spice.ns_per_step",
    "counters.varying",
    "trace.valid",
    "trace_overhead_frac",
    "trace.cluster_ms",
    "trace.characterize_frac",
    "trace.alignment_frac",
    "trace.unattributed_frac",
    "trace.probe_filled",
    "failed_frac",
];

pub const WORKLOADS: &[&str] = &["cold_flow", "warm_align", "serve_edit", "paper_accuracy"];

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads: two, or fewer on a smaller machine.
    pub threads: usize,
    /// Scratch directory for cache files and span dumps.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A per-process scratch file name.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}-{}-{name}", self.workload, std::process::id()))
    }

    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-seed{}-spans.jsonl", self.workload, self.seed))
    }
}

/// What a workload hands back: its tally and its metrics (end-to-end or
/// per-layer, by mode).
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (2005u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        threads,
        out_dir: PathBuf::from("snabench/out"),
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("snabench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("snabench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }
    println!("{}", meta::meta_json(&ctx));
    let outcome = match ctx.workload.as_str() {
        "cold_flow" => flows::cold_flow(&ctx),
        "warm_align" => flows::warm_align(&ctx),
        "serve_edit" => serve::serve_edit(&ctx),
        _ => accuracy::paper_accuracy(&ctx),
    };
    let Outcome { tally, mut metrics } = outcome;
    let names = if ctx.trace {
        metrics.set("failed_frac", tally.failed_frac(), "ratio");
        PER_LAYER
    } else {
        END_TO_END
    };
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !metrics.contains(n))
        .collect();
    if !missing.is_empty() {
        eprintln!("snabench: no value for {}", missing.join(", "));
    }
    let correct = tally.failed == 0 && missing.is_empty();
    println!("{}", result_json(correct, tally, &metrics, names));
}
