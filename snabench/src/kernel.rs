//! Shared pieces of the workloads: the traced per-cluster kernel, counter
//! snapshots turned into per-layer metrics, and the paper accuracy check.

use std::time::Instant;

use sna_cells::{Cell, Technology};
use sna_core::cluster::{ClusterMacromodel, ClusterSpec, SwitchingWindow};
use sna_core::frame::FrameCounters;
use sna_core::library::{LibraryStats, NoiseModelLibrary, ALL_ARTIFACT_KINDS};
use sna_core::prelude::{
    constrained_worst_case, simulate_macromodel, worst_case_alignment_batched, ClusterFinding,
    Design, DesignCluster, MethodComparison, NoiseRejectionCurve, Verdict,
};
use sna_core::report::ComparisonRow;
use sna_flow::corners::NRC_WIDTHS;
use sna_flow::{parallel_map_ordered_metered, FlowOptions, PoolMetrics};
use sna_obs::{CounterSnapshot, Metric};
use sna_spice::error::Result;
use sna_spice::units::{NS, PS};

use crate::report::{median, Metrics, Rng, Tally};
use crate::trace::Tracer;

/// What the traced kernel learned about one cluster besides its finding.
#[derive(Debug, Clone)]
pub struct KernelOut {
    pub finding: ClusterFinding,
    /// Cold minus warm `build_with_library`: the Thevenin fits.
    pub thevenin_ns: u64,
    pub align_evals: u64,
    pub frame: Option<FrameCounters>,
    pub engine_calls: u64,
}

/// The receiver NRC every flow signs off against, through the library.
pub fn receiver_nrc(
    tech: &Technology,
    opts: &FlowOptions,
    lib: &NoiseModelLibrary,
) -> Result<std::sync::Arc<NoiseRejectionCurve>> {
    lib.nrc(
        &Cell::inv(tech.clone(), 1.0),
        true,
        &NRC_WIDTHS,
        opts.mm.solver,
    )
}

/// The per-cluster work of `analyze_cluster`, call by call, with a span
/// around each public call. The characterization lookups use the keys
/// `build_with_library` builds; the first build then leaves only the
/// Thevenin fits plus assembly, and the second is assembly alone.
fn traced_cluster(
    tr: &Tracer,
    parent: Option<u64>,
    cl: &DesignCluster,
    nrc: &NoiseRejectionCurve,
    opts: &FlowOptions,
    lib: &NoiseModelLibrary,
) -> Result<KernelOut> {
    tr.span_in(parent, "cluster", || {
        let spec = &cl.spec;
        let (cell, mode) = (&spec.victim.cell, &spec.victim.mode);
        let mut co = spec.char_opts;
        co.newton.solver = opts.mm.solver;
        co.backend = opts.mm.backend;
        let lc = tr.span("characterize.load_curve", || {
            lib.load_curve(cell, mode, &co)
        })?;
        tr.span("characterize.holding_r", || {
            lib.holding_resistance(cell, mode, &co)
        })?;
        let load = spec.victim_total_cap(lc.c_out);
        tr.span("characterize.prop_table", || {
            lib.propagated_table(cell, mode, load, &co)
        })?;
        let t = Instant::now();
        tr.span("cluster.build_cold", || {
            ClusterMacromodel::build_with_library(spec, &opts.mm, lib)
        })?;
        let cold = t.elapsed();
        let t = Instant::now();
        let model = tr.span("cluster.assemble", || {
            ClusterMacromodel::build_with_library(spec, &opts.mm, lib)
        })?;
        let warm = t.elapsed();
        let mut align_evals = 0;
        let waves = if opts.sna.align_worst_case {
            let res = tr.span("alignment.search", || {
                worst_case_alignment_batched(&model, opts.sna.align_window, opts.mm.backend)
            })?;
            align_evals = res.evaluations as u64;
            let timed = model.with_timing(&res.switch_times, res.glitch_peak_time);
            tr.span("engine.simulate", || simulate_macromodel(&timed))?
        } else {
            tr.span("engine.simulate", || simulate_macromodel(&model))?
        };
        let rm = waves.receiver.glitch_metrics(model.q_out);
        let margin = nrc.margin(rm.width, rm.peak);
        let verdict = if margin < 0.0 {
            Verdict::Fail
        } else if margin < opts.sna.margin_band {
            Verdict::MarginWarning
        } else {
            Verdict::Pass
        };
        let constrained = if spec.has_frame_constraints() {
            Some(tr.span("frame.eval", || {
                constrained_worst_case(
                    &model,
                    nrc,
                    opts.sna.frame_grid,
                    opts.sna.frame_exhaustive,
                    opts.mm.backend,
                )
            })?)
        } else {
            None
        };
        Ok(KernelOut {
            frame: constrained.as_ref().map(|c| c.counters),
            finding: ClusterFinding {
                name: cl.name.clone(),
                receiver_metrics: rm,
                margin,
                verdict,
                constrained,
            },
            thevenin_ns: cold.saturating_sub(warm).as_nanos() as u64,
            align_evals,
            engine_calls: 1,
        })
    })
}

/// Run the traced kernel over a design on the pool, under one `flow` span.
pub fn traced_flow(
    tr: &Tracer,
    design: &Design,
    nrc: &NoiseRejectionCurve,
    opts: &FlowOptions,
    lib: &NoiseModelLibrary,
) -> (Vec<Result<KernelOut>>, PoolMetrics) {
    tr.span("flow", || {
        let parent = tr.current();
        parallel_map_ordered_metered(opts.threads, &design.clusters, |_, cl| {
            traced_cluster(tr, parent, cl, nrc, opts, lib)
        })
    })
}

/// Whether two findings agree bit for bit (margins, receiver metrics,
/// verdict, constrained margin).
fn same_finding(a: &ClusterFinding, b: &ClusterFinding) -> bool {
    let bits = |f: &ClusterFinding| {
        (
            f.margin.to_bits(),
            f.receiver_metrics.peak.to_bits(),
            f.receiver_metrics.width.to_bits(),
            f.constrained.as_ref().map(|c| c.margin.to_bits()),
        )
    };
    a.name == b.name && a.verdict == b.verdict && bits(a) == bits(b)
}

/// Layer metrics of a traced flow: Thevenin time, alignment and FRAME
/// counts, engine calls, and the checks against the untraced findings.
pub fn kernel_metrics(
    outs: &[Result<KernelOut>],
    untraced: &[ClusterFinding],
    m: &mut Metrics,
) -> Tally {
    let mut tally = Tally::default();
    let (mut thevenin_ns, mut evals, mut calls) = (0u64, 0u64, 0u64);
    let mut frame = FrameCounters::default();
    let ok: Vec<&KernelOut> = outs.iter().filter_map(|o| o.as_ref().ok()).collect();
    tally.ops(
        outs.len() as u64,
        (outs.len() - ok.len()) as u64,
        "traced clusters analyzed",
    );
    for o in &ok {
        thevenin_ns += o.thevenin_ns;
        evals += o.align_evals;
        calls += o.engine_calls;
        if let Some(f) = o.frame {
            frame.considered += f.considered;
            frame.pruned_window += f.pruned_window;
            frame.pruned_mexcl += f.pruned_mexcl;
            frame.simulated += f.simulated;
        }
    }
    let identical = ok.len() == untraced.len()
        && ok
            .iter()
            .zip(untraced)
            .all(|(o, u)| same_finding(&o.finding, u));
    tally.check(
        identical,
        "traced findings equal the untraced ones bit for bit",
    );
    m.count("trace.valid", u64::from(identical));
    m.set("characterize.thevenin_ms", thevenin_ns as f64 / 1e6, "ms");
    m.count("engine.calls", calls);
    // Layers the flow did not run are left for the probe to measure.
    if evals > 0 {
        m.count("alignment.evaluations", evals);
    }
    if ok.iter().any(|o| o.frame.is_some()) {
        frame_metrics(&frame, m);
    }
    tally
}

fn frame_metrics(f: &FrameCounters, m: &mut Metrics) {
    m.count("frame.considered", f.considered);
    m.count("frame.pruned_window", f.pruned_window);
    m.count("frame.pruned_mexcl", f.pruned_mexcl);
    m.count("frame.simulated", f.simulated);
    m.set("frame.prune_ratio", f.prune_rate(), "ratio");
}

/// Self time per layer from the spans, plus the share of cluster time
/// each group of layers takes.
pub fn span_metrics(tr: &Tracer, m: &mut Metrics) {
    let layers = tr.layers();
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e6);
    for (metric, span) in [
        ("characterize.load_curve_ms", "characterize.load_curve"),
        ("characterize.holding_r_ms", "characterize.holding_r"),
        ("characterize.prop_table_ms", "characterize.prop_table"),
        ("characterize.nrc_ms", "characterize.nrc"),
        ("cluster.assemble_ms", "cluster.assemble"),
        ("engine.simulate_ms", "engine.simulate"),
        ("alignment.search_ms", "alignment.search"),
        ("frame.eval_ms", "frame.eval"),
    ] {
        if layers.contains_key(span) {
            m.set(metric, self_ms(span), "ms");
        }
    }
    if let Some(cluster) = layers.get("cluster") {
        let total = cluster.inclusive_ns.max(1) as f64 / 1e6;
        let thevenin = m.get("characterize.thevenin_ms").map_or(0.0, |v| v.0);
        let characterize = thevenin
            + [
                "characterize.load_curve",
                "characterize.holding_r",
                "characterize.prop_table",
            ]
            .iter()
            .map(|s| self_ms(s))
            .sum::<f64>();
        m.set("trace.cluster_ms", total, "ms");
        m.set("trace.characterize_frac", characterize / total, "ratio");
        m.set(
            "trace.alignment_frac",
            self_ms("alignment.search") / total,
            "ratio",
        );
        m.set(
            "trace.unattributed_frac",
            self_ms("cluster") / total,
            "ratio",
        );
    }
}

/// Pool load balance and per-cluster wall times of one flow run.
pub fn pool_metrics(pool: &PoolMetrics, m: &mut Metrics) {
    let workers = pool.worker_busy_nanos.len().max(1) as f64;
    let busy: u64 = pool.worker_busy_nanos.iter().sum();
    let idle = 1.0 - busy as f64 / (workers * pool.wall_nanos.max(1) as f64);
    m.set("flow.pool.idle_frac", idle.max(0.0), "ratio");
    let jobs: Vec<f64> = pool.job_nanos.iter().map(|&n| n as f64 / 1e6).collect();
    m.set("flow.cluster_p50_ms", median(&jobs), "ms");
    m.set(
        "flow.cluster_max_ms",
        jobs.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// `sna-obs` counter deltas of the SPICE layer. `characterize_ms` is the
/// traced characterization time the steps were spent in, if known.
pub fn spice_metrics(d: &CounterSnapshot, characterize_ms: Option<f64>, m: &mut Metrics) {
    let g = |x: Metric| d.get(x);
    m.count("spice.tran.calls", g(Metric::TranCalls));
    m.count("spice.tran.steps", g(Metric::TranSteps));
    m.count(
        "spice.tran.newton_iterations",
        g(Metric::TranNewtonIterations),
    );
    m.count("spice.tran.rejected_steps", g(Metric::TranRejectedSteps));
    m.count("spice.dc.solves", g(Metric::DcSolves));
    m.count(
        "spice.solver.factors",
        g(Metric::SolverFactorsDense) + g(Metric::SolverFactorsSparse),
    );
    m.count(
        "spice.solver.refactors",
        g(Metric::SolverRefactorsDense) + g(Metric::SolverRefactorsSparse),
    );
    m.count("spice.solver.solves", g(Metric::SolverSolves));
    m.count("spice.sweep.calls", g(Metric::SweepCalls));
    m.count("spice.sweep.lanes", g(Metric::SweepLanes));
    let steps = g(Metric::TranSteps) + g(Metric::SweepSteps);
    if let (Some(ms), true) = (characterize_ms, steps > 0) {
        m.set("spice.ns_per_step", ms * 1e6 / steps as f64, "ns");
    }
}

/// Library hit/miss counters (a delta over the measured work).
pub fn library_metrics(st: &LibraryStats, m: &mut Metrics) {
    for kind in ALL_ARTIFACT_KINDS {
        let k = st.kind(kind);
        m.count(format!("library.{}.hits", kind.name()), k.hits as u64);
        m.count(format!("library.{}.misses", kind.name()), k.misses as u64);
        m.count(
            format!("library.{}.disk_hits", kind.name()),
            k.disk_hits as u64,
        );
    }
    let lookups = (st.hits + st.misses).max(1) as f64;
    m.set("library.hit_ratio", st.hits as f64 / lookups, "ratio");
    m.count("library.stale_rejected", st.stale_rejected as u64);
}

/// Counters that must repeat between two identical passes: the SPICE work
/// and the library's hits and misses. Records how many differ, and the
/// spread of total misses and of transient steps.
pub fn counter_spread(
    a: (&CounterSnapshot, &LibraryStats),
    b: (&CounterSnapshot, &LibraryStats),
    m: &mut Metrics,
) {
    let mut varying = sna_obs::ALL_METRICS
        .iter()
        .filter(|&&x| a.0.get(x) != b.0.get(x))
        .count() as u64;
    for kind in ALL_ARTIFACT_KINDS {
        let (ka, kb) = (a.1.kind(kind), b.1.kind(kind));
        varying += u64::from(ka.hits != kb.hits) + u64::from(ka.misses != kb.misses);
    }
    m.count("counters.varying", varying);
    m.count(
        "library.misses_range",
        a.1.misses.abs_diff(b.1.misses) as u64,
    );
    m.count(
        "spice.tran.steps_range",
        a.0.get(Metric::TranSteps)
            .abs_diff(b.0.get(Metric::TranSteps)),
    );
}

/// Macromodel error against golden over the non-quiet cases (golden peak
/// at least 0.05 V, as in `accuracy_sweep`).
pub fn accuracy_metrics(cmps: &[&MethodComparison], m: &mut Metrics) {
    let loud: Vec<&ComparisonRow> = cmps
        .iter()
        .filter(|c| c.golden.metrics.peak >= 0.05)
        .map(|c| &c.macromodel)
        .collect();
    let n = loud.len().max(1) as f64;
    let peak: Vec<f64> = loud.iter().map(|r| r.peak_err_pct.abs()).collect();
    let area: Vec<f64> = loud.iter().map(|r| r.area_err_pct.abs()).collect();
    m.set(
        "macro_peak_err_max_pct",
        peak.iter().copied().fold(0.0, f64::max),
        "%",
    );
    m.set("macro_peak_err_mean_pct", peak.iter().sum::<f64>() / n, "%");
    m.set(
        "macro_area_err_max_pct",
        area.iter().copied().fold(0.0, f64::max),
        "%",
    );
    m.set("macro_area_err_mean_pct", area.iter().sum::<f64>() / n, "%");
}

/// The paper's finding on one case: on a glitching cluster, linear
/// superposition underestimates the golden peak.
fn paper_finding_holds(spec: &ClusterSpec, cmp: &MethodComparison) -> bool {
    spec.victim.glitch.is_none() || cmp.superposition.peak_err_pct < 0.0
}

/// Run `MethodComparison::run` over `cases` on the pool and check the
/// paper's finding on each.
pub fn compare_cases(
    cases: &[(String, ClusterSpec)],
    threads: usize,
) -> (Vec<Option<MethodComparison>>, PoolMetrics, Tally) {
    let (out, pool) = parallel_map_ordered_metered(threads, cases, |_, (id, spec)| {
        MethodComparison::run(id.clone(), spec).ok()
    });
    let mut tally = Tally::default();
    for ((_, spec), cmp) in cases.iter().zip(&out) {
        tally.check(
            cmp.as_ref().is_some_and(|c| paper_finding_holds(spec, c)),
            "comparison ran and superposition underestimates golden",
        );
    }
    (out, pool, tally)
}

/// The Table 1 and Table 2 clusters of the paper.
pub fn paper_tables() -> Vec<(String, ClusterSpec)> {
    vec![
        ("table1".into(), sna_core::scenarios::table1_spec()),
        ("table2".into(), sna_core::scenarios::table2_spec()),
    ]
}

/// The accuracy guard every flow workload ends with: the paper's two
/// tables through all four methods.
pub fn paper_check(threads: usize, m: &mut Metrics) -> Tally {
    let (out, _, tally) = compare_cases(&paper_tables(), threads);
    let ok: Vec<&MethodComparison> = out.iter().flatten().collect();
    accuracy_metrics(&ok, m);
    tally
}

/// Seeded FRAME constraints for the clusters at `windowed`: a switching
/// window around each aggressor's nominal switch time, a victim
/// sensitivity window, and a mutual-exclusion pair where a cluster has two
/// or more aggressors.
pub fn add_windows(
    design: &Design,
    windowed: &[usize],
    rng: &mut Rng,
) -> Vec<sna_flow::WindowEdit> {
    use sna_flow::WindowEdit;
    let mut edits = Vec::new();
    for cl in windowed.iter().map(|&i| &design.clusters[i]) {
        for (k, agg) in cl.spec.aggressors.iter().enumerate() {
            let lo = (agg.switch_time - rng.range(50.0, 250.0) * PS).max(0.0);
            let hi = agg.switch_time + rng.range(50.0, 250.0) * PS;
            edits.push(WindowEdit::AggressorWindow {
                net: cl.name.clone(),
                agg: k,
                window: SwitchingWindow::new(lo, hi),
            });
        }
        if cl.spec.aggressors.len() >= 2 {
            for agg in 0..2 {
                edits.push(WindowEdit::AggressorMexcl {
                    net: cl.name.clone(),
                    agg,
                    group: 1,
                });
            }
        }
        edits.push(WindowEdit::VictimSensitivity {
            net: cl.name.clone(),
            window: SwitchingWindow::new(rng.range(0.2, 0.5) * NS, rng.range(1.0, 1.6) * NS),
        });
    }
    edits
}
