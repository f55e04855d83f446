//! The two batch-flow workloads, `cold_flow` and `warm_align`, their
//! traced runs, and the small probe that measures the layers a workload's
//! own traced run does not reach.

use std::path::Path;
use std::time::{Duration, Instant};

use sna_cells::{CellType, Technology};
use sna_core::cluster::ClusterMacromodel;
use sna_core::library::{LibraryStats, NoiseModelLibrary};
use sna_core::sna::{Design, DesignCluster, NoiseReport, SnaOptions};
use sna_flow::output::{to_json, RunSummary};
use sna_flow::{
    apply_windows, load_library_cache, parallel_map_ordered, run_sna_parallel_with,
    save_library_cache, CornerReport, FlowOptions, FlowReport,
};
use sna_obs::CounterSnapshot;

use crate::kernel::{self, add_windows, receiver_nrc};
use crate::report::{median, peak_rss_mb, quantile, Metrics, Rng, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const COLD_CLUSTERS: usize = 64;
/// Clusters per (aggressors − 1) × 3 + victim type (INV, NAND2, NOR2).
const COLD_QUOTAS: [usize; 9] = [8, 7, 7, 7, 7, 7, 7, 7, 7];
/// Clusters per (aggressors − 1) × 2 + (0 glitching, 1 quiet).
const WARM_QUOTAS: [usize; 6] = [4, 4, 2, 2, 2, 2];
const WARM_SETUP_REPS: usize = 3;
const PROBE_SERVE_CLUSTERS: usize = 4;

fn tech() -> Technology {
    Technology::cmos130()
}

fn flow_opts(ctx: &Ctx, align: bool) -> FlowOptions {
    FlowOptions {
        sna: SnaOptions {
            align_worst_case: align,
            ..SnaOptions::default()
        },
        threads: ctx.threads,
        ..FlowOptions::default()
    }
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// Throughput and latency of repeated queries that took `walls` and
/// covered `clusters` clusters in all.
pub fn throughput(walls: &[Duration], clusters: usize, m: &mut Metrics) {
    let total: f64 = secs(walls).iter().sum();
    let ms: Vec<f64> = secs(walls).iter().map(|s| s * 1e3).collect();
    m.set("clusters_per_s", clusters as f64 / total, "1/s");
    m.set("queries_per_s", walls.len() as f64 / total, "1/s");
    m.set("latency_p50_ms", median(&ms), "ms");
    m.set("latency_p95_ms", quantile(&ms, 0.95), "ms");
}

/// Whether `budget` leaves room for another repetition of length `last`.
pub fn room_for_another(start: Instant, last: Duration, budget: Duration) -> bool {
    start.elapsed() + last / 2 < budget
}

fn summary(design_seed: u64, clusters: usize, opts: &FlowOptions, flow: FlowReport) -> RunSummary {
    RunSummary {
        clusters,
        seed: design_seed,
        align_worst_case: opts.sna.align_worst_case,
        margin_band: opts.sna.margin_band,
        corners: vec![CornerReport {
            tech: tech().name,
            flow,
        }],
    }
}

fn skipped_ops(report: &NoiseReport, tally: &mut Tally) {
    tally.ops(
        report.total() as u64,
        report.skipped.len() as u64,
        "clusters analyzed without being skipped",
    );
}

/// A first run on a 64-cluster design: fresh library, the receiver NRC
/// and the flow (the work of `run_corners_with`), and a cache file
/// written at the end.
pub fn cold_flow(ctx: &Ctx) -> Outcome {
    let opts = flow_opts(ctx, false);
    if ctx.trace {
        return traced_outcome(ctx, &cold_design(ctx.seed), &opts, None);
    }
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    // Each repetition is a first run on its own design (seed, seed + 1,
    // ...), so a run averages over several designs. Its set-up is the
    // design, validated, a fresh library holding only the receiver NRC
    // the flow signs off against, and no cache file at the path it will
    // write; the measured run is the flow and the cache save.
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut clusters = 0;
    let mut first: Option<(Design, String)> = None;
    let start = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        let design = cold_design(ctx.seed.wrapping_add(i));
        let valid = design.clusters.iter().all(|c| c.spec.validate().is_ok());
        let path = ctx.scratch(&format!("cold{i}.libcache"));
        let _ = std::fs::remove_file(&path);
        let lib = NoiseModelLibrary::new();
        let nrc = receiver_nrc(&design.tech, &opts, &lib);
        setups.push(t.elapsed());
        tally.check(
            valid && nrc.is_ok(),
            "design validates and NRC characterizes",
        );

        let t = Instant::now();
        let flow = nrc
            .ok()
            .and_then(|nrc| run_sna_parallel_with(&design, &nrc, &opts, &lib).ok());
        let saved = save_library_cache(&path, &lib);
        let wall = t.elapsed();
        walls.push(wall);
        tally.check(saved.is_ok(), "cold cache file written");
        match flow {
            Some(flow) => {
                skipped_ops(&flow.report, &mut tally);
                clusters += flow.report.findings.len();
                if first.is_none() {
                    let json = to_json(&summary(ctx.seed, COLD_CLUSTERS, &opts, flow));
                    first = Some((design, json));
                } else {
                    let _ = std::fs::remove_file(&path);
                }
            }
            None => tally.ops(COLD_CLUSTERS as u64, COLD_CLUSTERS as u64, "cold flow run"),
        }
        if !room_for_another(start, wall, ctx.budget()) {
            break;
        }
    }
    m.set("setup_s", median(&secs(&setups)), "s");
    throughput(&walls, clusters, &mut m);

    // Output check: a warm rerun of the first design from its saved cache
    // file renders the same report, byte for byte, with zero misses.
    let path = ctx.scratch("cold0.libcache");
    let same = first.is_some_and(|(design, cold_json)| {
        let (flow, _, _, stats, _) = flow_pass(&design, &opts, Some(&path));
        flow.is_some_and(|flow| {
            stats.misses == 0
                && to_json(&summary(ctx.seed, COLD_CLUSTERS, &opts, flow)) == cold_json
        })
    });
    tally.check(same, "warm rerun renders the cold JSON report");
    let _ = std::fs::remove_file(&path);
    tally.absorb(kernel::paper_check(ctx.threads, &mut m));
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome { tally, metrics: m }
}

/// Clusters of `Design::random(seed)`, taken in design order until
/// stratum `k` (as `stratum` classifies a cluster) holds `quotas[k]` of
/// them, then dealt round-robin over the strata; also returns each
/// cluster's rank within its stratum. Fixing the mix of the properties
/// that set a cluster's cost, and where in the design each cost sits
/// (which the pool's chunked schedule is sensitive to), keeps a run's work
/// the same from seed to seed, while geometry, cells and timing still come
/// from the seed.
fn stratified(
    seed: u64,
    quotas: &[usize],
    stratum: impl Fn(&DesignCluster) -> usize,
) -> (Design, Vec<usize>) {
    let total: usize = quotas.iter().sum();
    let mut pool_size = 4 * total;
    loop {
        let pool = Design::random(&tech(), pool_size, seed);
        let mut taken = vec![0; quotas.len()];
        let mut picked = Vec::new();
        for cl in pool.clusters {
            let k = stratum(&cl);
            if taken[k] < quotas[k] {
                picked.push(((taken[k], k), cl));
                taken[k] += 1;
            }
        }
        if taken == quotas {
            picked.sort_by_key(|(key, _)| *key);
            let ranks = picked.iter().map(|((rank, _), _)| *rank).collect();
            let design = Design {
                tech: pool.tech,
                clusters: picked.into_iter().map(|(_, cl)| cl).collect(),
            };
            return (design, ranks);
        }
        pool_size *= 2;
    }
}

/// The 64-cluster design of `cold_flow`: the nine (aggressor count,
/// victim cell type) strata in their expected proportions.
pub fn cold_design(seed: u64) -> Design {
    stratified(seed, &COLD_QUOTAS, |c| {
        let victim = match c.spec.victim.cell.cell_type {
            CellType::Inv => 0,
            CellType::Nand2 => 1,
            // `Design::random` draws only INV, NAND2 and NOR2 victims.
            _ => 2,
        };
        (c.spec.aggressors.len() - 1) * 3 + victim
    })
    .0
}

/// The 16-cluster design of `warm_align`: fixed counts per (aggressor
/// count, glitch or quiet) stratum, and seeded FRAME windows on half the
/// clusters of every stratum.
pub fn warm_design(seed: u64) -> Design {
    let (mut design, ranks) = stratified(seed, &WARM_QUOTAS, |c| {
        (c.spec.aggressors.len() - 1) * 2 + usize::from(c.spec.victim.glitch.is_none())
    });
    let windowed: Vec<usize> = (0..ranks.len()).filter(|&i| ranks[i] % 2 == 0).collect();
    let edits = add_windows(&design, &windowed, &mut Rng::new(seed));
    apply_windows(&mut design, &edits).expect("seeded windows are valid");
    design
}

/// Characterize every artifact `design` needs into a fresh library and
/// write it to `path`.
fn make_cache(design: &Design, opts: &FlowOptions, path: &Path) -> Tally {
    let mut tally = Tally::default();
    let lib = NoiseModelLibrary::new();
    tally.check(
        receiver_nrc(&design.tech, opts, &lib).is_ok(),
        "receiver NRC characterized",
    );
    let built = parallel_map_ordered(opts.threads, &design.clusters, |_, cl| {
        ClusterMacromodel::build_with_library(&cl.spec, &opts.mm, &lib).is_ok()
    });
    for ok in built {
        tally.check(ok, "cluster macromodel built");
    }
    tally.check(
        save_library_cache(path, &lib).is_ok(),
        "warm cache file written",
    );
    tally
}

/// Worst-case alignment with FRAME windows on a 16-cluster design whose
/// library comes from a cache file: no characterization, only the engine.
pub fn warm_align(ctx: &Ctx) -> Outcome {
    let opts = flow_opts(ctx, true);
    let path = ctx.scratch("warm.libcache");
    if ctx.trace {
        let design = warm_design(ctx.seed);
        let mut tally = make_cache(&design, &opts, &path);
        let mut out = traced_outcome(ctx, &design, &opts, Some(&path));
        tally.absorb(out.tally);
        out.tally = tally;
        let _ = std::fs::remove_file(&path);
        return out;
    }
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut design = None;
    for _ in 0..WARM_SETUP_REPS {
        let t = Instant::now();
        let d = warm_design(ctx.seed);
        let made = make_cache(&d, &opts, &path);
        setups.push(t.elapsed());
        tally.check(made.failed == 0, "warm cache made");
        design = Some(d);
    }
    let design = design.expect("at least one set-up");
    m.set("setup_s", median(&secs(&setups)), "s");

    let mut walls = Vec::new();
    let mut clusters = 0;
    let start = Instant::now();
    loop {
        let (flow, wall, _, stats, _) = flow_pass(&design, &opts, Some(&path));
        walls.push(wall);
        match flow {
            Some(flow) => {
                skipped_ops(&flow.report, &mut tally);
                clusters += flow.report.findings.len();
                // Output check: every lookup is a disk hit.
                tally.check(stats.misses == 0, "warm pass has zero library misses");
            }
            None => {
                let n = design.clusters.len() as u64;
                tally.ops(n, n, "warm flow pass");
            }
        }
        if !room_for_another(start, wall, ctx.budget()) {
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
    throughput(&walls, clusters, &mut m);
    tally.absorb(kernel::paper_check(ctx.threads, &mut m));
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome { tally, metrics: m }
}

/// One flow pass: a fresh library (loaded from `cache` if given), the
/// receiver NRC and the flow, timed, with counter deltas around it.
fn flow_pass(
    design: &Design,
    opts: &FlowOptions,
    cache: Option<&Path>,
) -> (
    Option<FlowReport>,
    Duration,
    CounterSnapshot,
    LibraryStats,
    NoiseModelLibrary,
) {
    let before = sna_obs::snapshot().counters;
    let lib = NoiseModelLibrary::new();
    let t = Instant::now();
    if let Some(p) = cache {
        load_library_cache(p, &lib);
    }
    let flow = receiver_nrc(&design.tech, opts, &lib)
        .ok()
        .and_then(|nrc| run_sna_parallel_with(design, &nrc, opts, &lib).ok());
    let wall = t.elapsed();
    let delta = sna_obs::snapshot().counters.since(&before);
    let stats = lib.stats();
    (flow, wall, delta, stats, lib)
}

/// The traced run of a flow workload: two untraced passes (counters,
/// counter spread, pool, cache and output layers) and one traced pass
/// (self time per layer), whose findings must match bit for bit.
pub fn flow_trace(
    ctx: &Ctx,
    design: &Design,
    opts: &FlowOptions,
    cache: Option<&Path>,
    m: &mut Metrics,
) -> Tally {
    let mut tally = Tally::default();
    let n = design.clusters.len();
    let (flow_a, wall_a, ctr_a, lib_a, lib) = flow_pass(design, opts, cache);
    let (flow_b, wall_b, ctr_b, lib_b, _) = flow_pass(design, opts, cache);
    let (Some(flow_a), Some(flow_b)) = (flow_a, flow_b) else {
        tally.ops(2 * n as u64, 2 * n as u64, "untraced flow passes");
        return tally;
    };
    skipped_ops(&flow_a.report, &mut tally);
    skipped_ops(&flow_b.report, &mut tally);
    kernel::counter_spread((&ctr_a, &lib_a), (&ctr_b, &lib_b), m);
    kernel::pool_metrics(&flow_a.pool, m);
    kernel::library_metrics(&lib_a, m);

    let saved = ctx.scratch("trace.libcache");
    let t = Instant::now();
    let bytes = save_library_cache(&saved, &lib);
    m.ms("flow.cache.save_ms", t.elapsed());
    tally.check(bytes.is_ok(), "library cache saved");
    m.set("flow.cache.bytes", bytes.unwrap_or(0) as f64, "bytes");
    let t = Instant::now();
    let load = load_library_cache(&saved, &NoiseModelLibrary::new());
    m.ms("flow.cache.load_ms", t.elapsed());
    tally.check(load.entries > 0, "saved library cache loads");
    let _ = std::fs::remove_file(&saved);

    let untraced_findings = flow_a.report.findings.clone();
    let t = Instant::now();
    let json = to_json(&summary(ctx.seed, n, opts, flow_a));
    m.ms("flow.output.render_ms", t.elapsed());
    std::hint::black_box(json);

    // Traced pass, on a library in the same state as the untraced ones.
    let tr = Tracer::new();
    let lib = NoiseModelLibrary::new();
    let t = Instant::now();
    if let Some(p) = cache {
        tr.span("flow.cache.load", || load_library_cache(p, &lib));
    }
    let (outs, _) = match tr.span("characterize.nrc", || {
        receiver_nrc(&design.tech, opts, &lib)
    }) {
        Ok(nrc) => kernel::traced_flow(&tr, design, &nrc, opts, &lib),
        Err(_) => (Vec::new(), Default::default()),
    };
    let traced_wall = t.elapsed();
    tally.absorb(kernel::kernel_metrics(&outs, &untraced_findings, m));
    kernel::span_metrics(&tr, m);
    let characterize_ms = ["characterize.load_curve_ms", "characterize.holding_r_ms"]
        .iter()
        .chain(&["characterize.prop_table_ms", "characterize.thevenin_ms"])
        .chain(&["characterize.nrc_ms"])
        .filter_map(|k| m.get(k).map(|v| v.0))
        .sum::<f64>();
    kernel::spice_metrics(&ctr_a, Some(characterize_ms), m);
    let untraced_wall = wall_a.min(wall_b);
    m.set(
        "trace_overhead_frac",
        1.0 - untraced_wall.as_secs_f64() / traced_wall.as_secs_f64(),
        "ratio",
    );
    let _ = tr.write(&ctx.spans_path());
    tally
}

/// A flow workload's traced run, with the probe filling in the layers it
/// does not exercise.
fn traced_outcome(ctx: &Ctx, design: &Design, opts: &FlowOptions, cache: Option<&Path>) -> Outcome {
    let mut m = Metrics::default();
    let mut tally = flow_trace(ctx, design, opts, cache, &mut m);
    tally.absorb(fill_with_probe(ctx, &mut m));
    Outcome { tally, metrics: m }
}

/// Measure, on small fixed inputs, every layer `m` has no value for yet:
/// a cold one-cluster aligned flow with windows, a one-cycle serve
/// session on four clusters, and the Table 1 comparison. Records how many
/// metrics it filled.
pub fn fill_with_probe(ctx: &Ctx, m: &mut Metrics) -> Tally {
    let mut probe = Metrics::default();
    let mut tally = Tally::default();
    // The first seed from the run's own whose designs have a cheap cluster
    // to align (one aggressor, no glitch) and a cluster for every serve
    // query kind.
    let (seed, design) = (0..)
        .map(|j| ctx.seed.wrapping_add(j))
        .find_map(|s| {
            let serve_ok = crate::serve::serve_ready(PROBE_SERVE_CLUSTERS, s);
            let pool = Design::random(&tech(), 16, s);
            let cheap = pool
                .clusters
                .into_iter()
                .find(|c| c.spec.aggressors.len() == 1 && c.spec.victim.glitch.is_none());
            let cheap = cheap.filter(|_| serve_ok)?;
            Some((
                s,
                Design {
                    tech: pool.tech,
                    clusters: vec![cheap],
                },
            ))
        })
        .expect("some seed qualifies");
    let probe_ctx = Ctx {
        workload: format!("{}-probe", ctx.workload),
        seed,
        ..ctx.clone()
    };
    let mut design = design;
    let edits = add_windows(&design, &[0], &mut Rng::new(seed));
    apply_windows(&mut design, &edits).expect("seeded windows are valid");
    // Where parts measure the same layer, the earlier part's value wins.
    let (mut serve, mut accuracy) = (Metrics::default(), Metrics::default());
    tally.absorb(flow_trace(
        &probe_ctx,
        &design,
        &flow_opts(ctx, true),
        None,
        &mut probe,
    ));
    tally.absorb(crate::serve::serve_trace(
        &probe_ctx,
        PROBE_SERVE_CLUSTERS,
        1,
        &mut serve,
    ));
    tally.absorb(crate::accuracy::accuracy_trace(
        &probe_ctx,
        &kernel::paper_tables()[..1],
        &mut accuracy,
    ));
    probe.fill_from(&serve);
    probe.fill_from(&accuracy);
    let filled = m.fill_from(&probe);
    m.count("trace.probe_filled", filled as u64);
    tally
}
