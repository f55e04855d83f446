//! `paper_accuracy`: the four-method comparison of the paper on its Table
//! 1 and Table 2 clusters plus a seeded, stratified subset of the §3
//! sweep — the only workload where the transistor-level golden runs.

use std::time::{Duration, Instant};

use sna_core::cluster::{ClusterMacromodel, ClusterSpec};
use sna_core::prelude::{
    simulate_golden, simulate_macromodel, simulate_superposition, simulate_zolotov, sweep_specs,
    MethodComparison, ZolotovOptions,
};
use sna_flow::parallel_map_ordered_metered;
use sna_spice::error::Result;
use sna_spice::waveform::GlitchMetrics;

use crate::kernel::{self, paper_tables};
use crate::report::{median, peak_rss_mb, Metrics, Rng, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const SETUP_REPS: usize = 3;

/// Table 1, Table 2, and a third of the 108-case sweep: in every
/// (technology, wire length, glitch) group, the three aggressor counts
/// take the three victim cells in a seeded order. Each run then covers
/// every victim cell equally often in every group — the error depends
/// most on those — while the seed decides which case carries which.
pub fn accuracy_cases(seed: u64) -> Vec<(String, ClusterSpec)> {
    let mut cases = paper_tables();
    // Ids read `tech/victim/lenL/aggN/glitch`.
    // (group, [(aggressor count, victim cell, spec)]), in sweep order.
    type Members = Vec<(String, String, ClusterSpec)>;
    let mut groups: Vec<(String, Members)> = Vec::new();
    for case in sweep_specs(false) {
        let f: Vec<&str> = case.id.split('/').collect();
        let group = format!("{}/{}/{}", f[0], f[2], f[4]);
        let (agg, victim) = (f[3].to_string(), f[1].to_string());
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, v)) => v.push((agg, victim, case.spec)),
            None => groups.push((group, vec![(agg, victim, case.spec)])),
        }
    }
    let mut rng = Rng::new(seed);
    for (group, members) in groups {
        let mut aggs: Vec<&String> = Vec::new();
        let mut victims: Vec<&String> = Vec::new();
        for (agg, victim, _) in &members {
            if !aggs.contains(&agg) {
                aggs.push(agg);
            }
            if !victims.contains(&victim) {
                victims.push(victim);
            }
        }
        rng.shuffle(&mut victims);
        for (agg, victim) in aggs.iter().zip(&victims) {
            let (_, _, spec) = members
                .iter()
                .find(|(a, v, _)| a == *agg && v == *victim)
                .expect("the sweep is a full grid");
            cases.push((format!("{group}/{agg}/{victim}"), spec.clone()));
        }
    }
    cases
}

/// Repeated passes over the cases; the accuracy metrics come from the
/// first (every pass computes the same numbers).
pub fn paper_accuracy(ctx: &Ctx) -> Outcome {
    let mut m = Metrics::default();
    if ctx.trace {
        let cases = accuracy_cases(ctx.seed);
        let mut tally = accuracy_trace(ctx, &cases, &mut m);
        tally.absorb(crate::flows::fill_with_probe(ctx, &mut m));
        return Outcome { tally, metrics: m };
    }
    // Set-up: the case list and a warm-up comparison of its first case
    // (Table 1), so code and allocator are warm before timing.
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cases = accuracy_cases(ctx.seed);
        let (_, _, warm_up) = kernel::compare_cases(&cases[..1], ctx.threads);
        setups.push(t.elapsed().as_secs_f64());
        tally.absorb(warm_up);
    }
    m.set("setup_s", median(&setups), "s");

    let mut walls: Vec<Duration> = Vec::new();
    let mut first: Option<Vec<Option<MethodComparison>>> = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let (out, _, pass) = kernel::compare_cases(&cases, ctx.threads);
        let wall = t.elapsed();
        walls.push(wall);
        tally.absorb(pass);
        first.get_or_insert(out);
        if !crate::flows::room_for_another(start, wall, ctx.budget()) {
            break;
        }
    }
    crate::flows::throughput(&walls, cases.len() * walls.len(), &mut m);
    let cmps: Vec<&MethodComparison> = first.iter().flatten().flatten().collect();
    kernel::accuracy_metrics(&cmps, &mut m);
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome { tally, metrics: m }
}

/// DP metrics of the four methods on one case, traced call by call.
fn traced_case(tr: &Tracer, parent: Option<u64>, spec: &ClusterSpec) -> Result<[GlitchMetrics; 4]> {
    tr.span_in(parent, "case", || {
        let model = tr.span("accuracy.build", || ClusterMacromodel::build(spec))?;
        let q = model.q_out;
        let gold = tr.span("golden.simulate", || simulate_golden(spec))?;
        let eng = tr.span("engine.simulate", || simulate_macromodel(&model))?;
        let sup = tr.span("superposition.simulate", || simulate_superposition(&model))?;
        let zol = tr.span("zolotov.simulate", || {
            simulate_zolotov(&model, &ZolotovOptions::default())
        })?;
        Ok([
            gold.dp_metrics(q),
            eng.dp_metrics(q),
            sup.dp_metrics(q),
            zol.dp_metrics(q),
        ])
    })
}

fn same_metrics(a: &GlitchMetrics, b: &GlitchMetrics) -> bool {
    a.peak.to_bits() == b.peak.to_bits() && a.area.to_bits() == b.area.to_bits()
}

/// The traced run: two untraced passes through `MethodComparison::run`
/// (counters and their spread, pool) and one traced pass whose metrics
/// must equal the untraced ones bit for bit.
pub fn accuracy_trace(ctx: &Ctx, cases: &[(String, ClusterSpec)], m: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let pass = || {
        let before = sna_obs::snapshot().counters;
        let t = Instant::now();
        let (out, pool, checks) = kernel::compare_cases(cases, ctx.threads);
        let wall = t.elapsed();
        (
            out,
            pool,
            checks,
            wall,
            sna_obs::snapshot().counters.since(&before),
        )
    };
    let (out_a, pool, checks_a, wall_a, ctr_a) = pass();
    let (_, _, checks_b, wall_b, ctr_b) = pass();
    tally.absorb(checks_a);
    tally.absorb(checks_b);
    let no_library = Default::default();
    kernel::counter_spread((&ctr_a, &no_library), (&ctr_b, &no_library), m);
    kernel::pool_metrics(&pool, m);

    let tr = Tracer::new();
    let t = Instant::now();
    let (traced, _) = tr.span("accuracy", || {
        let parent = tr.current();
        parallel_map_ordered_metered(ctx.threads, cases, |_, (_, spec)| {
            traced_case(&tr, parent, spec)
        })
    });
    let traced_wall = t.elapsed();
    let identical = out_a.len() == traced.len()
        && out_a.iter().zip(&traced).all(|(u, t)| match (u, t) {
            (Some(c), Ok(t)) => [&c.golden, &c.macromodel, &c.superposition, &c.zolotov]
                .iter()
                .zip(t)
                .all(|(row, tm)| same_metrics(&row.metrics, tm)),
            _ => false,
        });
    tally.check(identical, "traced accuracy metrics equal the untraced ones");
    m.count("trace.valid", u64::from(identical));
    let layers = tr.layers();
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e6);
    for (metric, span) in [
        ("golden.simulate_ms", "golden.simulate"),
        ("superposition.simulate_ms", "superposition.simulate"),
        ("zolotov.simulate_ms", "zolotov.simulate"),
        ("engine.simulate_ms", "engine.simulate"),
        ("accuracy.build_ms", "accuracy.build"),
    ] {
        m.set(metric, self_ms(span), "ms");
    }
    m.set(
        "accuracy.speedup_x",
        self_ms("golden.simulate") / self_ms("engine.simulate").max(1e-9),
        "x",
    );
    m.count(
        "engine.calls",
        layers.get("engine.simulate").map_or(0, |l| l.calls),
    );
    let spice_ms = self_ms("golden.simulate") + self_ms("accuracy.build");
    kernel::spice_metrics(&ctr_a, Some(spice_ms), m);
    let untraced = wall_a.min(wall_b);
    m.set(
        "trace_overhead_frac",
        1.0 - untraced.as_secs_f64() / traced_wall.as_secs_f64(),
        "ratio",
    );
    let _ = tr.write(&ctx.spans_path());
    tally
}
