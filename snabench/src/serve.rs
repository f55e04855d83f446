//! `serve_edit`: one client in a closed loop against an in-process
//! `ServeState::handle_line` session, mixing library writes (Thevenin
//! refits), engine-only edits, FRAME edits and memo reads.

use std::path::Path;
use std::time::{Duration, Instant};

use sna_cells::{Cell, Technology};
use sna_core::library::{LibraryStats, NoiseModelLibrary};
use sna_core::sna::Design;
use sna_flow::cli::{CliConfig, LogLevel};
use sna_flow::{load_library_cache, save_library_cache, ServeState};
use sna_obs::CounterSnapshot;
use sna_spice::units::{NS, PS};

use crate::report::{median, peak_rss_mb, quantile, Metrics, Rng, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const CLUSTERS: usize = 64;

/// What a query does, which is also the name of its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// An edit command (the work happens in the analyze after it).
    Edit,
    /// Analyze after an aggressor slew or receiver-cap edit: a refit.
    Refit,
    /// Analyze after a victim glitch edit: the engine only.
    Engine,
    /// Analyze after an aggressor switch-time edit.
    Switch,
    /// Analyze after a switching-window or sensitivity edit.
    Frame,
    /// Analyze with nothing changed: memo reads only.
    AnalyzeAll,
    Stats,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Edit => "serve.edit",
            Kind::Refit => "serve.refit",
            Kind::Engine => "serve.engine",
            Kind::Switch => "serve.switch",
            Kind::Frame => "serve.frame",
            Kind::AnalyzeAll => "serve.analyze_all",
            Kind::Stats => "serve.stats",
        }
    }
}

struct Query {
    kind: Kind,
    line: String,
    /// For analyze queries: how many clusters must be re-analyzed.
    analyzed: Option<usize>,
}

impl Query {
    fn holds(&self, response: &str) -> bool {
        response.starts_with("{\"ok\": true")
            && self
                .analyzed
                .is_none_or(|n| response.contains(&format!("\"analyzed\": {n},")))
    }
}

/// The seeded query mix. Every edit goes to a one-aggressor cluster, so
/// each query kind has one cost (a refit is one Thevenin fit, a
/// switch-time edit moves no neighbour's Miller factor) and the mix, not
/// the luck of the draw, sets the latencies. FRAME edits go to the first
/// third of those clusters, which set-up constrains; the rest take every
/// other kind.
struct QueryGen {
    rng: Rng,
    design: Design,
    frame: Vec<usize>,
    single: Vec<usize>,
    single_glitching: Vec<usize>,
    caps: (f64, f64),
}

impl QueryGen {
    /// `None` when the design lacks the one-aggressor clusters the mix
    /// needs: one to constrain, and one with a glitch besides.
    fn new(tech: &Technology, clusters: usize, seed: u64) -> Option<Self> {
        let design = Design::random(tech, clusters, seed);
        let mut single: Vec<usize> = (0..clusters)
            .filter(|&i| design.clusters[i].spec.aggressors.len() == 1)
            .collect();
        let frame: Vec<usize> = single.drain(..single.len().div_ceil(3)).collect();
        let single_glitching: Vec<usize> = single
            .iter()
            .copied()
            .filter(|&i| design.clusters[i].spec.victim.glitch.is_some())
            .collect();
        if frame.is_empty() || single_glitching.is_empty() {
            return None;
        }
        Some(QueryGen {
            rng: Rng::new(seed),
            design,
            frame,
            single,
            single_glitching,
            caps: (
                Cell::inv(tech.clone(), 1.0).input_capacitance(),
                Cell::inv(tech.clone(), 2.0).input_capacitance(),
            ),
        })
    }

    fn edit(&mut self, kind: Kind) -> String {
        let vdd = self.design.tech.vdd;
        let from = match kind {
            Kind::Frame => &self.frame,
            Kind::Engine => &self.single_glitching,
            _ => &self.single,
        };
        let c = from[self.rng.index(from.len())];
        let cl = &self.design.clusters[c];
        let name = cl.name.clone();
        let k = self.rng.index(cl.spec.aggressors.len());
        let nominal = cl.spec.aggressors[k].switch_time;
        let coin = self.rng.next_u64() & 1 == 0;
        let field = match kind {
            Kind::Refit if coin => {
                format!(
                    "\"aggressor\": {k}, \"input_slew\": {:e}",
                    self.rng.range(40.0, 150.0) * PS
                )
            }
            Kind::Refit => format!(
                "\"aggressor\": {k}, \"receiver_cap\": {:e}",
                self.rng.range(self.caps.0, self.caps.1)
            ),
            Kind::Engine if coin => {
                format!("\"glitch_height\": {:e}", vdd * self.rng.range(0.4, 0.9))
            }
            Kind::Engine => format!("\"glitch_width\": {:e}", self.rng.range(200.0, 900.0) * PS),
            Kind::Switch => {
                format!(
                    "\"aggressor\": {k}, \"switch_time\": {:e}",
                    self.rng.range(0.3, 0.7) * NS
                )
            }
            Kind::Frame if coin => format!(
                "\"aggressor\": {k}, \"window\": [{:e}, {:e}]",
                (nominal - self.rng.range(50.0, 250.0) * PS).max(0.0),
                nominal + self.rng.range(50.0, 250.0) * PS
            ),
            _ => format!(
                "\"sensitivity\": [{:e}, {:e}]",
                self.rng.range(0.2, 0.5) * NS,
                self.rng.range(1.0, 1.6) * NS
            ),
        };
        format!("{{\"cmd\": \"edit\", \"cluster\": \"{name}\", {field}}}")
    }

    /// Edits that put a switching window on the aggressor of each FRAME
    /// cluster, plus a victim sensitivity window, so a FRAME edit in the
    /// loop always re-enumerates the same candidate space.
    fn constraints(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        for c in self.frame.clone() {
            let cl = &self.design.clusters[c];
            let (name, nominal): (String, Vec<f64>) = (
                cl.name.clone(),
                cl.spec.aggressors.iter().map(|a| a.switch_time).collect(),
            );
            for (k, t) in nominal.into_iter().enumerate() {
                let (lo, hi) = (
                    (t - self.rng.range(50.0, 250.0) * PS).max(0.0),
                    t + self.rng.range(50.0, 250.0) * PS,
                );
                lines.push(format!(
                    "{{\"cmd\": \"edit\", \"cluster\": \"{name}\", \"aggressor\": {k}, \"window\": [{lo:e}, {hi:e}]}}"
                ));
            }
            let (lo, hi) = (self.rng.range(0.2, 0.5) * NS, self.rng.range(1.0, 1.6) * NS);
            lines.push(format!(
                "{{\"cmd\": \"edit\", \"cluster\": \"{name}\", \"sensitivity\": [{lo:e}, {hi:e}]}}"
            ));
        }
        lines
    }

    /// Twenty queries: five edits each followed by an analyze, eight
    /// no-op analyzes and two stats, as transactions in seeded order.
    fn cycle(&mut self) -> Vec<Query> {
        let analyze = |kind, n| Query {
            kind,
            line: "{\"cmd\": \"analyze\"}".into(),
            analyzed: Some(n),
        };
        let mut tx: Vec<Vec<Query>> = Vec::new();
        for kind in [
            Kind::Refit,
            Kind::Refit,
            Kind::Engine,
            Kind::Switch,
            Kind::Frame,
        ] {
            let edit = Query {
                kind: Kind::Edit,
                line: self.edit(kind),
                analyzed: None,
            };
            tx.push(vec![edit, analyze(kind, 1)]);
        }
        tx.extend((0..8).map(|_| vec![analyze(Kind::AnalyzeAll, 0)]));
        tx.extend((0..2).map(|_| {
            vec![Query {
                kind: Kind::Stats,
                line: "{\"cmd\": \"stats\"}".into(),
                analyzed: None,
            }]
        }));
        self.rng.shuffle(&mut tx);
        tx.into_iter().flatten().collect()
    }
}

/// Whether the `clusters`-cluster design of `seed` has a cluster for
/// every query kind.
pub fn serve_ready(clusters: usize, seed: u64) -> bool {
    QueryGen::new(&Technology::cmos130(), clusters, seed).is_some()
}

fn session(ctx: &Ctx, clusters: usize, cache: Option<&Path>) -> Option<ServeState> {
    let cfg = CliConfig {
        clusters,
        seed: ctx.seed,
        threads: ctx.threads,
        log_level: LogLevel::Quiet,
        library_cache: cache.map(|p| p.display().to_string()),
        serve: true,
        ..CliConfig::default()
    };
    ServeState::new(&cfg).ok()
}

/// Build a session, apply the `setup` edits, and prime it: every cluster
/// analyzed once.
fn primed(
    ctx: &Ctx,
    clusters: usize,
    cache: Option<&Path>,
    setup: &[String],
) -> Option<ServeState> {
    let mut st = session(ctx, clusters, cache)?;
    for line in setup {
        if !st.handle_line(line).starts_with("{\"ok\": true") {
            return None;
        }
    }
    let r = st.handle_line("{\"cmd\": \"analyze\"}");
    r.contains(&format!("\"analyzed\": {clusters},"))
        .then_some(st)
}

/// Counter deltas of one query loop.
struct LoopStats {
    wall: Duration,
    counters: CounterSnapshot,
    library: LibraryStats,
    reanalyzed: u64,
    memo_hits: u64,
}

/// Run `f` on the session with counter snapshots around it.
fn measured<R>(st: &mut ServeState, f: impl FnOnce(&mut ServeState) -> R) -> (R, LoopStats) {
    let before = (
        sna_obs::snapshot().counters,
        st.library().stats(),
        st.counters(),
    );
    let t = Instant::now();
    let out = f(st);
    let wall = t.elapsed();
    let after = st.counters();
    let stats = LoopStats {
        wall,
        counters: sna_obs::snapshot().counters.since(&before.0),
        library: LibraryStats::delta(&st.library().stats(), &before.1),
        reanalyzed: after.1 - before.2 .1,
        memo_hits: after.2 - before.2 .2,
    };
    (out, stats)
}

pub fn serve_edit(ctx: &Ctx) -> Outcome {
    let mut m = Metrics::default();
    if ctx.trace {
        let mut tally = serve_trace(ctx, CLUSTERS, usize::MAX, &mut m);
        tally.absorb(crate::flows::fill_with_probe(ctx, &mut m));
        return Outcome { tally, metrics: m };
    }
    let mut tally = Tally::default();
    // Set-up: session construction (receiver NRC), the FRAME constraints,
    // and the priming analyze, a cold 64-cluster flow. It is measured
    // once: repeating it would cost a full cold run each time.
    let t = Instant::now();
    let Some(mut gen) = QueryGen::new(&Technology::cmos130(), CLUSTERS, ctx.seed) else {
        tally.check(false, "design has clusters for every query kind");
        return Outcome { tally, metrics: m };
    };
    let Some(mut st) = primed(ctx, CLUSTERS, None, &gen.constraints()) else {
        tally.check(false, "serve session built and primed");
        return Outcome { tally, metrics: m };
    };
    m.set("setup_s", t.elapsed().as_secs_f64(), "s");

    let mut latencies = Vec::new();
    let start = Instant::now();
    let before = st.counters();
    while start.elapsed() < ctx.budget() {
        for q in gen.cycle() {
            let t = Instant::now();
            let r = st.handle_line(&q.line);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            tally.check(q.holds(&r), &q.line);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let reanalyzed = st.counters().1 - before.1;
    m.set("queries_per_s", latencies.len() as f64 / wall, "1/s");
    m.set("clusters_per_s", reanalyzed as f64 / wall, "1/s");
    m.set("latency_p50_ms", median(&latencies), "ms");
    m.set("latency_p95_ms", quantile(&latencies, 0.95), "ms");
    tally.absorb(crate::kernel::paper_check(ctx.threads, &mut m));
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome { tally, metrics: m }
}

/// The traced run of a serve session on `clusters` clusters. Session A
/// runs the seeded queries untraced, for half the time budget or
/// `max_cycles` cycles; session B, warmed from A's cache file as it stood
/// after priming, runs the same queries with a span around each
/// `handle_line`. Every response must match A's.
pub fn serve_trace(ctx: &Ctx, clusters: usize, max_cycles: usize, m: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let path = ctx.scratch("serve.libcache");
    let Some(mut gen) = QueryGen::new(&Technology::cmos130(), clusters, ctx.seed) else {
        tally.check(false, "design has clusters for every query kind");
        return tally;
    };
    let setup = gen.constraints();
    let Some(mut a) = primed(ctx, clusters, None, &setup) else {
        tally.check(false, "serve session built and primed");
        return tally;
    };
    let t = Instant::now();
    let bytes = save_library_cache(&path, a.library());
    m.ms("flow.cache.save_ms", t.elapsed());
    tally.check(bytes.is_ok(), "serve library cache saved");
    m.set("flow.cache.bytes", bytes.unwrap_or(0) as f64, "bytes");
    let t = Instant::now();
    load_library_cache(&path, &NoiseModelLibrary::new());
    m.ms("flow.cache.load_ms", t.elapsed());
    let Some(mut b) = primed(ctx, clusters, Some(&path), &setup) else {
        tally.check(false, "serve session built and primed");
        return tally;
    };
    let _ = std::fs::remove_file(&path);

    let start = Instant::now();
    let ((queries, responses_a), loop_a) = measured(&mut a, |a| {
        let (mut queries, mut responses) = (Vec::new(), Vec::new());
        for _ in 0..max_cycles {
            let cycle = gen.cycle();
            responses.extend(cycle.iter().map(|q| a.handle_line(&q.line)));
            queries.extend(cycle);
            if start.elapsed() * 2 >= ctx.budget() {
                break;
            }
        }
        (queries, responses)
    });
    for (q, r) in queries.iter().zip(&responses_a) {
        tally.check(q.holds(r), &q.line);
    }

    let tr = Tracer::new();
    let (responses_b, loop_b) = measured(&mut b, |b| {
        queries
            .iter()
            .map(|q| tr.span(q.kind.span(), || b.handle_line(&q.line)))
            .collect::<Vec<_>>()
    });
    // Stats responses carry cache provenance (A characterized what B
    // loaded from disk), so only the analysis responses must match.
    let identical = responses_b.len() == queries.len()
        && queries
            .iter()
            .zip(responses_a.iter().zip(&responses_b))
            .all(|(q, (ra, rb))| q.kind == Kind::Stats || ra == rb);
    tally.check(identical, "traced serve responses equal the untraced ones");
    m.count("trace.valid", u64::from(identical));
    m.set(
        "trace_overhead_frac",
        1.0 - loop_a.wall.as_secs_f64() / loop_b.wall.as_secs_f64(),
        "ratio",
    );

    let spans = tr.spans();
    for kind in [
        Kind::Refit,
        Kind::Engine,
        Kind::Switch,
        Kind::Frame,
        Kind::AnalyzeAll,
    ] {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == kind.span())
            .map(|s| s.nanos() as f64 / 1e6)
            .collect();
        let metric = format!("flow.{}_p50_ms", kind.span());
        if !ms.is_empty() {
            m.set(metric, median(&ms), "ms");
        }
    }
    m.count("flow.serve.reanalyzed", loop_a.reanalyzed);
    m.set(
        "flow.serve.memo_hit_ratio",
        loop_a.memo_hits as f64 / (loop_a.memo_hits + loop_a.reanalyzed).max(1) as f64,
        "ratio",
    );
    crate::kernel::library_metrics(&loop_a.library, m);
    crate::kernel::spice_metrics(&loop_a.counters, None, m);
    crate::kernel::counter_spread(
        (&loop_a.counters, &loop_a.library),
        (&loop_b.counters, &loop_b.library),
        m,
    );
    let _ = tr.write(&ctx.spans_path());
    tally
}
