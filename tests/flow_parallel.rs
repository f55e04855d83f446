//! Integration tests of the parallel flow subsystem (`sna-flow`): the
//! determinism contract (an N-thread run is identical to a 1-thread run)
//! and cross-cluster reuse through the shared characterization cache.

use sna::prelude::*;

fn nrc_for(tech: &Technology) -> NoiseRejectionCurve {
    characterize_nrc(
        &Cell::inv(tech.clone(), 1.0),
        true,
        &[100e-12, 300e-12, 900e-12],
    )
    .expect("nrc")
}

#[test]
fn parallel_flow_is_deterministic_across_thread_counts() {
    let tech = Technology::cmos130();
    let design = Design::random(&tech, 24, 2005);
    let nrc = nrc_for(&tech);
    let run = |threads: usize| {
        run_sna_parallel(
            &design,
            &nrc,
            &FlowOptions {
                threads,
                ..Default::default()
            },
        )
        .expect("flow run")
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.report.findings.len(), 24);
    assert_eq!(one.report.findings.len(), four.report.findings.len());
    assert_eq!(one.report.skipped, four.report.skipped);
    for (a, b) in one.report.findings.iter().zip(&four.report.findings) {
        assert_eq!(a.name, b.name, "finding order must be design order");
        assert_eq!(a.verdict, b.verdict, "{}", a.name);
        // Bit-exact, not approximately equal: scheduling must not change
        // a single ulp of any margin or metric.
        assert_eq!(a.margin.to_bits(), b.margin.to_bits(), "{}", a.name);
        assert_eq!(
            a.receiver_metrics.peak.to_bits(),
            b.receiver_metrics.peak.to_bits(),
            "{}",
            a.name
        );
        assert_eq!(
            a.receiver_metrics.width.to_bits(),
            b.receiver_metrics.width.to_bits(),
            "{}",
            a.name
        );
    }
    // The serialized reports are byte-identical too (the property the CLI
    // exposes to `diff`).
    let summary = |flow: FlowReport| RunSummary {
        clusters: 24,
        seed: 2005,
        align_worst_case: false,
        margin_band: 0.1,
        corners: vec![CornerReport {
            tech: tech.name.clone(),
            flow,
        }],
    };
    assert_eq!(to_json(&summary(one)), to_json(&summary(four)));
}

#[test]
fn backends_produce_byte_identical_reports_at_any_thread_count() {
    // The K-lane batched kernels replay the same per-lane floating-point
    // operation sequence on every run, so the rendered report must be
    // byte-identical run to run — and that identity must survive parallel
    // scheduling.
    let tech = Technology::cmos130();
    let design = Design::random(&tech, 8, 2005);
    let nrc = nrc_for(&tech);
    let run = |threads: usize| {
        let flow = run_sna_parallel(
            &design,
            &nrc,
            &FlowOptions {
                threads,
                ..Default::default()
            },
        )
        .expect("flow run");
        to_json(&RunSummary {
            clusters: 8,
            seed: 2005,
            align_worst_case: false,
            margin_band: 0.1,
            corners: vec![CornerReport {
                tech: tech.name.clone(),
                flow,
            }],
        })
    };
    let reference = run(1);
    for threads in [1, 3] {
        assert_eq!(
            reference,
            run(threads),
            "report diverged at threads={threads}"
        );
    }
}

#[test]
fn shared_cache_sees_cross_cluster_hits() {
    let tech = Technology::cmos130();
    let design = Design::random(&tech, 12, 42);
    let nrc = nrc_for(&tech);
    let flow = run_sna_parallel(
        &design,
        &nrc,
        &FlowOptions {
            threads: 2,
            ..Default::default()
        },
    )
    .expect("flow run");
    // Each cluster asks the library for exactly three per-victim artifacts
    // (load curve, holding resistance, propagated-noise table), each
    // exactly once — so every recorded hit on those kinds is necessarily
    // *cross-cluster* reuse. (Thevenin fits and the NRC are cached too,
    // but their request counts vary per cluster, so the exact-count
    // accounting here sticks to the per-victim kinds.)
    let stats = flow.cache;
    let cached_kinds = [
        ArtifactKind::LoadCurve,
        ArtifactKind::HoldingR,
        ArtifactKind::PropTable,
    ];
    let cached_hits: usize = cached_kinds.iter().map(|&k| stats.kind(k).hits).sum();
    let cached_misses: usize = cached_kinds.iter().map(|&k| stats.kind(k).misses).sum();
    assert_eq!(cached_hits + cached_misses, 3 * design.clusters.len());
    assert!(
        cached_hits > 0,
        "a 12-cluster design over a discrete cell menu must reuse artifacts: {stats:?}"
    );
    assert!(
        cached_misses < 3 * design.clusters.len(),
        "some characterization must be amortized: {stats:?}"
    );
    // The derived totals stay consistent with the breakdown.
    assert_eq!(stats.hits, stats.by_kind.iter().map(|k| k.hits).sum());
    assert_eq!(stats.misses, stats.by_kind.iter().map(|k| k.misses).sum());
}
