//! Marginal cost of a K-lane batched corner sweep vs cold single solves.
//!
//! The batched sweep's value proposition is that after one symbolic
//! analysis + assembly, each additional corner (lane) only pays numeric
//! work on the shared pattern. This bench quantifies it on the paper's
//! coupled-bus circuit at ~200 MNA unknowns: K per-lane geometry corners
//! solved as one `BatchedSweep` DC analysis, against the cost of a cold
//! serial `dc_operating_point` (which re-assembles and re-analyzes per
//! corner).
//!
//! Three modes, mirroring `benches/solver.rs`:
//!
//! * default — criterion harness: batched DC sweeps per K.
//! * `--format json` — hand-timed medians as the `sna-bench-sweep-v1`
//!   document checked in as `BENCH_sweep.json`. The headline number is
//!   `marginal_vs_cold`: per-corner marginal cost `(T_K - T_1)/(K-1)`
//!   over the cold single-solve cost.
//! * `--test` — smoke run: structural and agreement assertions only
//!   (batched == serial to 1e-9); timing ratios are not asserted because
//!   single samples on shared CI runners are noise.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use sna_interconnect::prelude::*;
use sna_obs::{local_snapshot, Metric};
use sna_spice::dc::{dc_operating_point, NewtonOptions};
use sna_spice::netlist::Circuit;
use sna_spice::prelude::{SolverKind, SourceWaveform};
use sna_spice::sweep::BatchedSweep;
use sna_spice::units::{NS, PS, UM};

/// One geometry corner of the victim/aggressor bus: wire resistance and
/// capacitance scaled by `scale` (0.9…1.65 across a 16-lane sweep), same
/// topology in every lane.
fn bus_corner(segments: usize, scale: f64) -> Circuit {
    let w = WireGeom::new(500.0 * UM, scale * 0.2e6, scale * 40e-12);
    let bus = CoupledBus::parallel_pair(w, w, scale * 90e-12, segments);
    let mut ckt = Circuit::new();
    let nets = bus.instantiate(&mut ckt, "n").unwrap();
    ckt.add_vsource(
        "Vagg",
        nets[1].near,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0: 0.0,
            v1: 1.2,
            t_start: 0.1 * NS,
            t_rise: 100.0 * PS,
        },
    );
    ckt.add_resistor("Rhold", nets[0].near, Circuit::gnd(), 2e3)
        .unwrap();
    ckt
}

/// K geometry corners of the same bus topology.
fn corner_lanes(segments: usize, k: usize) -> Vec<Circuit> {
    (0..k)
        .map(|lane| bus_corner(segments, 0.9 + 0.05 * lane as f64))
        .collect()
}

fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

const SEGMENTS: usize = 100;

/// Discretization of the large case: 500 segments per wire puts the pair
/// at 1003 MNA unknowns, the large-system stress case.
const LARGE_SEGMENTS: usize = 500;

/// `sna-obs` counter deltas of one batched DC sweep — how much Newton and
/// serial-fallback work the timings above actually cover.
struct SweepCounters {
    sweep_calls: u64,
    lanes: u64,
    lane_newton_iterations: u64,
    serial_fallbacks: u64,
}

struct SweepCase {
    segments: usize,
    k: usize,
    unknowns: usize,
    cold_solve_ms: f64,
    batched_total_ms: f64,
    marginal_per_corner_ms: Option<f64>,
    marginal_vs_cold: Option<f64>,
    max_dev_vs_serial: f64,
    counters: SweepCounters,
}

/// Measure one K point at the given bus discretization: cold
/// serial per-corner cost, total batched sweep cost, and the
/// batched-vs-serial deviation. `segments = 100` gives the paper-scale
/// ~200-unknown case; `segments = 500` the 1003-unknown stress case.
fn run_case(segments: usize, k: usize, reps: usize, t1_ms: Option<f64>) -> SweepCase {
    let newton = NewtonOptions::default();
    let lanes = corner_lanes(segments, k);
    // Cold cost: assemble + analyze + solve one corner from scratch, the
    // way a per-corner loop without the sweep plane would.
    let cold_solve_ms = 1e3
        * median_secs(reps, || {
            std::hint::black_box(dc_operating_point(&lanes[0], &newton, None).unwrap());
        });
    let mut sweep = BatchedSweep::new(&lanes, SolverKind::Auto).unwrap();
    let unknowns = sweep.dim();
    sweep.dc_operating_points(&lanes, &newton, None).unwrap();
    let batched_total_ms = 1e3
        * median_secs(reps, || {
            std::hint::black_box(sweep.dc_operating_points(&lanes, &newton, None).unwrap());
        });
    let before = local_snapshot();
    let sols = sweep.dc_operating_points(&lanes, &newton, None).unwrap();
    let d = local_snapshot().since(&before);
    let counters = SweepCounters {
        sweep_calls: d.get(Metric::SweepCalls),
        lanes: d.get(Metric::SweepLanes),
        lane_newton_iterations: d.get(Metric::SweepLaneNewtonIterations),
        serial_fallbacks: d.get(Metric::SweepSerialFallbacks),
    };
    let mut max_dev = 0.0_f64;
    for (lane, sol) in sols.iter().enumerate() {
        let serial = dc_operating_point(&lanes[lane], &newton, None).unwrap();
        for (a, b) in sol.unknowns().iter().zip(serial.unknowns()) {
            max_dev = max_dev.max((a - b).abs());
        }
    }
    let (marginal_per_corner_ms, marginal_vs_cold) = match t1_ms {
        Some(t1) if k > 1 => {
            let marginal = (batched_total_ms - t1) / (k - 1) as f64;
            (Some(marginal), Some(marginal / cold_solve_ms.max(1e-12)))
        }
        _ => (None, None),
    };
    SweepCase {
        segments,
        k,
        unknowns,
        cold_solve_ms,
        batched_total_ms,
        marginal_per_corner_ms,
        marginal_vs_cold,
        max_dev_vs_serial: max_dev,
        counters,
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x:.4}"))
}

fn emit_json(cases: &[SweepCase]) {
    println!("{{");
    println!("  \"schema\": \"sna-bench-sweep-v1\",");
    println!(
        "  \"circuit\": \"coupled-bus victim/aggressor pair, 500um, {SEGMENTS} segments \
         (plus {LARGE_SEGMENTS}-segment 1003-unknown cases), per-lane geometry corners \
         0.9+0.05*lane, DC operating points\","
    );
    println!("  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        println!(
            "    {{\"segments\": {}, \"k\": {}, \"unknowns\": {}, \
             \"cold_solve_ms\": {:.4}, \"batched_total_ms\": {:.4}, \
             \"marginal_per_corner_ms\": {}, \"marginal_vs_cold\": {}, \
             \"max_dev_vs_serial\": {:.3e}, \
             \"counters\": {{\"sweep_calls\": {}, \"lanes\": {}, \
             \"lane_newton_iterations\": {}, \"serial_fallbacks\": {}}}}}{}",
            c.segments,
            c.k,
            c.unknowns,
            c.cold_solve_ms,
            c.batched_total_ms,
            fmt_opt(c.marginal_per_corner_ms),
            fmt_opt(c.marginal_vs_cold),
            c.max_dev_vs_serial,
            c.counters.sweep_calls,
            c.counters.lanes,
            c.counters.lane_newton_iterations,
            c.counters.serial_fallbacks,
            comma
        );
    }
    println!("  ]");
    println!("}}");
}

/// Smoke mode for CI: deterministic assertions only.
fn self_test() {
    let c = run_case(SEGMENTS, 4, 1, None);
    assert!(
        c.unknowns > 100,
        "bus fixture shrank to {} unknowns",
        c.unknowns
    );
    assert!(
        c.max_dev_vs_serial < 1e-9,
        "batched corners deviate {:.3e} from serial solves",
        c.max_dev_vs_serial
    );
    // Counter deltas cover exactly the one snapshotted sweep call.
    assert_eq!(c.counters.sweep_calls, 1);
    assert_eq!(c.counters.lanes, c.k as u64);
    println!(
        "sweep smoke: {} unknowns, K={}, dev {:.2e} — ok",
        c.unknowns, c.k, c.max_dev_vs_serial
    );
    println!("sweep bench self-test: OK");
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_dc");
    group.sample_size(10);
    let newton = NewtonOptions::default();
    {
        let lanes = corner_lanes(SEGMENTS, 1);
        group.bench_function("cold_serial", |b| {
            b.iter(|| dc_operating_point(&lanes[0], &newton, None).unwrap())
        });
    }
    for k in [1usize, 4, 16] {
        let lanes = corner_lanes(SEGMENTS, k);
        let mut sweep = BatchedSweep::new(&lanes, SolverKind::Auto).unwrap();
        group.bench_function(BenchmarkId::new("batched", k), |b| {
            b.iter(|| sweep.dc_operating_points(&lanes, &newton, None).unwrap())
        });
    }
    group.finish();
}

// Same dispatch pattern as benches/solver.rs: criterion by default, plus
// the `--test` / `--format json` modes.
criterion_group!(benches, bench_sweep);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        self_test();
        return;
    }
    let json = args
        .windows(2)
        .any(|w| w[0] == "--format" && w[1] == "json");
    if json {
        let mut cases = Vec::new();
        // The paper-scale bus, then the 1003-unknown stress case: same
        // topology at 500 segments per wire, K=4 and K=16 geometry corners.
        for (segments, t1_reps, reps) in [(SEGMENTS, 9, 7), (LARGE_SEGMENTS, 3, 3)] {
            let t1 = run_case(segments, 1, t1_reps, None);
            let t1_ms = t1.batched_total_ms;
            cases.push(t1);
            for k in [4usize, 16] {
                cases.push(run_case(segments, k, reps, Some(t1_ms)));
            }
        }
        emit_json(&cases);
        return;
    }
    benches();
}
