//! K-lane batched sweeps must be a pure performance change.
//!
//! Two layers of guarantees, in decreasing strictness:
//!
//! 1. **Linear lanes ≤ 1e-9 vs serial** — a linear lane's batched solve
//!    shares the serial path's pattern and elimination order, so batched
//!    results track K independent serial solves far below the paper's
//!    noise-metric resolution (property-tested over random ladders).
//! 2. **Non-linear lanes ≤ 1e-6 vs serial** — Newton stops inside the
//!    same tolerance band (`vntol` = 1e-6) on both paths.

use proptest::prelude::*;
use sna_spice::dc::{dc_operating_point, NewtonOptions};
use sna_spice::devices::{MosPolarity, MosfetModel, SourceWaveform};
use sna_spice::netlist::{Circuit, NodeId};
use sna_spice::solver::SolverKind;
use sna_spice::sweep::BatchedSweep;
use sna_spice::tran::{transient, transient_adaptive, AdaptiveOptions, Integrator, TranParams};
use sna_spice::units::{NS, PS};

/// RC ladder with `n_nodes` chain nodes; per-lane `scale` stretches every
/// element value while leaving the topology untouched.
fn ladder(n_nodes: usize, scale: f64, v1: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.add_vsource(
        "Vin",
        prev,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0: 0.0,
            v1,
            t_start: 0.1 * NS,
            t_rise: 100.0 * PS,
        },
    );
    for i in 1..n_nodes {
        let next = ckt.node(&format!("n{i}"));
        ckt.add_resistor(&format!("R{i}"), prev, next, 50.0 * scale)
            .unwrap();
        ckt.add_capacitor(&format!("C{i}"), next, Circuit::gnd(), 2e-15 * scale)
            .unwrap();
        prev = next;
    }
    ckt
}

/// CMOS inverter under an input glitch; `peak_frac`/`cload` vary per lane.
fn inverter(peak_frac: f64, cload: f64) -> Circuit {
    let nmos = MosfetModel {
        polarity: MosPolarity::Nmos,
        vt0: 0.32,
        kp: 2.5e-4,
        lambda: 0.15,
        gamma: 0.4,
        phi: 0.7,
        cox: 0.012,
        cgso: 3e-10,
        cgdo: 3e-10,
        cj: 8e-10,
    };
    let pmos = MosfetModel {
        polarity: MosPolarity::Pmos,
        vt0: -0.34,
        kp: 1.0e-4,
        ..nmos
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("Vdd", vdd, Circuit::gnd(), SourceWaveform::Dc(1.2));
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::gnd(),
        SourceWaveform::TriangleGlitch {
            v_base: 1.2,
            v_peak: 1.2 - peak_frac * 1.2,
            t_start: 0.1 * NS,
            t_rise: 100.0 * PS,
            t_fall: 100.0 * PS,
        },
    );
    ckt.add_mosfet(
        "Mn",
        out,
        inp,
        Circuit::gnd(),
        Circuit::gnd(),
        nmos,
        0.42e-6,
        0.13e-6,
    )
    .unwrap();
    ckt.add_mosfet("Mp", out, inp, vdd, vdd, pmos, 0.64e-6, 0.13e-6)
        .unwrap();
    ckt.add_capacitor("Cl", out, Circuit::gnd(), cload).unwrap();
    ckt
}

fn probe(ckt: &Circuit, name: &str) -> NodeId {
    ckt.find_node(name).expect("probe node")
}

/// Serial references, one per lane, on the same solver selection.
fn serial_transients(
    circuits: &[Circuit],
    kind: SolverKind,
    params: &TranParams,
) -> Vec<sna_spice::tran::TranResult> {
    circuits
        .iter()
        .map(|c| {
            let mut p = *params;
            p.solver = kind;
            transient(c, &p).expect("serial transient")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched DC solutions match K independent serial solves to 1e-9 on
    /// random linear ladders, on both the dense and sparse states.
    #[test]
    fn prop_batched_dc_matches_serial(
        n_nodes in 3usize..14,
        scales in proptest::collection::vec(0.5f64..2.0, 3),
        v1 in 0.5f64..2.0,
    ) {
        let circuits: Vec<Circuit> = scales.iter().map(|&s| ladder(n_nodes, s, v1)).collect();
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let mut sweep = BatchedSweep::new(&circuits, kind).unwrap();
            let sols = sweep
                .dc_operating_points(&circuits, &NewtonOptions::default(), None)
                .unwrap();
            for (ckt, sol) in circuits.iter().zip(&sols) {
                let opts = NewtonOptions {
                    solver: kind,
                    ..Default::default()
                };
                let serial = dc_operating_point(ckt, &opts, None).unwrap();
                for (a, b) in sol.unknowns().iter().zip(serial.unknowns()) {
                    prop_assert!((a - b).abs() < 1e-9, "{kind:?}: {a} vs {b}");
                }
            }
        }
    }

    /// Batched fixed-step transients match K independent serial transients
    /// to 1e-9 on random linear ladders.
    #[test]
    fn prop_batched_transient_matches_serial(
        n_nodes in 3usize..10,
        scales in proptest::collection::vec(0.5f64..2.0, 3),
        trap in 0usize..2,
    ) {
        let circuits: Vec<Circuit> = scales.iter().map(|&s| ladder(n_nodes, s, 1.2)).collect();
        let mut params = TranParams::new(0.3 * NS, 3.0 * PS);
        params.method = if trap == 1usize { Integrator::Trapezoidal } else { Integrator::BackwardEuler };
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let mut sweep = BatchedSweep::new(&circuits, kind).unwrap();
            let results = sweep.transient(&circuits, &params).unwrap();
            let serial = serial_transients(&circuits, kind, &params);
            for ((ckt, batched), reference) in circuits.iter().zip(&results).zip(&serial) {
                let node = probe(ckt, &format!("n{}", n_nodes - 1));
                let diff = reference
                    .node_waveform(node)
                    .max_abs_difference(&batched.node_waveform(node));
                prop_assert!(diff < 1e-9, "{kind:?}: batched deviates by {diff:.3e}");
            }
        }
    }
}

/// Non-linear lanes (per-lane glitch height and load) match serial Newton
/// transients within the Newton tolerance band, for both integrators.
#[test]
fn nonlinear_inverter_batched_matches_serial() {
    let circuits: Vec<Circuit> = [(0.55, 8e-15), (0.7, 10e-15), (0.85, 14e-15), (1.0, 20e-15)]
        .iter()
        .map(|&(p, c)| inverter(p, c))
        .collect();
    for method in [Integrator::Trapezoidal, Integrator::BackwardEuler] {
        let mut params = TranParams::new(0.5 * NS, 2.0 * PS);
        params.method = method;
        let mut sweep = BatchedSweep::new(&circuits, SolverKind::Dense).expect("sweep");
        let results = sweep
            .transient(&circuits, &params)
            .expect("batched transient");
        let serial = serial_transients(&circuits, SolverKind::Dense, &params);
        for ((ckt, batched), reference) in circuits.iter().zip(&results).zip(&serial) {
            assert!(batched.newton_iterations > 0, "must exercise Newton");
            let out = probe(ckt, "out");
            let diff = reference
                .node_waveform(out)
                .max_abs_difference(&batched.node_waveform(out));
            assert!(
                diff < 1e-6,
                "{method:?}: batched deviates from serial by {diff:.3e}"
            );
        }
    }
}

/// Non-linear batched DC (masked Newton) matches the serial operating
/// point per lane.
#[test]
fn nonlinear_inverter_dc_matches_serial() {
    let circuits: Vec<Circuit> = [(0.55, 8e-15), (0.85, 14e-15)]
        .iter()
        .map(|&(p, c)| inverter(p, c))
        .collect();
    let mut sweep = BatchedSweep::new(&circuits, SolverKind::Dense).expect("sweep");
    let sols = sweep
        .dc_operating_points(&circuits, &NewtonOptions::default(), None)
        .expect("batched dc");
    for (ckt, sol) in circuits.iter().zip(&sols) {
        let serial = dc_operating_point(ckt, &NewtonOptions::default(), None).expect("serial dc");
        for (a, b) in sol.unknowns().iter().zip(serial.unknowns()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}

/// Adaptive lock-step control: with identical lanes the worst-lane error
/// equals every lane's error, so the batched step-size ladder reproduces
/// the serial one exactly and the sampled waveforms are comparable 1:1.
#[test]
fn adaptive_identical_lanes_match_serial_grid() {
    for (ckt, name) in [(ladder(8, 1.0, 1.2), "n7"), (inverter(0.8, 10e-15), "out")] {
        let circuits = vec![ckt.clone(), ckt.clone(), ckt.clone()];
        let mut opts = AdaptiveOptions::new(0.5 * NS);
        opts.solver = SolverKind::Dense;
        let mut sweep = BatchedSweep::new(&circuits, SolverKind::Dense).expect("sweep");
        let results = sweep
            .transient_adaptive(&circuits, &opts)
            .expect("batched adaptive");
        let reference = transient_adaptive(&ckt, &opts).expect("serial adaptive");
        assert_eq!(
            results[0].times().len(),
            reference.times().len(),
            "identical lanes must reproduce the serial step ladder"
        );
        let node = probe(&ckt, name);
        for lane in &results {
            let diff = reference
                .node_waveform(node)
                .max_abs_difference(&lane.node_waveform(node));
            assert!(diff < 1e-6, "adaptive lane deviates by {diff:.3e}");
        }
    }
}

/// Fingerprint guards: wrong lane count, changed element values, and
/// mismatched topologies are all rejected with a clear error.
#[test]
fn sweep_rejects_mismatched_lanes() {
    let a = ladder(6, 1.0, 1.2);
    let b = ladder(6, 1.5, 1.2);
    // Topology mismatch at construction.
    let short = ladder(5, 1.0, 1.2);
    let err = BatchedSweep::new(&[a.clone(), short], SolverKind::Dense)
        .err()
        .expect("topology mismatch must be rejected");
    assert!(err.to_string().contains("topology"), "got: {err}");
    // Lane-count mismatch on reuse.
    let mut sweep = BatchedSweep::new(&[a.clone(), b.clone()], SolverKind::Dense).unwrap();
    let err = sweep
        .dc_operating_points(std::slice::from_ref(&a), &NewtonOptions::default(), None)
        .unwrap_err();
    assert!(err.to_string().contains("lane count"), "got: {err}");
    // Element-value change on reuse (lanes swapped).
    let err = sweep
        .dc_operating_points(&[b, a], &NewtonOptions::default(), None)
        .unwrap_err();
    assert!(err.to_string().contains("element values"), "got: {err}");
}
