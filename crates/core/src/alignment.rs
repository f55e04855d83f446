//! Worst-case aggressor / glitch alignment search.
//!
//! "Our approach can be straightforwardly extended to clusters with several
//! aggressors with different switching directions and phase alignments."
//! (§2.) Superposition-based flows *assume* the worst case is all peaks
//! aligned; with a non-linear victim that is no longer exact, so this
//! module searches the timing space directly, using the fast macromodel
//! engine as the evaluator — the search is only affordable *because* the
//! engine is orders of magnitude faster than transistor-level simulation.

use sna_spice::backend::BackendKind;
use sna_spice::dc::NewtonOptions;
use sna_spice::error::Result;
use sna_spice::waveform::GlitchMetrics;

use crate::cluster::ClusterMacromodel;
use crate::engine::{simulate_macromodel, simulate_macromodel_timings, TimingLane};

/// Outcome of the worst-case search.
#[derive(Debug, Clone)]
pub struct AlignmentResult {
    /// Optimized aggressor input-onset times (s).
    pub switch_times: Vec<f64>,
    /// Optimized glitch peak time (s), if the cluster has a glitch.
    pub glitch_peak_time: Option<f64>,
    /// Victim DP glitch metrics at the worst case found.
    pub dp_metrics: GlitchMetrics,
    /// Number of engine evaluations spent.
    pub evaluations: usize,
}

/// Maximize the victim DP glitch peak over aggressor switch times and the
/// input-glitch peak time, by cyclic coordinate descent (one grid pass plus
/// golden-section refinement per coordinate, two sweeps).
///
/// `window` is the half-width (s) of the timing interval searched around
/// each event's nominal time.
///
/// # Errors
///
/// Propagates engine failures.
pub fn worst_case_alignment(model: &ClusterMacromodel, window: f64) -> Result<AlignmentResult> {
    let n_agg = model.spec.aggressors.len();
    let mut switch_times: Vec<f64> = model
        .spec
        .aggressors
        .iter()
        .map(|a| a.switch_time)
        .collect();
    let mut glitch_peak = model.spec.victim.glitch.map(|g| g.t_peak);
    let mut evaluations = 0usize;
    let eval = |st: &[f64], gp: Option<f64>, evals: &mut usize| -> Result<GlitchMetrics> {
        *evals += 1;
        let m = model.with_timing(st, gp);
        Ok(simulate_macromodel(&m)?.dp_metrics(model.q_out))
    };
    let mut best = eval(&switch_times, glitch_peak, &mut evaluations)?;
    // Coordinates: aggressors 0..n_agg, then (optionally) the glitch.
    let n_coords = n_agg + usize::from(glitch_peak.is_some());
    for _sweep in 0..2 {
        for coord in 0..n_coords {
            let nominal = if coord < n_agg {
                switch_times[coord]
            } else {
                glitch_peak.expect("glitch coordinate exists")
            };
            let probe = |t: f64, evals: &mut usize| -> Result<f64> {
                let t = t.max(0.0);
                let (st, gp) = if coord < n_agg {
                    let mut st = switch_times.clone();
                    st[coord] = t;
                    (st, glitch_peak)
                } else {
                    (switch_times.clone(), Some(t))
                };
                Ok(eval(&st, gp, evals)?.peak)
            };
            // Coarse grid.
            let grid = 7;
            let mut best_t = nominal;
            let mut best_peak = best.peak;
            for i in 0..grid {
                let t = nominal - window + 2.0 * window * i as f64 / (grid - 1) as f64;
                let peak = probe(t, &mut evaluations)?;
                if peak > best_peak {
                    best_peak = peak;
                    best_t = t;
                }
            }
            // Golden-section refinement around the best grid point.
            let phi = 0.618_033_988_749_895;
            let step = 2.0 * window / (grid - 1) as f64;
            let (mut lo, mut hi) = (best_t - step, best_t + step);
            let mut x1 = hi - phi * (hi - lo);
            let mut x2 = lo + phi * (hi - lo);
            let mut f1 = probe(x1, &mut evaluations)?;
            let mut f2 = probe(x2, &mut evaluations)?;
            for _ in 0..8 {
                if f1 > f2 {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - phi * (hi - lo);
                    f1 = probe(x1, &mut evaluations)?;
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + phi * (hi - lo);
                    f2 = probe(x2, &mut evaluations)?;
                }
            }
            let t_opt = if f1 > f2 { x1 } else { x2 };
            let peak_opt = f1.max(f2);
            if peak_opt > best_peak {
                best_peak = peak_opt;
                best_t = t_opt;
            }
            if coord < n_agg {
                switch_times[coord] = best_t.max(0.0);
            } else {
                glitch_peak = Some(best_t.max(0.0));
            }
            best = eval(&switch_times, glitch_peak, &mut evaluations)?;
            let _ = best_peak;
        }
    }
    Ok(AlignmentResult {
        switch_times,
        glitch_peak_time: glitch_peak,
        dp_metrics: best,
        evaluations,
    })
}

/// [`worst_case_alignment`] with every coarse-grid pass evaluated as one
/// K-wide call through the batched engine
/// ([`simulate_macromodel_timings`]) instead of seven serial
/// `simulate_macromodel` calls. The golden-section refinement is
/// inherently sequential (each probe depends on the previous
/// comparison), so those probes run as single-lane batched calls —
/// keeping the whole search on one arithmetic path.
///
/// `_backend` selects nothing; the parameter is kept only for source
/// compatibility with the benchmark harness.
///
/// The probe *sequence* (and therefore `evaluations`) is identical to
/// the serial search; only the LU arithmetic differs (batched plane vs
/// serial factors), which can move the found optimum by an ulp — nothing
/// in the flow pins serial-vs-batched equality.
///
/// # Errors
///
/// Propagates engine failures.
pub fn worst_case_alignment_batched(
    model: &ClusterMacromodel,
    window: f64,
    _backend: BackendKind,
) -> Result<AlignmentResult> {
    let n_agg = model.spec.aggressors.len();
    let newton = NewtonOptions::default();
    let mut switch_times: Vec<f64> = model
        .spec
        .aggressors
        .iter()
        .map(|a| a.switch_time)
        .collect();
    let mut glitch_peak = model.spec.victim.glitch.map(|g| g.t_peak);
    let mut evaluations = 0usize;
    // Evaluate a batch of timing assignments, returning DP metrics per lane.
    let eval_batch = |lanes: &[TimingLane], evals: &mut usize| -> Result<Vec<GlitchMetrics>> {
        *evals += lanes.len();
        let waves = simulate_macromodel_timings(model, lanes, &newton)?;
        Ok(waves
            .iter()
            .map(|w| w.dp.glitch_metrics(model.q_out))
            .collect())
    };
    let lane_for = |st: &[f64], gp: Option<f64>| TimingLane {
        switch_times: st.to_vec(),
        glitch_peak: gp,
    };
    let mut best = eval_batch(&[lane_for(&switch_times, glitch_peak)], &mut evaluations)?
        .pop()
        .expect("one lane in, one out");
    let n_coords = n_agg + usize::from(glitch_peak.is_some());
    for _sweep in 0..2 {
        for coord in 0..n_coords {
            let nominal = if coord < n_agg {
                switch_times[coord]
            } else {
                glitch_peak.expect("glitch coordinate exists")
            };
            let assignment = |t: f64| -> TimingLane {
                let t = t.max(0.0);
                if coord < n_agg {
                    let mut st = switch_times.clone();
                    st[coord] = t;
                    lane_for(&st, glitch_peak)
                } else {
                    lane_for(&switch_times, Some(t))
                }
            };
            let probe = |t: f64, evals: &mut usize| -> Result<f64> {
                Ok(eval_batch(&[assignment(t)], evals)?
                    .pop()
                    .expect("one lane in, one out")
                    .peak)
            };
            // Coarse grid — the batched pass: K = grid lanes in one call.
            let grid = 7;
            let ts: Vec<f64> = (0..grid)
                .map(|i| nominal - window + 2.0 * window * i as f64 / (grid - 1) as f64)
                .collect();
            let lanes: Vec<TimingLane> = ts.iter().map(|&t| assignment(t)).collect();
            let metrics = eval_batch(&lanes, &mut evaluations)?;
            let mut best_t = nominal;
            let mut best_peak = best.peak;
            for (&t, m) in ts.iter().zip(&metrics) {
                if m.peak > best_peak {
                    best_peak = m.peak;
                    best_t = t;
                }
            }
            // Golden-section refinement around the best grid point.
            let phi = 0.618_033_988_749_895;
            let step = 2.0 * window / (grid - 1) as f64;
            let (mut lo, mut hi) = (best_t - step, best_t + step);
            let mut x1 = hi - phi * (hi - lo);
            let mut x2 = lo + phi * (hi - lo);
            let mut f1 = probe(x1, &mut evaluations)?;
            let mut f2 = probe(x2, &mut evaluations)?;
            for _ in 0..8 {
                if f1 > f2 {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - phi * (hi - lo);
                    f1 = probe(x1, &mut evaluations)?;
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + phi * (hi - lo);
                    f2 = probe(x2, &mut evaluations)?;
                }
            }
            let t_opt = if f1 > f2 { x1 } else { x2 };
            let peak_opt = f1.max(f2);
            if peak_opt > best_peak {
                best_t = t_opt;
            }
            if coord < n_agg {
                switch_times[coord] = best_t.max(0.0);
            } else {
                glitch_peak = Some(best_t.max(0.0));
            }
            best = eval_batch(&[lane_for(&switch_times, glitch_peak)], &mut evaluations)?
                .pop()
                .expect("one lane in, one out");
        }
    }
    Ok(AlignmentResult {
        switch_times,
        glitch_peak_time: glitch_peak,
        dp_metrics: best,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterMacromodel;
    use crate::scenarios::table1_spec;
    use sna_spice::units::{NS, PS};

    #[test]
    fn alignment_improves_a_misaligned_cluster() {
        // Start with the glitch displaced from the injected peak by an
        // amount the search window can bridge (the window models the
        // realistic timing uncertainty of the events).
        let mut spec = table1_spec();
        if let Some(g) = &mut spec.victim.glitch {
            g.t_peak = 1.3 * NS;
        }
        let model = ClusterMacromodel::build(&spec).unwrap();
        let nominal = simulate_macromodel(&model).unwrap().dp_metrics(model.q_out);
        let res = worst_case_alignment(&model, 700.0 * PS).unwrap();
        assert!(
            res.dp_metrics.peak > nominal.peak * 1.1,
            "search failed to improve: nominal={}, found={}",
            nominal.peak,
            res.dp_metrics.peak
        );
        assert!(res.evaluations > 10);
        // The worst case brings the two events together — either the glitch
        // moved earlier or the aggressor moved later (both are valid).
        let gp = res.glitch_peak_time.unwrap();
        let st = res.switch_times[0];
        let gap_before = 1.3 * NS - spec.aggressors[0].switch_time;
        let gap_after = gp - st;
        assert!(
            gap_after < 0.75 * gap_before,
            "events did not converge: glitch at {gp:e}, aggressor at {st:e}"
        );
    }

    #[test]
    fn batched_search_mirrors_serial_probe_sequence() {
        let mut spec = table1_spec();
        if let Some(g) = &mut spec.victim.glitch {
            g.t_peak = 1.3 * NS;
        }
        let model = ClusterMacromodel::build(&spec).unwrap();
        let serial = worst_case_alignment(&model, 700.0 * PS).unwrap();
        let batched =
            worst_case_alignment_batched(&model, 700.0 * PS, BackendKind::Scalar).unwrap();
        // Identical probe sequence — only the LU arithmetic differs.
        assert_eq!(batched.evaluations, serial.evaluations);
        assert!(
            (batched.dp_metrics.peak - serial.dp_metrics.peak).abs() < 1e-6,
            "batched {} vs serial {}",
            batched.dp_metrics.peak,
            serial.dp_metrics.peak
        );
        for (b, s) in batched.switch_times.iter().zip(&serial.switch_times) {
            assert!(
                (b - s).abs() < 1.0 * PS,
                "switch times diverged: {b} vs {s}"
            );
        }
    }

    #[test]
    fn with_timing_shifts_events() {
        let spec = table1_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let shifted = model.with_timing(&[1.0 * NS], Some(1.2 * NS));
        assert_eq!(shifted.spec.aggressors[0].switch_time, 1.0 * NS);
        assert_eq!(shifted.spec.victim.glitch.unwrap().t_peak, 1.2 * NS);
        // Thevenin EMF moved by the same delta (0.6 ns).
        let t50_orig = model.thevenins[0].t50();
        let t50_new = shifted.thevenins[0].t50();
        assert!((t50_new - t50_orig - 0.6 * NS).abs() < 1.0 * PS);
    }
}
