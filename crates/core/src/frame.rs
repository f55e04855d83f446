//! FRAME-style constrained worst-case alignment: timing-window and
//! mutual-exclusion aggressor correlation pruning.
//!
//! The pessimistic flow assumes every aggressor can switch, aligned for
//! maximum damage. Real designs constrain aggressors two ways: STA gives
//! each net a switching *window* `[t_min, t_max]`, and logic implies
//! *mutual exclusion* (e.g. one-hot decoder outputs — at most one member
//! of the group toggles per cycle). Following the FRAME approach
//! (PAPERS.md), this module enumerates the discrete alignment-candidate
//! space implied by those constraints, kills infeasible candidates with
//! interval arithmetic **before** any simulation, and evaluates the
//! survivors K-at-a-time through the batched macromodel engine
//! ([`simulate_macromodel_timings`]).
//!
//! Candidate-space semantics:
//!
//! * Unconstrained aggressors (no window, no group) always switch at
//!   their nominal time — the pessimistic assumption stands for them.
//! * A *constrained* aggressor contributes a choice set: `Off` (it does
//!   not switch this cycle) plus `grid` switch times spanning its window
//!   (or its nominal time when it is mexcl-constrained only).
//! * A candidate is **window-infeasible** when some switching aggressor's
//!   edge `[t, t + slew]` cannot overlap the victim's sensitivity window.
//! * A candidate is **mexcl-infeasible** when two or more switching
//!   aggressors share a mutual-exclusion group.
//!
//! The feasible set always contains the all-`Off` candidate, so the
//! constrained margin is well defined; and since it is a subset of the
//! exhaustive set, the constrained margin can never be *worse* than the
//! exhaustive one over the same space (a proptest pins this).

use sna_obs::{count, Metric};
use sna_spice::backend::BackendKind;
use sna_spice::dc::NewtonOptions;
use sna_spice::error::{Error, Result};
use sna_spice::waveform::GlitchMetrics;

use crate::cluster::ClusterMacromodel;
use crate::engine::{simulate_macromodel_timings, TimingLane};
use crate::nrc::NoiseRejectionCurve;

/// How many lanes one batched engine call carries. Lane arithmetic is
/// batch-composition-independent, so this is purely a working-set knob.
const BATCH_K: usize = 8;

/// Hard cap on the enumerated candidate space — beyond this the
/// constraint set is too loose for discrete enumeration to make sense.
const MAX_CANDIDATES: u64 = 65_536;

/// Pruning bookkeeping of one constrained analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounters {
    /// Size of the structural candidate space (product of choice sets).
    pub considered: u64,
    /// Candidates killed by window/sensitivity interval analysis.
    pub pruned_window: u64,
    /// Window-surviving candidates killed by mutual exclusion.
    pub pruned_mexcl: u64,
    /// Candidates actually simulated (feasible set).
    pub simulated: u64,
}

impl FrameCounters {
    /// Fraction of the candidate space killed before simulation.
    pub fn prune_rate(&self) -> f64 {
        if self.considered == 0 {
            0.0
        } else {
            (self.pruned_window + self.pruned_mexcl) as f64 / self.considered as f64
        }
    }
}

/// Result of the constrained worst-case analysis on one cluster.
#[derive(Debug, Clone)]
pub struct FrameOutcome {
    /// Constrained NRC margin (V) at the receiver — the *minimum* margin
    /// over the feasible candidate set (never below the pessimistic
    /// margin's floor, since feasible ⊆ exhaustive).
    pub margin: f64,
    /// Receiver glitch metrics at the constrained worst case.
    pub receiver_metrics: GlitchMetrics,
    /// Per-aggressor switch times of the worst feasible candidate (s);
    /// non-switching aggressors carry the past-horizon `Off` time.
    pub switch_times: Vec<f64>,
    /// Which aggressors switch in the worst feasible candidate.
    pub switching: Vec<bool>,
    /// Enumeration/pruning counters.
    pub counters: FrameCounters,
}

/// The choice set of one constrained aggressor.
struct ChoiceSet {
    /// Aggressor index in cluster order.
    agg: usize,
    /// Switch-time choices; index 0 is always `Off`.
    times: Vec<Choice>,
}

#[derive(Clone, Copy)]
enum Choice {
    /// The aggressor does not switch this cycle.
    Off,
    /// The aggressor switches at the given time (s).
    At(f64),
}

/// Build the per-aggressor choice sets. `grid` window sample points are
/// distributed inclusively over `[t_min, t_max]` (one point when the
/// window is degenerate or `grid == 1`).
fn choice_sets(model: &ClusterMacromodel, grid: usize) -> Vec<ChoiceSet> {
    let grid = grid.max(1);
    let mut sets = Vec::new();
    for (k, agg) in model.spec.aggressors.iter().enumerate() {
        if !agg.is_constrained() {
            continue;
        }
        let mut times = vec![Choice::Off];
        match &agg.window {
            Some(w) => {
                let span = w.t_max - w.t_min;
                let n = if span == 0.0 { 1 } else { grid };
                for i in 0..n {
                    let t = if n == 1 {
                        w.t_min
                    } else {
                        w.t_min + span * i as f64 / (n - 1) as f64
                    };
                    times.push(Choice::At(t));
                }
            }
            None => times.push(Choice::At(agg.switch_time)),
        }
        sets.push(ChoiceSet { agg: k, times });
    }
    sets
}

/// Classification of one candidate before simulation.
enum Feasibility {
    Feasible,
    PrunedWindow,
    PrunedMexcl,
}

/// Interval-arithmetic feasibility of one candidate: window overlap
/// first, then mutual exclusion among the switching survivors.
fn classify(model: &ClusterMacromodel, sets: &[ChoiceSet], digits: &[usize]) -> Feasibility {
    let sensitivity = &model.spec.victim.sensitivity;
    for (set, &d) in sets.iter().zip(digits) {
        if let Choice::At(t) = set.times[d] {
            let agg = &model.spec.aggressors[set.agg];
            if let Some(s) = sensitivity {
                if !s.overlaps_edge(t, agg.input_slew) {
                    return Feasibility::PrunedWindow;
                }
            }
        }
    }
    // Mutual exclusion: at most one switching member per group.
    for (i, (set_i, &di)) in sets.iter().zip(digits).enumerate() {
        if matches!(set_i.times[di], Choice::Off) {
            continue;
        }
        let Some(gi) = model.spec.aggressors[set_i.agg].mexcl_group else {
            continue;
        };
        for (set_j, &dj) in sets.iter().zip(digits).take(i) {
            if matches!(set_j.times[dj], Choice::Off) {
                continue;
            }
            if model.spec.aggressors[set_j.agg].mexcl_group == Some(gi) {
                return Feasibility::PrunedMexcl;
            }
        }
    }
    Feasibility::Feasible
}

/// Materialize a candidate's per-aggressor switch times. `Off` pushes the
/// event past the simulation horizon, freezing the aggressor at its
/// initial rail (deterministically — every `Off` uses the same time).
fn candidate_times(
    model: &ClusterMacromodel,
    sets: &[ChoiceSet],
    digits: &[usize],
) -> (Vec<f64>, Vec<bool>) {
    let off_time = model.spec.t_stop + 1.0;
    let mut times: Vec<f64> = model
        .spec
        .aggressors
        .iter()
        .map(|a| a.switch_time)
        .collect();
    let mut switching = vec![true; times.len()];
    for (set, &d) in sets.iter().zip(digits) {
        match set.times[d] {
            Choice::Off => {
                times[set.agg] = off_time;
                switching[set.agg] = false;
            }
            Choice::At(t) => times[set.agg] = t,
        }
    }
    (times, switching)
}

/// Enumerate the constrained alignment space of `model`, prune
/// infeasible candidates (unless `exhaustive`), evaluate the survivors
/// through the batched engine, and return the worst (minimum-margin)
/// feasible outcome. Ties break toward the earliest candidate in
/// enumeration order, making the result independent of batching.
///
/// `grid` is the number of window sample points per constrained
/// aggressor; `exhaustive` simulates every structural candidate instead
/// of pruning (the FRAME baseline — counters then show zero pruning).
/// `_backend` selects nothing; the parameter is kept only for source
/// compatibility with the benchmark harness.
///
/// # Errors
///
/// Fails when the candidate space exceeds the enumeration cap, and
/// propagates engine failures.
pub fn constrained_worst_case(
    model: &ClusterMacromodel,
    nrc: &NoiseRejectionCurve,
    grid: usize,
    exhaustive: bool,
    _backend: BackendKind,
) -> Result<FrameOutcome> {
    let sets = choice_sets(model, grid);
    let mut counters = FrameCounters::default();
    let space: u64 = sets.iter().map(|s| s.times.len() as u64).product();
    if space > MAX_CANDIDATES {
        return Err(Error::InvalidAnalysis(format!(
            "frame candidate space {space} exceeds the enumeration cap \
             {MAX_CANDIDATES} (reduce --frame-grid or tighten constraints)"
        )));
    }
    counters.considered = space;

    // Mixed-radix enumeration, feasibility classification, batch fill.
    let mut digits = vec![0usize; sets.len()];
    let mut feasible: Vec<(Vec<f64>, Vec<bool>)> = Vec::new();
    loop {
        if exhaustive {
            feasible.push(candidate_times(model, &sets, &digits));
        } else {
            match classify(model, &sets, &digits) {
                Feasibility::Feasible => feasible.push(candidate_times(model, &sets, &digits)),
                Feasibility::PrunedWindow => counters.pruned_window += 1,
                Feasibility::PrunedMexcl => counters.pruned_mexcl += 1,
            }
        }
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == digits.len() {
                break;
            }
            digits[pos] += 1;
            if digits[pos] < sets[pos].times.len() {
                break;
            }
            digits[pos] = 0;
            pos += 1;
        }
        if pos == digits.len() {
            break;
        }
    }
    counters.simulated = feasible.len() as u64;

    // Batched evaluation, K lanes at a time. Lane arithmetic is
    // batch-composition-independent, so chunking cannot change results.
    let newton = NewtonOptions::default();
    let mut best: Option<(f64, GlitchMetrics, usize)> = None;
    for (chunk_idx, chunk) in feasible.chunks(BATCH_K).enumerate() {
        let lanes: Vec<TimingLane> = chunk
            .iter()
            .map(|(times, _)| TimingLane {
                switch_times: times.clone(),
                glitch_peak: None,
            })
            .collect();
        let waves = simulate_macromodel_timings(model, &lanes, &newton)?;
        for (off, w) in waves.iter().enumerate() {
            let rm = w.receiver.glitch_metrics(model.q_out);
            let margin = nrc.margin(rm.width, rm.peak);
            let idx = chunk_idx * BATCH_K + off;
            let replace = match &best {
                None => true,
                Some((m, _, _)) => margin.total_cmp(m).is_lt(),
            };
            if replace {
                best = Some((margin, rm, idx));
            }
        }
    }
    let (margin, receiver_metrics, idx) = best.expect("feasible set contains all-Off");
    let (switch_times, switching) = feasible[idx].clone();
    count(Metric::FrameClusters, 1);
    count(Metric::FrameCandidatesConsidered, counters.considered);
    count(Metric::FramePrunedWindow, counters.pruned_window);
    count(Metric::FramePrunedMexcl, counters.pruned_mexcl);
    count(Metric::FrameSimulated, counters.simulated);
    Ok(FrameOutcome {
        margin,
        receiver_metrics,
        switch_times,
        switching,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterMacromodel, SwitchingWindow};
    use crate::nrc::characterize_nrc;
    use crate::scenarios::table2_spec;
    use sna_cells::Cell;
    use sna_spice::units::{NS, PS};

    fn nrc() -> NoiseRejectionCurve {
        let tech = sna_cells::Technology::cmos130();
        characterize_nrc(
            &Cell::inv(tech, 1.0),
            true,
            &[100.0 * PS, 300.0 * PS, 900.0 * PS],
        )
        .unwrap()
    }

    #[test]
    fn unconstrained_cluster_has_empty_choice_space() {
        let spec = table2_spec();
        let model = ClusterMacromodel::build(&spec).unwrap();
        let sets = choice_sets(&model, 4);
        assert!(sets.is_empty());
        // The degenerate enumeration still evaluates exactly one
        // candidate: everything at nominal.
        let out = constrained_worst_case(&model, &nrc(), 4, false, BackendKind::Scalar).unwrap();
        assert_eq!(out.counters.considered, 1);
        assert_eq!(out.counters.simulated, 1);
        assert_eq!(out.counters.pruned_window + out.counters.pruned_mexcl, 0);
        assert!(out.switching.iter().all(|&s| s));
    }

    #[test]
    fn mexcl_prunes_pairs_and_window_prunes_misses() {
        let mut spec = table2_spec();
        // Both aggressors in one mexcl group, each with a 2-point window;
        // one window placed entirely after the victim stops caring.
        spec.aggressors[0].mexcl_group = Some(1);
        spec.aggressors[1].mexcl_group = Some(1);
        spec.aggressors[0].window = Some(SwitchingWindow::new(0.3 * NS, 0.5 * NS));
        spec.aggressors[1].window = Some(SwitchingWindow::new(2.4 * NS, 2.6 * NS));
        spec.victim.sensitivity = Some(SwitchingWindow::new(0.0, 1.2 * NS));
        let model = ClusterMacromodel::build(&spec).unwrap();
        let out = constrained_worst_case(&model, &nrc(), 2, false, BackendKind::Scalar).unwrap();
        // Choice sets: {Off, t1, t2} × {Off, t1, t2} = 9 candidates.
        assert_eq!(out.counters.considered, 9);
        // Aggressor 1's window misses the sensitivity window entirely:
        // every candidate where it switches dies on window overlap (3
        // partners × 2 times = 6), leaving {Off,t,t} × {Off} = 3, none of
        // which violate mexcl (aggressor 1 never switches).
        assert_eq!(out.counters.pruned_window, 6);
        assert_eq!(out.counters.pruned_mexcl, 0);
        assert_eq!(out.counters.simulated, 3);
        assert!(out.counters.prune_rate() > 0.5);
        // The worst case switches aggressor 0 (more noise than all-Off).
        assert!(out.switching[0]);
        assert!(!out.switching[1]);
    }

    #[test]
    fn mexcl_alone_kills_simultaneous_switching() {
        let mut spec = table2_spec();
        spec.aggressors[0].mexcl_group = Some(7);
        spec.aggressors[1].mexcl_group = Some(7);
        let model = ClusterMacromodel::build(&spec).unwrap();
        let out = constrained_worst_case(&model, &nrc(), 4, false, BackendKind::Scalar).unwrap();
        // {Off, nominal} × {Off, nominal}: the both-switch candidate is
        // the only mexcl violation.
        assert_eq!(out.counters.considered, 4);
        assert_eq!(out.counters.pruned_mexcl, 1);
        assert_eq!(out.counters.simulated, 3);
        // At most one aggressor switches in the reported worst case.
        assert!(out.switching.iter().filter(|&&s| s).count() <= 1);
    }

    #[test]
    fn exhaustive_mode_simulates_the_full_space() {
        let mut spec = table2_spec();
        spec.aggressors[0].mexcl_group = Some(7);
        spec.aggressors[1].mexcl_group = Some(7);
        let model = ClusterMacromodel::build(&spec).unwrap();
        let n = nrc();
        let pruned = constrained_worst_case(&model, &n, 4, false, BackendKind::Scalar).unwrap();
        let full = constrained_worst_case(&model, &n, 4, true, BackendKind::Scalar).unwrap();
        assert_eq!(full.counters.simulated, full.counters.considered);
        assert_eq!(full.counters.pruned_window + full.counters.pruned_mexcl, 0);
        // Exhaustive explores a superset: margin can only be <= pruned's,
        // and in this mexcl case strictly (both-switch is the worst).
        assert!(full.margin <= pruned.margin);
    }

    #[test]
    fn fully_feasible_constraints_match_exhaustive_bitwise() {
        let mut spec = table2_spec();
        // Windows inside an always-sensitive victim: nothing prunes.
        spec.aggressors[0].window = Some(SwitchingWindow::new(0.3 * NS, 0.6 * NS));
        spec.aggressors[1].window = Some(SwitchingWindow::new(0.2 * NS, 0.7 * NS));
        let model = ClusterMacromodel::build(&spec).unwrap();
        let n = nrc();
        let pruned = constrained_worst_case(&model, &n, 3, false, BackendKind::Scalar).unwrap();
        let full = constrained_worst_case(&model, &n, 3, true, BackendKind::Scalar).unwrap();
        assert_eq!(pruned.counters.pruned_window, 0);
        assert_eq!(pruned.counters.pruned_mexcl, 0);
        assert_eq!(pruned.counters.simulated, full.counters.simulated);
        assert_eq!(pruned.margin.to_bits(), full.margin.to_bits());
        assert_eq!(pruned.switch_times, full.switch_times);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Constrained margin is never more pessimistic than the
        /// exhaustive one over the same candidate space: feasible ⊆
        /// exhaustive, so min-margin over the subset is >= over the set.
        #[test]
        fn prop_constrained_never_more_pessimistic(
            w0_lo in 0.2f64..0.6,
            w0_span in 0.0f64..0.4,
            w1_lo in 0.2f64..2.2,
            w1_span in 0.0f64..0.4,
            s_hi in 0.6f64..1.6,
            mexcl_sel in 0u32..2,
        ) {
            let mut spec = table2_spec();
            spec.aggressors[0].window =
                Some(SwitchingWindow::new(w0_lo * NS, (w0_lo + w0_span) * NS));
            spec.aggressors[1].window =
                Some(SwitchingWindow::new(w1_lo * NS, (w1_lo + w1_span) * NS));
            let mexcl = mexcl_sel == 1;
            if mexcl {
                spec.aggressors[0].mexcl_group = Some(3);
                spec.aggressors[1].mexcl_group = Some(3);
            }
            spec.victim.sensitivity = Some(SwitchingWindow::new(0.0, s_hi * NS));
            let model = ClusterMacromodel::build(&spec).unwrap();
            let n = nrc();
            let pruned =
                constrained_worst_case(&model, &n, 2, false, BackendKind::Scalar).unwrap();
            let full =
                constrained_worst_case(&model, &n, 2, true, BackendKind::Scalar).unwrap();
            prop_assert!(
                pruned.margin >= full.margin,
                "constrained {} more pessimistic than exhaustive {}",
                pruned.margin,
                full.margin
            );
            prop_assert_eq!(
                pruned.counters.considered,
                full.counters.considered
            );
            prop_assert_eq!(
                pruned.counters.pruned_window
                    + pruned.counters.pruned_mexcl
                    + pruned.counters.simulated,
                pruned.counters.considered
            );
        }

        /// On a fully-feasible constraint set, pruning is a no-op: same
        /// worst candidate, bitwise-equal metrics.
        #[test]
        fn prop_fully_feasible_equals_exhaustive_bitwise(
            w0_lo in 0.25f64..0.45,
            w1_lo in 0.25f64..0.45,
            grid in 2usize..4,
        ) {
            let mut spec = table2_spec();
            spec.aggressors[0].window =
                Some(SwitchingWindow::new(w0_lo * NS, (w0_lo + 0.2) * NS));
            spec.aggressors[1].window =
                Some(SwitchingWindow::new(w1_lo * NS, (w1_lo + 0.2) * NS));
            // No sensitivity window, no mexcl: nothing can prune.
            let model = ClusterMacromodel::build(&spec).unwrap();
            let n = nrc();
            let pruned =
                constrained_worst_case(&model, &n, grid, false, BackendKind::Scalar).unwrap();
            let full =
                constrained_worst_case(&model, &n, grid, true, BackendKind::Scalar).unwrap();
            prop_assert_eq!(pruned.counters.pruned_window, 0);
            prop_assert_eq!(pruned.counters.pruned_mexcl, 0);
            prop_assert_eq!(pruned.counters.simulated, full.counters.simulated);
            prop_assert_eq!(pruned.margin.to_bits(), full.margin.to_bits());
            prop_assert_eq!(
                pruned.receiver_metrics.peak.to_bits(),
                full.receiver_metrics.peak.to_bits()
            );
            prop_assert_eq!(
                pruned.receiver_metrics.width.to_bits(),
                full.receiver_metrics.width.to_bits()
            );
            prop_assert_eq!(pruned.switch_times.clone(), full.switch_times.clone());
            prop_assert_eq!(pruned.switching.clone(), full.switching.clone());
        }
    }

    #[test]
    fn candidate_cap_rejects_absurd_grids() {
        let mut spec = table2_spec();
        spec.aggressors[0].window = Some(SwitchingWindow::new(0.0, 1.0 * NS));
        spec.aggressors[1].window = Some(SwitchingWindow::new(0.0, 1.0 * NS));
        let model = ClusterMacromodel::build(&spec).unwrap();
        let err = constrained_worst_case(&model, &nrc(), 600, false, BackendKind::Scalar);
        assert!(err.is_err());
    }
}
