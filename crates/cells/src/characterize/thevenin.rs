//! Thevenin-equivalent aggressor-driver characterization.
//!
//! Aggressor drivers in the cluster macromodel are linear Thevenin
//! equivalents — a saturated-ramp EMF `V_TH` behind a driving resistance
//! `R_TH` — "obtained as in \[7\]" (Dartu & Pileggi, DAC'97). Two points of
//! that reference matter for accuracy:
//!
//! * the fit must be performed against the driver's **actual load** — for
//!   a resistively-shielded net that is a Π model of the driving-point
//!   admittance, not the total lumped capacitance ([`TheveninLoad::Pi`]);
//!   a lumped fit underestimates the early edge rate at the driving point
//!   and with it the injected noise peak by ~10 %;
//! * the parameters are chosen to reproduce the **waveform**, not just two
//!   scalar delays: after seeding `R_TH` from a two-load delay fit, ramp
//!   time and resistance are refined by coordinate descent on the L2
//!   waveform error of the replayed Thevenin response.
//!
//! A fit costs three transistor-level transients, each stopped as soon as
//! the fit has what it reads: the reference run on the real load once its
//! scoring window is recorded, the two seed runs at their 50 % crossing.
//! The replay circuit `ramp → R_TH → load` is LTI with one or two states,
//! so the 37 replays of the coordinate descent are stepped directly
//! (`replay_trapezoidal`) on the same trapezoidal grid the MNA
//! transient would use.

use serde::{Deserialize, Serialize};
use sna_spice::dc::NewtonOptions;
use sna_spice::devices::SourceWaveform;
use sna_spice::error::{Error, Result};
use sna_spice::mna::GMIN;
use sna_spice::netlist::{Circuit, NodeId};
use sna_spice::tran::{step_count, transient_until, TranParams, TranWorkspace};
use sna_spice::waveform::Waveform;

use crate::cell::Cell;
use crate::characterize::CharacterizeOptions;

/// Load presented to the driver during characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TheveninLoad {
    /// Single capacitor to ground (F).
    Lumped(f64),
    /// O'Brien–Savarino Π: near cap, series resistance, far cap — the
    /// reduced driving-point admittance of the real net.
    Pi {
        /// Capacitance at the driving point (F).
        c_near: f64,
        /// Series resistance (Ω).
        r: f64,
        /// Capacitance behind the resistance (F).
        c_far: f64,
    },
}

impl TheveninLoad {
    /// Total (low-frequency) capacitance of the load.
    pub fn total_cap(&self) -> f64 {
        match self {
            TheveninLoad::Lumped(c) => *c,
            TheveninLoad::Pi { c_near, c_far, .. } => c_near + c_far,
        }
    }

    /// Attach the load to `node` inside `ckt`.
    fn attach(&self, ckt: &mut Circuit, node: NodeId) -> Result<()> {
        match self {
            TheveninLoad::Lumped(c) => {
                ckt.add_capacitor("Cload", node, Circuit::gnd(), *c)?;
            }
            TheveninLoad::Pi { c_near, r, c_far } => {
                if *c_near > 0.0 {
                    ckt.add_capacitor("Cload1", node, Circuit::gnd(), *c_near)?;
                }
                if *r > 0.0 && *c_far > 0.0 {
                    let far = ckt.node("loadfar");
                    ckt.add_resistor("Rload", node, far, *r)?;
                    ckt.add_capacitor("Cload2", far, Circuit::gnd(), *c_far)?;
                } else if *c_far > 0.0 {
                    ckt.add_capacitor("Cload2", node, Circuit::gnd(), *c_far)?;
                }
            }
        }
        Ok(())
    }
}

/// Linear Thevenin model of a switching aggressor driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TheveninDriver {
    /// Driving resistance (Ω).
    pub rth: f64,
    /// Saturated-ramp EMF.
    pub wave: SourceWaveform,
    /// Whether the output transition is rising.
    pub rising: bool,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl TheveninDriver {
    /// Shift the switching event in time (worst-case alignment search).
    pub fn shifted(&self, delta: f64) -> TheveninDriver {
        TheveninDriver {
            rth: self.rth,
            wave: self.wave.shifted(delta),
            rising: self.rising,
            vdd: self.vdd,
        }
    }

    /// Time of the 50 % point of the EMF ramp.
    pub fn t50(&self) -> f64 {
        match &self.wave {
            SourceWaveform::Ramp {
                t_start, t_rise, ..
            } => t_start + 0.5 * t_rise,
            other => other.last_event_time() * 0.5,
        }
    }
}

/// First crossing of `level` in the transition direction, found on samples
/// fed in time order and linearly interpolated.
struct Crossing {
    level: f64,
    rising: bool,
    prev: Option<(f64, f64)>,
    at: Option<f64>,
}

impl Crossing {
    fn new(level: f64, rising: bool) -> Self {
        Self {
            level,
            rising,
            prev: None,
            at: None,
        }
    }

    /// Feed the sample `(t, v)`; returns the crossing time once seen.
    fn push(&mut self, t: f64, v: f64) -> Option<f64> {
        if self.at.is_some() {
            return self.at;
        }
        if let Some((ta, a)) = self.prev {
            let hit = if self.rising {
                a < self.level && v >= self.level
            } else {
                a > self.level && v <= self.level
            };
            if hit {
                let f = (self.level - a) / (v - a);
                self.at = Some(ta + f * (t - ta));
            }
        }
        self.prev = Some((t, v));
        self.at
    }
}

/// Crossing time of `w` through `level` (first crossing in the transition
/// direction), linearly interpolated.
fn crossing_time(w: &Waveform, level: f64, rising: bool) -> Option<f64> {
    let mut c = Crossing::new(level, rising);
    w.times()
        .iter()
        .zip(w.values())
        .find_map(|(&t, &v)| c.push(t, v))
}

/// Input-ramp onset used inside characterization runs; fitted EMF times are
/// reported relative to this instant.
const T_INPUT_ONSET: f64 = 200e-12;

/// Time step of every characterization transient and replay.
const DT: f64 = 1e-12;

/// Simulate the transistor driver into `load`, returning the driving-point
/// waveform up to the first sample at which `stop(t, v_out)` holds (or the
/// full horizon).
fn simulate_driver(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
    newton: &NewtonOptions,
    mut stop: impl FnMut(f64, f64) -> bool,
) -> Result<Waveform> {
    let vdd_v = cell.tech.vdd;
    // For an inverting cell the input falls to make the output rise.
    let input_rising = rising ^ cell.is_inverting();
    let (v0, v1) = if input_rising {
        (0.0, vdd_v)
    } else {
        (vdd_v, 0.0)
    };
    let t_start = T_INPUT_ONSET;
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource("Vdd", vdd, Circuit::gnd(), SourceWaveform::Dc(vdd_v));
    let inp = ckt.node("in");
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::gnd(),
        SourceWaveform::Ramp {
            v0,
            v1,
            t_start,
            t_rise: input_slew,
        },
    );
    let out = ckt.node("out");
    // All inputs switch together (the worst-case aggressor event).
    let inputs = vec![inp; cell.input_count()];
    cell.instantiate(&mut ckt, "drv", &inputs, out, vdd)?;
    load.attach(&mut ckt, out)?;
    let horizon = t_start + input_slew + 4e-9;
    let mut params = TranParams::new(horizon, DT);
    params.newton = *newton;
    params.solver = newton.solver;
    let mut ws = TranWorkspace::new(&ckt, params.solver)?;
    let row = out.index() - 1;
    let res = transient_until(&ckt, &params, &mut ws, |t, x| stop(t, x[row]))?;
    Ok(res.node_waveform(out))
}

/// Ramp response at the load node of the replay circuit
/// `emf → R_TH (rth) → load` on the grid `k·dt`, `k = 0..=round(t_stop/dt)`:
/// the DC-initialised trapezoidal recurrence the MNA transient runs on that
/// circuit (GMIN on every node included), stepped directly on the load's
/// states — the driving point and, for a Π with `r > 0` and `c_far > 0`,
/// the far node. The step matrix `G + (2/dt)·C` is inverted once. Load
/// forms mirror [`TheveninLoad::attach`].
fn replay_trapezoidal(
    emf: &SourceWaveform,
    rth: f64,
    load: &TheveninLoad,
    t_stop: f64,
    dt: f64,
) -> Result<Waveform> {
    if !(rth.is_finite() && rth > 0.0) {
        return Err(Error::InvalidCircuit(format!(
            "resistor Rth: resistance must be positive and finite, got {rth}"
        )));
    }
    let n_steps = step_count(&TranParams::new(t_stop, dt))?;
    // Capacitance at the driving point, and the far branch (conductance,
    // capacitance) if the load has one. Without it the far state is
    // decoupled (gr = 0, cf = 0) and stays at zero.
    let (cn, gr, cf) = match *load {
        TheveninLoad::Lumped(c) => (c, 0.0, 0.0),
        TheveninLoad::Pi { c_near, r, c_far } => {
            let cn = if c_near > 0.0 { c_near } else { 0.0 };
            if r > 0.0 && c_far > 0.0 {
                (cn, 1.0 / r, c_far)
            } else if c_far > 0.0 {
                (cn + c_far, 0.0, 0.0)
            } else {
                (cn, 0.0, 0.0)
            }
        }
    };
    let g = 1.0 / rth;
    let (g_nn, g_ff) = (GMIN + g + gr, GMIN + gr);
    // DC operating point: [g_nn, -gr; -gr, g_ff]·[v; f] = [g·e(0); 0].
    let e0 = emf.eval(0.0);
    let det_dc = g_nn * g_ff - gr * gr;
    let (mut v, mut f) = (g * e0 * g_ff / det_dc, g * e0 * gr / det_dc);
    // Step: A·x1 = B·x0 + [g·(e0 + e1); 0], A = G + αC, B = αC − G.
    let alpha = 2.0 / dt;
    let (a_nn, a_ff) = (g_nn + alpha * cn, g_ff + alpha * cf);
    let (b_nn, b_ff) = (alpha * cn - g_nn, alpha * cf - g_ff);
    let det = a_nn * a_ff - gr * gr;
    let (i_nn, i_nf, i_ff) = (a_ff / det, gr / det, a_nn / det);
    let mut times = Vec::with_capacity(n_steps + 1);
    let mut values = Vec::with_capacity(n_steps + 1);
    times.push(0.0);
    values.push(v);
    let mut e_prev = e0;
    for step in 1..=n_steps {
        let t = step as f64 * dt;
        let e = emf.eval(t);
        let r_n = b_nn * v + gr * f + g * (e_prev + e);
        let r_f = gr * v + b_ff * f;
        (v, f) = (i_nn * r_n + i_nf * r_f, i_nf * r_n + i_ff * r_f);
        times.push(t);
        values.push(v);
        e_prev = e;
    }
    Waveform::from_samples(times, values)
}

/// Characterize a Thevenin driver for `cell` making a `rising`/falling
/// output transition with the given input slew, fitted against `load`
/// (pass the Π of the real net for shielded interconnect).
///
/// The returned EMF's time axis is **relative to the aggressor's input-ramp
/// onset** (`t = 0` = the instant the input starts moving); shift it by the
/// cluster's switching time with [`TheveninDriver::shifted`].
///
/// # Errors
///
/// Fails if the simulated output never completes its transition (load too
/// large for the horizon) or on simulator errors.
pub fn characterize_thevenin(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
) -> Result<TheveninDriver> {
    characterize_thevenin_with(
        cell,
        rising,
        input_slew,
        load,
        &CharacterizeOptions::default(),
    )
}

/// [`characterize_thevenin`] with explicit solver controls
/// (`opts.newton.solver` picks the linear solver for every fit transient).
///
/// # Errors
///
/// As [`characterize_thevenin`].
pub fn characterize_thevenin_with(
    cell: &Cell,
    rising: bool,
    input_slew: f64,
    load: &TheveninLoad,
    opts: &CharacterizeOptions,
) -> Result<TheveninDriver> {
    let newton = &opts.newton;
    let vdd = cell.tech.vdd;
    let half = 0.5 * vdd;
    let (lo_lvl, hi_lvl) = (0.2 * vdd, 0.8 * vdd);
    // Reference: the driver's DP waveform on the real (Π) load, run until
    // it covers the scoring window `t50 + 3·slew` below, plus two samples
    // so `value_at` still interpolates at the window's end.
    let (mut c_lo, mut c_mid, mut c_hi) = (
        Crossing::new(lo_lvl, rising),
        Crossing::new(half, rising),
        Crossing::new(hi_lvl, rising),
    );
    let w_ref = simulate_driver(cell, rising, input_slew, load, newton, |t, v| {
        let (lo, mid, hi) = (c_lo.push(t, v), c_mid.push(t, v), c_hi.push(t, v));
        match (lo, mid, hi) {
            (Some(lo), Some(mid), Some(hi)) => {
                let slew = if rising { hi - lo } else { lo - hi };
                t >= mid + 3.0 * slew + 2.0 * DT
            }
            _ => false,
        }
    })?;
    let t50_ref = crossing_time(&w_ref, half, rising)
        .ok_or_else(|| Error::InvalidAnalysis("driver output never crossed 50%".into()))?;
    let (ta, tb) = if rising {
        (
            crossing_time(&w_ref, lo_lvl, true),
            crossing_time(&w_ref, hi_lvl, true),
        )
    } else {
        (
            crossing_time(&w_ref, hi_lvl, false),
            crossing_time(&w_ref, lo_lvl, false),
        )
    };
    let slew_2080 = match (ta, tb) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => {
            return Err(Error::InvalidAnalysis(
                "driver output slew not measurable".into(),
            ))
        }
    };
    // R_TH seed from a classic two-lumped-load delay fit; each seed run
    // stops at its 50 % crossing.
    let c1 = load.total_cap().max(1e-15);
    let c2 = 2.0 * c1 + 5e-15;
    let seed_run = |c: f64| {
        let mut mid = Crossing::new(half, rising);
        simulate_driver(
            cell,
            rising,
            input_slew,
            &TheveninLoad::Lumped(c),
            newton,
            |t, v| mid.push(t, v).is_some(),
        )
    };
    let w_l1 = seed_run(c1)?;
    let w_l2 = seed_run(c2)?;
    let t50_l1 = crossing_time(&w_l1, half, rising)
        .ok_or_else(|| Error::InvalidAnalysis("driver output never crossed 50%".into()))?;
    let t50_l2 = crossing_time(&w_l2, half, rising).ok_or_else(|| {
        Error::InvalidAnalysis("driver output never crossed 50% (heavy load)".into())
    })?;
    let rth_seed = ((t50_l2 - t50_l1) / ((c2 - c1) * std::f64::consts::LN_2)).max(1.0);
    let t_rise_seed = (slew_2080 / 0.6).max(2e-12);
    let (v0, v1) = if rising { (0.0, vdd) } else { (vdd, 0.0) };
    // Replay a (rth, t_rise) candidate on the SAME load. The replay circuit
    // is LTI, so one replay suffices: the response to a shifted ramp is the
    // shifted response, and 50 %-crossing alignment is arithmetic.
    const T_REPLAY_ONSET: f64 = 100e-12;
    let replay = |rth: f64, t_rise: f64| -> Result<(f64, f64)> {
        let emf = SourceWaveform::Ramp {
            v0,
            v1,
            t_start: T_REPLAY_ONSET,
            t_rise,
        };
        let horizon = T_REPLAY_ONSET + t_rise + 12.0 * rth * load.total_cap() + 2e-9;
        let wfit = replay_trapezoidal(&emf, rth, load, horizon, DT)?;
        let t50_fit = crossing_time(&wfit, half, rising)
            .ok_or_else(|| Error::InvalidAnalysis("thevenin fit never crossed 50%".into()))?;
        // Shift the replayed response so its 50% crossing lands on the
        // reference's, then score the L2 error over the transition window.
        let shift = t50_ref - t50_fit;
        let lo_t = t50_ref - 2.0 * slew_2080;
        let hi_t = t50_ref + 3.0 * slew_2080;
        let n = 160;
        let mut acc = 0.0;
        for i in 0..n {
            let t = lo_t + (hi_t - lo_t) * i as f64 / (n - 1) as f64;
            let d = wfit.value_at(t - shift) - w_ref.value_at(t);
            acc += d * d;
        }
        let err = (acc / n as f64).sqrt();
        Ok((err, T_REPLAY_ONSET + shift))
    };
    // Coordinate descent: t_rise, then rth, then t_rise again.
    let golden_min =
        |f: &mut dyn FnMut(f64) -> Result<f64>, mut a: f64, mut b: f64| -> Result<f64> {
            let phi = 0.618_033_988_749_895;
            let mut x1 = b - phi * (b - a);
            let mut x2 = a + phi * (b - a);
            let mut f1 = f(x1)?;
            let mut f2 = f(x2)?;
            for _ in 0..10 {
                if f1 < f2 {
                    b = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = b - phi * (b - a);
                    f1 = f(x1)?;
                } else {
                    a = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = a + phi * (b - a);
                    f2 = f(x2)?;
                }
            }
            Ok(if f1 < f2 { x1 } else { x2 })
        };
    let mut rth = rth_seed;
    let mut t_rise = golden_min(
        &mut |x| replay(rth, x).map(|r| r.0),
        0.25 * t_rise_seed,
        2.0 * t_rise_seed,
    )?;
    rth = golden_min(
        &mut |x| replay(x, t_rise).map(|r| r.0),
        0.35 * rth_seed,
        2.0 * rth_seed,
    )?;
    t_rise = golden_min(
        &mut |x| replay(rth, x).map(|r| r.0),
        0.25 * t_rise_seed,
        2.0 * t_rise_seed,
    )?;
    let (_, fit_t_start) = replay(rth, t_rise)?;
    Ok(TheveninDriver {
        rth,
        wave: SourceWaveform::Ramp {
            v0,
            v1,
            // Report times relative to the input-ramp onset so cluster
            // builders can schedule the switching event freely.
            t_start: fit_t_start - T_INPUT_ONSET,
            t_rise,
        },
        rising,
        vdd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::tech::Technology;
    use sna_spice::tran::transient;
    use sna_spice::units::{FF, PS};

    #[test]
    fn thevenin_fit_matches_transistor_driver() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t.clone(), 4.0);
        let load = TheveninLoad::Lumped(60.0 * FF);
        let th = characterize_thevenin(&cell, true, 50.0 * PS, &load).unwrap();
        assert!(th.rth > 20.0 && th.rth < 5e3, "rth={}", th.rth);
        // Replay both models into the same load and compare waveforms,
        // against the driver's full-horizon waveform.
        let gold = simulate_driver(
            &cell,
            true,
            50.0 * PS,
            &load,
            &NewtonOptions::default(),
            |_, _| false,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let e = ckt.node("emf");
        let o = ckt.node("out");
        // EMF times are relative to the input onset; the characterization
        // fixture starts its ramp at T_INPUT_ONSET.
        ckt.add_vsource("Vth", e, Circuit::gnd(), th.wave.shifted(T_INPUT_ONSET));
        ckt.add_resistor("Rth", e, o, th.rth).unwrap();
        ckt.add_capacitor("Cl", o, Circuit::gnd(), 60.0 * FF)
            .unwrap();
        let res = transient(&ckt, &TranParams::new(4e-9, 1e-12)).unwrap();
        let fit = res.node_waveform(o);
        // 50% crossings aligned within a couple ps.
        let tg = crossing_time(&gold, 0.6, true).unwrap();
        let tf = crossing_time(&fit, 0.6, true).unwrap();
        assert!((tg - tf).abs() < 5.0 * PS, "tg={tg:e} tf={tf:e}");
        // Waveform L-inf error over the transition modest.
        let err = gold.max_abs_difference(&fit);
        assert!(err < 0.12, "waveform error {err} V");
    }

    #[test]
    fn falling_transition_fits_too() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 2.0);
        let th = characterize_thevenin(&cell, false, 80.0 * PS, &TheveninLoad::Lumped(30.0 * FF))
            .unwrap();
        assert!(!th.rising);
        match th.wave {
            SourceWaveform::Ramp { v0, v1, .. } => {
                assert!(v0 > v1, "falling ramp should go down");
            }
            _ => panic!("expected ramp"),
        }
    }

    #[test]
    fn stronger_driver_lower_rth() {
        let t = Technology::cmos130();
        let c1 = Cell::inv(t.clone(), 1.0);
        let c4 = Cell::inv(t, 4.0);
        let th1 =
            characterize_thevenin(&c1, true, 50.0 * PS, &TheveninLoad::Lumped(40.0 * FF)).unwrap();
        let th4 =
            characterize_thevenin(&c4, true, 50.0 * PS, &TheveninLoad::Lumped(40.0 * FF)).unwrap();
        assert!(th4.rth < th1.rth, "rth1={} rth4={}", th1.rth, th4.rth);
    }

    #[test]
    fn pi_load_fit_differs_from_lumped() {
        // On a strongly shielded net the Π-fitted Thevenin must produce a
        // faster driving-point edge than the lumped fit (less effective
        // capacitance early in the transition).
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 2.0);
        let pi = TheveninLoad::Pi {
            c_near: 25.0 * FF,
            r: 150.0,
            c_far: 40.0 * FF,
        };
        let lumped = TheveninLoad::Lumped(65.0 * FF);
        let th_pi = characterize_thevenin(&cell, true, 60.0 * PS, &pi).unwrap();
        let th_lump = characterize_thevenin(&cell, true, 60.0 * PS, &lumped).unwrap();
        // The Π fit sees a faster DP transition.
        let ramp_rate = |th: &TheveninDriver| match th.wave {
            SourceWaveform::Ramp { t_rise, .. } => th.vdd / t_rise,
            _ => panic!("expected ramp"),
        };
        assert!(
            ramp_rate(&th_pi) > ramp_rate(&th_lump),
            "pi rate {:.3e} <= lumped rate {:.3e}",
            ramp_rate(&th_pi),
            ramp_rate(&th_lump)
        );
    }

    #[test]
    fn shifted_moves_t50() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 2.0);
        let th = characterize_thevenin(&cell, true, 50.0 * PS, &TheveninLoad::Lumped(20.0 * FF))
            .unwrap();
        let sh = th.shifted(100.0 * PS);
        assert!((sh.t50() - th.t50() - 100.0 * PS).abs() < 1e-15);
    }

    #[test]
    fn replay_trapezoidal_matches_mna_transient() {
        let emf = SourceWaveform::Ramp {
            v0: 1.2,
            v1: 0.0,
            t_start: 100.0 * PS,
            t_rise: 45.0 * PS,
        };
        let rth = 700.0;
        let pi = |c_near: f64, r: f64, c_far: f64| TheveninLoad::Pi { c_near, r, c_far };
        for load in [
            TheveninLoad::Lumped(50.0 * FF),
            pi(25.0 * FF, 150.0, 40.0 * FF),
            // Degenerate Π forms: no near cap, shorted and open far branch.
            pi(0.0, 300.0, 40.0 * FF),
            pi(25.0 * FF, 0.0, 40.0 * FF),
            pi(25.0 * FF, 300.0, 0.0),
        ] {
            let t_stop = 100.0 * PS + 45.0 * PS + 12.0 * rth * load.total_cap() + 2e-9;
            let direct = replay_trapezoidal(&emf, rth, &load, t_stop, DT).unwrap();
            let mut ckt = Circuit::new();
            let e = ckt.node("emf");
            let o = ckt.node("out");
            ckt.add_vsource("Vth", e, Circuit::gnd(), emf.clone());
            ckt.add_resistor("Rth", e, o, rth).unwrap();
            load.attach(&mut ckt, o).unwrap();
            let mna = transient(&ckt, &TranParams::new(t_stop, DT))
                .unwrap()
                .node_waveform(o);
            assert_eq!(direct.len(), mna.len(), "{load:?}");
            assert_eq!(direct.times(), mna.times(), "{load:?}");
            let dv = direct
                .values()
                .iter()
                .zip(mna.values())
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(dv <= 1e-9, "{load:?}: max |dv| = {dv:e} V");
        }
    }

    /// Fits recorded with the MNA stepper running every replay and every
    /// driver transient to its full horizon; direct replays and
    /// early-stopped driver runs must reproduce them.
    #[test]
    fn fits_pinned_to_full_transient_values() {
        let t = Technology::cmos130();
        let pi = |c_near: f64, r: f64, c_far: f64| TheveninLoad::Pi { c_near, r, c_far };
        let cases = [
            (
                Cell::inv(t.clone(), 4.0),
                true,
                50.0 * PS,
                TheveninLoad::Lumped(60.0 * FF),
                [
                    845.8100008280064,
                    5.0282973777953495e-11,
                    2.7400290831117427e-11,
                ],
            ),
            (
                Cell::inv(t.clone(), 2.0),
                false,
                80.0 * PS,
                TheveninLoad::Lumped(30.0 * FF),
                [
                    955.7851994882157,
                    4.43658965951004e-11,
                    4.693566022921756e-11,
                ],
            ),
            (
                Cell::nand2(t.clone(), 2.0),
                true,
                60.0 * PS,
                pi(25.0 * FF, 150.0, 40.0 * FF),
                [
                    813.1467640150541,
                    5.158195662715402e-11,
                    3.543724561824662e-11,
                ],
            ),
            (
                Cell::nor2(t, 2.0),
                false,
                70.0 * PS,
                pi(15.0 * FF, 600.0, 60.0 * FF),
                [
                    418.29050980652426,
                    3.312001369805858e-11,
                    4.292618632396752e-11,
                ],
            ),
        ];
        for (cell, rising, slew, load, want) in cases {
            let th = characterize_thevenin(&cell, rising, slew, &load).unwrap();
            let SourceWaveform::Ramp {
                t_start, t_rise, ..
            } = th.wave
            else {
                panic!("expected ramp");
            };
            for (got, want) in [th.rth, t_rise, t_start].into_iter().zip(want) {
                let rel = ((got - want) / want).abs();
                assert!(rel <= 1e-6, "{load:?}: got {got:e}, pinned {want:e}");
            }
        }
    }

    #[test]
    fn load_total_cap() {
        assert_eq!(TheveninLoad::Lumped(5e-15).total_cap(), 5e-15);
        let pi = TheveninLoad::Pi {
            c_near: 2e-15,
            r: 100.0,
            c_far: 3e-15,
        };
        assert_eq!(pi.total_cap(), 5e-15);
    }
}
