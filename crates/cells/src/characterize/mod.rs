//! Cell pre-characterization.
//!
//! Everything a static-noise-analysis flow extracts from a cell library
//! before analyzing a design:
//!
//! * [`load_curve`] — the paper's Eq. (1): `I_DC = f(V_in, V_out)` by DC
//!   sweeps (the non-linear victim-driver macromodel).
//! * [`holding`] — small-signal holding resistance at the quiescent point
//!   (the *linear* victim model the superposition baseline uses).
//! * [`thevenin`] — saturated-ramp + resistance aggressor-driver model
//!   (Dartu–Pileggi style two-load fit).
//! * [`prop_table`] — pre-characterized propagated-noise tables: output
//!   glitch (peak, width, area, delay) vs. input glitch (height, width).

pub mod holding;
pub mod load_curve;
pub mod prop_table;
pub mod thevenin;

pub use holding::holding_resistance;
pub use load_curve::{characterize_load_curve, LoadCurve};
pub use prop_table::{
    characterize_propagated_noise, characterize_propagated_noise_with, PropagatedNoiseTable,
};
pub use thevenin::{
    characterize_thevenin, characterize_thevenin_with, TheveninDriver, TheveninLoad,
};

use serde::{Deserialize, Serialize};
use sna_spice::backend::BackendKind;
use sna_spice::dc::NewtonOptions;
use sna_spice::devices::SourceWaveform;
use sna_spice::error::Result;
use sna_spice::netlist::{Circuit, Element, NodeId};

use crate::cell::{Cell, DriverMode};

/// Controls for all characterization runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharacterizeOptions {
    /// Grid points per axis of the load-curve table (paper: "swept across
    /// the characterization range").
    pub grid: usize,
    /// Lower characterization bound as a fraction of Vdd (default −0.3).
    pub v_min_frac: f64,
    /// Upper bound as a fraction of Vdd (default 1.3).
    pub v_max_frac: f64,
    /// Newton controls for the underlying analyses (including the linear
    /// solver selection, `newton.solver`).
    pub newton: NewtonOptions,
    /// Retired compute-backend selector: selects nothing. Kept only for
    /// source compatibility with the benchmark harness.
    pub backend: BackendKind,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        Self {
            grid: 33,
            v_min_frac: -0.3,
            v_max_frac: 1.3,
            newton: NewtonOptions::default(),
            backend: BackendKind::default(),
        }
    }
}

/// A victim-driver test fixture: the cell instantiated with DC sources on
/// every input (per the [`DriverMode`]) and a supply source.
#[derive(Debug, Clone)]
pub struct DriverFixture {
    /// The assembled circuit.
    pub ckt: Circuit,
    /// Name of the source driving the noisy input (retune to inject a
    /// glitch waveform).
    pub noisy_source: String,
    /// The noisy input node.
    pub noisy_in: NodeId,
    /// The driver output node.
    pub out: NodeId,
    /// The supply node.
    pub vdd: NodeId,
}

/// Build a [`DriverFixture`] for `cell` in `mode`.
///
/// # Errors
///
/// Propagates instantiation failures (input-count mismatch).
pub fn driver_fixture(cell: &Cell, mode: &DriverMode) -> Result<DriverFixture> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(
        "Vdd",
        vdd,
        Circuit::gnd(),
        SourceWaveform::Dc(cell.tech.vdd),
    );
    let inputs: Vec<NodeId> = (0..cell.input_count())
        .map(|i| ckt.node(&format!("in{i}")))
        .collect();
    let mut noisy_source = String::new();
    for (i, (&node, &level)) in inputs.iter().zip(&mode.input_levels).enumerate() {
        let name = format!("Vin{i}");
        ckt.add_vsource(&name, node, Circuit::gnd(), SourceWaveform::Dc(level));
        if i == mode.noisy_input {
            noisy_source = name;
        }
    }
    let out = ckt.node("out");
    cell.instantiate(&mut ckt, "dut", &inputs, out, vdd)?;
    Ok(DriverFixture {
        ckt,
        noisy_source,
        noisy_in: inputs[mode.noisy_input],
        out,
        vdd,
    })
}

/// Lumped capacitances of the driver as seen by a noise macromodel:
/// `(c_out, c_miller)` where `c_out` collects every device capacitance from
/// the output node to an AC-ground (supply, ground, internal nodes) and
/// `c_miller` is the direct input→output coupling (gate-drain overlap of the
/// input devices), in farads.
///
/// Dropping `c_out` from the cluster macromodel is the classic source of
/// optimistic noise numbers; DESIGN.md lists it as ablation #4.
pub fn driver_output_caps(fixture: &DriverFixture) -> (f64, f64) {
    let mut c_out = 0.0;
    let mut c_miller = 0.0;
    for e in fixture.ckt.elements() {
        if let Element::Capacitor { a, b, farads, .. } = e {
            let touches_out = *a == fixture.out || *b == fixture.out;
            if !touches_out {
                continue;
            }
            let other = if *a == fixture.out { *b } else { *a };
            if other == fixture.noisy_in {
                c_miller += farads;
            } else {
                c_out += farads;
            }
        }
    }
    (c_out, c_miller)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::tech::Technology;
    use sna_spice::dc::dc_operating_point;

    #[test]
    fn fixture_reaches_quiescent_state() {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t, 1.0);
        let mode = cell.holding_low_mode();
        let fx = driver_fixture(&cell, &mode).unwrap();
        let sol = dc_operating_point(&fx.ckt, &NewtonOptions::default(), None).unwrap();
        assert!(sol.voltage(fx.out) < 0.03);
        let mode = cell.holding_high_mode();
        let fx = driver_fixture(&cell, &mode).unwrap();
        let sol = dc_operating_point(&fx.ckt, &NewtonOptions::default(), None).unwrap();
        assert!(sol.voltage(fx.out) > cell.tech.vdd - 0.03);
    }

    #[test]
    fn output_caps_positive() {
        let t = Technology::cmos130();
        let cell = Cell::nand2(t, 1.0);
        let fx = driver_fixture(&cell, &cell.holding_low_mode()).unwrap();
        let (c_out, c_miller) = driver_output_caps(&fx);
        assert!(c_out > 0.1e-15, "c_out={c_out}");
        assert!(c_miller > 0.01e-15, "c_miller={c_miller}");
        assert!(c_out < 100e-15);
    }

    #[test]
    fn noisy_source_is_retunable() {
        let t = Technology::cmos130();
        let cell = Cell::inv(t, 1.0);
        let mode = cell.holding_low_mode();
        let mut fx = driver_fixture(&cell, &mode).unwrap();
        fx.ckt
            .set_source_wave(&fx.noisy_source, SourceWaveform::Dc(0.0))
            .unwrap();
    }
}
