//! K-lane batched sweeps: one symbolic analysis, `K` value vectors.
//!
//! Corner sweeps, characterization grids, and Monte-Carlo noise-margin
//! studies all solve *the same circuit topology* with different element
//! values or source settings. [`BatchedSweep`] exploits that structure: it
//! assembles the union sparsity pattern once, runs the fill-reducing
//! symbolic analysis once, and then carries `K` value vectors together
//! through assembly, numeric refactorization, and triangular solves in
//! struct-of-arrays layout (`plane[slot * k + lane]`), factored and
//! solved by the lane-outer [`BatchedDenseLu`] / [`BatchedSparseLu`]
//! kernels.
//!
//! The per-lane arithmetic mirrors the serial
//! [`SystemSolver`](crate::solver::SystemSolver) paths, so
//! batched results track `K` independent serial solves to well below any
//! physical tolerance. Newton loops keep a per-lane convergence mask:
//! converged lanes stop stamping and updating while the remaining lanes
//! iterate, and DC lanes that resist the plain batched Newton fall
//! back—deterministically—to the serial continuation ladder of
//! [`dc_operating_point`].

use sna_obs::{count, phase_span, Metric, Phase};

use crate::backend::BatchedDenseLu;
use crate::dc::{dc_operating_point, vsource_names, DcSolution, NewtonOptions};
use crate::error::{Error, Result};
use crate::linalg::{MatrixStamp, PatternCollector};
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, NodeId};
use crate::solver::SolverKind;
use crate::sparse::{BatchedSparseLu, SparseLu, SparseMatrix, Symbolic};
use crate::tran::{circuit_topology_hash, circuit_value_hash, step_count, TranParams, TranResult};

/// Numeric state of a sweep: dense planes or one shared sparse pattern
/// with SoA value planes.
//
// One State lives per sweep and is never moved after construction, so the
// dense/sparse size asymmetry costs nothing; boxing would only add an
// indirection on the hot solve path.
#[allow(clippy::large_enum_variant)]
enum State {
    Dense {
        /// `n × n × k` SoA planes.
        g: Vec<f64>,
        c: Vec<f64>,
        base: Vec<f64>,
        /// Factor-in-place LU; its data plane doubles as the Jacobian.
        lu: BatchedDenseLu,
    },
    Sparse {
        /// Union pattern: diagonal ∪ every lane's G/C ∪ non-linear stamps.
        pattern: SparseMatrix,
        /// `nnz × k` SoA value planes sharing `pattern`.
        g_vals: Vec<f64>,
        c_vals: Vec<f64>,
        base_vals: Vec<f64>,
        jac_vals: Vec<f64>,
        sym: Symbolic,
        lu: Option<BatchedSparseLu>,
        /// Single-lane extraction scratch for cold-factor fallbacks.
        scratch_mat: SparseMatrix,
    },
}

/// [`MatrixStamp`] sink writing one lane of a dense SoA plane.
struct DenseLaneStamp<'a> {
    data: &'a mut [f64],
    n: usize,
    k: usize,
    lane: usize,
}

impl MatrixStamp for DenseLaneStamp<'_> {
    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[(i * self.n + j) * self.k + self.lane] += v;
    }
}

/// [`MatrixStamp`] sink writing one lane of a sparse SoA value plane.
struct SparseLaneStamp<'a> {
    pattern: &'a SparseMatrix,
    vals: &'a mut [f64],
    k: usize,
    lane: usize,
}

impl MatrixStamp for SparseLaneStamp<'_> {
    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        let s = self
            .pattern
            .value_slot(i, j)
            .unwrap_or_else(|| panic!("stamp at ({i},{j}) outside the sweep pattern"));
        self.vals[s * self.k + self.lane] += v;
    }
}

fn gather_lane(plane: &[f64], k: usize, lane: usize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = plane[i * k + lane];
    }
}

fn scatter_lane(src: &[f64], k: usize, lane: usize, plane: &mut [f64]) {
    for (i, &v) in src.iter().enumerate() {
        plane[i * k + lane] = v;
    }
}

/// `y(lane) = A(lane)·x(lane)` over dense SoA planes; per lane the
/// accumulation order matches the serial `DenseMatrix::mul_vec_into`.
fn dense_mul_planes(data: &[f64], n: usize, k: usize, x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    for i in 0..n {
        for j in 0..n {
            let a = (i * n + j) * k;
            for lane in 0..k {
                y[i * k + lane] += data[a + lane] * x[j * k + lane];
            }
        }
    }
}

fn extract_lane_values(plane: &[f64], k: usize, lane: usize, mat: &mut SparseMatrix) {
    for (s, v) in mat.values_mut().iter_mut().enumerate() {
        *v = plane[s * k + lane];
    }
}

fn state_set_alpha(state: &mut State, alpha: f64) {
    match state {
        State::Dense { g, c, base, .. } => {
            for ((b, &gv), &cv) in base.iter_mut().zip(g.iter()).zip(c.iter()) {
                *b = gv + alpha * cv;
            }
        }
        State::Sparse {
            g_vals,
            c_vals,
            base_vals,
            ..
        } => {
            for ((b, &gv), &cv) in base_vals.iter_mut().zip(g_vals.iter()).zip(c_vals.iter()) {
                *b = gv + alpha * cv;
            }
        }
    }
}

/// Reset one lane's Jacobian plane to the linear base `G + α·C`.
fn state_begin_lane(state: &mut State, k: usize, lane: usize) {
    match state {
        State::Dense { base, lu, .. } => {
            let data = lu.data_mut();
            let n2 = base.len() / k;
            for slot in 0..n2 {
                data[slot * k + lane] = base[slot * k + lane];
            }
        }
        State::Sparse {
            base_vals,
            jac_vals,
            ..
        } => {
            let nnz = base_vals.len() / k;
            for slot in 0..nnz {
                jac_vals[slot * k + lane] = base_vals[slot * k + lane];
            }
        }
    }
}

fn state_factor(state: &mut State, k: usize) -> Result<()> {
    match state {
        State::Dense { lu, .. } => lu
            .factor()
            // For batched factorizations the reported index is the failing
            // *lane*, not a pivot position.
            .map_err(|lane| Error::SingularMatrix { pivot: lane }),
        State::Sparse {
            pattern,
            jac_vals,
            sym,
            lu,
            scratch_mat,
            ..
        } => {
            if lu.is_none() {
                extract_lane_values(jac_vals, k, 0, scratch_mat);
                let proto = SparseLu::factor(scratch_mat, sym)?;
                *lu = Some(BatchedSparseLu::from_proto(proto, k));
            }
            let batched = lu.as_mut().expect("initialized above");
            match batched.refactor(pattern, jac_vals) {
                Ok(()) => Ok(()),
                Err(lane) => {
                    // The stored pivot sequence collapsed for `lane`:
                    // cold-factor that lane for fresh pivots (allocates —
                    // acceptable on this exceptional path) and replay.
                    extract_lane_values(jac_vals, k, lane, scratch_mat);
                    let proto = SparseLu::factor(scratch_mat, sym)?;
                    *lu = Some(BatchedSparseLu::from_proto(proto, k));
                    lu.as_mut()
                        .expect("just rebuilt")
                        .refactor(pattern, jac_vals)
                        .map_err(|l2| Error::SingularMatrix { pivot: l2 })
                }
            }
        }
    }
}

fn state_solve(state: &mut State, b: &[f64], x: &mut [f64]) {
    match state {
        State::Dense { lu, .. } => lu.solve(b, x),
        State::Sparse { lu, .. } => {
            lu.as_mut().expect("factor before solve").solve(b, x);
        }
    }
}

fn state_g_mul(state: &State, dim: usize, k: usize, x: &[f64], y: &mut [f64]) {
    match state {
        State::Dense { g, .. } => dense_mul_planes(g, dim, k, x, y),
        State::Sparse {
            pattern, g_vals, ..
        } => pattern.mul_planes_into(g_vals, k, x, y),
    }
}

fn state_c_mul(state: &State, dim: usize, k: usize, x: &[f64], y: &mut [f64]) {
    match state {
        State::Dense { c, .. } => dense_mul_planes(c, dim, k, x, y),
        State::Sparse {
            pattern, c_vals, ..
        } => pattern.mul_planes_into(c_vals, k, x, y),
    }
}

fn state_base_mul(state: &State, dim: usize, k: usize, x: &[f64], y: &mut [f64]) {
    match state {
        State::Dense { base, .. } => dense_mul_planes(base, dim, k, x, y),
        State::Sparse {
            pattern, base_vals, ..
        } => pattern.mul_planes_into(base_vals, k, x, y),
    }
}

/// Stamp one lane's non-linear device contributions into its residual
/// slice (and, when `with_jac`, its Jacobian plane).
#[allow(clippy::too_many_arguments)] // internal kernel: explicit state beats a bag struct
fn state_stamp_lane(
    state: &mut State,
    mna: &MnaSystem,
    circuit: &Circuit,
    x_lane: &[f64],
    residual_lane: &mut [f64],
    k: usize,
    lane: usize,
    with_jac: bool,
) {
    match state {
        State::Dense { lu, .. } => {
            if with_jac {
                let n = lu.n();
                let mut stamp = DenseLaneStamp {
                    data: lu.data_mut(),
                    n,
                    k,
                    lane,
                };
                mna.stamp_nonlinear(circuit, x_lane, residual_lane, Some(&mut stamp));
            } else {
                mna.stamp_nonlinear(circuit, x_lane, residual_lane, None);
            }
        }
        State::Sparse {
            pattern, jac_vals, ..
        } => {
            if with_jac {
                let mut stamp = SparseLaneStamp {
                    pattern,
                    vals: jac_vals,
                    k,
                    lane,
                };
                mna.stamp_nonlinear(circuit, x_lane, residual_lane, Some(&mut stamp));
            } else {
                mna.stamp_nonlinear(circuit, x_lane, residual_lane, None);
            }
        }
    }
}

/// A K-lane batched sweep over one circuit topology.
///
/// Built once from `K` circuits that share wiring (they may differ in
/// element values and source waveforms), then driven through
/// [`BatchedSweep::dc_operating_points`] or [`BatchedSweep::transient`] —
/// each call re-validated against the construction-time fingerprint
/// exactly like [`crate::tran::TranWorkspace`] reuse: only source waveforms
/// may change between calls.
pub struct BatchedSweep {
    k: usize,
    kind: SolverKind,
    mna: MnaSystem,
    dim: usize,
    n_nodes: usize,
    alpha: f64,
    /// Base-factor memo: `Some(α)` when the current factors are the base at
    /// that α with no non-linear stamps.
    factored_base_alpha: Option<f64>,
    state: State,
    // Construction-time fingerprints guarding reuse.
    node_count: usize,
    element_count: usize,
    topo_hash: u64,
    value_hashes: Vec<u64>,
    // SoA step planes, all `dim × k`.
    b_prev: Vec<f64>,
    b_cur: Vec<f64>,
    rhs: Vec<f64>,
    scratch: Vec<f64>,
    residual: Vec<f64>,
    neg: Vec<f64>,
    dx: Vec<f64>,
    f_prev: Vec<f64>,
    x: Vec<f64>,
    x_next: Vec<f64>,
    // Per-lane gather/scatter buffers of `dim`.
    lane_v: Vec<f64>,
    lane_r: Vec<f64>,
    /// Per-lane Newton convergence mask.
    active: Vec<bool>,
}

impl BatchedSweep {
    /// Assemble a sweep over `circuits` (one lane each). All lanes must
    /// share the circuit topology — node count, element count, element
    /// kinds and terminal wiring — while element values and source
    /// waveforms may differ per lane.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidAnalysis`] on an empty lane set or mismatched lane
    /// topologies; propagates circuit validation failures.
    pub fn new(circuits: &[Circuit], kind: SolverKind) -> Result<Self> {
        let first = circuits.first().ok_or_else(|| {
            Error::InvalidAnalysis("batched sweep needs at least one lane".into())
        })?;
        let k = circuits.len();
        let topo_hash = circuit_topology_hash(first);
        for (lane, c) in circuits.iter().enumerate() {
            if c.node_count() != first.node_count()
                || c.elements().len() != first.elements().len()
                || circuit_topology_hash(c) != topo_hash
            {
                return Err(Error::InvalidAnalysis(format!(
                    "batched sweep lane {lane} differs in circuit topology from lane 0"
                )));
            }
        }
        let mna = MnaSystem::new(first)?;
        let dim = mna.dim();
        let n_nodes = mna.n_nodes();
        let value_hashes: Vec<u64> = circuits.iter().map(circuit_value_hash).collect();
        let lane_mnas: Vec<MnaSystem> = circuits
            .iter()
            .map(MnaSystem::new)
            .collect::<Result<Vec<_>>>()?;
        let state = if kind.is_sparse_for(dim) {
            let mut entries: Vec<(usize, usize)> = Vec::new();
            for i in 0..dim {
                entries.push((i, i));
            }
            for m in &lane_mnas {
                let g = m.g_matrix();
                let c = m.c_matrix();
                for i in 0..dim {
                    for j in 0..dim {
                        if g[(i, j)] != 0.0 || c[(i, j)] != 0.0 {
                            entries.push((i, j));
                        }
                    }
                }
            }
            let mut collector = PatternCollector::new();
            let zeros = vec![0.0; dim];
            let mut scratch = vec![0.0; dim];
            mna.stamp_nonlinear(first, &zeros, &mut scratch, Some(&mut collector));
            entries.extend_from_slice(collector.entries());
            let pattern = SparseMatrix::from_pattern(dim, &entries);
            let nnz = pattern.nnz();
            let mut g_vals = vec![0.0; nnz * k];
            let mut c_vals = vec![0.0; nnz * k];
            for (lane, m) in lane_mnas.iter().enumerate() {
                let g = m.g_matrix();
                let c = m.c_matrix();
                for i in 0..dim {
                    for j in 0..dim {
                        let (gv, cv) = (g[(i, j)], c[(i, j)]);
                        if gv != 0.0 || cv != 0.0 {
                            let s = pattern
                                .value_slot(i, j)
                                .expect("union pattern covers every lane entry");
                            g_vals[s * k + lane] = gv;
                            c_vals[s * k + lane] = cv;
                        }
                    }
                }
            }
            let sym = Symbolic::analyze(&pattern);
            let scratch_mat = pattern.clone();
            State::Sparse {
                base_vals: g_vals.clone(),
                jac_vals: vec![0.0; nnz * k],
                g_vals,
                c_vals,
                pattern,
                sym,
                lu: None,
                scratch_mat,
            }
        } else {
            let mut g = vec![0.0; dim * dim * k];
            let mut c = vec![0.0; dim * dim * k];
            for (lane, m) in lane_mnas.iter().enumerate() {
                let gm = m.g_matrix();
                let cm = m.c_matrix();
                for i in 0..dim {
                    for j in 0..dim {
                        g[(i * dim + j) * k + lane] = gm[(i, j)];
                        c[(i * dim + j) * k + lane] = cm[(i, j)];
                    }
                }
            }
            State::Dense {
                base: g.clone(),
                g,
                c,
                lu: BatchedDenseLu::new(dim, k),
            }
        };
        Ok(Self {
            k,
            kind,
            mna,
            dim,
            n_nodes,
            alpha: 0.0,
            factored_base_alpha: None,
            state,
            node_count: first.node_count(),
            element_count: first.elements().len(),
            topo_hash,
            value_hashes,
            b_prev: vec![0.0; dim * k],
            b_cur: vec![0.0; dim * k],
            rhs: vec![0.0; dim * k],
            scratch: vec![0.0; dim * k],
            residual: vec![0.0; dim * k],
            neg: vec![0.0; dim * k],
            dx: vec![0.0; dim * k],
            f_prev: vec![0.0; dim * k],
            x: vec![0.0; dim * k],
            x_next: vec![0.0; dim * k],
            lane_v: vec![0.0; dim],
            lane_r: vec![0.0; dim],
            active: vec![false; k],
        })
    }

    /// Lane count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Unknown count of each lane's MNA system.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the sparse backend was selected.
    pub fn is_sparse(&self) -> bool {
        matches!(self.state, State::Sparse { .. })
    }

    /// Guard against reuse with different circuits: lane count, topology,
    /// and element values must match construction; only source waveforms
    /// may change between calls (same contract as
    /// [`crate::tran::TranWorkspace`]).
    fn check(&self, circuits: &[Circuit]) -> Result<()> {
        if circuits.len() != self.k {
            return Err(Error::InvalidAnalysis(
                "batched sweep called with a different lane count".into(),
            ));
        }
        for (lane, c) in circuits.iter().enumerate() {
            if c.node_count() != self.node_count
                || c.elements().len() != self.element_count
                || circuit_topology_hash(c) != self.topo_hash
            {
                return Err(Error::InvalidAnalysis(format!(
                    "batched sweep built for a different circuit topology (lane {lane})"
                )));
            }
            if circuit_value_hash(c) != self.value_hashes[lane] {
                return Err(Error::InvalidAnalysis(format!(
                    "element values changed since the batched sweep was built (lane {lane}); \
                     only source waveforms may change between reuses"
                )));
            }
        }
        Ok(())
    }

    fn set_alpha(&mut self, alpha: f64) {
        if alpha == self.alpha {
            return;
        }
        self.alpha = alpha;
        self.factored_base_alpha = None;
        state_set_alpha(&mut self.state, alpha);
    }

    /// Factor the linear base `G + α·C` for all lanes (memoized on α, so a
    /// repeated linear solve at one step size reuses the factors).
    fn factor_base(&mut self) -> Result<()> {
        if self.factored_base_alpha == Some(self.alpha) {
            return Ok(());
        }
        for lane in 0..self.k {
            state_begin_lane(&mut self.state, self.k, lane);
        }
        state_factor(&mut self.state, self.k)?;
        self.factored_base_alpha = Some(self.alpha);
        Ok(())
    }

    /// Fill `self.b_cur` from every lane's sources at time `t`.
    fn fill_b_cur(&mut self, circuits: &[Circuit], t: f64) {
        for (lane, ckt) in circuits.iter().enumerate() {
            self.mna.rhs_into(ckt, t, 1.0, &mut self.lane_v);
            scatter_lane(&self.lane_v, self.k, lane, &mut self.b_cur);
        }
    }

    /// Batched DC operating points: one per lane, solved simultaneously.
    ///
    /// Linear lane sets factor the base once and back-substitute all lanes
    /// in one batched solve. Non-linear sets run a masked plain Newton —
    /// converged lanes stop stamping and updating while the rest iterate —
    /// and any lane that resists plain Newton (or a singular batched
    /// factor) falls back to the serial continuation ladder of
    /// [`dc_operating_point`], keeping behavior deterministic.
    ///
    /// `warm` optionally seeds each lane with a previous solution's raw
    /// unknown vector (same semantics as [`dc_operating_point`]).
    ///
    /// # Errors
    ///
    /// [`Error::NonConvergence`] if a lane fails even the serial ladder;
    /// [`Error::SingularMatrix`] on structurally singular lanes;
    /// [`Error::InvalidAnalysis`] on fingerprint mismatches.
    pub fn dc_operating_points(
        &mut self,
        circuits: &[Circuit],
        opts: &NewtonOptions,
        warm: Option<&[Vec<f64>]>,
    ) -> Result<Vec<DcSolution>> {
        self.check(circuits)?;
        let _t = phase_span(Phase::Sweep);
        count(Metric::SweepCalls, 1);
        count(Metric::SweepLanes, self.k as u64);
        self.set_alpha(0.0);
        let (k, dim) = (self.k, self.dim);
        self.fill_b_cur(circuits, 0.0);
        let warm_ok = warm.is_some_and(|w| w.len() == k && w.iter().all(|v| v.len() == dim));
        if warm_ok {
            let w = warm.expect("checked above");
            for (lane, w_lane) in w.iter().enumerate() {
                scatter_lane(w_lane, k, lane, &mut self.x);
            }
        } else {
            self.x.fill(0.0);
        }
        let names: Vec<Vec<String>> = circuits
            .iter()
            .map(|c| vsource_names(c, &self.mna))
            .collect();
        if !self.mna.has_nonlinear() {
            self.factor_base()?;
            state_solve(&mut self.state, &self.b_cur, &mut self.x);
            let mut out = Vec::with_capacity(k);
            for (lane, name) in names.into_iter().enumerate() {
                gather_lane(&self.x, k, lane, &mut self.lane_v);
                out.push(DcSolution::from_parts(
                    self.lane_v.clone(),
                    self.mna.vsource_branches().to_vec(),
                    name,
                    1,
                ));
            }
            return Ok(out);
        }
        // Masked plain Newton over all lanes.
        let mut iters = vec![0usize; k];
        self.active.fill(true);
        for _ in 0..opts.max_iter {
            if !self.active.iter().any(|&a| a) {
                break;
            }
            let Self {
                mna,
                state,
                b_cur,
                residual,
                neg,
                x,
                lane_v,
                lane_r,
                active,
                ..
            } = self;
            for (lane, &is_active) in active.iter().enumerate() {
                if is_active {
                    state_begin_lane(state, k, lane);
                }
            }
            state_g_mul(state, dim, k, x, residual);
            for (r, &bv) in residual.iter_mut().zip(b_cur.iter()) {
                *r -= bv;
            }
            for (lane, ckt) in circuits.iter().enumerate() {
                if !active[lane] {
                    continue;
                }
                gather_lane(x, k, lane, lane_v);
                gather_lane(residual, k, lane, lane_r);
                state_stamp_lane(state, mna, ckt, lane_v, lane_r, k, lane, true);
                scatter_lane(lane_r, k, lane, residual);
                iters[lane] += 1;
            }
            for (nv, &rv) in neg.iter_mut().zip(residual.iter()) {
                *nv = -rv;
            }
            if state_factor(state, k).is_err() {
                // Conservative: every still-active lane takes the serial
                // ladder.
                break;
            }
            self.factored_base_alpha = None;
            state_solve(&mut self.state, &self.neg, &mut self.dx);
            for lane in 0..k {
                if !self.active[lane] {
                    continue;
                }
                let mut max_res = 0.0_f64;
                let mut max_dx = 0.0_f64;
                for i in 0..dim {
                    max_res = max_res.max(self.residual[i * k + lane].abs());
                    max_dx = max_dx.max(self.dx[i * k + lane].abs());
                }
                let scale = if max_dx > opts.max_step {
                    opts.max_step / max_dx
                } else {
                    1.0
                };
                let mut converged = max_res < opts.abstol.max(1e-12);
                for i in 0..dim {
                    let step = scale * self.dx[i * k + lane];
                    self.x[i * k + lane] += step;
                    if step.abs() > opts.reltol * self.x[i * k + lane].abs() + opts.vntol {
                        converged = false;
                    }
                }
                if converged && scale == 1.0 {
                    self.active[lane] = false;
                }
            }
        }
        count(
            Metric::SweepLaneNewtonIterations,
            iters.iter().sum::<usize>() as u64,
        );
        // Serial continuation-ladder fallback for unconverged lanes.
        for lane in 0..k {
            if !self.active[lane] {
                continue;
            }
            count(Metric::SweepSerialFallbacks, 1);
            let mut lane_opts = *opts;
            lane_opts.solver = self.kind;
            let warm_lane = if warm_ok {
                warm.map(|w| w[lane].as_slice())
            } else {
                None
            };
            let sol = dc_operating_point(&circuits[lane], &lane_opts, warm_lane)?;
            scatter_lane(sol.unknowns(), k, lane, &mut self.x);
            iters[lane] += sol.iterations;
            self.active[lane] = false;
        }
        let mut out = Vec::with_capacity(k);
        for (lane, name) in names.into_iter().enumerate() {
            gather_lane(&self.x, k, lane, &mut self.lane_v);
            out.push(DcSolution::from_parts(
                self.lane_v.clone(),
                self.mna.vsource_branches().to_vec(),
                name,
                iters[lane],
            ));
        }
        Ok(out)
    }

    /// Masked Newton solve of `(G + α·C)x + f(x) = rhs` on the `x` plane
    /// (one transient step). Returns total per-lane iteration count; errors
    /// if any lane fails.
    fn newton_step_lanes(
        &mut self,
        circuits: &[Circuit],
        newton: &NewtonOptions,
        t1: f64,
    ) -> Result<usize> {
        let (k, dim) = (self.k, self.dim);
        self.active.fill(true);
        self.factored_base_alpha = None;
        let mut total = 0usize;
        for _ in 0..newton.max_iter {
            if !self.active.iter().any(|&a| a) {
                count(Metric::SweepLaneNewtonIterations, total as u64);
                return Ok(total);
            }
            let Self {
                mna,
                state,
                rhs,
                residual,
                neg,
                dx,
                x,
                lane_v,
                lane_r,
                active,
                ..
            } = self;
            state_base_mul(state, dim, k, x, residual);
            for (r, &rv) in residual.iter_mut().zip(rhs.iter()) {
                *r -= rv;
            }
            for (lane, &is_active) in active.iter().enumerate() {
                if is_active {
                    state_begin_lane(state, k, lane);
                }
            }
            for (lane, ckt) in circuits.iter().enumerate() {
                if !active[lane] {
                    continue;
                }
                gather_lane(x, k, lane, lane_v);
                gather_lane(residual, k, lane, lane_r);
                state_stamp_lane(state, mna, ckt, lane_v, lane_r, k, lane, true);
                scatter_lane(lane_r, k, lane, residual);
                total += 1;
            }
            for (nv, &rv) in neg.iter_mut().zip(residual.iter()) {
                *nv = -rv;
            }
            state_factor(state, k)?;
            state_solve(state, neg, dx);
            for lane in 0..k {
                if !self.active[lane] {
                    continue;
                }
                let mut max_dx = 0.0_f64;
                for i in 0..dim {
                    max_dx = max_dx.max(self.dx[i * k + lane].abs());
                }
                let scale = if max_dx > newton.max_step {
                    newton.max_step / max_dx
                } else {
                    1.0
                };
                let mut done = true;
                for i in 0..dim {
                    let s = scale * self.dx[i * k + lane];
                    self.x[i * k + lane] += s;
                    if s.abs() > newton.reltol * self.x[i * k + lane].abs() + newton.vntol {
                        done = false;
                    }
                }
                if done && scale == 1.0 {
                    self.active[lane] = false;
                }
            }
        }
        if self.active.iter().any(|&a| a) {
            let mut max_res = 0.0_f64;
            for (slot, &r) in self.residual.iter().enumerate() {
                if self.active[slot % k] {
                    max_res = max_res.max(r.abs());
                }
            }
            return Err(Error::NonConvergence {
                analysis: "tran",
                iterations: newton.max_iter,
                time: t1,
                residual: max_res,
            });
        }
        count(Metric::SweepLaneNewtonIterations, total as u64);
        Ok(total)
    }

    /// Batched fixed-step transient: one [`TranResult`] per lane, all lanes
    /// stepped together on the shared time grid. Mirrors
    /// [`crate::tran::transient_with`] per lane, with the per-step Newton
    /// masked per lane.
    ///
    /// # Errors
    ///
    /// As [`crate::tran::transient_with`], plus fingerprint mismatches.
    pub fn transient(
        &mut self,
        circuits: &[Circuit],
        params: &TranParams,
    ) -> Result<Vec<TranResult>> {
        self.transient_with_ics(circuits, params, &[])
    }

    /// [`Self::transient`] plus `.IC` initial-condition overrides: after the
    /// DC solve (or the all-zeros `UIC` start when `dc_init` is false), each
    /// listed node's starting voltage is forced to the given value in every
    /// lane before stepping begins. This is the SPICE `.IC` approximation —
    /// the override biases the initial state rather than adding a
    /// constraint row, so the first steps relax any resulting KCL
    /// imbalance. Ground and unknown nodes are ignored.
    ///
    /// # Errors
    ///
    /// As [`Self::transient`].
    pub fn transient_with_ics(
        &mut self,
        circuits: &[Circuit],
        params: &TranParams,
        ics: &[(NodeId, f64)],
    ) -> Result<Vec<TranResult>> {
        let n_steps = step_count(params)?;
        self.check(circuits)?;
        let _t = phase_span(Phase::Sweep);
        count(Metric::SweepCalls, 1);
        count(Metric::SweepLanes, self.k as u64);
        let (k, dim, n_nodes) = (self.k, self.dim, self.n_nodes);
        // Initial condition per lane.
        if params.dc_init {
            let mut newton = params.newton;
            newton.solver = self.kind;
            self.dc_operating_points(circuits, &newton, None)?;
            // `dc_operating_points` leaves its solution in the x plane.
        } else {
            self.x.fill(0.0);
        }
        for &(node, v) in ics {
            if let Some(row) = self.mna.node_unknown(node) {
                for lane in 0..k {
                    self.x[row * k + lane] = v;
                }
            }
        }
        let alpha = 2.0 / params.dt;
        self.set_alpha(alpha);
        let linear = !self.mna.has_nonlinear();
        if linear {
            self.factor_base()?;
        }
        let mut times = Vec::with_capacity(n_steps + 1);
        let mut traces: Vec<Vec<Vec<f64>>> = (0..k)
            .map(|_| {
                (0..n_nodes)
                    .map(|_| Vec::with_capacity(n_steps + 1))
                    .collect()
            })
            .collect();
        let n_vsrc = self.mna.vsources().len();
        let vb: Vec<usize> = self.mna.vsource_branches().to_vec();
        let mut branch: Vec<Vec<Vec<f64>>> = (0..k)
            .map(|_| {
                (0..n_vsrc)
                    .map(|_| Vec::with_capacity(n_steps + 1))
                    .collect()
            })
            .collect();
        let record = |x: &[f64],
                      t: f64,
                      times: &mut Vec<f64>,
                      traces: &mut Vec<Vec<Vec<f64>>>,
                      branch: &mut Vec<Vec<Vec<f64>>>| {
            times.push(t);
            for (lane, lane_tr) in traces.iter_mut().enumerate() {
                for (n, tr) in lane_tr.iter_mut().enumerate() {
                    tr.push(x[n * k + lane]);
                }
            }
            for (lane, lane_br) in branch.iter_mut().enumerate() {
                for (s, br) in lane_br.iter_mut().enumerate() {
                    br.push(x[vb[s] * k + lane]);
                }
            }
        };
        record(&self.x, 0.0, &mut times, &mut traces, &mut branch);
        self.fill_b_cur(circuits, 0.0);
        std::mem::swap(&mut self.b_prev, &mut self.b_cur);
        self.stamp_f_prev(circuits);
        let mut total_newton = 0usize;
        for step in 1..=n_steps {
            let t1 = step as f64 * params.dt;
            self.fill_b_cur(circuits, t1);
            {
                let Self {
                    state,
                    b_prev,
                    b_cur,
                    rhs,
                    scratch,
                    f_prev,
                    x,
                    ..
                } = self;
                state_c_mul(state, dim, k, x, scratch);
                for i in 0..dim * k {
                    rhs[i] = b_cur[i] + b_prev[i] - f_prev[i] + alpha * scratch[i];
                }
                state_g_mul(state, dim, k, x, scratch);
                for i in 0..dim * k {
                    rhs[i] -= scratch[i];
                }
            }
            if linear {
                state_solve(&mut self.state, &self.rhs, &mut self.x_next);
                std::mem::swap(&mut self.x, &mut self.x_next);
            } else {
                total_newton += self.newton_step_lanes(circuits, &params.newton, t1)?;
            }
            record(&self.x, t1, &mut times, &mut traces, &mut branch);
            std::mem::swap(&mut self.b_prev, &mut self.b_cur);
            self.stamp_f_prev(circuits);
        }
        count(Metric::SweepSteps, n_steps as u64);
        Ok(self.collect_results(circuits, times, traces, branch, total_newton))
    }

    /// Refill `self.f_prev` with every lane's non-linear residual at the
    /// current `x` plane (the trapezoidal rule's previous-point term).
    fn stamp_f_prev(&mut self, circuits: &[Circuit]) {
        let k = self.k;
        self.f_prev.fill(0.0);
        let Self {
            mna,
            state,
            f_prev,
            x,
            lane_v,
            lane_r,
            ..
        } = self;
        for (lane, ckt) in circuits.iter().enumerate() {
            gather_lane(x, k, lane, lane_v);
            lane_r.fill(0.0);
            state_stamp_lane(state, mna, ckt, lane_v, lane_r, k, lane, false);
            scatter_lane(lane_r, k, lane, f_prev);
        }
    }

    /// Package per-lane sample storage into [`TranResult`]s.
    fn collect_results(
        &self,
        circuits: &[Circuit],
        times: Vec<f64>,
        traces: Vec<Vec<Vec<f64>>>,
        branch: Vec<Vec<Vec<f64>>>,
        total_newton: usize,
    ) -> Vec<TranResult> {
        let mut out = Vec::with_capacity(self.k);
        for ((ckt, lane_tr), lane_br) in circuits.iter().zip(traces).zip(branch) {
            let node_names = (0..ckt.node_count())
                .map(|i| ckt.node_name(NodeId(i)).to_string())
                .collect();
            let vsrc_names = self
                .mna
                .vsources()
                .iter()
                .map(|id| ckt.element(*id).name().to_string())
                .collect();
            out.push(TranResult::from_parts(
                times.clone(),
                lane_tr,
                lane_br,
                node_names,
                vsrc_names,
                total_newton,
            ));
        }
        out
    }
}
