//! The K-lane dense LU behind the batched solver kernels.
//!
//! [`crate::sweep::BatchedSweep`] and the macromodel engine carry `K`
//! value vectors through assembly, numeric (re)factorization and
//! triangular solves in struct-of-arrays layout. [`BatchedDenseLu`] is the
//! dense half of that stack (the sparse half is
//! [`crate::sparse::BatchedSparseLu`]): its loops run lane-outermost,
//! replaying the serial kernel once per lane over the shared planes, so
//! every lane performs exactly the serial operation sequence.

use serde::{Deserialize, Serialize};

/// Retired compute-backend selector.
///
/// The batched kernels have one loop nesting, so this selects nothing. It
/// is kept, with its single variant, only for source compatibility with
/// the benchmark harness, which still forwards
/// `MacromodelOptions::backend` into the characterization options and the
/// alignment/FRAME searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The lane-outer kernels (the only ones).
    #[default]
    Scalar,
}

/// K-lane dense LU with per-lane partial pivoting over one SoA data plane.
///
/// Layout: `data[(i * n + j) * k + lane]`, per-lane permutation
/// `perm[lane * n + i]`. The data plane doubles as the Jacobian stamping
/// area — the sweep copies its base plane in, stamps non-linear
/// contributions per lane, then factors in place, exactly mirroring the
/// serial [`crate::linalg::LuFactors`] elimination per lane (minus the
/// `m != 0.0` skip guard, which only ever skips exact no-op updates).
#[derive(Debug, Clone)]
pub struct BatchedDenseLu {
    n: usize,
    k: usize,
    data: Vec<f64>,
    perm: Vec<usize>,
}

/// Pivots below this are numerically singular (same cutoff as the serial
/// dense LU).
const PIVOT_MIN: f64 = 1e-300;

impl BatchedDenseLu {
    /// Zeroed `n × n × k` plane with identity permutations.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0, "batched factorization needs at least one lane");
        Self {
            n,
            k,
            data: vec![0.0; n * n * k],
            perm: vec![0; n * k],
        }
    }

    /// Dimension of each lane's system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lane count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The SoA data plane (`data[(i * n + j) * k + lane]`) — valid matrix
    /// entries before a factor call, L/U factors afterwards.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable SoA data plane, for loading matrix values and stamping.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn reset_perm(&mut self) {
        for lane in 0..self.k {
            for i in 0..self.n {
                self.perm[lane * self.n + i] = i;
            }
        }
    }

    /// Factor every lane in place: per-lane partial-pivoted elimination,
    /// one full lane at a time. All lanes run to completion; the smallest
    /// failing lane (if any) is reported, its factors left non-finite but
    /// contained.
    ///
    /// # Errors
    ///
    /// `Err(lane)` with the smallest numerically singular lane.
    pub fn factor(&mut self) -> std::result::Result<(), usize> {
        self.reset_perm();
        let (n, k) = (self.n, self.k);
        let mut fail = usize::MAX;
        for lane in 0..k {
            for kk in 0..n {
                let mut p = kk;
                let mut best = self.data[(kk * n + kk) * k + lane].abs();
                for i in (kk + 1)..n {
                    let v = self.data[(i * n + kk) * k + lane].abs();
                    if v > best {
                        best = v;
                        p = i;
                    }
                }
                if best < PIVOT_MIN && lane < fail {
                    fail = lane;
                }
                if p != kk {
                    for j in 0..n {
                        self.data
                            .swap((kk * n + j) * k + lane, (p * n + j) * k + lane);
                    }
                    self.perm.swap(lane * n + kk, lane * n + p);
                }
                let pivot = self.data[(kk * n + kk) * k + lane];
                for i in (kk + 1)..n {
                    let m = self.data[(i * n + kk) * k + lane] / pivot;
                    self.data[(i * n + kk) * k + lane] = m;
                    for j in (kk + 1)..n {
                        self.data[(i * n + j) * k + lane] -= m * self.data[(kk * n + j) * k + lane];
                    }
                }
            }
        }
        if fail == usize::MAX {
            Ok(())
        } else {
            Err(fail)
        }
    }

    /// Solve every lane over SoA planes (`b[row * k + lane]`), using `x`
    /// in place as the substitution workspace like the serial kernel.
    ///
    /// # Panics
    ///
    /// Panics on plane-dimension mismatch.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        let (n, k) = (self.n, self.k);
        assert_eq!(b.len(), n * k);
        assert_eq!(x.len(), n * k);
        for lane in 0..k {
            for i in 0..n {
                x[i * k + lane] = b[self.perm[lane * n + i] * k + lane];
            }
            for i in 1..n {
                for j in 0..i {
                    x[i * k + lane] -= self.data[(i * n + j) * k + lane] * x[j * k + lane];
                }
            }
            for i in (0..n).rev() {
                for j in (i + 1)..n {
                    x[i * k + lane] -= self.data[(i * n + j) * k + lane] * x[j * k + lane];
                }
                x[i * k + lane] /= self.data[(i * n + i) * k + lane];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::DenseMatrix;

    fn load_lanes(lu: &mut BatchedDenseLu, mats: &[DenseMatrix]) {
        let (n, k) = (lu.n(), lu.k());
        assert_eq!(mats.len(), k);
        let data = lu.data_mut();
        for (lane, m) in mats.iter().enumerate() {
            for i in 0..n {
                for j in 0..n {
                    data[(i * n + j) * k + lane] = m[(i, j)];
                }
            }
        }
    }

    fn lane_mats(k: usize) -> Vec<DenseMatrix> {
        (0..k)
            .map(|lane| {
                let s = 1.0 + 0.11 * lane as f64;
                DenseMatrix::from_rows(&[
                    &[0.0, 1.0 * s, 0.5],
                    &[2.0 * s, -1.0, 0.0],
                    &[0.5, 0.0, 3.0 * s],
                ])
            })
            .collect()
    }

    #[test]
    fn batched_dense_matches_serial_and_nestings_bitwise() {
        let k = 4;
        let mats = lane_mats(k);
        let b_lane = [1.0, -2.0, 0.5];
        let mut b_plane = vec![0.0; 3 * k];
        for i in 0..3 {
            for lane in 0..k {
                b_plane[i * k + lane] = b_lane[i];
            }
        }
        let mut lu = BatchedDenseLu::new(3, k);
        load_lanes(&mut lu, &mats);
        lu.factor().unwrap();
        let mut x = vec![0.0; 3 * k];
        lu.solve(&b_plane, &mut x);
        for (lane, m) in mats.iter().enumerate() {
            let want = m.solve(&b_lane).unwrap();
            for i in 0..3 {
                let got = x[i * k + lane];
                assert!(
                    (got - want[i]).abs() < 1e-12,
                    "lane {lane} row {i}: {got} vs {}",
                    want[i]
                );
            }
        }
    }

    #[test]
    fn batched_dense_reports_min_singular_lane() {
        let k = 3;
        let mut mats = lane_mats(k);
        mats[1] = DenseMatrix::zeros(3, 3);
        mats[2] = DenseMatrix::zeros(3, 3);
        let mut lu = BatchedDenseLu::new(3, k);
        load_lanes(&mut lu, &mats);
        assert_eq!(lu.factor(), Err(1));
    }
}
