//! PCA sparse transforms and reconstruction error (§2.2).
//!
//! For a square symmetric matrix `M = E D Eᵀ`, the k'th *sparse transform*
//! keeps only the first k eigenpairs: `M_k = E_k D_k E_kᵀ`. The paper's
//! finding is that cloud communication matrices need very few eigenvectors —
//! `ReconErr(M, M_25) < 0.05` on a > 500-node matrix — because redundancy
//! (many replicas, same role) makes the matrix low-rank.

use crate::eigen::{eigen_symmetric, EigenDecomposition};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use serde::Serialize;

/// Reconstruction error as defined in the paper: the normalized absolute sum
/// of the entries of `M − M_k` — i.e. `Σ|M − M_k| / Σ|M|`. An error of 0.05
/// means reconstructed entries are within 5% of their true values on
/// average. Returns 0 for an all-zero `M` only if `M_k` is also all-zero.
pub fn recon_err(m: &Matrix, mk: &Matrix) -> Result<f64> {
    let diff = m.sub(mk)?.abs_sum();
    let denom = m.abs_sum();
    if denom == 0.0 {
        return Ok(if diff == 0.0 { 0.0 } else { f64::INFINITY });
    }
    Ok(diff / denom)
}

/// Compute `M_k` directly from a symmetric matrix.
pub fn sparse_transform(m: &Matrix, k: usize) -> Result<Matrix> {
    let d = eigen_symmetric(m, 1e-10)?;
    d.reconstruct(k)
}

/// Reconstruction error at one value of k.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct KError {
    /// Number of eigenpairs retained.
    pub k: usize,
    /// `ReconErr(M, M_k)`.
    pub err: f64,
}

/// The full k-sweep result for one matrix.
#[derive(Debug, Clone, Serialize)]
pub struct PcaSummary {
    /// Matrix dimension.
    pub n: usize,
    /// Errors at each requested k, ascending in k.
    pub errors: Vec<KError>,
    /// Smallest k with error below 0.05, if any was requested.
    pub k_for_5_percent: Option<usize>,
}

/// The reconstruction error at **every** k from 0 to n, computed
/// incrementally (`M_k = M_{k-1} + λ_k v_k v_kᵀ`) in O(n³) total.
///
/// Needed because the entrywise-L1 error is *not* guaranteed monotone in k:
/// adjacency matrices have large negative eigenvalues (bipartite tier
/// structure), and adding such an eigenpair can transiently raise the
/// absolute-sum error even as the Frobenius error falls.
///
/// `Σ|M − M_k|` is summed per row in column order, then over rows in
/// ascending order; that fixed summation tree is part of the output bits.
pub fn recon_err_profile(d: &EigenDecomposition, m: &Matrix) -> Result<Vec<f64>> {
    let n = m.rows();
    if d.values.len() != n || m.cols() != n {
        return Err(Error::InvalidArg(format!(
            "decomposition of size {} does not match matrix {}x{}",
            d.values.len(),
            m.rows(),
            m.cols()
        )));
    }
    let denom = m.abs_sum();
    let err_of = |row_err: &[f64]| -> f64 {
        let diff: f64 = row_err.iter().sum();
        if denom == 0.0 {
            if diff == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            diff / denom
        }
    };
    let mut mk = Matrix::zeros(n, n);
    let mut row_err: Vec<f64> = (0..n).map(|i| m.row(i).iter().map(|v| v.abs()).sum()).collect();
    let mut profile = Vec::with_capacity(n + 1);
    profile.push(err_of(&row_err));
    for c in 0..n {
        let lambda = d.values[c];
        for (i, err) in row_err.iter_mut().enumerate() {
            let vi = d.vectors[(i, c)] * lambda;
            if vi != 0.0 {
                for j in 0..n {
                    mk[(i, j)] += vi * d.vectors[(j, c)];
                }
            }
            *err = m.row(i).iter().zip(mk.row(i)).map(|(a, b)| (a - b).abs()).sum();
        }
        profile.push(err_of(&row_err));
    }
    Ok(profile)
}

/// Sweep reconstruction error across `ks` (decomposing once).
///
/// `ks` values above the dimension are clamped to n. `k_for_5_percent` is
/// the smallest k anywhere in `0..=n` whose error drops below 0.05, found
/// by a full scan of the incremental profile (robust to non-monotonicity).
/// ```
/// use linalg::{pca_sweep, Matrix};
///
/// // A rank-1 matrix reconstructs perfectly from one component.
/// let u = [1.0, 2.0, 3.0];
/// let m = Matrix::from_rows(
///     (0..3).map(|i| (0..3).map(|j| u[i] * u[j]).collect()).collect(),
/// );
/// let sweep = pca_sweep(&m, &[1]).unwrap();
/// assert!(sweep.errors[0].err < 1e-9);
/// ```
pub fn pca_sweep(m: &Matrix, ks: &[usize]) -> Result<PcaSummary> {
    if m.rows() != m.cols() {
        return Err(Error::InvalidArg(format!(
            "PCA sweep needs a square matrix, got {}x{}",
            m.rows(),
            m.cols()
        )));
    }
    let n = m.rows();
    let d = eigen_symmetric(m, 1e-10)?;
    let profile = recon_err_profile(&d, m)?;
    let mut errors: Vec<KError> = ks
        .iter()
        .map(|&k| {
            let k = k.min(n);
            KError { k, err: profile[k] }
        })
        .collect();
    errors.sort_by_key(|e| e.k);
    errors.dedup_by_key(|e| e.k);
    let k_for_5_percent = profile.iter().position(|&e| e < 0.05);
    Ok(PcaSummary { n, errors, k_for_5_percent })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block matrix of two "roles": low-rank by construction.
    fn two_block(n_per: usize) -> Matrix {
        let n = n_per * 2;
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let same_block = (i < n_per) == (j < n_per);
                m[(i, j)] = if same_block { 10.0 } else { 100.0 };
            }
        }
        m
    }

    #[test]
    fn recon_err_zero_for_identical() {
        let m = two_block(3);
        assert_eq!(recon_err(&m, &m).unwrap(), 0.0);
    }

    #[test]
    fn recon_err_is_normalized() {
        let m = Matrix::from_rows(vec![vec![10.0, 0.0], vec![0.0, 10.0]]);
        let z = Matrix::zeros(2, 2);
        assert_eq!(recon_err(&m, &z).unwrap(), 1.0, "all mass missing = error 1");
    }

    #[test]
    fn full_rank_transform_is_exact() {
        let m = two_block(4);
        let mk = sparse_transform(&m, 8).unwrap();
        assert!(recon_err(&m, &mk).unwrap() < 1e-9);
    }

    #[test]
    fn error_decreases_monotonically_in_k() {
        let m = two_block(5);
        let sweep = pca_sweep(&m, &[1, 2, 3, 5, 10]).unwrap();
        for w in sweep.errors.windows(2) {
            assert!(
                w[1].err <= w[0].err + 1e-12,
                "error must not increase with k: {:?}",
                sweep.errors
            );
        }
    }

    #[test]
    fn low_rank_structure_needs_few_components() {
        // Two-role structure: rank ≈ 3 (two block patterns + diagonal
        // correction), so tiny k already reconstructs well.
        let m = two_block(10);
        let sweep = pca_sweep(&m, &[1, 2, 3, 4]).unwrap();
        let k5 = sweep.k_for_5_percent.expect("low-rank matrix must hit 5%");
        assert!(k5 <= 4, "two-block matrix should need ≤ 4 components, needed {k5}");
    }

    #[test]
    fn sweep_clamps_oversized_k() {
        let m = two_block(2);
        let sweep = pca_sweep(&m, &[100]).unwrap();
        assert_eq!(sweep.errors.len(), 1);
        assert_eq!(sweep.errors[0].k, 4);
        assert!(sweep.errors[0].err < 1e-9);
    }

    #[test]
    fn random_full_rank_matrix_needs_many_components() {
        // Contrast case: an unstructured matrix is NOT low-rank, so k=1
        // reconstruction stays bad. This is what makes the paper's finding
        // about *cloud* matrices non-trivial.
        let n = 16;
        let mut m = Matrix::zeros(n, n);
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f64 / 16_777_216.0
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let sweep = pca_sweep(&m, &[1]).unwrap();
        assert!(
            sweep.errors[0].err > 0.3,
            "unstructured matrix must reconstruct poorly at k=1, got {}",
            sweep.errors[0].err
        );
    }

    #[test]
    fn profile_matches_direct_reconstruction() {
        let m = two_block(6);
        let d = eigen_symmetric(&m, 1e-10).unwrap();
        let profile = recon_err_profile(&d, &m).unwrap();
        assert_eq!(profile.len(), m.rows() + 1);
        for (k, &p) in profile.iter().enumerate() {
            let direct = recon_err(&m, &d.reconstruct(k).unwrap()).unwrap();
            assert!((p - direct).abs() < 1e-12, "k={k}: profile {p} vs direct {direct}");
        }
    }

    #[test]
    fn zero_matrix_edge_case() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(recon_err(&z, &Matrix::zeros(3, 3)).unwrap(), 0.0);
        let bad = Matrix::identity(3);
        assert_eq!(recon_err(&z, &bad).unwrap(), f64::INFINITY);
    }
}
