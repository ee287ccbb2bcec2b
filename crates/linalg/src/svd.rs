//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! One-sided Jacobi orthogonalizes the columns of a working copy of `A` by
//! applying Givens rotations on the right; at convergence the column norms
//! are the singular values, the normalized columns form `U`, and the
//! accumulated rotations form `V`. It is compact and accurate, computing
//! even small singular values to high relative precision, which matters for
//! a numerically trustworthy pseudo-inverse.

use crate::{dot, Matrix};

/// The thin SVD `A = U · Diag(σ) · Vᵀ` produced by [`svd`].
#[derive(Clone, Debug)]
pub struct Svd {
    /// `rows × k` matrix with orthonormal columns, `k = min(rows, cols)`.
    pub u: Matrix,
    /// Singular values in descending order, length `k`.
    pub singular_values: Vec<f64>,
    /// `cols × k` matrix with orthonormal columns.
    pub v: Matrix,
}

impl Svd {
    /// Numerical rank with the NumPy-style cutoff
    /// `σ > max(rows, cols) · ε · σ_max`.
    pub fn rank(&self) -> usize {
        let tol = self.tolerance();
        self.singular_values.iter().filter(|&&s| s > tol).count()
    }

    /// The default small-singular-value cutoff used by [`Svd::rank`] and
    /// [`Svd::pinv`].
    pub fn tolerance(&self) -> f64 {
        let max_dim = self.u.rows().max(self.v.rows()) as f64;
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        max_dim * crate::EPS * smax
    }

    /// Moore–Penrose pseudo-inverse `V · Diag(1/σ) · Uᵀ` with singular
    /// values below [`Svd::tolerance`] treated as zero.
    pub fn pinv(&self) -> Matrix {
        let tol = self.tolerance();
        let inv: Vec<f64> = self
            .singular_values
            .iter()
            .map(|&s| if s > tol { 1.0 / s } else { 0.0 })
            .collect();
        self.v.scale_cols(&inv).matmul_t(&self.u)
    }

    /// Reconstructs `U Diag(σ) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        self.u.scale_cols(&self.singular_values).matmul_t(&self.v)
    }
}

/// Computes the thin SVD of an arbitrary rectangular matrix.
///
/// If `a` is wide (`cols > rows`) the decomposition is computed on the
/// transpose and swapped back, so the working matrix is always tall, where
/// one-sided Jacobi converges fastest.
pub fn svd(a: &Matrix) -> Svd {
    if a.cols() > a.rows() {
        let t = svd(&a.transpose());
        return Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        };
    }
    let (rows, cols) = a.shape();
    if cols == 0 || rows == 0 {
        return Svd {
            u: Matrix::zeros(rows, 0),
            singular_values: vec![],
            v: Matrix::zeros(cols, 0),
        };
    }

    // Work column-major for cache-friendly column rotations.
    let mut columns: Vec<Vec<f64>> = (0..cols).map(|j| a.col(j)).collect();
    let mut v = Matrix::identity(cols);
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = (rows.max(cols) as f64) * crate::EPS * scale;

    for _sweep in 0..64 {
        let mut converged = true;
        for p in 0..cols {
            for q in (p + 1)..cols {
                let (left, right) = columns.split_at_mut(q);
                let cp = &mut left[p];
                let cq = &mut right[0];
                let alpha = dot(cp, cp);
                let beta = dot(cq, cq);
                let gamma = dot(cp, cq);
                if gamma.abs() <= tol * tol / (rows as f64).max(1.0)
                    || gamma.abs() <= crate::EPS * (alpha * beta).sqrt()
                {
                    continue;
                }
                converged = false;
                // Rotation that zeroes the off-diagonal of the 2x2 Gram
                // block [[alpha, gamma], [gamma, beta]].
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..rows {
                    let xp = cp[i];
                    let xq = cq[i];
                    cp[i] = c * xp - s * xq;
                    cq[i] = s * xp + c * xq;
                }
                for k in 0..cols {
                    let vp = v[(k, p)];
                    let vq = v[(k, q)];
                    v[(k, p)] = c * vp - s * vq;
                    v[(k, q)] = s * vp + c * vq;
                }
            }
        }
        if converged {
            break;
        }
    }

    // Column norms are the singular values; normalize to get U.
    let mut entries: Vec<(f64, usize)> = columns
        .iter()
        .enumerate()
        .map(|(j, col)| (crate::norm2(col), j))
        .collect();
    entries.sort_by(|a, b| b.0.total_cmp(&a.0));

    let k = cols.min(rows);
    let mut u = Matrix::zeros(rows, k);
    let mut vs = Matrix::zeros(cols, k);
    let mut singular_values = Vec::with_capacity(k);
    for (new_j, &(sigma, old_j)) in entries.iter().take(k).enumerate() {
        singular_values.push(sigma);
        let col = &columns[old_j];
        if sigma > 0.0 {
            for i in 0..rows {
                u[(i, new_j)] = col[i] / sigma;
            }
        }
        for i in 0..cols {
            vs[(i, new_j)] = v[(i, old_j)];
        }
    }
    Svd {
        u,
        singular_values,
        v: vs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        Matrix::from_fn(rows, cols, |_, _| next())
    }

    #[test]
    fn identity_svd() {
        let s = svd(&Matrix::identity(4));
        for &sv in &s.singular_values {
            assert!((sv - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_svd_sorted() {
        let a = Matrix::diag(&[1.0, 5.0, 3.0]);
        let s = svd(&a);
        assert!((s.singular_values[0] - 5.0).abs() < 1e-12);
        assert!((s.singular_values[1] - 3.0).abs() < 1e-12);
        assert!((s.singular_values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_tall_wide_square() {
        for (r, c) in [(6, 4), (4, 6), (5, 5)] {
            let a = random_matrix(r, c, (r * 10 + c) as u64);
            let s = svd(&a);
            assert!(
                s.reconstruct().max_abs_diff(&a) < 1e-10,
                "SVD reconstruction failed for {r}x{c}"
            );
        }
    }

    #[test]
    fn orthonormal_factors() {
        let a = random_matrix(7, 4, 123);
        let s = svd(&a);
        assert!(s.u.gram().max_abs_diff(&Matrix::identity(4)) < 1e-10);
        assert!(s.v.gram().max_abs_diff(&Matrix::identity(4)) < 1e-10);
    }

    #[test]
    fn rank_of_outer_product() {
        let u = [1.0, -2.0, 0.5];
        let w = [2.0, 1.0];
        let a = Matrix::from_fn(3, 2, |i, j| u[i] * w[j]);
        let s = svd(&a);
        assert_eq!(s.rank(), 1);
    }

    #[test]
    fn pinv_satisfies_moore_penrose() {
        let a = random_matrix(5, 3, 77);
        let p = a.pinv();
        // A A⁺ A = A and A⁺ A A⁺ = A⁺.
        assert!(a.matmul(&p).matmul(&a).max_abs_diff(&a) < 1e-9);
        assert!(p.matmul(&a).matmul(&p).max_abs_diff(&p) < 1e-9);
        // A A⁺ and A⁺ A symmetric.
        let ap = a.matmul(&p);
        assert!(ap.max_abs_diff(&ap.transpose()) < 1e-9);
        let pa = p.matmul(&a);
        assert!(pa.max_abs_diff(&pa.transpose()) < 1e-9);
    }

    #[test]
    fn pinv_of_rank_deficient() {
        // Row duplicated: rank 1.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let p = a.pinv();
        assert!(a.matmul(&p).matmul(&a).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn singular_values_of_prefix_matrix() {
        // Cross-check the nuclear norm against the frobenius/trace identity
        // sum(sigma_i^2) = ||A||_F^2.
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| if j <= i { 1.0 } else { 0.0 });
        let s = svd(&a);
        let sum_sq: f64 = s.singular_values.iter().map(|x| x * x).sum();
        assert!((sum_sq - a.frobenius_norm().powi(2)).abs() < 1e-9);
        assert_eq!(s.rank(), n);
    }

    #[test]
    fn empty_dimensions() {
        let s = svd(&Matrix::zeros(0, 3));
        assert!(s.singular_values.is_empty());
        let s = svd(&Matrix::zeros(3, 0));
        assert!(s.singular_values.is_empty());
    }
}
