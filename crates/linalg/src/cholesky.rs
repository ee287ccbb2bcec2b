//! Cholesky factorization for symmetric positive definite systems.

use crate::Matrix;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite
/// matrix, with solves against it.
///
/// The factor is stored as one `n × n` matrix holding `L` in its lower
/// triangle and `Lᵀ`'s strictly upper part mirrored above the diagonal,
/// so both the forward (`L`) and the back (`Lᵀ`) substitution read
/// contiguous rows. The optimizer's objective solves with it on every
/// evaluation and falls back to the eigendecomposition pseudo-inverse
/// only when `M = QᵀD⁻¹Q` is not numerically positive definite.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Matrix,
}

/// Right-hand sides solved together by the back substitution: each gets
/// its own accumulator, and the four interleaved chains share every
/// loaded row of `Lᵀ`.
const SOLVE_WIDTH: usize = 4;

impl Cholesky {
    /// Factorizes a symmetric positive definite matrix.
    ///
    /// Returns `None` if a non-positive pivot is encountered (the matrix is
    /// not numerically positive definite).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Option<Self> {
        let mut l = Matrix::zeros(a.rows(), a.cols());
        if Self::factor_into(a, &mut l) {
            Some(Self { l })
        } else {
            None
        }
    }

    /// Factorizes into a preallocated `n × n` buffer in the mirrored
    /// layout described on [`Cholesky`], overwriting every entry.
    /// Returns `false` (leaving `l` unspecified) if the matrix is not
    /// numerically positive definite. The allocation-free counterpart of
    /// [`Cholesky::new`] for hot loops; solve with
    /// [`Cholesky::solve_rows_in_place`].
    ///
    /// # Panics
    /// Panics if `a` is not square or `l`'s shape disagrees.
    pub fn factor_into(a: &Matrix, l: &mut Matrix) -> bool {
        assert!(a.is_square(), "Cholesky requires a square matrix");
        assert_eq!(l.shape(), a.shape(), "factor buffer shape");
        let n = a.rows();
        for j in 0..n {
            // The k-sums run over the already-computed row prefixes, so
            // they are contiguous slice dot products (vectorized by the
            // shared 4-lane `dot`).
            let row_j = &l.row(j)[..j];
            let diag = a[(j, j)] - crate::dot(row_j, row_j);
            if diag <= 0.0 || !diag.is_finite() {
                return false;
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let v = (a[(i, j)] - crate::dot(&l.row(i)[..j], &l.row(j)[..j])) / ljj;
                l[(i, j)] = v;
                // The mirror: row j of the upper triangle is column j of L.
                l[(j, i)] = v;
            }
        }
        true
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.l.rows());
        let mut x = b.to_vec();
        Self::solve_rows_in_place(&self.l, &mut x);
        x
    }

    /// Solves `A x = b` for every length-`n` row `b` of `rows`, in place,
    /// given a factor produced by [`Cholesky::factor_into`]. No
    /// allocation.
    ///
    /// Each row's arithmetic is the textbook single-vector solve in a
    /// fixed order — forward substitution as a prefix `dot`, back
    /// substitution as `x_i = (y_i − Σ_{k>i} L_{ki}·x_k) / L_ii` with
    /// the sum taken for ascending `k` — so a row's result does not
    /// depend on how many rows are solved together.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of the factor's dimension.
    pub fn solve_rows_in_place(l: &Matrix, rows: &mut [f64]) {
        let n = l.rows();
        if n == 0 {
            return;
        }
        assert_eq!(rows.len() % n, 0, "right-hand sides must be length-n rows");
        for row in rows.chunks_exact_mut(n) {
            // Forward substitution L y = b: the inner sum is a contiguous
            // slice dot against the already-solved prefix.
            for i in 0..n {
                let (solved, rest) = row.split_at_mut(i);
                rest[0] = (rest[0] - crate::dot(&l.row(i)[..i], solved)) / l[(i, i)];
            }
        }
        // Back substitution Lᵀ x = y, SOLVE_WIDTH rows at a time.
        for block in rows.chunks_mut(SOLVE_WIDTH * n) {
            match block.len() / n {
                SOLVE_WIDTH => back_substitute::<SOLVE_WIDTH>(l, block),
                3 => back_substitute::<3>(l, block),
                2 => back_substitute::<2>(l, block),
                _ => back_substitute::<1>(l, block),
            }
        }
    }
}

/// Back substitution `Lᵀ x = y` for the `W` consecutive length-`n` rows
/// of `block`, reading row `i` of `Lᵀ` contiguously from the mirrored
/// upper triangle. One accumulator per row; `a − b·c` is never fused
/// into an FMA, so the bits are the same on every backend.
fn back_substitute<const W: usize>(l: &Matrix, block: &mut [f64]) {
    let n = l.rows();
    debug_assert_eq!(block.len(), W * n);
    for i in (0..n).rev() {
        let lt = &l.row(i)[i + 1..];
        let mut acc: [f64; W] = std::array::from_fn(|w| block[w * n + i]);
        let solved: [&[f64]; W] = std::array::from_fn(|w| &block[w * n + i + 1..(w + 1) * n]);
        for (k, &lki) in lt.iter().enumerate() {
            for w in 0..W {
                acc[w] -= lki * solved[w][k];
            }
        }
        let lii = l[(i, i)];
        for (w, a) in acc.into_iter().enumerate() {
            block[w * n + i] = a / lii;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_of_known_matrix() {
        // A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]], stored with the
        // sub-diagonal mirrored above the diagonal.
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let mut l = Matrix::filled(2, 2, f64::NAN);
        assert!(Cholesky::factor_into(&a, &mut l));
        assert!((l[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-14);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-14);
        assert_eq!(l[(0, 1)], l[(1, 0)]);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]);
        let c = Cholesky::new(&a).expect("SPD");
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_rows_matches_single_solves_bitwise() {
        // Every block width (4 and the 1–3 tails) gives each row exactly
        // the bits of a lone solve.
        let n = 7;
        let b = Matrix::from_fn(n + 2, n, |i, j| ((i * 5 + j * 3) % 11) as f64 * 0.37 - 1.1);
        let mut a = b.gram();
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let c = Cholesky::new(&a).expect("SPD");
        for count in 1..=9 {
            let rhs = Matrix::from_fn(count, n, |r, j| (r as f64 + 1.3) * (j as f64 - 2.7));
            let mut rows = rhs.as_slice().to_vec();
            Cholesky::solve_rows_in_place(&c.l, &mut rows);
            for r in 0..count {
                assert_eq!(&rows[r * n..(r + 1) * n], c.solve(rhs.row(r)).as_slice());
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_none());
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::new(&a).is_none());
    }
}
