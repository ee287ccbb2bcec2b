//! Property-based tests for the linear-algebra substrate: decompositions
//! must satisfy their defining identities on arbitrary inputs.

use ldp_linalg::{eigh, eigh_ql, pinv_symmetric, svd, Cholesky, Matrix, PinvOptions};
use proptest::prelude::*;

/// A random matrix strategy with entries in [-3, 3].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0..3.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// A random symmetric matrix.
fn symmetric_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(|mut m| {
        m.symmetrize();
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-10);
    }

    #[test]
    fn transpose_reverses_products(a in matrix_strategy(4, 3), b in matrix_strategy(3, 5)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn eigh_satisfies_identities(a in symmetric_strategy(6)) {
        let e = eigh(&a);
        prop_assert!(e.reconstruct().max_abs_diff(&a) < 1e-8);
        prop_assert!(e.eigenvectors.gram().max_abs_diff(&Matrix::identity(6)) < 1e-9);
        // Trace and Frobenius norm are spectral invariants.
        let sum: f64 = e.eigenvalues.iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-8);
        let sq: f64 = e.eigenvalues.iter().map(|l| l * l).sum();
        prop_assert!((sq - a.frobenius_norm().powi(2)).abs() < 1e-7);
    }

    #[test]
    fn ql_agrees_with_jacobi(a in symmetric_strategy(9)) {
        let jac = eigh(&a);
        let ql = eigh_ql(&a);
        for (x, y) in jac.eigenvalues.iter().zip(&ql.eigenvalues) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + x.abs()));
        }
        prop_assert!(ql.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn svd_satisfies_identities(a in matrix_strategy(5, 3)) {
        let s = svd(&a);
        prop_assert!(s.reconstruct().max_abs_diff(&a) < 1e-8);
        for w in s.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(s.singular_values.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn pinv_moore_penrose(a in matrix_strategy(4, 6)) {
        let p = a.pinv();
        prop_assert!(a.matmul(&p).matmul(&a).max_abs_diff(&a) < 1e-7);
        prop_assert!(p.matmul(&a).matmul(&p).max_abs_diff(&p) < 1e-7);
    }

    #[test]
    fn symmetric_pinv_matches_general(b in matrix_strategy(3, 5)) {
        let g = b.gram(); // 5x5 PSD, rank <= 3
        let sym = pinv_symmetric(&g, PinvOptions::default_for_dim(5)).pinv;
        let gen = g.pinv();
        prop_assert!(sym.max_abs_diff(&gen) < 1e-6);
    }

    #[test]
    fn cholesky_solve_inverts(b in matrix_strategy(4, 4), x in prop::collection::vec(-5.0..5.0f64, 4)) {
        // SPD matrix: BᵀB + I.
        let mut a = b.gram();
        for i in 0..4 {
            a[(i, i)] += 1.0;
        }
        let chol = Cholesky::new(&a).expect("SPD by construction");
        let rhs = a.matvec(&x);
        let solved = chol.solve(&rhs);
        for (s, t) in solved.iter().zip(&x) {
            prop_assert!((s - t).abs() < 1e-8);
        }
    }

    #[test]
    fn gram_psd(a in matrix_strategy(3, 6)) {
        let g = a.gram();
        let e = eigh(&g);
        for l in e.eigenvalues {
            prop_assert!(l > -1e-9, "Gram eigenvalue {l} negative");
        }
    }
}
