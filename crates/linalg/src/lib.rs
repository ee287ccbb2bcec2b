//! Dense linear algebra substrate for the workload factorization mechanism.
//!
//! The paper's optimization objective `tr[(QᵀD⁻¹Q)†(WᵀW)]` (Theorem 3.11),
//! its gradient, the optimal reconstruction matrix (Theorem 3.10), and the
//! SVD lower bound (Theorem 5.6) require a symmetric eigendecomposition,
//! a singular value decomposition, and Moore–Penrose pseudo-inverses.
//!
//! This crate implements those primitives from scratch on a simple row-major
//! [`Matrix`] type, plus the structured-operator layer the rest of the
//! workspace is built on:
//!
//! * [`LinOp`] — linear operators exposed through matvecs; [`Matrix`] is
//!   one implementation, not the only currency. [`StructuredGram`]
//!   carries the closed-form Gram families of the paper's workloads
//!   (prefix, range, Hamming kernels via [`fwht`]) in `O(n)` space;
//!   [`KroneckerOp`]/[`SumOp`]/[`ScaledOp`]/[`DiagOp`] compose them; and
//!   [`Gram`] is the shared handle workload APIs hand out.
//! * [`Matrix`] — dense `f64` matrix with the usual arithmetic, products,
//!   and norms, including `*_into` variants for allocation-free hot loops.
//! * [`eigh`] — symmetric eigendecomposition via the cyclic Jacobi method.
//! * [`svd`] — singular value decomposition via one-sided Jacobi rotations.
//! * [`Matrix::pinv`] / [`pinv_symmetric`] — pseudo-inverses with a
//!   relative-tolerance rank cutoff.
//! * [`Cholesky`] — factorization and solves for symmetric positive definite
//!   systems.
//!
//! The hot loops dispatch through the [`kernels`] backend layer: a
//! portable scalar backend (the reference semantics, always compiled)
//! and a runtime-detected AVX2+FMA backend, selectable via `LDP_KERNEL`.
//! All `unsafe` in the workspace is confined to the two kernel modules;
//! everything else is pure safe Rust with no external BLAS/LAPACK
//! dependency. The sizes used by the paper (n ≤ 4096, m = 4n) are
//! comfortably in range.

mod cholesky;
mod eigh;
pub mod kernels;
mod linop;
mod matrix;
mod pinv;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod stablehash;
mod svd;
mod tridiagonal;

pub use cholesky::Cholesky;
pub use eigh::{eigh, SymmetricEigen};
pub use kernels::{axpy, dot, Backend};
pub use linop::{
    dense_of, fwht, linop_matmul, psd_max_abs, DenseOp, DiagOp, Gram, KroneckerOp, LinOp,
    RankOneOp, ScaledOp, StructuredGram, SumOp,
};
pub use matrix::Matrix;
pub use pinv::{pinv_symmetric, PinvOptions};
pub use svd::{svd, Svd};
pub use tridiagonal::{eigh_auto, eigh_ql};

/// Machine-level tolerance scale used across decompositions.
pub(crate) const EPS: f64 = f64::EPSILON;

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm2_basic() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }
}
