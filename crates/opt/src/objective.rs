//! The optimization objective `L(Q) = tr[(QᵀD⁻¹Q)†(WᵀW)]`
//! (Theorem 3.11) and its analytic gradient.
//!
//! The paper computes the gradient with automatic differentiation; we
//! derive it in closed form. Write `D = Diag(Q1)`, `B = D⁻¹Q`,
//! `M = QᵀB`, and `H = M⁻¹ G M⁻¹` (pseudo-inverses when singular). Then
//! for a perturbation `dQ`:
//!
//! ```text
//! dL = −tr[M⁻¹ dM M⁻¹ G]                 (derivative of the inverse)
//! dM = dQᵀB + BᵀdQ − QᵀD⁻¹ dD D⁻¹Q,      dD = Diag(dQ·1)
//! ⇒ ∇_Q L = −2·B·H + diag(B·H·Bᵀ)·1ᵀ
//! ```
//!
//! where `diag(BHBᵀ)_o = (BH)_{o,:}·B_{o,:}` is computed without forming
//! the `m × m` product. The per-evaluation cost is `O(n²m + n³)`,
//! matching the paper's complexity analysis (Section 4).
//!
//! `M` is solved with Cholesky when positive definite (the common case —
//! the paper notes the iterates stay in the interior where `M` has full
//! rank) and falls back to the eigendecomposition pseudo-inverse
//! otherwise, so rank-deficient strategies are still handled correctly.
//!
//! The hot entry point is [`evaluate_into`], which runs entirely inside a
//! preallocated [`ObjectiveWorkspace`] — zero heap allocation per call on
//! the Cholesky path, so a 250-iteration PGD run reuses one set of
//! buffers throughout. [`evaluate`] is the allocating convenience wrapper
//! and accepts any [`LinOp`] Gram.

use ldp_linalg::{dense_of, pinv_symmetric, Cholesky, LinOp, Matrix, PinvOptions};

/// The objective value and gradient at a strategy iterate.
#[derive(Clone, Debug)]
pub struct ObjectiveEvaluation {
    /// `L(Q) = tr[M†G]`.
    pub value: f64,
    /// `∇_Q L` (same shape as `Q`).
    pub gradient: Matrix,
}

/// Preallocated buffers for [`evaluate_into`]: everything an
/// objective/gradient evaluation touches, sized once for an `m × n`
/// strategy iterate and reused across iterations and restarts.
#[derive(Clone, Debug)]
pub struct ObjectiveWorkspace {
    /// Row sums `D = Q·1` (`m`).
    d: Vec<f64>,
    /// `1/D` (`m`).
    d_inv: Vec<f64>,
    /// `B = D⁻¹Q` (`m × n`).
    b: Matrix,
    /// `M = QᵀB` (`n × n`).
    m_mat: Matrix,
    /// Cholesky factor of `M`, with `Lᵀ` mirrored above the diagonal
    /// (`n × n`).
    l: Matrix,
    /// `Yᵀ = (M⁻¹G)ᵀ`, one solved right-hand side per row (`n × n`).
    y: Matrix,
    /// `H = M⁻¹GM⁻¹` (`n × n`).
    h: Matrix,
    /// `B·H` (`m × n`).
    bh: Matrix,
}

impl ObjectiveWorkspace {
    /// Buffers for `m × n` iterates over an `n`-type domain.
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            d: vec![0.0; m],
            d_inv: vec![0.0; m],
            b: Matrix::zeros(m, n),
            m_mat: Matrix::zeros(n, n),
            l: Matrix::zeros(n, n),
            y: Matrix::zeros(n, n),
            h: Matrix::zeros(n, n),
            bh: Matrix::zeros(m, n),
        }
    }

    /// `(m, n)` this workspace was sized for.
    pub fn shape(&self) -> (usize, usize) {
        self.b.shape()
    }
}

/// Evaluates `L(Q)` and `∇_Q L` for a column-stochastic iterate `q` (not
/// necessarily validated as a [`ldp_core::StrategyMatrix`] — the optimizer
/// calls this on raw projected iterates) against the workload Gram matrix.
///
/// Allocating wrapper over [`evaluate_into`]; accepts any [`LinOp`] Gram
/// and materializes it once if it is not already dense.
///
/// # Panics
/// Panics if shapes disagree or if `q` has a zero row sum (an output with
/// probability zero everywhere — callers keep `z > 0`, which prevents
/// this).
pub fn evaluate(q: &Matrix, gram: &dyn LinOp) -> ObjectiveEvaluation {
    let (m, n) = q.shape();
    let mut ws = ObjectiveWorkspace::new(m, n);
    let mut gradient = Matrix::zeros(m, n);
    let dense = dense_of(gram);
    let value = evaluate_into(q, dense.as_ref(), &mut ws, &mut gradient);
    ObjectiveEvaluation { value, gradient }
}

/// [`evaluate`] into preallocated buffers: writes `∇_Q L` into `gradient`
/// and returns `L(Q)`. On the Cholesky path (full-rank `M`, the steady
/// state of the optimizer) this performs **no heap allocation**; the
/// rank-deficient pseudo-inverse fallback allocates, but reaching it means
/// the iterate collapsed, which the descent loop treats as a rewind.
///
/// # Panics
/// Panics if shapes disagree with the workspace or if `q` has a zero row
/// sum.
pub fn evaluate_into(
    q: &Matrix,
    gram: &Matrix,
    ws: &mut ObjectiveWorkspace,
    gradient: &mut Matrix,
) -> f64 {
    let (m, n) = q.shape();
    assert_eq!(gram.shape(), (n, n), "Gram must be n x n");
    assert_eq!(
        ws.shape(),
        (m, n),
        "workspace sized for a different problem"
    );
    assert_eq!(gradient.shape(), (m, n), "gradient buffer shape");
    q.row_sums_into(&mut ws.d);
    assert!(
        ws.d.iter().all(|&v| v > 0.0),
        "strategy has an output with zero total probability"
    );
    for (inv, &v) in ws.d_inv.iter_mut().zip(&ws.d) {
        *inv = 1.0 / v;
    }

    // B = D⁻¹Q, M = QᵀB (symmetric PSD).
    q.scale_rows_into(&ws.d_inv, &mut ws.b);
    q.t_matmul_into(&ws.b, &mut ws.m_mat);
    ws.m_mat.symmetrize();

    // Y = M⁻¹G and H = M⁻¹GM⁻¹, via Cholesky when possible.
    // The right-hand sides are solved as rows, several at a time; each
    // row gets exactly the bits of a lone single-vector solve.
    let value = if Cholesky::factor_into(&ws.m_mat, &mut ws.l) {
        // Row j of Yᵀ solves against column j of G.
        for j in 0..n {
            gram.col_into(j, ws.y.row_mut(j));
        }
        Cholesky::solve_rows_in_place(&ws.l, ws.y.as_mut_slice());
        let value = ws.y.trace();
        // H = M⁻¹(G M⁻¹) = M⁻¹Yᵀ: column j of H solves against row j of
        // Y, so with Y's rows laid out as rows of `h` the solve leaves Hᵀ,
        // which symmetrizes to the same bits as H (the average is
        // commutative).
        for j in 0..n {
            ws.h.set_col(j, ws.y.row(j));
        }
        Cholesky::solve_rows_in_place(&ws.l, ws.h.as_mut_slice());
        ws.h.symmetrize();
        value
    } else {
        let pinv = pinv_symmetric(&ws.m_mat, PinvOptions::default_for_dim(n)).pinv;
        let y = pinv.matmul(gram);
        // With singular M the trace formula is only valid when the
        // workload stays in range(M) (= the row space of Q). When it
        // leaves, the true objective is +∞ (Problem 3.12's constraint
        // W = WQ†Q fails) — report exactly that so the optimizer never
        // mistakes a rank-collapsed iterate for progress.
        let residual = (&ws.m_mat.matmul(&y) - gram).max_abs();
        if residual > 1e-6 * gram.max_abs().max(1.0) {
            gradient.as_mut_slice().fill(0.0);
            return f64::INFINITY;
        }
        let value = y.trace();
        let mut h = pinv.matmul(&y.transpose());
        h.symmetrize();
        ws.h.copy_from(&h);
        value
    };

    // ∇_Q = −2·B·H + diag(B·H·Bᵀ)·1ᵀ.
    ws.b.matmul_into(&ws.h, &mut ws.bh);
    gradient.copy_from(&ws.bh);
    gradient.scale_mut(-2.0);
    for o in 0..m {
        let s_oo = ldp_linalg::dot(ws.bh.row(o), ws.b.row(o));
        for v in gradient.row_mut(o) {
            *v += s_oo;
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random column-stochastic strictly positive matrix.
    fn random_stochastic(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.05..1.0));
        let sums = q.col_sums();
        for i in 0..m {
            for j in 0..n {
                q[(i, j)] /= sums[j];
            }
        }
        q
    }

    fn prefix_gram(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |j, k| (n - j.max(k)) as f64)
    }

    #[test]
    fn value_matches_core_strategy_objective() {
        let q = random_stochastic(10, 4, 5);
        let gram = prefix_gram(4);
        let eval = evaluate(&q, &gram);
        let s = ldp_core::StrategyMatrix::new(q).unwrap();
        let reference = ldp_core::variance::strategy_objective(&s, &gram);
        assert!(
            (eval.value - reference).abs() < 1e-7 * reference.abs(),
            "{} vs {reference}",
            eval.value
        );
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // Two evaluations through one workspace, interleaved with a fresh
        // wrapper call, must agree bit-for-bit with independent calls.
        let (m, n) = (12, 5);
        let gram = prefix_gram(n);
        let q1 = random_stochastic(m, n, 3);
        let q2 = random_stochastic(m, n, 4);
        let mut ws = ObjectiveWorkspace::new(m, n);
        let mut grad = Matrix::zeros(m, n);
        let v1 = evaluate_into(&q1, &gram, &mut ws, &mut grad);
        let fresh1 = evaluate(&q1, &gram);
        assert_eq!(v1, fresh1.value);
        assert_eq!(grad, fresh1.gradient);
        let v2 = evaluate_into(&q2, &gram, &mut ws, &mut grad);
        let fresh2 = evaluate(&q2, &gram);
        assert_eq!(v2, fresh2.value);
        assert_eq!(grad, fresh2.gradient);
    }

    /// The single-vector solve the objective used before its right-hand
    /// sides were blocked, kept verbatim as the oracle: forward
    /// substitution by prefix `dot`, back substitution walking column `i`
    /// of `L` (only the lower triangle is read).
    fn reference_solve(l: &Matrix, b: &mut [f64]) {
        let n = l.rows();
        for i in 0..n {
            let (solved, rest) = b.split_at_mut(i);
            rest[0] = (rest[0] - ldp_linalg::dot(&l.row(i)[..i], solved)) / l[(i, i)];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                b[i] -= l[(k, i)] * b[k];
            }
            b[i] /= l[(i, i)];
        }
    }

    #[test]
    fn blocked_solves_match_single_vector_reference_bitwise() {
        // n covers every block tail width (n mod 4 = 0, 1, 2, 3) and the
        // ledger's n = 64. The reference rebuilds Y = M⁻¹G and
        // H = M⁻¹Yᵀ column by column from the factor `evaluate_into`
        // left in the workspace; value and H must agree to the bit (the
        // gradient is computed from H by code the solves do not touch).
        let run = |n: usize| {
            let m = 4 * n;
            let q = random_stochastic(m, n, 40 + n as u64);
            let w = random_stochastic(n + 3, n, 90 + n as u64);
            let gram = w.gram();
            let mut ws = ObjectiveWorkspace::new(m, n);
            let mut grad = Matrix::zeros(m, n);
            let value = evaluate_into(&q, &gram, &mut ws, &mut grad);
            assert!(
                Cholesky::factor_into(&ws.m_mat, &mut Matrix::zeros(n, n)),
                "n = {n} must take the Cholesky path"
            );

            let mut y = Matrix::zeros(n, n);
            let mut col = vec![0.0; n];
            for j in 0..n {
                gram.col_into(j, &mut col);
                reference_solve(&ws.l, &mut col);
                y.set_col(j, &col);
            }
            let mut h = Matrix::zeros(n, n);
            for j in 0..n {
                col.copy_from_slice(y.row(j));
                reference_solve(&ws.l, &mut col);
                h.set_col(j, &col);
            }
            h.symmetrize();
            assert_eq!(value.to_bits(), y.trace().to_bits(), "value at n = {n}");
            let bits = |a: &Matrix| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ws.h), bits(&h), "H at n = {n}");
        };
        for backend in ldp_linalg::Backend::available() {
            for threads in [1, 4] {
                ldp_parallel::with_thread_override(Some(threads), || {
                    ldp_linalg::kernels::with_backend(backend, || {
                        for n in [1, 2, 3, 4, 5, 7, 64, 65] {
                            run(n);
                        }
                    })
                });
            }
        }
    }

    #[test]
    fn structured_gram_matches_dense_gram_bitwise() {
        // The structured Prefix Gram materializes to exactly the closed
        // form the dense path used, so the objective agrees bit-for-bit.
        let (m, n) = (16, 6);
        let q = random_stochastic(m, n, 11);
        let dense = evaluate(&q, &prefix_gram(n));
        let structured = evaluate(&q, &ldp_linalg::StructuredGram::prefix(n));
        assert_eq!(dense.value, structured.value);
        assert_eq!(dense.gradient, structured.gradient);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Central differences on raw entries (L is defined on an open
        // neighbourhood of the iterate; no constraints involved here).
        let (m, n) = (8, 4);
        let q = random_stochastic(m, n, 9);
        let gram = prefix_gram(n);
        let eval = evaluate(&q, &gram);
        let h = 1e-6;
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let o = rng.gen_range(0..m);
            let u = rng.gen_range(0..n);
            let mut qp = q.clone();
            qp[(o, u)] += h;
            let mut qm = q.clone();
            qm[(o, u)] -= h;
            let fd = (evaluate(&qp, &gram).value - evaluate(&qm, &gram).value) / (2.0 * h);
            let an = eval.gradient[(o, u)];
            assert!(
                (fd - an).abs() < 1e-3 * (1.0 + fd.abs()),
                "entry ({o},{u}): fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn gradient_matches_on_identity_gram() {
        let (m, n) = (6, 3);
        let q = random_stochastic(m, n, 13);
        let gram = Matrix::identity(n);
        let eval = evaluate(&q, &gram);
        let h = 1e-6;
        for o in 0..m {
            for u in 0..n {
                let mut qp = q.clone();
                qp[(o, u)] += h;
                let mut qm = q.clone();
                qm[(o, u)] -= h;
                let fd = (evaluate(&qp, &gram).value - evaluate(&qm, &gram).value) / (2.0 * h);
                let an = eval.gradient[(o, u)];
                assert!(
                    (fd - an).abs() < 1e-3 * (1.0 + fd.abs()),
                    "entry ({o},{u}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn rank_deficient_strategy_uses_pinv_path() {
        // Duplicate columns make M singular; evaluation must not panic and
        // value must be finite against a Gram supported on the row space.
        let base = random_stochastic(6, 2, 21);
        // Q with two identical columns: rank 2 in a 3-type domain.
        let q = Matrix::from_fn(6, 3, |o, u| base[(o, u.min(1))]);
        // Workload = total count (in the row space of any stochastic Q).
        let gram = Matrix::filled(3, 3, 1.0);
        let eval = evaluate(&q, &gram);
        assert!(eval.value.is_finite());
        assert!(eval.gradient.is_finite());
    }

    #[test]
    fn objective_blows_up_near_rank_deficiency() {
        // The paper's "free" handling of W = WQ†Q relies on L(Q) → ∞ as Q
        // approaches losing the workload's row space. Interpolate between
        // a full-rank strategy and a rank-1 strategy and watch L grow.
        let n = 3;
        let gram = Matrix::identity(n);
        let full = random_stochastic(6, n, 33);
        let flat = Matrix::from_fn(6, n, |o, _| full.row(o).iter().sum::<f64>() / n as f64);
        let mut last = 0.0;
        for (i, t) in [0.0, 0.9, 0.99].iter().enumerate() {
            let q = &full.scaled(1.0 - t) + &flat.scaled(*t);
            let v = evaluate(&q, &gram).value;
            if i > 0 {
                assert!(v > last, "objective should grow toward degeneracy");
            }
            last = v;
        }
    }
}
