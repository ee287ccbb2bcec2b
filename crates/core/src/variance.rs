//! Exact variance analysis of workload factorization mechanisms
//! (Theorem 3.4, Corollaries 3.5/3.6, Theorems 3.9/3.10/3.11).
//!
//! All functions work through the workload Gram matrix `G = WᵀW` and the
//! *data-vector estimator* `K` (`n × m`), related to the paper's
//! reconstruction matrix by `V = W·K`. Writing the variance in terms of
//! `(K, G)` instead of `(V, Q)` keeps every operation `O(n²m)` even for
//! workloads with `p ≫ n` queries:
//!
//! With `c_o = k_oᵀ G k_o` (the `o`-th column of `K` measured in the
//! `G`-norm) and `A = K·Q`, the per-user-type variance of Theorem 3.4 is
//!
//! ```text
//! T_u = Σ_i v_iᵀ Diag(q_u) v_i − (v_iᵀ q_u)²  =  Σ_o Q[o,u]·c_o − a_uᵀ G a_u
//! ```
//!
//! and the total variance on data `x` is `Σ_u x_u·T_u`.

use ldp_linalg::{dot, linop_matmul, pinv_symmetric, LinOp, Matrix, PinvOptions};

use crate::{DataVector, StrategyMatrix};

/// The optimal data-vector estimator `K = (QᵀD⁻¹Q)† Qᵀ D⁻¹` (`n × m`).
///
/// This is Theorem 3.10 with the workload factored out: the paper's optimal
/// reconstruction is `V = W·K`, and `x̂ = K·y` is the minimum-variance
/// unbiased estimate of the data vector among estimators supported on the
/// strategy's row space.
pub fn optimal_reconstruction(strategy: &StrategyMatrix) -> Matrix {
    let q = strategy.matrix();
    let d = strategy.row_sums();
    let d_inv: Vec<f64> = d
        .iter()
        .map(|&v| if v > 0.0 { 1.0 / v } else { 0.0 })
        .collect();
    // B = D⁻¹ Q  (m × n), M = Qᵀ B  (n × n, symmetric PSD).
    let b = q.scale_rows(&d_inv);
    let mut m = q.t_matmul(&b);
    m.symmetrize();
    let pinv = pinv_symmetric(&m, PinvOptions::default_for_dim(m.rows())).pinv;
    // K = M† Bᵀ.
    pinv.matmul_t(&b)
}

/// Per-user-type variance profile `T_u` (Theorem 3.4) of the mechanism
/// `(Q, K)` on the workload with Gram matrix `gram`.
///
/// `T_u` is the variance contributed to the total workload error by *one*
/// user of type `u`; the total variance on data `x` is `Σ_u x_u T_u`.
/// Values are clamped at zero (they are mathematically non-negative; tiny
/// negative values can appear from floating point cancellation).
///
/// # Panics
/// Panics on dimension mismatches between `strategy`, `k`, and `gram`.
pub fn variance_profile(strategy: &StrategyMatrix, k: &Matrix, gram: &dyn LinOp) -> Vec<f64> {
    let q = strategy.matrix();
    let n = q.cols();
    let m = q.rows();
    assert_eq!(k.shape(), (n, m), "K must be n x m");
    assert_eq!(gram.shape(), (n, n), "Gram must be n x n");

    // P = G K (n × m); c_o = Σ_i K[i,o]·P[i,o]. Structured Grams apply
    // implicitly — m matvecs at O(n) each instead of an O(n²m) product.
    let p = linop_matmul(gram, k);
    let mut c = vec![0.0; m];
    for i in 0..n {
        let k_row = k.row(i);
        let p_row = p.row(i);
        for (co, (&kv, &pv)) in c.iter_mut().zip(k_row.iter().zip(p_row)) {
            *co += kv * pv;
        }
    }

    // First term per type: (Qᵀ c)_u.
    let first = q.t_matvec(&c);

    // Second term per type: a_uᵀ G a_u with A = K Q.
    let a = k.matmul(q);
    let ga = linop_matmul(gram, &a);
    let mut second = vec![0.0; n];
    for i in 0..n {
        let a_row = a.row(i);
        let ga_row = ga.row(i);
        for (s, (&av, &gv)) in second.iter_mut().zip(a_row.iter().zip(ga_row)) {
            *s += av * gv;
        }
    }

    first
        .into_iter()
        .zip(second)
        .map(|(f, s)| (f - s).max(0.0))
        .collect()
}

/// Worst-case total variance `L_worst = N · max_u T_u` (Corollary 3.5).
pub fn worst_case_variance(profile: &[f64], n_users: f64) -> f64 {
    n_users * profile.iter().copied().fold(0.0, f64::max)
}

/// Average-case total variance `L_avg = (N/n) Σ_u T_u` (Corollary 3.6).
pub fn average_case_variance(profile: &[f64], n_users: f64) -> f64 {
    n_users / profile.len() as f64 * profile.iter().sum::<f64>()
}

/// Exact data-dependent total variance `Σ_u x_u T_u` (Theorem 3.4).
///
/// # Panics
/// Panics if the profile length differs from the data's domain size.
pub fn data_variance(profile: &[f64], data: &DataVector) -> f64 {
    assert_eq!(profile.len(), data.domain_size());
    profile.iter().zip(data.counts()).map(|(t, x)| t * x).sum()
}

/// The trace objective `L(V, Q) = tr[V D_Q Vᵀ] = tr[K D Kᵀ G]`
/// (Theorem 3.9), computed without forming `V`.
///
/// Related to the average-case variance by
/// `L_avg = (N/n)(L(V,Q) − ‖W‖²_F)` with `‖W‖²_F = tr(G)`.
pub fn trace_objective(strategy: &StrategyMatrix, k: &Matrix, gram: &dyn LinOp) -> f64 {
    let d = strategy.row_sums();
    // tr[K D Kᵀ G] = Σ_o d_o · k_oᵀ G k_o.
    let p = linop_matmul(gram, k);
    let mut total = 0.0;
    for i in 0..k.rows() {
        let k_row = k.row(i);
        let p_row = p.row(i);
        for (o, (&kv, &pv)) in k_row.iter().zip(p_row).enumerate() {
            total += d[o] * kv * pv;
        }
    }
    total
}

/// The strategy-only objective `L(Q) = tr[(QᵀD⁻¹Q)†(WᵀW)]`
/// (Theorem 3.11) — the quantity minimized by the optimizer.
pub fn strategy_objective(strategy: &StrategyMatrix, gram: &dyn LinOp) -> f64 {
    let q = strategy.matrix();
    let d = strategy.row_sums();
    let d_inv: Vec<f64> = d
        .iter()
        .map(|&v| if v > 0.0 { 1.0 / v } else { 0.0 })
        .collect();
    let mut m = q.t_matmul(&q.scale_rows(&d_inv));
    m.symmetrize();
    let pinv = pinv_symmetric(&m, PinvOptions::default_for_dim(m.rows())).pinv;
    // tr[M† G] = Σ_ij M†_ij G_ij since both are symmetric.
    if let Some(g) = gram.as_dense() {
        return pinv
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
    }
    let n = pinv.rows();
    let mut col = vec![0.0; n];
    let mut total = 0.0;
    for j in 0..n {
        gram.col_into(j, &mut col);
        total += dot(pinv.row(j), &col);
    }
    total
}

/// Max-norm of the row-space residual `(I − KQ)ᵀ G (I − KQ)`.
///
/// Zero iff the workload lies in the row space of `Q` — the
/// `W = WQ†Q` support condition of Theorem 3.10. Used to validate that a
/// factorization mechanism can answer the workload unbiasedly.
pub fn rowspace_residual(strategy: &StrategyMatrix, k: &Matrix, gram: &dyn LinOp) -> f64 {
    let n = strategy.domain_size();
    let mut r = Matrix::identity(n);
    r -= &k.matmul(strategy.matrix());
    // RᵀGR: symmetric n×n.
    let gr = linop_matmul(gram, &r);
    r.t_matmul(&gr).max_abs()
}

/// Per-user-type variance computed directly from an explicit `(V, Q)` pair
/// via the summation in Theorem 3.4. Quadratic in `p` — used by tests as
/// an oracle for the Gram-based fast path, and by small examples.
pub fn variance_profile_explicit(v: &Matrix, q: &Matrix) -> Vec<f64> {
    assert_eq!(v.cols(), q.rows(), "V is p x m, Q is m x n");
    let n = q.cols();
    let mut profile = vec![0.0; n];
    // Column squared norms of V: c_o = Σ_i V[i,o]².
    let mut c = vec![0.0; q.rows()];
    for i in 0..v.rows() {
        for (co, &vv) in c.iter_mut().zip(v.row(i)) {
            *co += vv * vv;
        }
    }
    let vq = v.matmul(q); // p × n
    for u in 0..n {
        let qu = q.col(u);
        let first: f64 = qu.iter().zip(&c).map(|(a, b)| a * b).sum();
        let second: f64 = (0..v.rows()).map(|i| vq[(i, u)] * vq[(i, u)]).sum();
        profile[u] = (first - second).max(0.0);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_linalg::Matrix;

    fn rr_strategy(n: usize, eps: f64) -> StrategyMatrix {
        let e = eps.exp();
        let z = e + n as f64 - 1.0;
        StrategyMatrix::new(Matrix::from_fn(
            n,
            n,
            |o, u| {
                if o == u {
                    e / z
                } else {
                    1.0 / z
                }
            },
        ))
        .unwrap()
    }

    /// Example 3.7: RR on the Histogram workload has
    /// L_worst = L_avg = N(n−1)[n/(e^ε−1)² + 2/(e^ε−1)].
    #[test]
    fn example_3_7_randomized_response_variance() {
        for (n, eps) in [(5, 1.0), (16, 0.5), (8, 2.0)] {
            let s = rr_strategy(n, eps);
            let k = optimal_reconstruction(&s);
            let gram = Matrix::identity(n);
            let profile = variance_profile(&s, &k, &gram);
            let n_users = 1000.0;
            let e = eps.exp();
            let nf = n as f64;
            let expected = n_users * (nf - 1.0) * (nf / (e - 1.0).powi(2) + 2.0 / (e - 1.0));
            let worst = worst_case_variance(&profile, n_users);
            let avg = average_case_variance(&profile, n_users);
            assert!(
                (worst - expected).abs() / expected < 1e-8,
                "worst-case mismatch: {worst} vs {expected} (n={n}, eps={eps})"
            );
            assert!((avg - expected).abs() / expected < 1e-8);
        }
    }

    #[test]
    fn gram_path_matches_explicit_path() {
        // Random-ish strategy (RR) and a non-trivial workload (prefix).
        let n = 6;
        let s = rr_strategy(n, 1.0);
        let k = optimal_reconstruction(&s);
        let w = Matrix::from_fn(n, n, |i, j| if j <= i { 1.0 } else { 0.0 });
        let gram = w.gram();
        let fast = variance_profile(&s, &k, &gram);
        let v = w.matmul(&k); // V = W K
        let explicit = variance_profile_explicit(&v, s.matrix());
        for (a, b) in fast.iter().zip(&explicit) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn theorem_3_9_identity() {
        // L_avg = (N/n)(tr[V D Vᵀ] − ‖W‖²_F).
        let n = 5;
        let s = rr_strategy(n, 1.5);
        let k = optimal_reconstruction(&s);
        let w = Matrix::from_fn(n, n, |i, j| if j <= i { 1.0 } else { 0.0 });
        let gram = w.gram();
        let profile = variance_profile(&s, &k, &gram);
        let n_users = 77.0;
        let lavg = average_case_variance(&profile, n_users);
        let trace_obj = trace_objective(&s, &k, &gram);
        let identity = n_users / n as f64 * (trace_obj - gram.trace());
        assert!((lavg - identity).abs() < 1e-7 * lavg.abs().max(1.0));
    }

    #[test]
    fn theorem_3_11_objective_matches_trace_objective_at_optimum() {
        let n = 5;
        let s = rr_strategy(n, 1.0);
        let k = optimal_reconstruction(&s);
        let w = Matrix::from_fn(n, n, |i, j| if j <= i { 1.0 } else { 0.0 });
        let gram = w.gram();
        let via_k = trace_objective(&s, &k, &gram);
        let via_q = strategy_objective(&s, &gram);
        assert!((via_k - via_q).abs() < 1e-7 * via_q.abs());
    }

    #[test]
    fn optimal_k_beats_naive_inverse_on_histogram() {
        // For square invertible Q, K = Q⁻¹ is *a* reconstruction; the
        // D-weighted one of Theorem 3.10 must be at least as good.
        // (For RR they coincide by symmetry, so perturb the strategy.)
        let q = Matrix::from_rows(&[&[0.6, 0.2, 0.2], &[0.3, 0.5, 0.2], &[0.1, 0.3, 0.6]]);
        let s = StrategyMatrix::new(q.clone()).unwrap();
        let gram = Matrix::identity(3);
        let k_opt = optimal_reconstruction(&s);
        let k_inv = q.pinv();
        let obj_opt = trace_objective(&s, &k_opt, &gram);
        let obj_inv = trace_objective(&s, &k_inv, &gram);
        assert!(obj_opt <= obj_inv + 1e-9, "{obj_opt} > {obj_inv}");
        // Both must reconstruct unbiasedly.
        assert!(rowspace_residual(&s, &k_opt, &gram) < 1e-8);
        assert!(rowspace_residual(&s, &k_inv, &gram) < 1e-8);
    }

    #[test]
    fn rowspace_residual_detects_unsupported_workload() {
        // Strategy with constant rows carries no information: Q has rank 1,
        // so the identity workload is unsupported.
        let q = Matrix::filled(4, 4, 0.25);
        let s = StrategyMatrix::new(q).unwrap();
        let k = optimal_reconstruction(&s);
        let gram = Matrix::identity(4);
        assert!(rowspace_residual(&s, &k, &gram) > 0.1);
    }

    #[test]
    fn data_variance_interpolates_worst_and_average() {
        let n = 4;
        let s = rr_strategy(n, 1.0);
        let k = optimal_reconstruction(&s);
        // Non-uniform workload to break the RR symmetry.
        let w = Matrix::from_fn(3, n, |i, j| ((i + j) % 3) as f64);
        let gram = w.gram();
        let profile = variance_profile(&s, &k, &gram);
        let n_users = 50.0;
        let worst = worst_case_variance(&profile, n_users);
        let avg = average_case_variance(&profile, n_users);
        assert!(avg <= worst + 1e-12);
        // Uniform data reproduces the average case.
        let uniform = DataVector::uniform(n, n_users);
        let dv = data_variance(&profile, &uniform);
        assert!((dv - avg).abs() < 1e-9);
        // Point mass on the worst type reproduces the worst case.
        let worst_u = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let point = DataVector::point_mass(n, worst_u, n_users);
        assert!((data_variance(&profile, &point) - worst).abs() < 1e-9);
    }

    #[test]
    fn profile_nonnegative() {
        let s = rr_strategy(6, 3.0);
        let k = optimal_reconstruction(&s);
        let gram = Matrix::identity(6);
        for t in variance_profile(&s, &k, &gram) {
            assert!(t >= 0.0);
        }
    }
}
