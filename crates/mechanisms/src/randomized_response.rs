//! Randomized response (Warner \[44\]; Examples 2.7 and 3.3 of the paper).

use ldp_core::{FactorizationMechanism, LdpError, StrategyMatrix};
use ldp_linalg::{LinOp, Matrix};

/// The `n`-ary randomized response strategy matrix (Example 2.7):
/// diagonal entries proportional to `e^ε`, off-diagonal to `1`.
pub fn randomized_response_strategy(n: usize, epsilon: f64) -> StrategyMatrix {
    assert!(n > 0, "domain must be non-empty");
    assert!(epsilon > 0.0 && epsilon.is_finite(), "invalid epsilon");
    let e = epsilon.exp();
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
    // ldp-lint: allow(no-unwrap-in-lib) -- invariant: rows are e^ε/z and 1/z
    // with z = e^ε + n − 1, so columns sum to 1 by construction.
    .expect("randomized response is always a valid strategy")
}

/// Randomized response as a factorization mechanism for the workload with
/// Gram matrix `gram`, with the optimal reconstruction of Theorem 3.10
/// (which for the Histogram workload reproduces `V = Q⁻¹`, Example 3.3).
///
/// # Errors
/// Propagates [`LdpError`] from mechanism construction (e.g. a Gram of the
/// wrong dimension). Randomized response has full rank, so any workload is
/// supported.
pub fn randomized_response(
    n: usize,
    epsilon: f64,
    gram: &dyn LinOp,
) -> Result<FactorizationMechanism, LdpError> {
    let strategy = randomized_response_strategy(n, epsilon);
    Ok(
        FactorizationMechanism::new_unchecked_privacy(strategy, gram, epsilon)?
            .with_name("Randomized Response"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{DataVector, LdpMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table1_entries() {
        // Table 1 row 1: Q[o,u] ∝ e^ε if o == u else 1.
        let s = randomized_response_strategy(4, 1.0);
        let q = s.matrix();
        let ratio = q[(0, 0)] / q[(1, 0)];
        assert!((ratio - 1.0_f64.exp()).abs() < 1e-12);
        assert!((s.epsilon() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn example_3_3_reconstruction_matches_inverse() {
        // For the Histogram workload, K should equal Q⁻¹ (Example 3.3).
        let n = 4;
        let gram = Matrix::identity(n);
        let mech = randomized_response(n, 1.0, &gram).unwrap();
        let q_inv = mech.strategy().matrix().pinv();
        assert!(mech.reconstruction().max_abs_diff(&q_inv) < 1e-8);
        // And V = Q⁻¹ has the closed form of Example 3.3.
        let e = 1.0_f64.exp();
        let expected = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                (e + n as f64 - 2.0) / (e - 1.0)
            } else {
                -1.0 / (e - 1.0)
            }
        });
        assert!(mech.reconstruction().max_abs_diff(&expected) < 1e-8);
    }

    #[test]
    fn unbiased_on_expected_responses() {
        let n = 5;
        let gram = Matrix::identity(n);
        let mech = randomized_response(n, 2.0, &gram).unwrap();
        let data = DataVector::from_counts(vec![7.0, 0.0, 3.0, 5.0, 1.0]);
        let ey = mech.expected_responses(&data);
        let xhat = mech.reconstruction().matvec(&ey);
        for (a, b) in xhat.iter().zip(data.counts()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn high_epsilon_recovers_data_almost_exactly() {
        let n = 3;
        let gram = Matrix::identity(n);
        let mech = randomized_response(n, 8.0, &gram).unwrap();
        let data = DataVector::from_counts(vec![1000.0, 500.0, 100.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let xhat = mech.run(&data, &mut rng);
        for (a, b) in xhat.iter().zip(data.counts()) {
            assert!((a - b).abs() < 0.05 * data.total());
        }
    }

    #[test]
    fn answers_prefix_workload() {
        // RR generalizes beyond Histogram via V = WQ⁻¹ (Section 3).
        let n = 4;
        let w = Matrix::from_fn(n, n, |i, j| if j <= i { 1.0 } else { 0.0 });
        let mech = randomized_response(n, 1.0, &w.gram()).unwrap();
        let profile = mech.variance_profile(&w.gram());
        assert!(profile.iter().all(|t| t.is_finite() && *t > 0.0));
    }
}
