//! Property-based integration tests over the whole pipeline: random
//! workloads, random privacy budgets, random data — the invariants that
//! must hold for *any* input, not just the paper's six workloads.

use ldp::core::{variance, DataVector, LdpMechanism};
use ldp::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The optimizer always returns a valid ε-LDP strategy whose objective
    /// respects the SVD bound, for arbitrary dense workloads.
    #[test]
    fn optimizer_sound_on_random_workloads(
        w_raw in prop::collection::vec(-3.0..3.0f64, 4 * 5),
        eps in 0.3..3.0f64,
        seed in 0u64..1000,
    ) {
        let workload = Dense::new(Matrix::from_vec(4, 5, w_raw));
        let gram = workload.gram();
        // Skip the all-zero workload (objective trivially 0).
        prop_assume!(gram.max_abs() > 1e-6);
        let config = OptimizerConfig { iterations: 40, search_iterations: 5, ..OptimizerConfig::quick(seed) };
        let result = ldp::opt::optimize_strategy(&gram, eps, &config).unwrap();
        prop_assert!(result.strategy.epsilon() <= eps * (1.0 + 1e-9) + 1e-12);
        let bound = ldp::core::bounds::svd_bound_objective(&gram, eps);
        prop_assert!(result.objective >= bound * (1.0 - 1e-6) - 1e-9);
        prop_assert!(result.objective.is_finite());
    }

    /// Executing any baseline mechanism conserves users and produces
    /// finite estimates.
    #[test]
    fn execution_conserves_users(
        counts in prop::collection::vec(0.0..50.0f64, 6),
        eps in 0.5..3.0f64,
        seed in 0u64..1000,
    ) {
        let n = 6;
        let gram = Matrix::identity(n);
        let data = DataVector::from_counts(counts);
        let mech = randomized_response(n, eps, &gram).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let y = mech.collect(&data, &mut rng);
        // `collect` rounds each type's count to whole users.
        let rounded_total = data.rounded().total();
        prop_assert!((y.total() - rounded_total).abs() < 1e-9);
        let xhat = mech.estimate(&y);
        prop_assert!(xhat.iter().all(|v| v.is_finite()));
        // Estimated total is exactly the user count: K preserves totals
        // because 1ᵀQ = 1ᵀ implies 1ᵀK = 1ᵀ on the row space.
        let est_total: f64 = xhat.iter().sum();
        prop_assert!((est_total - y.total()).abs() < 1e-6 * (1.0 + y.total()));
    }

    /// WNNLS output is non-negative and never increases the workload-space
    /// distance to the unbiased estimate.
    #[test]
    fn wnnls_invariants(
        xhat in prop::collection::vec(-20.0..50.0f64, 8),
        w_raw in prop::collection::vec(0.0..2.0f64, 5 * 8),
    ) {
        let workload = Dense::new(Matrix::from_vec(5, 8, w_raw));
        let gram = workload.gram();
        prop_assume!(gram.max_abs() > 1e-6);
        let solution = wnnls(&gram, &xhat, &WnnlsOptions::default());
        prop_assert!(solution.iter().all(|&v| v >= 0.0 && v.is_finite()));
        // Objective no worse than the zero vector and the clamped vector.
        let obj = |x: &[f64]| {
            let diff: Vec<f64> = x.iter().zip(&xhat).map(|(a, b)| a - b).collect();
            let gd = gram.matvec(&diff);
            ldp::linalg::dot(&diff, &gd)
        };
        let zero = vec![0.0; 8];
        let clamped: Vec<f64> = xhat.iter().map(|v| v.max(0.0)).collect();
        prop_assert!(obj(&solution) <= obj(&zero) + 1e-6 * (1.0 + obj(&zero)));
        prop_assert!(obj(&solution) <= obj(&clamped) + 1e-6 * (1.0 + obj(&clamped)));
    }

    /// Stacking a workload with itself doubles the Gram and exactly
    /// doubles every mechanism variance (variance is linear in WᵀW).
    #[test]
    fn variance_linear_in_gram(
        raw in prop::collection::vec(0.05..1.0f64, 10 * 4),
    ) {
        let (m, n) = (10usize, 4usize);
        let mut q = Matrix::zeros(m, n);
        for u in 0..n {
            let col = &raw[u * m..(u + 1) * m];
            let total: f64 = col.iter().sum();
            for o in 0..m {
                q[(o, u)] = col[o] / total;
            }
        }
        let s = ldp::core::StrategyMatrix::new(q).unwrap();
        let k = variance::optimal_reconstruction(&s);
        let gram = Matrix::identity(n);
        let gram2 = gram.scaled(2.0);
        let p1 = variance::variance_profile(&s, &k, &gram);
        let p2 = variance::variance_profile(&s, &k, &gram2);
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((2.0 * a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }
}

/// Mechanism trait objects interoperate: a heterogeneous collection can
/// be ranked on a shared workload (the pattern every figure binary uses).
#[test]
fn heterogeneous_mechanism_ranking() {
    let n = 16;
    let eps = 1.0;
    let w = Prefix::new(n);
    let gram = w.gram();
    let mechanisms: Vec<Box<dyn LdpMechanism>> = vec![
        Box::new(randomized_response(n, eps, &gram).unwrap()),
        Box::new(hadamard_response(n, eps, &gram).unwrap()),
        Box::new(hierarchical(n, eps, &gram).unwrap()),
        Box::new(LocalMatrixMechanism::optimized(
            &gram,
            eps,
            Calibration::L1,
            15,
        )),
        Box::new(optimized_mechanism(&gram, eps, &OptimizerConfig::quick(2)).unwrap()),
    ];
    let p = w.num_queries();
    let mut scores: Vec<(String, f64)> = mechanisms
        .iter()
        .map(|mech| (mech.name(), mech.sample_complexity(&gram, p, 0.01)))
        .collect();
    scores.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    assert_eq!(scores[0].0, "Optimized", "ranking: {scores:?}");
}

/// The estimate returned by `run` plus implicit workload evaluation
/// agrees with evaluating the explicit workload matrix — the implicit
/// path used for huge workloads is the same linear map.
#[test]
fn implicit_and_explicit_answers_agree() {
    let n = 8;
    let w = AllRange::new(n);
    let gram = w.gram();
    let mech = randomized_response(n, 1.0, &gram).unwrap();
    let data = DataVector::from_counts(vec![10.0, 5.0, 8.0, 2.0, 0.0, 7.0, 3.0, 1.0]);
    let mut rng = StdRng::seed_from_u64(12);
    let xhat = mech.run(&data, &mut rng);
    let implicit = w.evaluate(&xhat);
    let explicit = w.matrix().matvec(&xhat);
    for (a, b) in implicit.iter().zip(&explicit) {
        assert!((a - b).abs() < 1e-9);
    }
}
