//! End-to-end integration tests across crates: the full
//! declare-workload → optimize → collect → estimate → post-process
//! pipeline, and the paper's headline cross-mechanism comparisons at
//! laptop scale.

use ldp::core::variance;
use ldp::estimation::{simulated_normalized_variance, Postprocess};
use ldp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the seven Figure-1 mechanisms at small n via the bench harness.
fn all_mechanisms(
    workload: &dyn Workload,
    gram: &ldp::linalg::Gram,
    epsilon: f64,
) -> Vec<Box<dyn LdpMechanism>> {
    use ldp_bench::cells::{build_mechanism, Effort, ALL_MECHANISMS};
    ALL_MECHANISMS
        .iter()
        .map(|&kind| build_mechanism(kind, workload, gram, epsilon, Effort::quick(), 9))
        .collect()
}

/// Figure 1's qualitative claim at n=16, ε=1: the optimized mechanism has
/// the lowest sample complexity of all seven mechanisms on every paper
/// workload (up to a small slack for the quick-effort optimizer).
#[test]
fn optimized_wins_on_every_workload() {
    let n = 16;
    let epsilon = 1.0;
    for workload in ldp::workloads::paper_suite(n) {
        let gram = workload.gram();
        let p = workload.num_queries();
        let mechanisms = all_mechanisms(workload.as_ref(), &gram, epsilon);
        let mut best_other = f64::INFINITY;
        let mut optimized = f64::INFINITY;
        for mech in &mechanisms {
            let sc = mech.sample_complexity(&gram, p, 0.01);
            assert!(
                sc.is_finite() && sc > 0.0,
                "{} on {}",
                mech.name(),
                workload.name()
            );
            if mech.name() == "Optimized" {
                optimized = sc;
            } else {
                best_other = best_other.min(sc);
            }
        }
        assert!(
            optimized <= best_other * 1.10,
            "Optimized ({optimized:.1}) should be best on {} (best other {best_other:.1})",
            workload.name()
        );
    }
}

/// Figure 1's high-ε limit: randomized response is near-optimal at large
/// ε and the optimized mechanism matches it. At ε=5 the random-init
/// landscape is sharp, so we use the paper's alternative initialization
/// (warm start from an existing mechanism, §4), which guarantees
/// never-worse-than-baseline.
#[test]
fn high_epsilon_matches_randomized_response() {
    let n = 16;
    let epsilon = 5.0;
    let w = Histogram::new(n);
    let gram = w.gram();
    let rr = randomized_response(n, epsilon, &gram).unwrap();
    let config = OptimizerConfig::new(1)
        .with_iterations(150)
        .with_warm_start(rr.strategy().clone());
    let opt = optimized_mechanism(&gram, epsilon, &config).unwrap();
    let sc_rr = rr.sample_complexity(&gram, n, 0.01);
    let sc_opt = opt.sample_complexity(&gram, n, 0.01);
    assert!(
        sc_opt <= sc_rr * 1.01,
        "optimized {sc_opt} should at least match RR {sc_rr} at eps=5"
    );
}

/// Run the full protocol on each paper workload and verify the measured
/// error agrees with the analytic variance (Theorem 3.4) within Monte
/// Carlo tolerance — mechanism execution and analysis must be two views
/// of the same object.
#[test]
fn measured_error_matches_analytic_variance() {
    let n = 8;
    let epsilon = 1.0;
    let data = DataVector::from_counts(vec![200.0, 100.0, 50.0, 150.0, 0.0, 80.0, 20.0, 400.0]);
    for workload in ldp::workloads::paper_suite(n) {
        let gram = workload.gram();
        let mech = optimized_mechanism(&gram, epsilon, &OptimizerConfig::quick(4)).unwrap();
        let analytic = mech.data_variance(&gram, &data);

        let mut rng = StdRng::seed_from_u64(31);
        let trials = 200;
        let mut total = 0.0;
        for _ in 0..trials {
            let xhat = mech.run(&data, &mut rng);
            total += workload.total_squared_error(data.counts(), &xhat);
        }
        let empirical = total / trials as f64;
        let rel = (empirical - analytic).abs() / analytic;
        assert!(
            rel < 0.25,
            "{}: empirical {empirical:.1} vs analytic {analytic:.1} (rel {rel:.3})",
            workload.name()
        );
    }
}

/// Figure 4's claim end-to-end: WNNLS reduces simulated variance for the
/// optimized mechanism in the low-data regime on every paper workload.
#[test]
fn wnnls_helps_in_low_data_regime() {
    let n = 16;
    let epsilon = 1.0;
    let data = ldp::data::hepth_shape(n).sample(500, &mut StdRng::seed_from_u64(2));
    for workload in ldp::workloads::paper_suite(n) {
        let gram = workload.gram();
        let mech = optimized_mechanism(&gram, epsilon, &OptimizerConfig::quick(6)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let base = simulated_normalized_variance(
            workload.as_ref(),
            &mech,
            &data,
            40,
            Postprocess::None,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let post = simulated_normalized_variance(
            workload.as_ref(),
            &mech,
            &data,
            40,
            Postprocess::Wnnls(WnnlsOptions::default()),
            &mut rng,
        );
        assert!(
            post <= base * 1.02,
            "{}: WNNLS {post:.4e} vs default {base:.4e}",
            workload.name()
        );
    }
}

/// The strategy returned by the optimizer is a genuinely private,
/// executable mechanism: its epsilon certificate holds and the variance
/// analysis is consistent between the trace objective and the profile.
#[test]
fn optimizer_output_is_coherent() {
    let w = AllRange::new(16);
    let gram = w.gram();
    let eps = 1.5;
    let result = ldp::opt::optimize_strategy(&gram, eps, &OptimizerConfig::quick(8)).unwrap();
    // Privacy certificate.
    result
        .strategy
        .check_ldp(eps)
        .expect("optimized strategy is eps-LDP");
    // Objective consistency (Theorem 3.11 vs Theorem 3.9 with optimal V).
    let k = variance::optimal_reconstruction(&result.strategy);
    let via_trace = variance::trace_objective(&result.strategy, &k, &gram);
    assert!(
        (via_trace - result.objective).abs() < 1e-5 * result.objective,
        "{via_trace} vs {}",
        result.objective
    );
    // The worst-case variance derived from the profile matches the
    // Lavg/objective relation sandwich of Theorem 5.1.
    let profile = variance::variance_profile(&result.strategy, &k, &gram);
    let n_users = 1000.0;
    let lavg = variance::average_case_variance(&profile, n_users);
    let identity = n_users / 16.0 * (via_trace - gram.trace());
    assert!((lavg - identity).abs() < 1e-6 * lavg.max(1.0));
}

/// Dataset generators integrate with the mechanism stack: data-dependent
/// sample complexity on every synthetic dataset is no worse than the
/// worst case and in its vicinity (Section 6.4's observation).
#[test]
fn data_dependent_complexity_close_to_worst_case() {
    let n = 32;
    let epsilon = 1.0;
    let w = Prefix::new(n);
    let gram = w.gram();
    let mech = optimized_mechanism(&gram, epsilon, &OptimizerConfig::quick(12)).unwrap();
    let p = w.num_queries();
    let worst = mech.sample_complexity(&gram, p, 0.01);
    for shape in [
        ldp::data::hepth_shape(n),
        ldp::data::medcost_shape(n),
        ldp::data::nettrace_shape(n),
    ] {
        let data = shape.expected(10_000.0);
        let dd = mech.data_sample_complexity(&gram, &data, p, 0.01);
        assert!(
            dd <= worst * (1.0 + 1e-9),
            "data-dependent above worst case"
        );
        assert!(
            dd >= worst * 0.3,
            "data-dependent {dd} suspiciously far below worst case {worst}"
        );
    }
}
