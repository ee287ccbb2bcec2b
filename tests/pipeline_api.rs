//! Property tests for the `Pipeline`/`Deployment`/`Estimate` API: the
//! fluent path must agree *exactly* (same seed → same bits) with the
//! manual five-crate plumbing it replaces, and sharded aggregation must
//! be indistinguishable from sequential collection.

use ldp::core::protocol::{Aggregator, Client};
use ldp::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three paper workloads the equivalence property runs over.
fn workload(kind: usize, n: usize) -> Box<dyn Workload + Send + Sync> {
    match kind % 3 {
        0 => Box::new(Histogram::new(n)),
        1 => Box::new(Prefix::new(n)),
        _ => Box::new(AllRange::new(n)),
    }
}

/// A cheap optimizer configuration keeping the property tests fast.
fn quick_config(seed: u64, algorithm: Algorithm) -> OptimizerConfig {
    let mut config = OptimizerConfig::quick(seed).with_algorithm(algorithm);
    config.iterations = 30;
    config.search_iterations = 4;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pipeline-built optimized deployments agree bit-for-bit with the
    /// manual `optimized_mechanism` + `Client`/`Aggregator` path for the
    /// same seeds, on Histogram, Prefix, and AllRange, under both
    /// descent algorithms.
    #[test]
    fn pipeline_matches_manual_path(
        kind in 0usize..3,
        eps in 0.4..2.5f64,
        opt_seed in 0u64..1000,
        report_seed in 0u64..1000,
    ) {
        let n = 8;
        for algorithm in [Algorithm::Pgd, Algorithm::Lbfgs] {
            let w = workload(kind, n);
            let config = quick_config(opt_seed, algorithm);

            // Manual path: hand-thread gram → optimizer → mechanism →
            // client → aggregator → wnnls.
            let gram = w.gram();
            let mech = optimized_mechanism(&gram, eps, &config).unwrap();
            let client = Client::new(mech.strategy().clone());
            let mut agg = Aggregator::new(&mech);
            let mut rng = StdRng::seed_from_u64(report_seed);
            for user in 0..n {
                for _ in 0..20 {
                    agg.ingest(client.respond(user, &mut rng)).unwrap();
                }
            }
            let manual_xhat = agg.estimate();
            let manual_answers = w.evaluate(&manual_xhat);
            let manual_consistent = wnnls(&gram, &manual_xhat, &WnnlsOptions::default());

            // Pipeline path, same seeds end to end.
            let deployment = Pipeline::for_shared_workload(std::sync::Arc::from(w))
                .epsilon(eps)
                .optimized(&config)
                .unwrap();
            let pclient = deployment.client();
            let mut pagg = deployment.aggregator();
            let mut prng = StdRng::seed_from_u64(report_seed);
            for user in 0..n {
                for _ in 0..20 {
                    pagg.ingest(pclient.respond(user, &mut prng)).unwrap();
                }
            }
            let estimate = deployment.estimate(&pagg);

            prop_assert_eq!(estimate.reports(), (20 * n) as u64);
            prop_assert_eq!(estimate.data_vector(), manual_xhat.as_slice());
            prop_assert_eq!(estimate.answers(), manual_answers);
            let consistent = estimate.consistent();
            prop_assert_eq!(consistent.data_vector(), manual_consistent.as_slice());
        }
    }

    /// N merged shards equal one sequential aggregator exactly — counts
    /// and estimates bit-for-bit, for any report stream, shard count,
    /// and merge direction.
    #[test]
    fn n_shards_equal_one_aggregator(
        kind in 0usize..3,
        num_shards in 1usize..9,
        seed in 0u64..1000,
        total in 100usize..2000,
    ) {
        let n = 16;
        let deployment = Pipeline::for_shared_workload(std::sync::Arc::from(workload(kind, n)))
            .epsilon(1.0)
            .baseline(Baseline::RandomizedResponse)
            .unwrap();
        let client = deployment.client();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<usize> =
            (0..total).map(|i| client.respond(i % n, &mut rng)).collect();

        let mut sequential = deployment.aggregator();
        sequential.ingest_batch(&reports).unwrap();

        let mut shards = deployment.shards(num_shards);
        for (i, &r) in reports.iter().enumerate() {
            shards[i % num_shards].ingest(r).unwrap();
        }

        // Fold in reverse order to stress order-independence, and also
        // reduce pairwise to a single shard first.
        let merged_rev = deployment
            .merge(shards.clone().into_iter().rev())
            .unwrap();
        let mut pairwise = shards.remove(0);
        for s in shards {
            pairwise = pairwise.merge(s).unwrap();
        }
        let merged_pairwise = deployment.merge([pairwise]).unwrap();

        prop_assert_eq!(merged_rev.counts(), sequential.counts());
        prop_assert_eq!(merged_pairwise.counts(), sequential.counts());
        let est_rev = deployment.estimate(&merged_rev);
        let est_pairwise = deployment.estimate(&merged_pairwise);
        let est_sequential = deployment.estimate(&sequential);
        prop_assert_eq!(est_rev.data_vector(), est_sequential.data_vector());
        prop_assert_eq!(est_pairwise.data_vector(), est_sequential.data_vector());
    }

    /// Estimates read through the pipeline carry the same analytics as
    /// the underlying mechanism: variance profile, sample complexity,
    /// and WNNLS non-negativity.
    #[test]
    fn estimate_analytics_match_mechanism(kind in 0usize..3, eps in 0.5..3.0f64) {
        let n = 8;
        let w = workload(kind, n);
        let gram = w.gram();
        let mech = randomized_response(n, eps, &gram).unwrap();
        let expected_sc = mech.sample_complexity(&gram, w.num_queries(), 0.01);

        let deployment = Pipeline::for_shared_workload(std::sync::Arc::from(w))
            .epsilon(eps)
            .baseline(Baseline::RandomizedResponse)
            .unwrap();
        prop_assert!((deployment.sample_complexity(0.01) - expected_sc).abs()
            < 1e-9 * (1.0 + expected_sc));

        let mut agg = deployment.aggregator();
        agg.ingest_batch(&vec![0usize; 50]).unwrap();
        let estimate = deployment.estimate(&agg);
        let manual_variance = mech.worst_case_variance(&gram, 50.0);
        prop_assert!((estimate.worst_case_variance() - manual_variance).abs()
            < 1e-9 * (1.0 + manual_variance));
        prop_assert!(estimate
            .consistent()
            .data_vector()
            .iter()
            .all(|&v| v >= 0.0 && v.is_finite()));
    }
}

/// A bad report rejects a whole batch atomically through the pipeline
/// types, leaving shard and aggregator untouched.
#[test]
fn batch_validation_is_atomic() {
    let deployment = Pipeline::for_workload(Histogram::new(4))
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    let mut shard = deployment.shard();
    shard.ingest_batch(&[0, 1, 2, 3]).unwrap();
    let err = shard.ingest_batch(&[1, 2, 1000, 0]);
    assert!(matches!(
        err,
        Err(LdpError::DimensionMismatch { actual: 1000, .. })
    ));
    assert_eq!(shard.reports(), 4, "failed batch must not be half-applied");
    assert_eq!(shard.counts(), &[1, 1, 1, 1]);
}

/// The deployment is Send + Sync + Clone and usable from real threads.
#[test]
fn deployment_shared_across_threads() {
    let deployment = Pipeline::for_workload(Prefix::new(8))
        .epsilon(1.0)
        .baseline(Baseline::Hierarchical)
        .unwrap();
    let shards: Vec<AggregatorShard> = std::thread::scope(|scope| {
        (0..4u64)
            .map(|t| {
                let deployment = deployment.clone();
                scope.spawn(move || {
                    let client = deployment.client();
                    let mut shard = deployment.shard();
                    let mut rng = StdRng::seed_from_u64(t);
                    for i in 0..1000usize {
                        shard.ingest(client.respond(i % 8, &mut rng)).unwrap();
                    }
                    shard
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    let aggregator = deployment.merge(shards).unwrap();
    assert_eq!(aggregator.reports(), 4000);
    let estimate = deployment.estimate(&aggregator);
    let total: f64 = estimate.data_vector().iter().sum();
    assert!(
        (total - 4000.0).abs() < 1e-6,
        "K preserves totals, got {total}"
    );
}
