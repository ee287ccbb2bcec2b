//! Cross-attribute conformance suite for the schema-first query API:
//!
//! 1. **Structured Gram correctness** — a schema workload's
//!    SumOp-of-Kronecker-chains Gram matches the dense reference
//!    `WᵀW` on multi-attribute domains, and stays an implicit operator
//!    (never a dense matrix) at any size.
//! 2. **Ad-hoc answers vs the full matrix** — `Estimate::answer` /
//!    `Deployment::answer` / `StreamIngestor::answer` are bit-identical
//!    to evaluating the explicit workload matrix at the query's row, and
//!    the attached variance agrees with the Theorem 3.4 machinery run on
//!    the single-query Gram `wwᵀ`.
//! 3. **Registry warm starts** — a schema workload deployed twice
//!    through `optimized_cached` hits the `StrategyRegistry`
//!    (`CacheOutcome::Warm`) with a bit-identical strategy, because
//!    `Workload::fingerprint` is stable across instances.
//! 4. **Large domains stay implicit** — at |Ω| = 10⁴ and 10⁶ the
//!    workload layer (Gram probes, fingerprints, ad-hoc answers) runs in
//!    `O(n)` per operation; this suite exercises it directly.

use std::sync::Arc;

use ldp::prelude::*;
use ldp_core::variance;
use ldp_linalg::RankOneOp;
use ldp_parallel::set_thread_override;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ldp-schema-api-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn small_schema() -> Schema {
    Schema::new([("age", 10), ("sex", 2), ("state", 6)]) // |Ω| = 120
}

fn small_queries() -> Vec<Query> {
    vec![
        Query::marginal(["age", "sex"]),
        Query::range("age", 2..8),
        Query::equals("sex", 1).and_values("state", [0, 3, 5]),
        Query::total(),
    ]
}

/// The structured Gram equals the dense reference `matrix().gram()` on a
/// 3-attribute domain, and is never carried as a dense matrix.
#[test]
fn schema_gram_matches_dense_reference_across_attributes() {
    let workload = SchemaWorkload::new(Arc::new(small_schema()), &small_queries()).unwrap();
    let gram = workload.gram();
    assert!(
        gram.op().as_dense().is_none(),
        "schema Grams must stay structured"
    );
    let dense = workload.matrix().gram();
    let diff = gram.to_dense().max_abs_diff(&dense);
    assert!(diff < 1e-9, "gram mismatch: {diff:.3e}");
    // Structured trace and Frobenius agree too.
    assert!((gram.trace() - dense.trace()).abs() < 1e-9);
    assert!((workload.frobenius_sq() - dense.trace()).abs() < 1e-9);
}

/// End-to-end acceptance scenario: a 3-attribute schema workload deploys
/// through `Pipeline::for_schema(...).queries(...)` with a structured
/// Gram; `answer()` is bit-identical to full-matrix evaluation; a repeat
/// deployment is a registry warm hit with a bit-identical mechanism.
#[test]
fn schema_deployment_answers_and_warm_starts() {
    let dir = unique_dir("warm");
    let registry = StrategyRegistry::open(&dir).unwrap();
    let config = OptimizerConfig {
        iterations: 20,
        search_iterations: 4,
        ..OptimizerConfig::quick(13)
    };
    let deploy = |registry: &StrategyRegistry| {
        Pipeline::for_schema(small_schema())
            .queries(small_queries())
            .epsilon(1.0)
            .optimized_cached(&config, registry)
            .unwrap()
    };

    let (cold, outcome) = deploy(&registry);
    assert_eq!(outcome, CacheOutcome::Cold);
    assert!(
        cold.gram().op().as_dense().is_none(),
        "deployment must hold the structured Gram operator"
    );

    // Repeat deployment: the schema workload's fingerprint is stable, so
    // the registry warm path is hit and PGD is skipped — bit-identical
    // mechanism, at any thread count.
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        let (warm, outcome) = deploy(&registry);
        assert_eq!(
            outcome,
            CacheOutcome::Warm,
            "repeat schema deployment must warm-start ({threads} threads)"
        );
        assert_eq!(
            warm.mechanism().reconstruction_matrix().as_slice(),
            cold.mechanism().reconstruction_matrix().as_slice(),
            "warm deployment must be bit-identical ({threads} threads)"
        );
    }
    set_thread_override(None);

    // Collect data, then check every serving surface against the
    // explicit matrix.
    let client = cold.client();
    let mut agg = cold.aggregator();
    let mut rng = StdRng::seed_from_u64(2);
    for u in 0..120usize {
        for _ in 0..((u % 7) + 1) {
            agg.ingest(client.respond(u, &mut rng)).unwrap();
        }
    }
    let estimate = cold.estimate(&agg);
    let reference = cold.workload().matrix().matvec(estimate.data_vector());
    let p = cold.workload().num_queries();
    assert_eq!(reference.len(), p);

    // Scalar ad-hoc queries: rows 20 (range), 21 (equals+values), 22
    // (total) of the deployed workload (after the 10×2 marginal cells).
    let scalars = [
        (20, Query::range("age", 2..8)),
        (21, Query::equals("sex", 1).and_values("state", [0, 3, 5])),
        (22, Query::total()),
    ];
    for (row, query) in &scalars {
        let answer = estimate.answer(query).unwrap();
        assert_eq!(
            answer.value.to_bits(),
            reference[*row].to_bits(),
            "answer() must be bit-identical to the matrix path at row {row}"
        );
        assert!(answer.variance.is_finite() && answer.variance >= 0.0);
        assert_eq!(answer.stddev, answer.variance.sqrt());
        // Deployment::answer is the same path.
        assert_eq!(cold.answer(&agg, query).unwrap(), answer);
    }

    // answers_into extracts the full workload identically to answers().
    let mut buf = Vec::new();
    estimate.answers_into(&mut buf);
    assert_eq!(buf, estimate.answers());
    for (i, v) in buf.iter().enumerate() {
        assert_eq!(v.to_bits(), reference[i].to_bits(), "row {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-query variance attached to an ad-hoc answer agrees with the
/// Theorem 3.4 variance machinery evaluated on the single-query Gram
/// `wwᵀ` — `answer()` is a specialization, not a new estimator.
#[test]
fn answer_variance_matches_theorem_3_4_on_rank_one_gram() {
    let deployment = Pipeline::for_schema(Schema::new([("a", 4), ("b", 3)]))
        .queries([Query::marginal(["a"]), Query::total()])
        .epsilon(1.5)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    let client = deployment.client();
    let mut agg = deployment.aggregator();
    let mut rng = StdRng::seed_from_u64(7);
    for u in 0..12usize {
        for _ in 0..30 {
            agg.ingest(client.respond(u, &mut rng)).unwrap();
        }
    }
    let estimate = deployment.estimate(&agg);

    let query = Query::range("a", 1..3).and_equals("b", 2);
    let answer = estimate.answer(&query).unwrap();

    // Reference: T_u profile on gram wwᵀ, worst case at the report count.
    let mut w = vec![0.0; 12];
    query
        .resolve(deployment.schema().unwrap())
        .unwrap()
        .fill_row(0, &mut w);
    let mechanism = deployment.mechanism();
    let strategy = mechanism.strategy().unwrap();
    let profile = variance::variance_profile(
        strategy,
        mechanism.reconstruction_matrix(),
        &RankOneOp::new(w),
    );
    let reference = variance::worst_case_variance(&profile, 360.0);
    assert!(
        (answer.variance - reference).abs() <= 1e-9 * reference.max(1.0),
        "variance {} vs Theorem 3.4 reference {reference}",
        answer.variance
    );
}

/// Live streams answer ad-hoc queries mid-collection, and the answers
/// track the stream's current state.
#[test]
fn stream_serving_tracks_live_state() {
    let deployment = Pipeline::for_schema(Schema::new([("kind", 8)]))
        .queries([Query::marginal(["kind"])])
        .epsilon(1.0)
        .baseline(Baseline::HadamardResponse)
        .unwrap();
    let mut stream = deployment.stream();
    stream.ingest_batch(&[0, 1, 2, 3]).unwrap();
    let early = stream.answer(&Query::total()).unwrap();
    stream.ingest_batch(&[4, 5, 6, 7, 8, 0]).unwrap();
    let late = stream.answer(&Query::total()).unwrap();
    assert_eq!(early, {
        // Recomputing from a fresh identical stream gives the same bits.
        let mut replay = deployment.stream();
        replay.ingest_batch(&[0, 1, 2, 3]).unwrap();
        replay.answer(&Query::total()).unwrap()
    });
    assert_ne!(early.value.to_bits(), late.value.to_bits());
}

/// |Ω| = 10⁴ and |Ω| = 10⁶: schema workloads stay implicit — Gram
/// construction, fingerprints, and ad-hoc answers are all `O(n)` or
/// better per operation, so this test is fast even at a million types.
#[test]
fn large_domains_serve_ad_hoc_answers_implicitly() {
    // age × sex × state, |Ω| = 10⁴.
    let census = Arc::new(Schema::new([("age", 100), ("sex", 2), ("state", 50)]));
    let workload = SchemaWorkload::new(
        Arc::clone(&census),
        &[
            Query::marginal(["age", "sex"]),
            Query::range("age", 18..65),
            Query::total(),
        ],
    )
    .unwrap();
    assert_eq!(workload.domain_size(), 10_000);
    assert_eq!(workload.num_queries(), 202);
    let gram = workload.gram();
    assert!(gram.op().as_dense().is_none());
    // Fingerprints (one Gram probe each) are stable across instances —
    // what keys the strategy registry at this scale.
    let again = SchemaWorkload::new(
        Arc::clone(&census),
        &[
            Query::marginal(["age", "sex"]),
            Query::range("age", 18..65),
            Query::total(),
        ],
    )
    .unwrap();
    assert_eq!(workload.fingerprint(), again.fingerprint());

    // Ad-hoc answers against a synthetic estimate.
    let x: Vec<f64> = (0..10_000).map(|u| (u % 13) as f64).collect();
    let adults = census.answer(&Query::range("age", 18..65), &x).unwrap();
    let by_hand: f64 = (0..10_000)
        .filter(|u| (18..65).contains(&(u / 100)))
        .map(|u| (u % 13) as f64)
        .sum();
    assert!((adults - by_hand).abs() < 1e-6 * by_hand.abs().max(1.0));

    // 4 attributes, |Ω| = 10⁶.
    let wide = Arc::new(Schema::new([
        ("age", 100),
        ("income", 50),
        ("state", 50),
        ("group", 4),
    ]));
    assert_eq!(wide.domain_size(), 1_000_000);
    let w6 = SchemaWorkload::new(
        Arc::clone(&wide),
        &[Query::range("income", 10..40), Query::total()],
    )
    .unwrap();
    assert!(w6.gram().op().as_dense().is_none());
    assert_eq!(w6.gram().shape(), (1_000_000, 1_000_000));
    let ones = vec![1.0; 1_000_000];
    let mut scratch = Vec::new();
    let v = wide
        .answer_with(
            &Query::range("income", 10..40).and_equals("group", 2),
            &ones,
            &mut scratch,
        )
        .unwrap();
    assert_eq!(v, 100.0 * 30.0 * 50.0);
}

/// The schema workload's Gram drives the optimizer exactly like any flat
/// workload: optimizing against it equals optimizing against its
/// materialized dense Gram, bit for bit.
#[test]
fn optimizer_treats_schema_gram_like_dense() {
    let workload = SchemaWorkload::new(
        Arc::new(Schema::new([("a", 4), ("b", 3)])),
        &[Query::marginal(["a"]), Query::range("b", 0..2)],
    )
    .unwrap();
    let config = OptimizerConfig {
        iterations: 15,
        search_iterations: 3,
        ..OptimizerConfig::quick(3)
    };
    let structured = optimize_strategy(&workload.gram(), 1.0, &config).unwrap();
    let dense = optimize_strategy(&workload.gram().to_dense(), 1.0, &config).unwrap();
    assert_eq!(structured.objective, dense.objective);
    assert_eq!(
        structured.strategy.matrix().as_slice(),
        dense.strategy.matrix().as_slice()
    );
}
