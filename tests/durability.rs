//! The durability contracts, pinned:
//!
//! 1. **Snapshot round-trip identity** — encode→decode is the identity
//!    on random aggregator states (property-tested), and strict decode
//!    rejects truncation, bit flips, and version mismatches with typed
//!    errors, never panics, never silent acceptance.
//! 2. **Registry warm hits skip optimization** and produce strategies
//!    bit-identical to both the cold run that populated the cache and a
//!    registry-free `optimize_strategy` call.
//! 3. **Interrupt/resume byte-equality** — a streaming ingestion
//!    interrupted at *any* batch boundary and resumed from its
//!    checkpoint produces estimates byte-equal to an uninterrupted run.
//!
//! Every contract is exercised under serial and 4-worker thread
//! overrides (the streaming extension of the PR 3 determinism contract):
//! the `LDP_THREADS`-style worker count must be unobservable in durable
//! state and in everything recomputed after a resume.

use ldp::prelude::*;
use ldp::store::{
    decode_aggregator, decode_shard, encode_aggregator, encode_shard, CacheOutcome, StoreError,
    StrategyRegistry,
};
use ldp_parallel::set_thread_override;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` under 1-worker and 4-worker overrides, restoring the
/// environment default afterwards.
fn under_thread_overrides(mut f: impl FnMut(usize)) {
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        f(threads);
    }
    set_thread_override(None);
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    // Collision-free across parallel test binaries and repeated runs.
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ldp-durability-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// encode→decode is the identity on random shard states, and the
    /// decoded state keeps producing bit-identical estimates.
    #[test]
    fn snapshot_round_trip_identity(
        counts in prop::collection::vec(0u64..1_000_000, 9),
        k_raw in prop::collection::vec(-2.0..2.0f64, 5 * 9),
    ) {
        let shard = AggregatorShard::from_counts(counts.clone());
        let decoded = decode_shard(&encode_shard(&shard)).unwrap();
        prop_assert_eq!(&decoded, &shard);

        let k = Matrix::from_vec(5, 9, k_raw);
        let agg = Aggregator::from_parts(k, shard).unwrap();
        let restored = decode_aggregator(&encode_aggregator(&agg)).unwrap();
        prop_assert_eq!(restored.counts(), agg.counts());
        prop_assert_eq!(restored.estimate(), agg.estimate());
    }

    /// Strict decode: every truncation and every single-bit flip of a
    /// valid record is rejected with a typed error (no panic, no
    /// acceptance), and a version bump is its own error.
    #[test]
    fn snapshot_decode_rejects_corruption(
        counts in prop::collection::vec(0u64..1_000_000, 6),
        flip_seed in 0u64..10_000,
    ) {
        let bytes = encode_shard(&AggregatorShard::from_counts(counts));

        // Truncation at a pseudo-random set of lengths (all lengths is
        // O(len²) work across cases; the unit tests in ldp-store cover
        // the exhaustive sweep once).
        let mut rng = StdRng::seed_from_u64(flip_seed);
        for _ in 0..16 {
            let cut = rng.gen_range(0..bytes.len());
            prop_assert!(decode_shard(&bytes[..cut]).is_err(), "truncation at {} accepted", cut);
        }

        // Random single-bit flips.
        for _ in 0..16 {
            let byte = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            prop_assert!(
                decode_shard(&corrupt).is_err(),
                "bit flip at byte {} bit {} accepted", byte, bit
            );
        }

        // Version mismatch is typed (checksum recomputed so only the
        // version differs).
        let mut versioned = bytes.clone();
        versioned[4] = 99;
        let body = versioned.len() - 8;
        let sum = ldp::linalg::stablehash::fnv1a64(&versioned[..body]);
        versioned[body..].copy_from_slice(&sum.to_le_bytes());
        prop_assert!(matches!(
            decode_shard(&versioned).unwrap_err(),
            StoreError::UnsupportedVersion { found: 99, .. }
        ));
    }

    /// A streaming run interrupted at ANY batch boundary and resumed
    /// from its checkpoint is byte-equal to the uninterrupted run —
    /// under both serial and 4-worker overrides.
    #[test]
    fn interrupt_resume_byte_equal_at_any_boundary(
        cut in 0usize..9,
        seed in 0u64..500,
    ) {
        let deployment = Pipeline::for_workload(Prefix::new(16))
            .epsilon(1.0)
            .baseline(Baseline::HadamardResponse)
            .unwrap();
        let client = deployment.client();
        let mut rng = StdRng::seed_from_u64(seed);
        let batches: Vec<Vec<usize>> = (0..8)
            .map(|b| (0..257).map(|i| client.respond((b * 7 + i) % 16, &mut rng)).collect())
            .collect();

        under_thread_overrides(|threads| {
            let mut uninterrupted = deployment.stream();
            for b in &batches {
                uninterrupted.ingest_batch(b).unwrap();
            }

            // Interrupt after `cut` batches (cut == 0: checkpoint of an
            // empty stream; cut == 8: checkpoint after everything).
            let mut first_half = deployment.stream();
            for b in &batches[..cut] {
                first_half.ingest_batch(b).unwrap();
            }
            let checkpoint = first_half.checkpoint();
            drop(first_half);

            let mut resumed = deployment.resume(&checkpoint).unwrap();
            for b in &batches[cut..] {
                resumed.ingest_batch(b).unwrap();
            }

            assert_eq!(
                resumed.aggregator().counts(),
                uninterrupted.aggregator().counts(),
                "counts diverged at cut {cut}, {threads} workers"
            );
            // Byte-equality of the post-processed estimates, not just
            // the integer state.
            assert_eq!(
                resumed.estimate().data_vector(),
                uninterrupted.estimate().data_vector(),
                "estimate diverged at cut {cut}, {threads} workers"
            );
            assert_eq!(resumed.batches(), 8);
            assert_eq!(resumed.reports(), uninterrupted.reports());
        });
    }
}

/// A registry warm hit skips PGD and returns a strategy bit-identical to
/// the cold optimization and to a registry-free optimizer call — at
/// every thread override (parallel restarts are part of the PR 3
/// contract), for both descent algorithms. The two algorithms share one
/// registry, so the L-BFGS lookup is cold: its key never aliases PGD's.
#[test]
fn registry_warm_hit_is_bit_identical_and_skips_pgd() {
    let dir = unique_dir("registry");
    let registry = StrategyRegistry::open(&dir).unwrap();
    for algorithm in [Algorithm::Pgd, Algorithm::Lbfgs] {
        let config = OptimizerConfig {
            iterations: 25,
            restarts: 2,
            search_iterations: 4,
            ..OptimizerConfig::quick(11)
        }
        .with_algorithm(algorithm);
        let epsilon = 1.0;

        // Registry-free reference: what a plain optimization produces.
        let reference = optimize_strategy(&Prefix::new(8).gram(), epsilon, &config).unwrap();

        let (cold_dep, cold_outcome) = Pipeline::for_workload(Prefix::new(8))
            .epsilon(epsilon)
            .optimized_cached(&config, &registry)
            .unwrap();
        assert_eq!(cold_outcome, CacheOutcome::Cold);

        under_thread_overrides(|threads| {
            let (warm_dep, warm_outcome) = Pipeline::for_workload(Prefix::new(8))
                .epsilon(epsilon)
                .optimized_cached(&config, &registry)
                .unwrap();
            assert_eq!(
                warm_outcome,
                CacheOutcome::Warm,
                "expected warm hit at {threads} workers"
            );
            // Bit-identical mechanism state: the reconstruction is a pure
            // function of the strategy, so K equality certifies Q equality.
            assert_eq!(
                warm_dep.mechanism().reconstruction_matrix().as_slice(),
                cold_dep.mechanism().reconstruction_matrix().as_slice(),
                "warm != cold at {threads} workers"
            );
        });

        // The persisted strategy is the optimizer's own output, bit-for-bit.
        let (stored, outcome) = registry
            .get_or_optimize(&Prefix::new(8), epsilon, &config)
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Warm);
        assert_eq!(
            stored.matrix().as_slice(),
            reference.strategy.matrix().as_slice()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry is workload-aware: same domain size, different query
/// structure → different cache entries (the Gram fingerprint
/// discriminates), while a semantically identical workload object hits.
#[test]
fn registry_distinguishes_workloads_not_instances() {
    let dir = unique_dir("keys");
    let registry = StrategyRegistry::open(&dir).unwrap();
    let config = OptimizerConfig {
        iterations: 12,
        search_iterations: 3,
        ..OptimizerConfig::quick(5)
    };

    let (_, o1) = registry
        .get_or_optimize(&Prefix::new(8), 1.0, &config)
        .unwrap();
    assert_eq!(o1, CacheOutcome::Cold);
    // A *fresh instance* of the same workload type hits.
    let (_, o2) = registry
        .get_or_optimize(&Prefix::new(8), 1.0, &config)
        .unwrap();
    assert_eq!(o2, CacheOutcome::Warm);
    // Same n, different workload → miss.
    let (_, o3) = registry
        .get_or_optimize(&Histogram::new(8), 1.0, &config)
        .unwrap();
    assert_eq!(o3, CacheOutcome::Cold);
    // Same workload, different budget → miss.
    let (_, o4) = registry
        .get_or_optimize(&Prefix::new(8), 2.0, &config)
        .unwrap();
    assert_eq!(o4, CacheOutcome::Cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint is bound to the *workload*, not just the mechanism: two
/// deployments of the same baseline (identical strategy, reconstruction,
/// budget, dimensions) for different workloads — or different schema
/// query sets — must refuse each other's checkpoints with the typed
/// [`StoreError::BindingMismatch`], never silently resume.
#[test]
fn resume_rejects_checkpoint_from_different_workload_fingerprint() {
    // Same n, same ε, same mechanism (RR only depends on n and ε) —
    // only the workload differs.
    let histogram = Pipeline::for_workload(Histogram::new(16))
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    let prefix = Pipeline::for_workload(Prefix::new(16))
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    assert_eq!(
        histogram.mechanism().reconstruction_matrix().as_slice(),
        prefix.mechanism().reconstruction_matrix().as_slice(),
        "precondition: identical mechanisms, so only the workload can discriminate"
    );

    let mut stream = histogram.stream();
    stream.ingest_batch(&[0, 1, 2, 3]).unwrap();
    let checkpoint = stream.checkpoint();

    // The owner resumes fine; the foreign workload is refused, typed.
    assert!(histogram.resume(&checkpoint).is_ok());
    let err = prefix.resume(&checkpoint).unwrap_err();
    assert!(
        matches!(err, StoreError::BindingMismatch { .. }),
        "expected BindingMismatch, got {err:?}"
    );

    // Schema deployments: the binding covers the query set, so the same
    // schema with different queries is also a different deployment.
    let schema = || Schema::new([("age", 8), ("sex", 2)]);
    let a = Pipeline::for_schema(schema())
        .queries([Query::marginal(["age"])])
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    let b = Pipeline::for_schema(schema())
        .queries([Query::marginal(["age"]), Query::total()])
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    let mut stream = a.stream();
    stream.ingest_batch(&[0, 5, 9]).unwrap();
    let checkpoint = stream.checkpoint();
    let mut resumed = a.resume(&checkpoint).unwrap();
    resumed.ingest_batch(&[1]).unwrap();
    assert_eq!(resumed.reports(), 4);
    assert!(matches!(
        b.resume(&checkpoint).unwrap_err(),
        StoreError::BindingMismatch { .. }
    ));
}

/// Checkpoints written under one thread override resume correctly under
/// another: worker count is unobservable in durable state.
#[test]
fn checkpoint_portable_across_thread_counts() {
    let deployment = Pipeline::for_workload(Histogram::new(32))
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .unwrap();
    let client = deployment.client();
    let mut rng = StdRng::seed_from_u64(3);
    let reports: Vec<usize> = (0..40_000)
        .map(|i| client.respond(i % 32, &mut rng))
        .collect();

    set_thread_override(Some(4));
    let mut stream = deployment.stream();
    stream.ingest_batch(&reports[..25_000]).unwrap();
    let checkpoint = stream.checkpoint();
    let reference: Vec<f64> = {
        let mut all = deployment.stream();
        all.ingest_batch(&reports[..25_000]).unwrap();
        all.ingest_batch(&reports[25_000..]).unwrap();
        all.estimate().data_vector().to_vec()
    };
    drop(stream);

    set_thread_override(Some(1));
    let mut resumed = deployment.resume(&checkpoint).unwrap();
    resumed.ingest_batch(&reports[25_000..]).unwrap();
    assert_eq!(resumed.estimate().data_vector(), &reference[..]);
    set_thread_override(None);
}
