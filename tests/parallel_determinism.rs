//! Bit-identity of every parallel path against its serial schedule.
//!
//! The determinism contract of the `ldp-parallel` runtime is that the
//! thread count is *unobservable* in results: every parallel section
//! partitions work by disjoint output elements, so no floating-point
//! sum is ever re-associated across threads. These tests pin that
//! contract for each parallelized kernel by running the same computation
//! under worker counts 1, 2, and 4 (via the thread-local override the
//! runtime provides exactly for this purpose — `LDP_THREADS` would race
//! across concurrently running tests) and asserting **byte equality**,
//! not approximate equality.
//!
//! Shapes are deliberately odd — prime-ish dimensions that divide
//! neither the `MR = 4` micro panel, the `KC`/`NC` blocks, nor any
//! worker count — and sit just above the kernels' parallelization
//! thresholds so the multi-worker runs genuinely partition.
//!
//! The contract is *per kernel backend*: the whole 1/2/4-worker sweep
//! runs once under every backend the host supports (scalar always; AVX2
//! where detected), with a separate 1-worker baseline per backend —
//! thread-count invariance must hold inside each backend, while
//! cross-backend bit-equality is deliberately not claimed (FMA changes
//! rounding).

use std::sync::Arc;

use ldp::prelude::*;
use ldp_linalg::{fwht, Backend, KroneckerOp, StructuredGram};
use ldp_parallel::set_thread_override;
use ldp_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Runs `f` under each worker count and asserts every result is
/// byte-identical to the 1-worker run, repeating the whole sweep under
/// every kernel backend this host supports.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    for backend in Backend::available() {
        ldp_linalg::kernels::with_backend(backend, || {
            set_thread_override(Some(1));
            let baseline = f();
            for threads in THREAD_COUNTS {
                set_thread_override(Some(threads));
                let got = f();
                assert_eq!(
                    got, baseline,
                    "{label}: {threads} workers diverged on backend {backend}"
                );
            }
            set_thread_override(None);
        });
    }
}

fn dense(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 17 + salt * 7) % 23) as f64 * 0.37 - 3.1
    })
}

fn vector(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 13 + salt * 5) % 19) as f64 * 0.29 - 2.3)
        .collect()
}

#[test]
fn matmul_bit_identical_across_threads() {
    // 103·101·107 ≈ 1.11M multiply-adds: above the threading threshold,
    // and no dimension divides MR, KC, NC, or any worker count.
    let a = dense(103, 101, 1);
    let b = dense(101, 107, 2);
    assert_thread_invariant("matmul", || a.matmul(&b).as_slice().to_vec());
}

#[test]
fn t_matmul_bit_identical_across_threads() {
    let a = dense(101, 103, 3);
    let b = dense(101, 109, 4);
    assert_thread_invariant("t_matmul", || a.t_matmul(&b).as_slice().to_vec());
}

#[test]
fn matmul_t_bit_identical_across_threads() {
    let a = dense(107, 101, 5);
    let b = dense(103, 101, 6);
    assert_thread_invariant("matmul_t", || a.matmul_t(&b).as_slice().to_vec());
}

#[test]
fn dense_matvec_bit_identical_across_threads() {
    let m = dense(1031, 1033, 7);
    let x = vector(1033, 8);
    let y = vector(1031, 9);
    assert_thread_invariant("matvec", || m.matvec(&x));
    assert_thread_invariant("t_matvec", || m.t_matvec(&y));
}

#[test]
fn fwht_and_hamming_kernel_bit_identical_across_threads() {
    // 2¹⁷ elements: above the FWHT threading threshold, so both the
    // many-narrow-blocks and few-wide-blocks pass shapes execute.
    let base = vector(1 << 17, 10);
    assert_thread_invariant("fwht", || {
        let mut data = base.clone();
        fwht(&mut data);
        data
    });

    let d = 17;
    let kernel: Vec<f64> = (0..=d).map(|h| (d - h + 1) as f64 * 0.5).collect();
    let gram = StructuredGram::hamming_kernel(d, kernel);
    assert_thread_invariant("hamming matvec", || gram.matvec(&base));
}

#[test]
fn kronecker_matvec_bit_identical_across_threads() {
    // 301 × 219 = 65 919 ≥ the Kronecker threshold; both factors odd.
    let left = StructuredGram::prefix(301);
    let right = StructuredGram::all_range(219);
    let op = KroneckerOp::new(Arc::new(left), Arc::new(right));
    let x = vector(301 * 219, 11);
    assert_thread_invariant("kronecker matvec", || op.matvec(&x));
    assert_thread_invariant("kronecker t_matvec", || op.t_matvec(&x));
}

#[test]
fn pgd_restarts_bit_identical_across_threads() {
    let gram = Prefix::new(9).gram();
    let config = OptimizerConfig::quick(23).with_restarts(3);
    assert_thread_invariant("pgd restarts", || {
        let result = optimize_strategy(&gram, 1.0, &config).expect("optimizer succeeds");
        (
            result.objective.to_bits(),
            result
                .history
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            result.strategy.matrix().as_slice().to_vec(),
        )
    });
}

#[test]
fn lbfgs_bit_identical_across_threads() {
    // n = 48 → m = 192, so m·n = 9216 crosses the projection's parallel
    // threshold: every line-search retraction inside the L-BFGS descent
    // runs the fan-out λ path at 2 and 4 workers. History bits pin the
    // plateau stopping decision, not just the argmin.
    let gram = Prefix::new(48).gram();
    let config = OptimizerConfig::lbfgs(23);
    assert_thread_invariant("lbfgs descent", || {
        let result = optimize_strategy(&gram, 1.0, &config).expect("optimizer succeeds");
        (
            result.objective.to_bits(),
            result.evaluations,
            result
                .history
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            result.strategy.matrix().as_slice().to_vec(),
        )
    });
}

#[test]
fn lbfgs_restarts_bit_identical_across_threads() {
    // Multi-restart argmin reduction under the quasi-Newton descent,
    // mirroring `pgd_restarts_bit_identical_across_threads`.
    let gram = Prefix::new(9).gram();
    let config = OptimizerConfig::lbfgs(23).with_restarts(3);
    assert_thread_invariant("lbfgs restarts", || {
        let result = optimize_strategy(&gram, 1.0, &config).expect("optimizer succeeds");
        (
            result.objective.to_bits(),
            result.evaluations,
            result.strategy.matrix().as_slice().to_vec(),
        )
    });
}

#[test]
fn pipeline_aggregate_bit_identical_and_exact() {
    let deployment = Pipeline::for_workload(Prefix::new(16))
        .epsilon(1.0)
        .baseline(Baseline::HadamardResponse)
        .expect("deployable");
    let client = deployment.client();
    let mut rng = StdRng::seed_from_u64(3);
    // Above aggregate()'s sequential-fallback gate, and an odd count so
    // worker chunks never divide evenly.
    let reports: Vec<usize> = (0..20_011)
        .map(|i| client.respond(i % 16, &mut rng))
        .collect();

    let mut sequential = deployment.aggregator();
    sequential.ingest_batch(&reports).expect("valid reports");
    let expected_counts = sequential.counts().to_vec();
    let expected_estimate = sequential.estimate();

    assert_thread_invariant("aggregate", || {
        let agg = deployment.aggregate(&reports).expect("valid reports");
        assert_eq!(agg.counts(), expected_counts, "counts must merge exactly");
        agg.estimate()
    });
    // The estimate derived from merged integer counts equals the
    // sequential one bit for bit.
    set_thread_override(Some(4));
    let agg = deployment.aggregate(&reports).expect("valid reports");
    assert_eq!(agg.estimate(), expected_estimate);
    set_thread_override(None);
}

#[test]
fn pipeline_aggregate_rejects_bad_batch_like_sequential() {
    let deployment = Pipeline::for_workload(Prefix::new(8))
        .epsilon(1.0)
        .baseline(Baseline::RandomizedResponse)
        .expect("deployable");
    let mut reports = vec![0usize; 20_000];
    reports[17_777] = 99_999; // out of range
    for threads in THREAD_COUNTS {
        set_thread_override(Some(threads));
        let err = deployment.aggregate(&reports);
        assert!(
            matches!(err, Err(LdpError::DimensionMismatch { actual: 99_999, .. })),
            "bad report must be rejected at {threads} workers"
        );
    }
    set_thread_override(None);
}

#[test]
fn wnnls_bit_identical_across_threads() {
    // Dense 1031² Gram: each FISTA matvec crosses the dense threading
    // threshold, so the solve is genuinely parallel at 2 and 4 workers.
    let raw = dense(1031, 1031, 12);
    let gram = raw.gram();
    let xhat: Vec<f64> = vector(1031, 13);
    let options = WnnlsOptions {
        max_iterations: 48,
        tolerance: 0.0,
    };
    assert_thread_invariant("wnnls", || wnnls(&gram, &xhat, &options));
}
