//! Cross-backend agreement of the dispatched compute kernels.
//!
//! The determinism contract is *per backend*: within one backend results
//! are bit-identical at every thread count (`tests/parallel_determinism.rs`
//! sweeps that under every available backend). *Across* backends the
//! contract deliberately weakens to ulp-level agreement for
//! floating-point kernels — AVX2's FMA contracts `a·b + c` into a single
//! rounding, so scalar and vector results legitimately differ in the
//! last bits — while integer kernels (`add_u64`, `max_usize`, shard
//! merges) and pure add/sub kernels (the FWHT butterfly) must agree
//! exactly.
//!
//! This suite property-tests those two tiers over odd and remainder
//! shapes — lengths that are not multiples of the 4-wide AVX2 lane
//! count, dimensions that straddle the `MR`/`KC`/`NC` block edges — so
//! every tail path in `crates/linalg/src/simd.rs` is exercised against
//! the scalar reference. On hosts without AVX2, `Backend::available()`
//! is just `[Scalar]` and the comparisons degenerate to self-identity
//! (the suite still runs; it simply cannot disagree).
//!
//! Inputs are kept strictly positive so no dot product suffers
//! catastrophic cancellation and ulp distance is a meaningful metric.

use ldp::prelude::*;
use ldp_linalg::kernels::with_backend;
use ldp_linalg::{fwht, Backend, Cholesky};
use proptest::prelude::*;

/// Ulps between two finite same-sign doubles.
fn ulp_distance(a: f64, b: f64) -> u64 {
    assert!(a.is_finite() && b.is_finite() && (a >= 0.0) == (b >= 0.0));
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

/// Tight cross-backend tolerance for elementwise kernels: each output
/// element is one length-k reduction; with positive inputs the FMA
/// rounding differences stay within a few ulps per step, far below this.
const MAX_ULPS: u64 = 512;

fn assert_close(label: &str, reference: &[f64], got: &[f64]) {
    assert_eq!(reference.len(), got.len(), "{label}: length");
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        let ulps = ulp_distance(*r, *g);
        assert!(
            ulps <= MAX_ULPS,
            "{label}[{i}]: scalar {r} vs {g} differ by {ulps} ulps"
        );
    }
}

/// A strictly positive matrix with no structure the blocking could hide
/// behind.
fn positive(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 17 + salt * 7) % 23) as f64 * 0.11 + 0.25
    })
}

fn positive_vec(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 13 + salt * 5) % 19) as f64 * 0.07 + 0.5)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `dot` agrees across backends at every remainder length (the AVX2
    /// kernel processes 4 lanes per step; lengths 1..129 hit every tail
    /// size and the empty-body cases).
    #[test]
    fn dot_agrees_across_backends(len in 1usize..129, salt in 0usize..1000) {
        let a = positive_vec(len, salt);
        let b = positive_vec(len, salt + 1);
        let reference = with_backend(Backend::Scalar, || ldp_linalg::dot(&a, &b));
        for backend in Backend::available() {
            let got = with_backend(backend, || ldp_linalg::dot(&a, &b));
            assert_close("dot", &[reference], &[got]);
        }
    }

    /// `axpy` agrees across backends at every remainder length.
    #[test]
    fn axpy_agrees_across_backends(len in 1usize..129, salt in 0usize..1000) {
        let x = positive_vec(len, salt);
        let y0 = positive_vec(len, salt + 2);
        let alpha = 0.75;
        let reference = with_backend(Backend::Scalar, || {
            let mut y = y0.clone();
            ldp_linalg::axpy(alpha, &x, &mut y);
            y
        });
        for backend in Backend::available() {
            let got = with_backend(backend, || {
                let mut y = y0.clone();
                ldp_linalg::axpy(alpha, &x, &mut y);
                y
            });
            assert_close("axpy", &reference, &got);
        }
    }

    /// The three dense products agree across backends on small odd
    /// shapes — every combination of partial micro-panels (rows % 4),
    /// partial column strips (cols % 8), and scalar column tails.
    #[test]
    fn products_agree_across_backends(
        m in 1usize..18,
        k in 1usize..18,
        n in 1usize..18,
        salt in 0usize..1000,
    ) {
        let a = positive(m, k, salt);
        let b = positive(k, n, salt + 1);
        let bt = positive(n, k, salt + 2);
        let at = positive(k, m, salt + 3);
        let reference = with_backend(Backend::Scalar, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
        });
        for backend in Backend::available() {
            let got = with_backend(backend, || {
                (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
            });
            assert_close("matmul", reference.0.as_slice(), got.0.as_slice());
            assert_close("t_matmul", reference.1.as_slice(), got.1.as_slice());
            assert_close("matmul_t", reference.2.as_slice(), got.2.as_slice());
        }
    }

    /// The FWHT butterfly is adds and subtracts only — no FMA anywhere —
    /// so cross-backend agreement is exact bit equality, at any
    /// power-of-two length including the sub-lane ones (1, 2).
    #[test]
    fn fwht_bit_identical_across_backends(log_n in 0u32..11, salt in 0usize..1000) {
        let base = positive_vec(1 << log_n, salt);
        let reference = with_backend(Backend::Scalar, || {
            let mut data = base.clone();
            fwht(&mut data);
            data
        });
        for backend in Backend::available() {
            let got = with_backend(backend, || {
                let mut data = base.clone();
                fwht(&mut data);
                data
            });
            assert_eq!(reference, got, "fwht must be bit-identical on {backend}");
        }
    }
}

/// Larger odd shapes that cross the `MR`/`KC`/`NC` block boundaries
/// (103 > 2·MR·8, 131 > KC, 517 > NC) so the full blocked loop nest —
/// interior panels, remainder rows, 8-wide, 4-wide, and scalar column
/// strips — runs in one product. Every backend's matmul also agrees
/// with a plain i-k-j triple loop, the kernel blocking replaced.
#[test]
fn blocked_products_agree_across_backends_on_large_odd_shapes() {
    let a = positive(103, 131, 1);
    let b = positive(131, 517, 2);
    let at = positive(131, 103, 3);
    let mut naive = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (k, &aik) in a.row(i).iter().enumerate() {
            for (out, &bkj) in naive.row_mut(i).iter_mut().zip(b.row(k)) {
                *out += aik * bkj;
            }
        }
    }
    let reference = with_backend(Backend::Scalar, || (a.matmul(&b), at.t_matmul(&b)));
    for backend in Backend::available() {
        let got = with_backend(backend, || (a.matmul(&b), at.t_matmul(&b)));
        assert_close("matmul vs naive", naive.as_slice(), got.0.as_slice());
        assert_close("matmul large", reference.0.as_slice(), got.0.as_slice());
        assert_close("t_matmul large", reference.1.as_slice(), got.1.as_slice());
    }
}

/// Cholesky drives `dot` through factor and solve; cross-backend
/// agreement on the solution is relative-tolerance (conditioning
/// amplifies the per-dot ulp differences, so elementwise ulp bounds do
/// not apply verbatim).
#[test]
fn cholesky_solutions_agree_across_backends() {
    let raw = positive(67, 53, 4);
    let mut gram = raw.gram();
    for i in 0..53 {
        gram[(i, i)] += 1.0; // well-conditioned SPD
    }
    let rhs = positive_vec(53, 5);
    let reference = with_backend(Backend::Scalar, || {
        Cholesky::new(&gram).expect("SPD").solve(&rhs)
    });
    for backend in Backend::available() {
        let got = with_backend(backend, || Cholesky::new(&gram).expect("SPD").solve(&rhs));
        for (r, g) in reference.iter().zip(&got) {
            assert!(
                (r - g).abs() <= 1e-12 * r.abs().max(1.0),
                "cholesky solve on {backend}: {r} vs {g}"
            );
        }
    }
}

/// Integer ingestion paths are exact on every backend: shard merges and
/// batch validation produce identical results and identical errors.
#[test]
fn ingestion_is_exact_across_backends() {
    let reports: Vec<usize> = (0..10_007).map(|i| (i * 7 + 3) % 64).collect();
    let reference = with_backend(Backend::Scalar, || {
        let mut a = AggregatorShard::new(64);
        let mut b = AggregatorShard::new(64);
        a.ingest_batch(&reports[..5_003]).expect("valid");
        b.ingest_batch(&reports[5_003..]).expect("valid");
        a.merge(b).expect("same width").into_counts()
    });
    for backend in Backend::available() {
        let got = with_backend(backend, || {
            let mut a = AggregatorShard::new(64);
            let mut b = AggregatorShard::new(64);
            a.ingest_batch(&reports[..5_003]).expect("valid");
            b.ingest_batch(&reports[5_003..]).expect("valid");
            a.merge(b).expect("same width").into_counts()
        });
        assert_eq!(reference, got, "shard merge must be exact on {backend}");

        // Batch validation rejects identically, naming the first
        // offender even when the vectorized max fast-path trips.
        with_backend(backend, || {
            let mut bad = reports.clone();
            bad[7_001] = 9_999;
            bad[9_002] = 8_888;
            let mut shard = AggregatorShard::new(64);
            let err = shard.ingest_batch(&bad);
            assert!(
                matches!(err, Err(LdpError::DimensionMismatch { actual: 9_999, .. })),
                "first offender must be named on {backend}"
            );
            assert_eq!(shard.counts(), vec![0u64; 64], "rejected batch uncounted");
        });
    }
}

/// `LDP_KERNEL`-style pinning composes with the pool: a backend override
/// set on the caller is inherited by spawned workers, so a pinned
/// multi-threaded product is bit-identical to the pinned serial one.
#[test]
fn pinned_backend_reaches_pool_workers() {
    let a = positive(103, 101, 6);
    let b = positive(101, 107, 7);
    for backend in Backend::available() {
        with_backend(backend, || {
            ldp_parallel::with_thread_override(Some(1), || a.matmul(&b));
            let serial = ldp_parallel::with_thread_override(Some(1), || a.matmul(&b));
            let threaded = ldp_parallel::with_thread_override(Some(4), || a.matmul(&b));
            assert_eq!(
                serial.as_slice(),
                threaded.as_slice(),
                "pinned {backend} must be thread-invariant"
            );
        });
    }
}
