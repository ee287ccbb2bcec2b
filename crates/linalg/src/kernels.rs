//! Runtime-dispatched compute-kernel backends.
//!
//! Every hot loop in the workspace — the blocked matmul family, `dot`
//! and `axpy` (and the Cholesky/matvec paths they drive), the FWHT
//! butterfly, the `u64` ingestion helpers — funnels through this module,
//! which picks one of two implementations per call:
//!
//! * [`Backend::Scalar`] — the portable blocked kernels (in this file),
//!   always compiled, the reference semantics on every architecture;
//! * [`Backend::Avx2`] — AVX2+FMA vector kernels (`crate::simd`,
//!   x86-64 only), selected strictly by *runtime* feature detection —
//!   no `-C target-cpu` flag is required, and a binary built on an AVX2
//!   host still runs (scalar) on a CPU without it.
//!
//! ## Selection
//!
//! [`process_backend`] resolves once per process, like `LDP_THREADS`:
//! the `LDP_KERNEL` environment variable (`scalar` | `avx2`) wins when
//! set and supported; anything else falls back to the best detected
//! backend. An unsupported or unrecognized `LDP_KERNEL` value silently
//! degrades to detection — a deployment artifact copied to an older
//! machine keeps working. Tests pin a backend per thread with
//! [`with_backend`], which rides [`ldp_parallel::set_worker_context`] so
//! pool workers spawned inside the scope inherit the pinned backend.
//!
//! ## Determinism contract (per backend)
//!
//! *Within* a backend, every kernel is bit-identical at every thread
//! count — the same disjoint-output partitioning argument as the scalar
//! seed, plus fused scalar tails on the AVX2 side (see `crate::simd`).
//! *Across* backends only ulp-level agreement holds: FMA contracts
//! `a·b + c` into one rounding, so AVX2 results legitimately differ from
//! scalar in the last bits. Consumers that persist or compare bits
//! across processes (workload fingerprints, the store codec,
//! `stablehash`) must not depend on the ambient backend: integer paths
//! are backend-independent by construction, and fingerprint probes force
//! [`with_scalar_serial`].

use std::sync::OnceLock;

/// Rows per micro panel: four output rows share every loaded operand.
pub(crate) const MR: usize = 4;
/// Inner-dimension block: one operand panel of `KC` rows is consumed
/// per block while the output tile stays resident.
pub(crate) const KC: usize = 128;
/// Output-column block: `MR` output row chunks of `NC` doubles (16 KiB)
/// plus one streamed operand chunk fit in L1. Tuned with `KC`: {128, 512}
/// beat the other {128, 256} × {128, 256, 512} combinations at n = 512.
pub(crate) const NC: usize = 512;

/// Identifies a compute-kernel backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar kernels — always available, reference semantics.
    Scalar,
    /// AVX2+FMA vector kernels — x86-64 only, runtime-detected.
    Avx2,
}

impl Backend {
    /// Stable lowercase name, as accepted by `LDP_KERNEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether the current CPU can run this backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => avx2_supported(),
        }
    }

    /// Every backend the current CPU supports, scalar first — what test
    /// suites iterate to cover each compiled-and-runnable lane set.
    pub fn available() -> Vec<Backend> {
        let mut backends = vec![Backend::Scalar];
        if Backend::Avx2.is_supported() {
            backends.push(Backend::Avx2);
        }
        backends
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_supported() -> bool {
    false
}

/// Process-wide backend, resolved once (see the module docs).
static PROCESS_BACKEND: OnceLock<Backend> = OnceLock::new();

/// The process-wide default backend: `LDP_KERNEL` when set *and*
/// supported, otherwise the best backend the CPU supports. Resolved on
/// first use and cached for the life of the process.
pub fn process_backend() -> Backend {
    *PROCESS_BACKEND.get_or_init(|| {
        if let Ok(raw) = std::env::var("LDP_KERNEL") {
            match raw.trim().to_ascii_lowercase().as_str() {
                "scalar" => return Backend::Scalar,
                "avx2" if avx2_supported() => return Backend::Avx2,
                // Unknown or unsupported requests degrade to detection:
                // a pinned-env artifact keeps running on older hardware.
                _ => {}
            }
        }
        if avx2_supported() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    })
}

/// Thread-override encoding stored in the pool-propagated context word.
const CTX_SCALAR: u64 = 1;
const CTX_AVX2: u64 = 2;

/// The backend the next kernel call on this thread will use: a scoped
/// [`with_backend`] override if one is active (inherited by pool
/// workers), else the cached [`process_backend`].
#[inline]
pub fn backend() -> Backend {
    match ldp_parallel::worker_context() {
        CTX_SCALAR => Backend::Scalar,
        CTX_AVX2 => Backend::Avx2,
        _ => process_backend(),
    }
}

/// Runs `f` with kernels on this thread — and on any pool workers its
/// parallel sections spawn — pinned to `backend`, restoring the previous
/// override on exit (including on unwind). Thread-scoped by design so
/// concurrently running tests can pin different backends without racing
/// on the process environment.
///
/// # Panics
/// Panics if `backend` is not supported on the current CPU; callers
/// iterating backends should filter with [`Backend::available`].
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    assert!(
        backend.is_supported(),
        "kernel backend '{backend}' is not supported on this CPU"
    );
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            ldp_parallel::set_worker_context(self.0);
        }
    }
    let _restore = Restore(ldp_parallel::worker_context());
    ldp_parallel::set_worker_context(match backend {
        Backend::Scalar => CTX_SCALAR,
        Backend::Avx2 => CTX_AVX2,
    });
    f()
}

/// Runs `f` on scalar kernels with a single-threaded pool — the
/// bit-stable environment for anything whose output is persisted or
/// compared across processes (workload fingerprint probes). Scalar
/// because cross-backend bit-equality is not part of the contract;
/// serial so no floating-point path even depends on worker scheduling
/// (it would not anyway, per the determinism contract, but a fingerprint
/// is the one place to be belt-and-braces).
pub fn with_scalar_serial<R>(f: impl FnOnce() -> R) -> R {
    with_backend(Backend::Scalar, || {
        ldp_parallel::with_thread_override(Some(1), f)
    })
}

/// Dispatches one kernel call to the active backend. The AVX2 arm only
/// exists on x86-64; elsewhere `Backend::Avx2` is unreachable (never
/// detected, [`with_backend`] rejects it) and falls back to scalar
/// defensively.
macro_rules! dispatch {
    ($scalar:expr, $simd:expr) => {
        match backend() {
            Backend::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Backend::Avx2` is only ever selected after
            // `is_x86_feature_detected!("avx2")` and `...("fma")` both
            // reported true (process detection, or `with_backend`'s
            // `is_supported` assertion), which is exactly the contract
            // of every `crate::simd` kernel.
            Backend::Avx2 => unsafe { $simd },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => $scalar,
        }
    };
}

/// Dot product of two equal-length slices.
///
/// Four accumulator lanes with a fixed combination order
/// (`(l0+l1)+(l2+l3)`, then the scalar tail), so the result is
/// deterministic for given inputs on a given backend — it does not
/// depend on call site, blocking, or thread count.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dispatch!(scalar::dot(a, b), crate::simd::dot(a, b))
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    dispatch!(scalar::axpy(alpha, x, y), crate::simd::axpy(alpha, x, y))
}

/// One FWHT butterfly pass over a matched pair of half-blocks
/// (`lo[i], hi[i] ← lo[i]+hi[i], lo[i]-hi[i]`). Add/sub only, so both
/// backends produce identical bits.
#[inline]
pub(crate) fn fwht_butterfly(lo: &mut [f64], hi: &mut [f64]) {
    dispatch!(
        scalar::fwht_butterfly(lo, hi),
        crate::simd::fwht_butterfly(lo, hi)
    )
}

/// Blocked `C[rows] += A[row0 + rows] · B` over a contiguous range of
/// output rows (`out` covers `out.len() / n` rows starting at `row0`).
/// `a` is `(row0 + rows) × k` (only the owned rows are read), `b` is
/// `k × n`. `out` must be zeroed. Every output element accumulates in a
/// fixed per-backend order regardless of blocking or row grouping.
pub(crate) fn matmul_rows(a: &[f64], b: &[f64], k: usize, n: usize, row0: usize, out: &mut [f64]) {
    dispatch!(
        scalar::matmul_rows(a, b, k, n, row0, out),
        crate::simd::matmul_rows(a, b, k, n, row0, out)
    )
}

/// Blocked `C[rows] += (Aᵀ)[col0 + rows] · B` over a contiguous range of
/// `AᵀB` output rows (= columns `col0..` of the `r × c` matrix `a`).
/// `out` must be zeroed.
pub(crate) fn t_matmul_rows(
    a: &[f64],
    c: usize,
    b: &[f64],
    n: usize,
    r: usize,
    col0: usize,
    out: &mut [f64],
) {
    dispatch!(
        scalar::t_matmul_rows(a, c, b, n, r, col0, out),
        crate::simd::t_matmul_rows(a, c, b, n, r, col0, out)
    )
}

/// `C[rows] = A[row0 + rows] · Bᵀ` over a contiguous range of output
/// rows: each entry is one [`dot`] of two contiguous length-`k` rows.
pub(crate) fn matmul_t_rows(
    a: &[f64],
    b: &[f64],
    k: usize,
    p: usize,
    row0: usize,
    out: &mut [f64],
) {
    dispatch!(
        scalar::matmul_t_rows(a, b, k, p, row0, out),
        crate::simd::matmul_t_rows(a, b, k, p, row0, out)
    )
}

/// `acc[i] = acc[i].wrapping_add(src[i])` over equal-length slices — the
/// aggregator shard-merge loop. Integer addition is exact and
/// associative, so both backends produce identical bits; wrapping
/// semantics are explicit (report counts cannot reach 2⁶⁴ in practice,
/// and a silent wrap beats a release/debug behavior split).
///
/// # Panics
/// Panics if the lengths differ.
pub fn add_u64(acc: &mut [u64], src: &[u64]) {
    assert_eq!(acc.len(), src.len(), "slice lengths must agree");
    dispatch!(scalar::add_u64(acc, src), crate::simd::add_u64(acc, src))
}

/// Maximum of a `usize` slice, `0` when empty — the vectorized
/// batch-validation scan (`max < bound` clears a whole batch without a
/// branchy early-exit loop). Integer comparison: backend-independent.
pub fn max_usize(data: &[usize]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        let (ptr, len) = (data.as_ptr().cast::<u64>(), data.len());
        // SAFETY: on x86-64 `usize` is exactly `u64` (same size,
        // alignment, and representation), so reinterpreting the slice
        // is a no-op; the pointer and length come from a valid slice.
        let as_u64 = unsafe { std::slice::from_raw_parts(ptr, len) };
        // SAFETY: the Avx2 backend is only selectable after runtime
        // detection of avx2+fma (see `dispatch!`).
        return unsafe { crate::simd::max_u64(as_u64) } as usize;
    }
    data.iter().fold(0usize, |m, &v| m.max(v))
}

/// The portable reference kernels. These are byte-for-byte the semantics
/// of the pre-backend scalar code: committed fingerprints and golden
/// values were produced by these loops and must keep reproducing.
mod scalar {
    use super::{KC, MR, NC};

    #[inline]
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut lanes = [0.0f64; 4];
        let a_chunks = a.chunks_exact(4);
        let b_chunks = b.chunks_exact(4);
        let a_tail = a_chunks.remainder();
        let b_tail = b_chunks.remainder();
        for (ca, cb) in a_chunks.zip(b_chunks) {
            lanes[0] += ca[0] * cb[0];
            lanes[1] += ca[1] * cb[1];
            lanes[2] += ca[2] * cb[2];
            lanes[3] += ca[3] * cb[3];
        }
        let mut tail = 0.0;
        for (x, y) in a_tail.iter().zip(b_tail) {
            tail += x * y;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
    }

    #[inline]
    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    #[inline]
    pub(super) fn fwht_butterfly(lo: &mut [f64], hi: &mut [f64]) {
        for (a, b) in lo.iter_mut().zip(hi) {
            let (x, y) = (*a, *b);
            *a = x + y;
            *b = x - y;
        }
    }

    pub(super) fn add_u64(acc: &mut [u64], src: &[u64]) {
        for (a, b) in acc.iter_mut().zip(src) {
            *a = a.wrapping_add(*b);
        }
    }

    pub(super) fn matmul_rows(
        a: &[f64],
        b: &[f64],
        k: usize,
        n: usize,
        row0: usize,
        out: &mut [f64],
    ) {
        let rows = out.len() / n;
        let mut jc = 0;
        while jc < n {
            let jw = NC.min(n - jc);
            let mut kc = 0;
            while kc < k {
                let kw = KC.min(k - kc);
                let mut i = 0;
                while i + MR <= rows {
                    let (c0, rest) = out[i * n..(i + MR) * n].split_at_mut(n);
                    let (c1, rest) = rest.split_at_mut(n);
                    let (c2, c3) = rest.split_at_mut(n);
                    let (c0, c1, c2, c3) = (
                        &mut c0[jc..jc + jw],
                        &mut c1[jc..jc + jw],
                        &mut c2[jc..jc + jw],
                        &mut c3[jc..jc + jw],
                    );
                    let a0 = &a[(row0 + i) * k..][..k];
                    let a1 = &a[(row0 + i + 1) * k..][..k];
                    let a2 = &a[(row0 + i + 2) * k..][..k];
                    let a3 = &a[(row0 + i + 3) * k..][..k];
                    for kk in kc..kc + kw {
                        let brow = &b[kk * n + jc..][..jw];
                        let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                        for ((((o0, o1), o2), o3), &bv) in c0
                            .iter_mut()
                            .zip(c1.iter_mut())
                            .zip(c2.iter_mut())
                            .zip(c3.iter_mut())
                            .zip(brow)
                        {
                            *o0 += x0 * bv;
                            *o1 += x1 * bv;
                            *o2 += x2 * bv;
                            *o3 += x3 * bv;
                        }
                    }
                    i += MR;
                }
                while i < rows {
                    let crow = &mut out[i * n + jc..][..jw];
                    let arow = &a[(row0 + i) * k..][..k];
                    for kk in kc..kc + kw {
                        let brow = &b[kk * n + jc..][..jw];
                        let x = arow[kk];
                        for (o, &bv) in crow.iter_mut().zip(brow) {
                            *o += x * bv;
                        }
                    }
                    i += 1;
                }
                kc += kw;
            }
            jc += jw;
        }
    }

    pub(super) fn t_matmul_rows(
        a: &[f64],
        c: usize,
        b: &[f64],
        n: usize,
        r: usize,
        col0: usize,
        out: &mut [f64],
    ) {
        let rows = out.len() / n;
        let mut pack = [0.0f64; KC * MR];
        let mut jc = 0;
        while jc < n {
            let jw = NC.min(n - jc);
            let mut kc = 0;
            while kc < r {
                let kw = KC.min(r - kc);
                let mut i = 0;
                while i + MR <= rows {
                    for kk in 0..kw {
                        let arow = &a[(kc + kk) * c..][..c];
                        for (p, slot) in pack[kk * MR..(kk + 1) * MR].iter_mut().enumerate() {
                            *slot = arow[col0 + i + p];
                        }
                    }
                    let (c0, rest) = out[i * n..(i + MR) * n].split_at_mut(n);
                    let (c1, rest) = rest.split_at_mut(n);
                    let (c2, c3) = rest.split_at_mut(n);
                    let (c0, c1, c2, c3) = (
                        &mut c0[jc..jc + jw],
                        &mut c1[jc..jc + jw],
                        &mut c2[jc..jc + jw],
                        &mut c3[jc..jc + jw],
                    );
                    for kk in 0..kw {
                        let brow = &b[(kc + kk) * n + jc..][..jw];
                        let panel = &pack[kk * MR..(kk + 1) * MR];
                        let (x0, x1, x2, x3) = (panel[0], panel[1], panel[2], panel[3]);
                        for ((((o0, o1), o2), o3), &bv) in c0
                            .iter_mut()
                            .zip(c1.iter_mut())
                            .zip(c2.iter_mut())
                            .zip(c3.iter_mut())
                            .zip(brow)
                        {
                            *o0 += x0 * bv;
                            *o1 += x1 * bv;
                            *o2 += x2 * bv;
                            *o3 += x3 * bv;
                        }
                    }
                    i += MR;
                }
                while i < rows {
                    let crow = &mut out[i * n + jc..][..jw];
                    for kk in 0..kw {
                        let x = a[(kc + kk) * c + col0 + i];
                        let brow = &b[(kc + kk) * n + jc..][..jw];
                        for (o, &bv) in crow.iter_mut().zip(brow) {
                            *o += x * bv;
                        }
                    }
                    i += 1;
                }
                kc += kw;
            }
            jc += jw;
        }
    }

    pub(super) fn matmul_t_rows(
        a: &[f64],
        b: &[f64],
        k: usize,
        p: usize,
        row0: usize,
        out: &mut [f64],
    ) {
        for (i, crow) in out.chunks_mut(p).enumerate() {
            let arow = &a[(row0 + i) * k..][..k];
            for (j, o) in crow.iter_mut().enumerate() {
                *o = dot(arow, &b[j * k..][..k]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        assert_eq!(Backend::Scalar.as_str(), "scalar");
        assert_eq!(Backend::Avx2.as_str(), "avx2");
        assert_eq!(Backend::Scalar.to_string(), "scalar");
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.is_supported());
        assert_eq!(Backend::available()[0], Backend::Scalar);
    }

    #[test]
    fn with_backend_is_scoped_and_restores() {
        let ambient = backend();
        let inner = with_backend(Backend::Scalar, backend);
        assert_eq!(inner, Backend::Scalar);
        assert_eq!(backend(), ambient, "previous selection restored");
    }

    #[test]
    fn with_scalar_serial_pins_both() {
        with_scalar_serial(|| {
            assert_eq!(backend(), Backend::Scalar);
            assert_eq!(ldp_parallel::current_threads(), 1);
        });
    }

    #[test]
    fn add_u64_matches_scalar_on_every_backend() {
        let src: Vec<u64> = (0..131).map(|i| i * 7 + 3).collect();
        let mut want: Vec<u64> = (0..131).map(|i| i * i).collect();
        for (a, b) in want.iter_mut().zip(&src) {
            *a = a.wrapping_add(*b);
        }
        for b in Backend::available() {
            let mut acc: Vec<u64> = (0..131).map(|i| i * i).collect();
            with_backend(b, || add_u64(&mut acc, &src));
            assert_eq!(acc, want, "backend {b}");
        }
    }

    #[test]
    fn max_usize_handles_tails_and_high_bit() {
        // 131 elements: 32 full vectors' worth plus a 3-element tail;
        // the high-bit value exercises the unsigned-compare bias.
        let mut data: Vec<usize> = (0..131).collect();
        data[77] = usize::MAX - 5;
        for b in Backend::available() {
            assert_eq!(with_backend(b, || max_usize(&data)), usize::MAX - 5, "{b}");
            assert_eq!(with_backend(b, || max_usize(&[])), 0, "{b} empty");
            assert_eq!(with_backend(b, || max_usize(&[9])), 9, "{b} single");
        }
    }

    #[test]
    fn backends_agree_on_dot_to_ulps() {
        let a: Vec<f64> = (0..1031)
            .map(|i| ((i * 13 + 5) % 19) as f64 * 0.03 + 0.5)
            .collect();
        let b: Vec<f64> = (0..1031)
            .map(|i| ((i * 7 + 2) % 23) as f64 * 0.04 + 0.25)
            .collect();
        let reference = with_backend(Backend::Scalar, || dot(&a, &b));
        for bk in Backend::available() {
            let got = with_backend(bk, || dot(&a, &b));
            let rel = (got - reference).abs() / reference.abs();
            assert!(rel < 1e-12, "backend {bk}: {got} vs {reference}");
        }
    }
}
