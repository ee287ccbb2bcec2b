//! Golden optimizer output: the committed bit pattern of the strategy
//! PGD and L-BFGS produce for each paper workload.
//!
//! The optimizer's result is content-addressed in the strategy store by
//! `(workload fingerprint, config fingerprint, ε)`, so a cached strategy
//! and a freshly optimized one must be the same bits. A kernel rewrite
//! inside the objective or the projection — a reordered sum, a changed
//! sort, a different solve — would silently break that promise while
//! every tolerance-based test still passed. This suite pins an FNV-1a
//! hash of every strategy entry for each `paper_suite(16)` family at
//! ε = 1, under `OptimizerConfig::new(7)` (PGD) and
//! `OptimizerConfig::lbfgs(7)`.
//!
//! Changing a value here is a reviewed decision: it means every stored
//! strategy for that configuration is stale. If the change is
//! intentional, say so explicitly, then regenerate with
//!
//! ```text
//! cargo test --test optimizer_golden -- --nocapture print_optimizer_golden
//! ```
//!
//! and paste the new constants. If it is not intentional, the change that
//! caused it altered the optimizer's arithmetic — fix it instead.
//!
//! The matmul kernels fuse multiply-adds under AVX2, so the two backends
//! have separate tables; the AVX2 table is asserted only where the CPU
//! runs it.

use ldp_linalg::kernels::with_backend;
use ldp_linalg::stablehash::Fnv64;
use ldp_linalg::{Backend, LinOp};
use ldp_opt::{optimize_strategy, OptimizerConfig};
use ldp_workloads::paper_suite;

/// `(family, PGD hash, L-BFGS hash)` under [`Backend::Scalar`].
const SCALAR: [(&str, u64, u64); 6] = [
    ("Histogram", 0xd497d17190e8bd08, 0x78e52eb1e6dbadce),
    ("Prefix", 0x424b4301f35dce9a, 0x74520985ccc158d5),
    ("All Range", 0x36d7afc10491c454, 0xf6439d100841a3da),
    ("All Marginals", 0x963aa964eca90dbf, 0x60388f9a23935fc2),
    ("3-Way Marginals", 0xf38996ad29d852c7, 0xaf951af3c5afba75),
    ("Parity", 0x1b2b95a2b1500d6d, 0xfd7f9f4e1a11869d),
];

/// `(family, PGD hash, L-BFGS hash)` under [`Backend::Avx2`].
const AVX2: [(&str, u64, u64); 6] = [
    ("Histogram", 0xb99a6250a6b217ee, 0x00c4735466d19f29),
    ("Prefix", 0xd37250ce8a60927a, 0x2bd9aaaaf3c9a8bf),
    ("All Range", 0x8215ce49b5d61b93, 0x2ba0dd4befdd8544),
    ("All Marginals", 0xdf5c8b403bbd20e8, 0x5e828787544c193d),
    ("3-Way Marginals", 0xf2d1c8813c0bdfdc, 0xfcdd9cb36eb401b5),
    ("Parity", 0xc43e6887a73b0376, 0xf957ac71f90ef71f),
];

/// FNV-1a over the strategy's shape and every entry's bits.
fn strategy_hash(config: &OptimizerConfig, gram: &dyn LinOp) -> u64 {
    let result = optimize_strategy(gram, 1.0, config).expect("optimizer runs");
    let q = result.strategy.matrix();
    let mut h = Fnv64::new();
    h.write_u64(q.rows() as u64);
    h.write_u64(q.cols() as u64);
    for &v in q.as_slice() {
        h.write_f64(v);
    }
    h.finish()
}

/// `(family, PGD hash, L-BFGS hash)` for every family under `backend`.
fn observed(backend: Backend) -> Vec<(String, u64, u64)> {
    with_backend(backend, || {
        paper_suite(16)
            .iter()
            .map(|w| {
                let gram = w.gram();
                (
                    w.name(),
                    strategy_hash(&OptimizerConfig::new(7), &gram),
                    strategy_hash(&OptimizerConfig::lbfgs(7), &gram),
                )
            })
            .collect()
    })
}

fn assert_table(backend: Backend, golden: &[(&str, u64, u64)]) {
    let observed = observed(backend);
    assert_eq!(observed.len(), golden.len());
    let mut drifted = Vec::new();
    for ((name, pgd, lbfgs), (gold_name, want_pgd, want_lbfgs)) in observed.iter().zip(golden) {
        assert_eq!(name, gold_name, "golden table order drifted");
        if (pgd, lbfgs) != (want_pgd, want_lbfgs) {
            drifted.push(format!(
                "  {name}: committed ({want_pgd:#018x}, {want_lbfgs:#018x}), \
                 observed ({pgd:#018x}, {lbfgs:#018x})"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "\nOPTIMIZER OUTPUT DRIFT under the {backend} backend:\n{}\n\
         See this file's header before regenerating the table.\n",
        drifted.join("\n")
    );
}

#[test]
fn scalar_strategies_match_committed_golden() {
    assert_table(Backend::Scalar, &SCALAR);
}

#[test]
fn avx2_strategies_match_committed_golden() {
    if Backend::Avx2.is_supported() {
        assert_table(Backend::Avx2, &AVX2);
    }
}

/// Not an assertion — prints the current tables for pasting above.
#[test]
fn print_optimizer_golden() {
    for backend in Backend::available() {
        println!("{backend}:");
        for (name, pgd, lbfgs) in observed(backend) {
            println!("    (\"{name}\", {pgd:#018x}, {lbfgs:#018x}),");
        }
    }
}
