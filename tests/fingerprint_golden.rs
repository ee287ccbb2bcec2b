//! Golden fingerprints: the committed identity of every workload family
//! and of the optimizer configuration.
//!
//! `Workload::fingerprint` is load-bearing far beyond display: it keys
//! the `StrategyRegistry` warm path, binds snapshots to the workload
//! they were optimized for, and anchors checkpoint compatibility across
//! restarts. A silent change to the hash — a reordered field, a renamed
//! canonical description, a different Gram probe — would quietly orphan
//! every cache entry and checkpoint in the field. This suite pins the
//! exact `u64` for one representative of each family so any drift fails
//! loudly, in review, with instructions.

use std::sync::Arc;

use ldp::prelude::*;
use ldp_workloads::{
    AllMarginals, AllRange, Dense, Histogram, KWayMarginals, Parity, Prefix, Product, Stacked,
    Total, WidthRange,
};

/// One representative instance per workload family, in catalog order.
///
/// Kept deliberately small (n = 16, d = 3) — fingerprints hash identity
/// plus an `O(n)` Gram probe, so small instances pin the same code paths
/// the big ones use.
fn observed() -> Vec<(&'static str, u64)> {
    let dense = Dense::new(Matrix::from_rows(&[
        &[1.0, 0.0, 1.0, 0.0],
        &[0.0, 2.0, 0.0, 2.0],
    ]));
    // Inexact weights (0.11·k + 0.25 is not a dyadic rational), so the
    // WᵀW materialization actually rounds: if Dense's Gram assembly ever
    // ran under the ambient backend, FMA contraction would flip result
    // bits and the backend-independence sweep below would catch it. The
    // exact-integer `dense` above can never detect that — every product
    // is exactly representable, so FMA changes nothing.
    let dense_inexact = Dense::new(Matrix::from_fn(6, 8, |i, j| {
        (i * 8 + j) as f64 * 0.11 + 0.25
    }));
    let product = Product::new(Box::new(Histogram::new(4)), Box::new(Prefix::new(4)));
    let stacked = Stacked::new(vec![Box::new(Histogram::new(16)), Box::new(Total::new(16))]);
    let schema = Arc::new(Schema::new([("age", 8), ("sex", 2)]));
    let schema_workload = SchemaWorkload::new(
        Arc::clone(&schema),
        &[
            Query::marginal(["age"]),
            Query::range("age", 2..6).and_equals("sex", 1),
            Query::total(),
        ],
    )
    .expect("valid query set");

    vec![
        ("Histogram(16)", Histogram::new(16).fingerprint()),
        ("Prefix(16)", Prefix::new(16).fingerprint()),
        ("AllRange(16)", AllRange::new(16).fingerprint()),
        ("Total(16)", Total::new(16).fingerprint()),
        ("WidthRange(16,4)", WidthRange::new(16, 4).fingerprint()),
        ("AllMarginals(3)", AllMarginals::new(3).fingerprint()),
        ("KWayMarginals(3,2)", KWayMarginals::new(3, 2).fingerprint()),
        ("Parity(3,<=2)", Parity::up_to(3, 2).fingerprint()),
        ("Dense(2x4)", dense.fingerprint()),
        ("Dense(6x8,inexact)", dense_inexact.fingerprint()),
        ("Product(Hist4 x Prefix4)", product.fingerprint()),
        ("Stacked(Hist16 + Total16)", stacked.fingerprint()),
        ("SchemaWorkload(age8 x sex2)", schema_workload.fingerprint()),
        (
            "OptimizerConfig::quick(42)",
            OptimizerConfig::quick(42).fingerprint(),
        ),
        // The extended block: selecting L-BFGS must re-key the registry
        // (the iterate stream changes), while the PGD config above keeps
        // its pre-extension hash.
        (
            "OptimizerConfig::lbfgs(42)",
            OptimizerConfig::lbfgs(42).fingerprint(),
        ),
        // Open-domain deployments: sparse fingerprints bind checkpoints
        // and serve-side state exactly like workload fingerprints bind
        // dense ones (and include a fixed-seed protocol probe, so any
        // behavioural drift in an oracle's response path re-keys them).
        (
            "SparseDeployment::olh(url,2.0)",
            sparse_fingerprint(&SparseDeployment::olh("url", 2.0).expect("valid epsilon")),
        ),
        (
            "SparseDeployment::hadamard(url,2.0,8)",
            sparse_fingerprint(&SparseDeployment::hadamard("url", 2.0, 8).expect("valid params")),
        ),
    ]
}

/// The committed fingerprints. Regenerate with
/// `cargo test --test fingerprint_golden -- --nocapture print_fingerprints`.
const GOLDEN: [(&str, u64); 17] = [
    ("Histogram(16)", 0xd4ee89c438ebbda8),
    ("Prefix(16)", 0xd525c013cbf8ddda),
    ("AllRange(16)", 0x255aa356a0de5f51),
    ("Total(16)", 0xfbc27142646353e8),
    ("WidthRange(16,4)", 0xec905307c577b370),
    ("AllMarginals(3)", 0xedfe22c4d1649db5),
    ("KWayMarginals(3,2)", 0x18f2b100cc38dcca),
    ("Parity(3,<=2)", 0xc1d43005d00acc52),
    ("Dense(2x4)", 0xf3ab458f2a7a5d7f),
    ("Dense(6x8,inexact)", 0x4b29b859b6953649),
    ("Product(Hist4 x Prefix4)", 0x7958e89d85f0a458),
    ("Stacked(Hist16 + Total16)", 0x8b48a8323e842de1),
    ("SchemaWorkload(age8 x sex2)", 0x9009379dd8f43349),
    ("OptimizerConfig::quick(42)", 0x16ce92124434b333),
    ("OptimizerConfig::lbfgs(42)", 0x71f5d31aa6314646),
    ("SparseDeployment::olh(url,2.0)", 0xa76625a468a0a4fb),
    ("SparseDeployment::hadamard(url,2.0,8)", 0x83adadc0f97d65a7),
];

#[test]
fn fingerprints_match_committed_golden_values() {
    let observed = observed();
    assert_eq!(observed.len(), GOLDEN.len());
    let mut drifted = Vec::new();
    for ((name, got), (gold_name, want)) in observed.iter().zip(GOLDEN.iter()) {
        assert_eq!(name, gold_name, "golden table order drifted");
        if got != want {
            drifted.push(format!(
                "  {name}: committed {want:#018x}, observed {got:#018x}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "\n\
         FINGERPRINT DRIFT — {} of {} committed fingerprints changed:\n{}\n\
         \n\
         These hashes key the StrategyRegistry warm path and bind\n\
         snapshots/checkpoints to their workloads. If this change is\n\
         intentional, it invalidates every cached strategy and stored\n\
         checkpoint: say so explicitly in the PR, then regenerate the\n\
         table with\n\
         \n\
         cargo test --test fingerprint_golden -- --nocapture print_fingerprints\n\
         \n\
         and paste the new constants into GOLDEN. If it is NOT\n\
         intentional, the change that caused it is a compatibility\n\
         break — fix it instead.\n",
        drifted.len(),
        GOLDEN.len(),
        drifted.join("\n")
    );
}

/// Fingerprints content-address cached strategies across machines, so
/// they must not depend on the ambient kernel backend: the whole
/// `Workload::fingerprint` default — Gram construction included — runs
/// under `with_scalar_serial`, and `Dense::gram` pins its `WᵀW`
/// materialization so even externally-held Gram handles carry
/// machine-independent bits. This asserts the pinning holds under every
/// backend the host supports (on an AVX2 host the ambient default is
/// the AVX2 backend — the golden table above already proves that case —
/// and this sweep additionally pins it under explicit overrides). The
/// inexact-weight Dense entry is the canary: its `WᵀW` products round,
/// so a missing pin shows up as FMA-flipped bits here.
#[test]
fn fingerprints_are_backend_independent() {
    let reference = observed();
    for backend in ldp_linalg::Backend::available() {
        let under = ldp_linalg::kernels::with_backend(backend, observed);
        assert_eq!(
            under, reference,
            "fingerprints drifted under the {backend} backend; the probe \
             must stay pinned to scalar+serial arithmetic"
        );
    }
}

#[test]
fn fingerprints_are_pairwise_distinct() {
    let observed = observed();
    for (i, (a_name, a)) in observed.iter().enumerate() {
        for (b_name, b) in &observed[i + 1..] {
            assert_ne!(a, b, "{a_name} and {b_name} collide");
        }
    }
}

/// Not an assertion — prints the current table for pasting into GOLDEN.
#[test]
fn print_fingerprints() {
    for (name, fp) in observed() {
        println!("    (\"{name}\", {fp:#018x}),");
    }
}
