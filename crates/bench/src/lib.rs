//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 6). Each figure has a binary:
//!
//! | Binary | Reproduces | Paper section |
//! |--------|------------|---------------|
//! | `fig1` | sample complexity vs ε, 7 mechanisms × 6 workloads | §6.2, Figure 1 |
//! | `fig2` | sample complexity vs domain size n | §6.3, Figure 2 |
//! | `fig3a` | sample complexity on benchmark datasets (Prefix) | §6.4, Figure 3a |
//! | `fig3b` | optimized worst-case variance ratio vs m, 10 restarts | §6.5, Figure 3b |
//! | `fig3c` | per-iteration optimization time vs n | §6.6, Figure 3c |
//! | `fig4` | normalized variance with/without WNNLS | §6.7, Figure 4 |
//!
//! Table 1 (mechanisms as strategy matrices) is reproduced by the
//! `examples/table1_strategies.rs` binary and by entry-level unit tests in
//! `ldp-mechanisms`.
//!
//! All binaries print CSV to stdout with the same series names as the
//! paper's plots, accept `--quick` for a laptop-scale run (smaller n,
//! fewer iterations — the *shape* of every curve is preserved), and are
//! deterministic given `--seed`.

pub mod args;
pub mod cells;
pub mod report;

pub use args::Args;
pub use cells::{build_mechanism, mechanism_labels, MechanismKind, ALL_MECHANISMS};
