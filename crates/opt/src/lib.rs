//! Strategy optimization for the workload factorization mechanism —
//! Sections 3.2 and 4 of the paper.
//!
//! Given a workload Gram matrix `G = WᵀW` and a privacy budget ε, this
//! crate solves Problem 3.12:
//!
//! ```text
//! minimize_{Q, z}   tr[(QᵀD_Q⁻¹Q)†(WᵀW)]
//! subject to        W = WQ†Q
//!                   Qᵀ1 = 1
//!                   0 ≤ z ≤ q_u ≤ e^ε·z   for every column u
//! ```
//!
//! by projected gradient descent (Algorithm 2), using the bounded
//! probability-simplex projection of Algorithm 1. Components:
//!
//! * [`projection`] — Algorithm 1 (`O(m log m)` per column) plus the exact
//!   backpropagation of gradients through the projection onto `z` (the
//!   paper delegates this to autodiff; we derive it by hand, see the
//!   module docs).
//! * [`objective`] — the loss `L(Q)` and its analytic gradient `∇_Q L`.
//! * [`pgd`] — Algorithm 2 with random initialization, step-size search,
//!   and multi-restart support.
//! * [`lbfgs`] — a projected L-BFGS alternative to Algorithm 2's descent
//!   loop (quasi-Newton directions, Armijo line search on the projected
//!   path, an objective-plateau stop), selected via
//!   [`pgd::Algorithm::Lbfgs`].
//!
//! The high-level entry point is [`optimize_strategy`] /
//! [`optimized_mechanism`]:
//!
//! ```
//! use ldp_core::LdpMechanism;
//! use ldp_opt::{optimized_mechanism, OptimizerConfig};
//! use ldp_workloads::{Prefix, Workload};
//!
//! let workload = Prefix::new(8);
//! let config = OptimizerConfig::quick(42);
//! let mech = optimized_mechanism(&workload.gram(), 1.0, &config).unwrap();
//! assert_eq!(mech.domain_size(), 8);
//! ```

pub mod lbfgs;
pub mod objective;
pub mod pgd;
pub mod projection;

pub use objective::{ObjectiveEvaluation, ObjectiveWorkspace};
pub use pgd::{
    optimize_strategy, optimize_strategy_with, optimized_mechanism, Algorithm, OptimizationResult,
    OptimizerConfig, Workspace,
};
pub use projection::{
    project_columns, project_columns_into, ProjectionJacobian, ProjectionScratch,
};
