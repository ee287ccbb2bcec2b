//! # ldp — the workload factorization mechanism for local differential privacy
//!
//! A from-scratch Rust implementation of McKenna, Maity, Mazumdar & Miklau,
//! *"A workload-adaptive mechanism for linear queries under local
//! differential privacy"* (VLDB 2020), together with every substrate the
//! paper depends on: dense linear algebra, the baseline LDP mechanisms it
//! compares against, a workload library with closed-form Gram matrices, the
//! projected-gradient strategy optimizer, WNNLS post-processing, and the
//! full experiment harness.
//!
//! ## Quickstart
//!
//! Applications start from a **schema**: named attributes whose product
//! is the user-type domain, with queries declared by name. The pipeline
//! lowers them to a union of Kronecker products (structured end to end —
//! nothing densifies at any domain size), optimizes an ε-LDP mechanism
//! for exactly those queries, and the resulting deployment also serves
//! *ad-hoc* questions with analytic error bars:
//!
//! ```
//! use ldp::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. Declare the domain and the queries you care about, by name.
//! let deployment = Pipeline::for_schema(Schema::new([("age", 8), ("sex", 2)]))
//!     .queries([
//!         Query::marginal(["age", "sex"]),   // the full contingency table
//!         Query::range("age", 2..6),         // plus a range you'll watch
//!         Query::total(),
//!     ])
//!     .epsilon(1.0)
//!     .optimized(&OptimizerConfig::quick(7))
//!     .unwrap();
//!
//! // 2. Error is known in advance (Corollary 5.4): how many users does a
//! //    target accuracy need?
//! assert!(deployment.sample_complexity(0.01).is_finite());
//!
//! // 3. Users randomize locally; shards aggregate concurrently.
//! let schema = deployment.schema().unwrap();
//! let client = deployment.client();
//! let mut shard = deployment.shard(); // one per thread in production
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! for age in 0..8 {
//!     for sex in 0..2 {
//!         let user_type = schema.user_type(&[("age", age), ("sex", sex)]).unwrap();
//!         for _ in 0..50 {
//!             shard.ingest(client.respond(user_type, &mut rng)).unwrap();
//!         }
//!     }
//! }
//!
//! // 4. Merge shards (exact, any order), estimate, and post-process.
//! let aggregator = deployment.merge([shard]).unwrap();
//! let estimate = deployment.estimate(&aggregator);
//! assert_eq!(estimate.reports(), 800);
//! assert_eq!(estimate.answers().len(), 18);          // Wx̂: 16 cells + 2
//! let consistent = estimate.consistent();            // WNNLS refinement
//! assert!(consistent.data_vector().iter().all(|&v| v >= 0.0));
//!
//! // 5. Ad-hoc serving: questions nobody declared up front, resolved by
//! //    name against the live estimate, each with its exact error bar.
//! let QueryAnswer { value, stddev, .. } = estimate
//!     .answer(&Query::range("age", 2..6).and_equals("sex", 1))
//!     .unwrap();
//! assert!(value.is_finite() && stddev >= 0.0);
//! ```
//!
//! Multi-threaded collection is first-class: a [`Deployment`] is
//! `Send + Sync + Clone`, clients share precomputed alias tables, and
//! [`prelude::AggregatorShard`]s (integer counts) merge bit-exactly — see
//! `examples/sharded_aggregation.rs` and `tests/pipeline_api.rs`.
//!
//! ### Advanced: flat workloads
//!
//! The schema front end sits on top of the flat [`Pipeline::for_workload`]
//! path, which remains the right entry point for explicit 1-D workloads
//! (the paper's Prefix/All-Range/marginal suites, hand-built matrices,
//! `Product`/`Stacked` composites):
//!
//! ```
//! use ldp::prelude::*;
//! let deployment = Pipeline::for_workload(Prefix::new(16)) // CDF over 16 bins
//!     .epsilon(1.0)
//!     .baseline(Baseline::RandomizedResponse)
//!     .unwrap();
//! assert_eq!(deployment.workload().num_queries(), 16);
//! ```
//!
//! The crate-level entry points remain available for manual plumbing:
//! [`prelude::optimized_mechanism`], [`prelude::Client`],
//! [`prelude::Aggregator`], [`prelude::wnnls`].
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`pipeline`] | `Pipeline` → `Deployment` → `Estimate`: the top-level deployment API, schema front door, ad-hoc query serving |
//! | [`linalg`] | dense matrices, Jacobi eigendecomposition, SVD, pinv, Cholesky |
//! | [`core`] | data vectors, strategy matrices, factorization mechanism, client/shard/aggregator protocol, variance/complexity/bounds |
//! | [`workloads`] | `Schema`/`Query` DSL over multi-attribute domains; Histogram, Prefix, All Range, marginals, Parity, custom/stacked |
//! | [`mechanisms`] | RR, Hadamard, Hierarchical, Fourier, RAPPOR, Subset Selection, local Matrix Mechanism |
//! | [`opt`] | Algorithm 1 (projection), Algorithm 2 (projected gradient descent) |
//! | [`estimation`] | WNNLS consistency post-processing, variance simulation |
//! | [`store`] | durability: checksummed snapshots, strategy registry, checkpoint/resume |
//! | [`sparse`] | open-domain frequency oracles (OLH, sparse Hadamard), sharded sparse aggregation, top-k heavy hitters |
//! | [`data`] | synthetic DPBench-shaped datasets (HEPTH/MEDCOST/NETTRACE-like) |
//!
//! ## Open-domain workloads
//!
//! Attributes whose values cannot be enumerated up front (URLs, search
//! strings, arbitrary identifiers) never lower to a dense `[n]` index.
//! Declare them with [`workloads::Schema::open`] beside the dense
//! attributes, and serve them through the [`sparse`] crate's frequency
//! oracles — point queries and variance-aware top-k heavy hitters with
//! the same bit-determinism and checkpoint/resume guarantees as the
//! dense pipeline:
//!
//! ```
//! use ldp::prelude::*;
//! use rand::SeedableRng;
//!
//! // A mixed schema: dense demographics plus an open url attribute.
//! let schema = Schema::new([("age", 8), ("sex", 2)]).open("url");
//! assert!(schema.is_open("url"));
//!
//! // Open attributes are served by a sparse deployment.
//! let dep = SparseDeployment::hadamard("url", 2.0, 12).unwrap();
//! let client = dep.client();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut shard = SparseShard::new();
//! for _ in 0..2000 {
//!     shard.absorb(client.respond("https://example.com/", &mut rng));
//! }
//! let mut ingestor = dep.ingestor();
//! ingestor.absorb_shard(&mut shard);
//!
//! // Point estimate with an analytic error bar.
//! let est = dep.point(ingestor.pairs(), key_hash("https://example.com/"));
//! assert!((est - 2000.0).abs() < 6.0 * dep.oracle().stddev(2000));
//!
//! // Dense queries that touch an open attribute fail with a typed
//! // routing error instead of a wrong dense answer.
//! let q = Query::key("url", "https://example.com/");
//! assert!(q.as_key_query().is_some()); // the sparse routing hook
//! ```

pub use ldp_core as core;
pub use ldp_data as data;
pub use ldp_estimation as estimation;
pub use ldp_linalg as linalg;
pub use ldp_mechanisms as mechanisms;
pub use ldp_opt as opt;
pub use ldp_sparse as sparse;
pub use ldp_store as store;
pub use ldp_workloads as workloads;

pub mod pipeline;

pub use pipeline::{
    Baseline, Deployment, Estimate, Pipeline, QueryAnswer, SchemaPipeline, StreamIngestor,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::pipeline::{
        Baseline, Deployment, Estimate, Pipeline, QueryAnswer, SchemaPipeline, StreamIngestor,
    };
    pub use ldp_core::protocol::{Aggregator, AggregatorShard, Client};
    pub use ldp_core::{
        DataVector, Deployable, FactorizationMechanism, LdpError, LdpMechanism, ResponseVector,
        StrategyMatrix,
    };
    pub use ldp_estimation::{wnnls, Postprocess, WnnlsOptions};
    pub use ldp_linalg::{Gram, LinOp, Matrix};
    pub use ldp_mechanisms::{
        hadamard_response, hierarchical, randomized_response, Calibration, Fourier,
        LocalMatrixMechanism,
    };
    pub use ldp_opt::{
        optimize_strategy, optimized_mechanism, Algorithm, OptimizerConfig, Workspace,
    };
    pub use ldp_sparse::{
        key_hash, sparse_fingerprint, HeavyHitter, SparseClient, SparseDeployment, SparseIngestor,
        SparseShard,
    };
    pub use ldp_store::{CacheOutcome, StoreError, StrategyRegistry};
    pub use ldp_workloads::{
        AllMarginals, AllRange, Dense, Domain, Histogram, KWayMarginals, Parity, Prefix, Product,
        Query, Schema, SchemaError, SchemaWorkload, Stacked, Total, WidthRange, Workload,
    };
}
