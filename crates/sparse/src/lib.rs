//! Open-domain LDP: hashing frequency oracles, sparse sharded
//! aggregation, and top-k heavy hitters.
//!
//! Dense workloads materialize a data vector over a closed `[n]`
//! domain; real telemetry attributes (URLs, query strings, arbitrary
//! identifiers) live in domains far too large for that. This crate
//! serves them without ever densifying:
//!
//! * [`key_hash`] reduces every key to a stable 64-bit hash at the
//!   edge; all math downstream is on hashes.
//! * [`OlhOracle`] (Optimized Local Hashing) and [`SparseHadamard`]
//!   (bucketed Hadamard response) randomize one report per user with
//!   exact unbiased estimators and closed-form per-report variance —
//!   OLH for point queries, Hadamard for bulk heavy-hitter sweeps.
//! * [`SparseShard`] counts raw reports with exact `u64` multiplicity;
//!   [`SparseIngestor`] merges shards linearly into one canonical
//!   sorted run, so any number of shards merged in any order give
//!   byte-identical pairs, at any `LDP_THREADS` × kernel backend.
//! * [`SparseDeployment`] binds an attribute to an oracle and answers
//!   point queries and variance-aware top-k heavy hitters
//!   (admit only when the estimate clears `z·σ`; deterministic
//!   total-order tie-breaking).
//! * [`encode_sparse_checkpoint`] / [`decode_sparse_checkpoint`]
//!   persist ingestion state as FNV-checksummed LDPS records with
//!   typed decode errors, powering `ldp-served`'s checkpoint and
//!   kill-9 resume for open-domain deployments.
//! * [`ClosedOlh`] / [`ClosedHadamard`] re-express the oracles on
//!   closed domains behind `LdpMechanism`/`Deployable`, so they slot
//!   into the workspace's comparison and pipeline machinery (closed
//!   Hadamard coincides bit-for-bit with the dense baseline).
//!
//! # Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use ldp_sparse::{key_hash, SparseDeployment, SparseShard};
//!
//! let dep = SparseDeployment::hadamard("url", 2.0, 12).unwrap();
//! let client = dep.client();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // Users randomize locally; shards fill independently.
//! let mut shard = SparseShard::new();
//! for _ in 0..5000 {
//!     shard.absorb(client.respond("https://hot.example/", &mut rng));
//! }
//! for i in 0..1000 {
//!     shard.absorb(client.respond(&format!("https://cold{i}.example/"), &mut rng));
//! }
//!
//! let mut ingestor = dep.ingestor();
//! ingestor.absorb_shard(&mut shard);
//!
//! // Top-k heavy hitters over a candidate set, 4σ admission.
//! let candidates: Vec<u64> = [key_hash("https://hot.example/"), key_hash("https://cold3.example/")].to_vec();
//! let pairs = ingestor.pairs().to_vec();
//! let hits = dep.heavy_hitters(&pairs, &candidates, 10, 4.0);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].key_hash, key_hash("https://hot.example/"));
//! ```

mod closed;
mod deployment;
mod fingerprint;
mod key;
mod oracle;
mod snapshot;
mod state;

pub use closed::{ClosedHadamard, ClosedOlh};
pub use deployment::{HeavyHitter, SparseClient, SparseDeployment, SparseIngestor, SparseOracle};
pub use fingerprint::sparse_fingerprint;
pub use key::{key_hash, mix};
pub use oracle::{fwht_i64, OlhOracle, SparseHadamard};
pub use snapshot::{decode_sparse_checkpoint, encode_sparse_checkpoint, SparseCheckpoint};
pub use state::SparseShard;
