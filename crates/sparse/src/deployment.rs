//! Open-domain deployments: oracle + attribute + estimation surface.
//!
//! A [`SparseDeployment`] binds one open-domain attribute (say `url`)
//! to one frequency oracle and owns the full estimation surface: point
//! queries, variance-aware top-k heavy hitters, and the checkpoint
//! binding that ties persisted shards to the deployment that produced
//! them. [`SparseClient`] is the cheap-to-clone user-side half;
//! [`SparseIngestor`] the server-side accumulator with checkpoint /
//! resume hooks mirroring the dense `Aggregator`.

use std::cmp::Ordering;

use ldp_core::LdpError;
use ldp_linalg::stablehash::Fnv64;
use rand::RngCore;

use crate::key::key_hash;
use crate::oracle::{OlhOracle, SparseHadamard};
use crate::state::SparseShard;

/// Domain-separation token for [`SparseDeployment::binding`].
const BINDING_TOKEN: &str = "ldp-sparse-binding/1";

/// The frequency oracle behind a sparse deployment.
///
/// An enum rather than a trait object so deployments stay `Copy`-cheap,
/// comparable, and trivially encodable in checkpoints and wire frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparseOracle {
    /// Optimized Local Hashing — the point-query oracle
    /// (`O(distinct)` per candidate; no dense state ever).
    Olh(OlhOracle),
    /// Bucketed Hadamard response — the bulk oracle (one integer FWHT,
    /// then `O(1)` per candidate).
    Hadamard(SparseHadamard),
}

impl SparseOracle {
    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        match self {
            SparseOracle::Olh(o) => o.epsilon(),
            SparseOracle::Hadamard(o) => o.epsilon(),
        }
    }

    /// Short protocol name (`"olh"` / `"hadamard"`).
    pub fn name(&self) -> &'static str {
        match self {
            SparseOracle::Olh(_) => "olh",
            SparseOracle::Hadamard(_) => "hadamard",
        }
    }

    /// Whether a raw report is well-formed for this oracle.
    pub fn validate_report(&self, report: u64) -> bool {
        match self {
            SparseOracle::Olh(o) => o.validate_report(report),
            SparseOracle::Hadamard(o) => o.validate_report(report),
        }
    }

    /// Randomizes one user's key hash into a report.
    pub fn respond(&self, key_hash: u64, rng: &mut dyn RngCore) -> u64 {
        match self {
            SparseOracle::Olh(o) => o.respond(key_hash, rng),
            SparseOracle::Hadamard(o) => o.respond(key_hash, rng),
        }
    }

    /// Null standard deviation of a count estimate over `total` reports.
    pub fn stddev(&self, total: u64) -> f64 {
        match self {
            SparseOracle::Olh(o) => o.stddev(total),
            SparseOracle::Hadamard(o) => o.stddev(total),
        }
    }
}

/// One admitted heavy hitter: a candidate whose estimate cleared the
/// `z·σ` admission threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The candidate's key hash (see [`crate::key_hash`]).
    pub key_hash: u64,
    /// Unbiased count estimate.
    pub estimate: f64,
    /// Null standard deviation of the estimate at the observed report
    /// count — the admission threshold is `z · stddev`.
    pub stddev: f64,
}

/// An open-domain deployment: one attribute, one oracle.
///
/// ```
/// use rand::SeedableRng;
/// let dep = ldp_sparse::SparseDeployment::olh("url", 2.0).unwrap();
/// let client = dep.client();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut ingestor = dep.ingestor();
/// let mut shard = ldp_sparse::SparseShard::new();
/// for _ in 0..500 {
///     shard.absorb(client.respond("https://example.com/", &mut rng));
/// }
/// ingestor.absorb_shard(&mut shard);
/// let est = dep.point(ingestor.pairs(), ldp_sparse::key_hash("https://example.com/"));
/// assert!((est - 500.0).abs() < 6.0 * dep.oracle().stddev(500));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDeployment {
    attribute: String,
    oracle: SparseOracle,
}

impl SparseDeployment {
    /// An OLH deployment for `attribute` at budget `epsilon`.
    ///
    /// # Errors
    /// [`LdpError::InvalidEpsilon`] on a non-finite or non-positive ε.
    pub fn olh(attribute: impl Into<String>, epsilon: f64) -> Result<Self, LdpError> {
        Ok(Self {
            attribute: attribute.into(),
            oracle: SparseOracle::Olh(OlhOracle::new(epsilon)?),
        })
    }

    /// A sparse-Hadamard deployment with `2^bits` buckets at `epsilon`.
    ///
    /// # Errors
    /// [`LdpError::InvalidEpsilon`] / [`LdpError::InvalidQuery`] on bad
    /// parameters (see [`SparseHadamard::new`]).
    pub fn hadamard(
        attribute: impl Into<String>,
        epsilon: f64,
        bits: u32,
    ) -> Result<Self, LdpError> {
        Ok(Self {
            attribute: attribute.into(),
            oracle: SparseOracle::Hadamard(SparseHadamard::new(epsilon, bits)?),
        })
    }

    /// The open-domain attribute this deployment serves.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &SparseOracle {
        &self.oracle
    }

    /// The deployment binding: a stable hash of attribute + oracle
    /// identity + parameters. Checkpoints record it so state from a
    /// different attribute, protocol, ε, or bucket layout is rejected
    /// at resume with a typed error instead of silently mis-decoded.
    pub fn binding(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(BINDING_TOKEN);
        h.write_str(&self.attribute);
        h.write_str(self.oracle.name());
        h.write_f64(self.oracle.epsilon());
        match &self.oracle {
            SparseOracle::Olh(o) => {
                h.write_u64(o.g());
            }
            SparseOracle::Hadamard(o) => {
                h.write_u64(u64::from(o.bits()));
            }
        }
        h.finish()
    }

    /// The user-side half: hashes keys and randomizes reports.
    pub fn client(&self) -> SparseClient {
        SparseClient {
            oracle: self.oracle,
        }
    }

    /// A fresh server-side accumulator bound to this deployment.
    pub fn ingestor(&self) -> SparseIngestor {
        SparseIngestor {
            binding: self.binding(),
            run: Vec::new(),
            scratch: Vec::new(),
            reports: 0,
            epoch: 0,
            batches: 0,
        }
    }

    /// Unbiased point estimate of the count of `key_hash` from
    /// canonical sorted pairs. `O(distinct)` for both oracles.
    pub fn point(&self, pairs: &[(u64, u64)], key_hash: u64) -> f64 {
        let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
        match &self.oracle {
            SparseOracle::Olh(o) => {
                let support: u64 = pairs
                    .iter()
                    .filter(|&&(r, _)| o.supports(r, key_hash))
                    .map(|&(_, c)| c)
                    .sum();
                o.estimate(support, total)
            }
            SparseOracle::Hadamard(o) => o.estimate(pairs, key_hash),
        }
    }

    /// Variance-aware top-k heavy hitters over an explicit candidate
    /// set.
    ///
    /// Estimates every candidate, admits only those clearing the
    /// `z · stddev` null threshold (bounding false positives to the
    /// chosen z-score), orders by estimate descending with key-hash
    /// ascending as the deterministic tie-break, and returns at most
    /// `k`. Duplicate candidates are deduplicated.
    ///
    /// Cost: Hadamard runs one integer FWHT then `O(1)` per candidate;
    /// OLH scans distinct reports per candidate — fine for focused
    /// candidate sets, quadratic-feeling for huge ones (the README
    /// spells out the trade).
    pub fn heavy_hitters(
        &self,
        pairs: &[(u64, u64)],
        candidates: &[u64],
        k: usize,
        z: f64,
    ) -> Vec<HeavyHitter> {
        let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            // No evidence yet — an empty state admits nothing (otherwise
            // every candidate would tie at estimate 0 ≥ z·0).
            return Vec::new();
        }
        let stddev = self.oracle.stddev(total);
        let threshold = z * stddev;
        let mut sorted_candidates = candidates.to_vec();
        sorted_candidates.sort_unstable();
        sorted_candidates.dedup();

        let mut admitted: Vec<HeavyHitter> = match &self.oracle {
            SparseOracle::Hadamard(o) => {
                let transformed = o.transform(pairs);
                sorted_candidates
                    .iter()
                    .map(|&kh| (kh, o.estimate_from_transform(&transformed, kh)))
                    .filter(|&(_, est)| est >= threshold)
                    .map(|(key_hash, estimate)| HeavyHitter {
                        key_hash,
                        estimate,
                        stddev,
                    })
                    .collect()
            }
            SparseOracle::Olh(_) => sorted_candidates
                .iter()
                .map(|&kh| (kh, self.point(pairs, kh)))
                .filter(|&(_, est)| est >= threshold)
                .map(|(key_hash, estimate)| HeavyHitter {
                    key_hash,
                    estimate,
                    stddev,
                })
                .collect(),
        };
        // Deterministic total order: estimate descending (estimates are
        // finite: ratios of integers by nonzero constants), key hash
        // ascending on exact ties.
        admitted.sort_unstable_by(|a, b| {
            b.estimate
                .total_cmp(&a.estimate)
                .then_with(|| a.key_hash.cmp(&b.key_hash))
        });
        admitted.truncate(k);
        admitted
    }
}

/// The user-side half of a sparse deployment: hash the key, randomize
/// one report. `Copy`-cheap; hand one to every producer thread.
#[derive(Debug, Clone, Copy)]
pub struct SparseClient {
    oracle: SparseOracle,
}

impl SparseClient {
    /// Randomizes one user's key into a report.
    pub fn respond(&self, key: &str, rng: &mut dyn RngCore) -> u64 {
        self.oracle.respond(key_hash(key), rng)
    }

    /// Randomizes a pre-hashed key (producers that hash once and fan
    /// out, and the serve path, which moves hashes over the wire).
    pub fn respond_hashed(&self, key_hash: u64, rng: &mut dyn RngCore) -> u64 {
        self.oracle.respond(key_hash, rng)
    }
}

/// Server-side accumulator for one sparse deployment: the merged state
/// as one canonical sorted run, plus checkpoint bookkeeping (epoch,
/// batches, binding), mirroring the dense `Aggregator`.
///
/// Queries and checkpoints read the run directly; only
/// [`SparseIngestor::absorb`] writes it, by a linear merge of each
/// shard's sorted export. Merges are exact `u64` addition, so any
/// shard grouping and order yields the same run:
///
/// ```
/// let dep = ldp_sparse::SparseDeployment::olh("url", 2.0).unwrap();
/// let mut ingestor = dep.ingestor();
/// let mut a = ldp_sparse::SparseShard::new();
/// let mut b = ldp_sparse::SparseShard::new();
/// a.absorb(7);
/// b.absorb(7);
/// b.absorb(3);
/// ingestor.absorb(&mut b, 1);
/// ingestor.absorb(&mut a, 1);
/// assert_eq!(ingestor.pairs(), &[(3, 1), (7, 2)]);
/// assert_eq!(ingestor.reports(), 3);
/// assert!(a.is_empty() && b.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SparseIngestor {
    binding: u64,
    /// Canonical strictly-key-ascending `(report, count)` pairs.
    run: Vec<(u64, u64)>,
    /// Merge target, swapped with `run` after each merge so neither
    /// buffer is reallocated once it has grown.
    scratch: Vec<(u64, u64)>,
    /// Sum of the counts in `run`.
    reports: u64,
    epoch: u64,
    batches: u64,
}

impl SparseIngestor {
    /// The deployment binding this ingestor was created from.
    pub fn binding(&self) -> u64 {
        self.binding
    }

    /// Total reports absorbed.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Checkpoint epoch: increments once per encoded checkpoint.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Batches (shards) absorbed since creation or resume.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Folds a filled shard into the merged state, leaving it empty.
    pub fn absorb_shard(&mut self, shard: &mut SparseShard) {
        self.absorb(shard, 1);
    }

    /// Folds a filled shard into the merged state, leaving it empty and
    /// crediting `batches` absorbed batches — the serve merge barrier's
    /// entry point, where one connection shard accumulates many
    /// submitted batches. An empty shard only credits `batches`.
    pub fn absorb(&mut self, shard: &mut SparseShard, batches: u64) {
        self.batches += batches;
        if shard.is_empty() {
            return;
        }
        self.reports += shard.reports();
        let incoming = shard.drain_sorted();
        merge_runs(&self.run, &incoming, &mut self.scratch);
        std::mem::swap(&mut self.run, &mut self.scratch);
    }

    /// The canonical sorted `(report, count)` pairs of the merged state.
    pub fn pairs(&self) -> &[(u64, u64)] {
        &self.run
    }

    /// Snapshot view for encoding: bumps the epoch and returns
    /// `(epoch, batches, binding, sorted pairs)`.
    pub fn checkpoint(&mut self) -> (u64, u64, u64, Vec<(u64, u64)>) {
        self.epoch += 1;
        (self.epoch, self.batches, self.binding, self.run.clone())
    }

    /// Rebuilds an ingestor from decoded checkpoint fields. The caller
    /// (see [`crate::decode_sparse_checkpoint`]) has already verified
    /// the binding matches the hosting deployment.
    ///
    /// # Panics
    /// Panics if `pairs` is not strictly ascending by report or its
    /// counts overflow `u64` — a corrupt input; decoded checkpoints
    /// validate both before reaching here.
    pub fn resume(binding: u64, epoch: u64, batches: u64, pairs: &[(u64, u64)]) -> Self {
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse ingestor pairs must be strictly ascending"
        );
        let mut reports = 0u64;
        for &(_, count) in pairs {
            assert!(
                u64::MAX - reports >= count,
                "sparse ingestor report total overflowed u64"
            );
            reports += count;
        }
        Self {
            binding,
            run: pairs.to_vec(),
            scratch: Vec::new(),
            reports,
            epoch,
            batches,
        }
    }
}

/// Merges two strictly ascending runs into `out` (cleared first),
/// adding the counts of reports present in both.
fn merge_runs(run: &[(u64, u64)], incoming: &[(u64, u64)], out: &mut Vec<(u64, u64)>) {
    out.clear();
    out.reserve(run.len() + incoming.len());
    let (mut i, mut j) = (0, 0);
    while i < run.len() && j < incoming.len() {
        let (a, b) = (run[i], incoming[j]);
        match a.0.cmp(&b.0) {
            Ordering::Less => {
                out.push(a);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b);
                j += 1;
            }
            Ordering::Equal => {
                out.push((a.0, a.1 + b.1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&run[i..]);
    out.extend_from_slice(&incoming[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bindings_separate_every_parameter() {
        let bindings = [
            SparseDeployment::olh("url", 2.0).unwrap().binding(),
            SparseDeployment::olh("url", 1.0).unwrap().binding(),
            SparseDeployment::olh("domain", 2.0).unwrap().binding(),
            SparseDeployment::hadamard("url", 2.0, 16)
                .unwrap()
                .binding(),
            SparseDeployment::hadamard("url", 2.0, 18)
                .unwrap()
                .binding(),
        ];
        for (i, a) in bindings.iter().enumerate() {
            for b in &bindings[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn absorb_any_grouping_is_canonical() {
        let dep = SparseDeployment::olh("url", 2.0).unwrap();
        let reports: Vec<u64> = (0..1000).map(|i| (i * i) % 97).collect();
        let mut single = SparseShard::new();
        single.absorb_batch(&reports);
        let expected = single.to_sorted();

        for shards in [2usize, 3, 7] {
            let mut parts: Vec<SparseShard> = (0..shards).map(|_| SparseShard::new()).collect();
            for (i, &r) in reports.iter().enumerate() {
                parts[i % shards].absorb(r);
            }
            // Fold right-to-left to exercise a non-trivial merge order.
            let mut ingestor = dep.ingestor();
            for part in parts.iter_mut().rev() {
                ingestor.absorb_shard(part);
            }
            assert_eq!(ingestor.pairs(), expected);
            assert_eq!(ingestor.reports(), single.reports());
            assert_eq!(ingestor.batches(), shards as u64);
        }
    }

    #[test]
    fn resume_round_trips() {
        let dep = SparseDeployment::olh("url", 2.0).unwrap();
        let mut shard = SparseShard::new();
        shard.absorb_batch(&[5, 5, 1, 9, 5]);
        let mut ingestor = dep.ingestor();
        ingestor.absorb(&mut shard, 2);
        let (epoch, batches, binding, pairs) = ingestor.checkpoint();
        let rebuilt = SparseIngestor::resume(binding, epoch, batches, &pairs);
        assert_eq!(rebuilt.pairs(), &[(1, 1), (5, 3), (9, 1)]);
        assert_eq!(rebuilt.reports(), 5);
        assert_eq!((rebuilt.epoch(), rebuilt.batches()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn resume_rejects_an_unsorted_run() {
        SparseIngestor::resume(0, 0, 0, &[(9, 1), (5, 3)]);
    }

    #[test]
    #[should_panic(expected = "overflowed u64")]
    fn resume_rejects_an_overflowing_total() {
        SparseIngestor::resume(0, 0, 0, &[(1, u64::MAX), (2, 1)]);
    }

    #[test]
    fn heavy_hitters_admission_and_order() {
        let dep = SparseDeployment::hadamard("url", 2.0, 10).unwrap();
        let client = dep.client();
        let mut rng = StdRng::seed_from_u64(42);
        let mut shard = SparseShard::new();
        let hot = ["a", "b", "c"];
        for (i, key) in hot.iter().enumerate() {
            for _ in 0..(2000 * (i + 1)) {
                shard.absorb(client.respond(key, &mut rng));
            }
        }
        for i in 0..500 {
            shard.absorb(client.respond(&format!("cold{i}"), &mut rng));
        }
        let mut ingestor = dep.ingestor();
        ingestor.absorb_shard(&mut shard);
        let mut candidates: Vec<u64> = hot.iter().map(|k| key_hash(k)).collect();
        candidates.extend((0..200).map(|i| key_hash(&format!("decoy{i}"))));
        let pairs = ingestor.pairs().to_vec();
        let hits = dep.heavy_hitters(&pairs, &candidates, 3, 4.0);
        assert_eq!(hits.len(), 3);
        // Descending by estimate: c (6000), b (4000), a (2000).
        assert_eq!(hits[0].key_hash, key_hash("c"));
        assert_eq!(hits[1].key_hash, key_hash("b"));
        assert_eq!(hits[2].key_hash, key_hash("a"));
        for h in &hits {
            assert!(h.estimate >= 4.0 * h.stddev);
        }
    }

    #[test]
    fn olh_point_query_tracks_truth() {
        let dep = SparseDeployment::olh("url", 2.0).unwrap();
        let client = dep.client();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ingestor = dep.ingestor();
        let mut shard = SparseShard::new();
        for _ in 0..3000 {
            shard.absorb(client.respond("hot", &mut rng));
        }
        for i in 0..1000 {
            shard.absorb(client.respond(&format!("k{i}"), &mut rng));
        }
        ingestor.absorb_shard(&mut shard);
        let pairs = ingestor.pairs().to_vec();
        let sigma = dep.oracle().stddev(ingestor.reports());
        let hot = dep.point(&pairs, key_hash("hot"));
        let absent = dep.point(&pairs, key_hash("never-seen"));
        assert!((hot - 3000.0).abs() < 6.0 * sigma, "hot: {hot}");
        assert!(absent.abs() < 6.0 * sigma, "absent: {absent}");
    }
}
