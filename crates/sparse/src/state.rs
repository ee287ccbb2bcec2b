//! Sparse sharded aggregation state.
//!
//! A [`SparseShard`] counts raw LDP reports in a hash map keyed by the
//! `u64` report value — the natural structure for ingest, where report
//! order is arbitrary and per-connection shards fill independently. The
//! map is *internal only*: every path that leaves a shard goes through
//! [`SparseShard::to_sorted`] or [`SparseShard::drain_sorted`], which
//! export the canonical strictly-key-ascending `(report, count)` pairs.
//! The central [`crate::SparseIngestor`] keeps its state as one such
//! run and merges exported pairs into it linearly; counts are exact
//! `u64`s and integer addition is associative and commutative, so N
//! shards merged in any order are byte-equal to one shard, at any
//! `LDP_THREADS` × kernel backend.

use std::collections::HashMap;

/// One ingestion shard: exact `u64` multiplicities of raw reports.
///
/// ```
/// let mut shard = ldp_sparse::SparseShard::new();
/// shard.absorb_batch(&[7, 3, 7]);
/// assert_eq!(shard.to_sorted(), vec![(3, 1), (7, 2)]);
/// assert_eq!(shard.reports(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseShard {
    counts: HashMap<u64, u64>,
    reports: u64,
}

impl SparseShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one report.
    pub fn absorb(&mut self, report: u64) {
        *self.counts.entry(report).or_insert(0) += 1;
        self.reports += 1;
    }

    /// Counts a batch of reports.
    pub fn absorb_batch(&mut self, reports: &[u64]) {
        for &r in reports {
            self.absorb(r);
        }
    }

    /// Total reports counted (with multiplicity).
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Whether no reports have been counted.
    pub fn is_empty(&self) -> bool {
        self.reports == 0
    }

    /// The canonical export: `(report, count)` pairs sorted strictly
    /// ascending by report. Every persisted, fingerprinted, or
    /// estimated view of a shard goes through this or
    /// [`SparseShard::drain_sorted`].
    // Unordered iteration is safe here and only here: the sort on the
    // next line restores the canonical order before anything can
    // observe allocator state.
    #[allow(clippy::disallowed_methods)]
    pub fn to_sorted(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = self.counts.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Empties the shard into its canonical export (what
    /// [`SparseShard::to_sorted`] would return). The map keeps its
    /// capacity for the next reports.
    // Unordered iteration is safe here for the same reason as in
    // `to_sorted`: the sort restores the canonical order first.
    #[allow(clippy::disallowed_methods)]
    pub fn drain_sorted(&mut self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = self.counts.drain().collect();
        pairs.sort_unstable();
        self.reports = 0;
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_sorted_exports_and_empties() {
        let mut shard = SparseShard::new();
        shard.absorb_batch(&[5, 5, 1, 9, 5]);
        let expected = shard.to_sorted();
        assert_eq!(shard.drain_sorted(), expected);
        assert!(shard.is_empty());
        assert_eq!(shard.to_sorted(), vec![]);
        shard.absorb(2);
        assert_eq!(shard.drain_sorted(), vec![(2, 1)]);
    }
}
