//! Property test of the central sparse state: a `SparseIngestor` fed
//! random shards, in any grouping and any order, holds exactly the run
//! of one shard fed every report, and checkpoints to the same bytes.
//!
//! Cases are drawn from a seeded generator, so a failure names its case
//! and reproduces on re-run. Each case mixes four shard shapes: empty,
//! disjoint (keys no other batch uses), fully overlapping (every batch
//! draws from the same few keys, including the extremes of `u64`), and
//! single-key.

use ldp_sparse::{
    decode_sparse_checkpoint, encode_sparse_checkpoint, SparseCheckpoint, SparseDeployment,
    SparseIngestor, SparseShard,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 200;

/// Keys every overlapping batch draws from.
const SHARED: [u64; 6] = [0, 1, 2, 1 << 40, u64::MAX - 1, u64::MAX];

/// One random batch of reports; `index` keeps disjoint batches apart.
fn batch(rng: &mut StdRng, index: u64) -> Vec<u64> {
    let len = rng.gen_range(1..40usize);
    match rng.gen_range(0..4u32) {
        0 => Vec::new(),
        1 => (0..len)
            .map(|_| ((index + 1) << 32) | rng.gen_range(0..1000u64))
            .collect(),
        2 => (0..len)
            .map(|_| SHARED[rng.gen_range(0..SHARED.len())])
            .collect(),
        _ => vec![SHARED[index as usize % SHARED.len()] ^ 0x5a5a; len],
    }
}

/// A random permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Splits `order` into random non-empty contiguous groups.
fn groups(rng: &mut StdRng, order: &[usize]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    for &b in order {
        match out.last_mut() {
            Some(group) if rng.gen_bool(0.6) => group.push(b),
            _ => out.push(vec![b]),
        }
    }
    out
}

/// Fills one shard with every batch in `group`.
fn shard_of(batches: &[Vec<u64>], group: &[usize]) -> SparseShard {
    let mut shard = SparseShard::new();
    for &b in group {
        shard.absorb_batch(&batches[b]);
    }
    shard
}

fn encode(ingestor: &mut SparseIngestor) -> Vec<u8> {
    let reports = ingestor.reports();
    let (epoch, batches, binding, pairs) = ingestor.checkpoint();
    encode_sparse_checkpoint(&SparseCheckpoint {
        epoch,
        batches,
        binding,
        reports,
        pairs,
    })
}

#[test]
fn any_grouping_and_order_of_absorbs_is_canonical() {
    let dep = SparseDeployment::hadamard("url", 2.0, 10).unwrap();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(1..12usize);
        let batches: Vec<Vec<u64>> = (0..n as u64).map(|i| batch(&mut rng, i)).collect();

        let mut single = SparseShard::new();
        for b in &batches {
            single.absorb_batch(b);
        }
        let expected = single.to_sorted();

        let order = permutation(&mut rng, n);
        let grouped = groups(&mut rng, &order);
        let mut ingestor = dep.ingestor();
        for group in &grouped {
            ingestor.absorb(&mut shard_of(&batches, group), group.len() as u64);
        }
        assert_eq!(ingestor.pairs(), expected, "case {case}: pairs");
        let total: u64 = expected.iter().map(|&(_, c)| c).sum();
        assert_eq!(ingestor.reports(), total, "case {case}: reports");
        assert_eq!(ingestor.reports(), single.reports(), "case {case}: reports");
        assert_eq!(ingestor.batches(), n as u64, "case {case}: batches");

        // An empty shard credits its batches and leaves the run alone.
        ingestor.absorb(&mut SparseShard::new(), 3);
        assert_eq!(ingestor.pairs(), expected, "case {case}: empty absorb");
        assert_eq!(ingestor.reports(), total, "case {case}: empty absorb");
        assert_eq!(
            ingestor.batches(),
            n as u64 + 3,
            "case {case}: empty absorb"
        );

        let bytes = encode(&mut ingestor);
        let reference = encode_sparse_checkpoint(&SparseCheckpoint {
            epoch: 1,
            batches: n as u64 + 3,
            binding: dep.binding(),
            reports: total,
            pairs: expected,
        });
        assert_eq!(bytes, reference, "case {case}: checkpoint bytes");
    }
}

#[test]
fn resume_then_absorb_equals_the_uninterrupted_run() {
    let dep = SparseDeployment::olh("url", 2.0).unwrap();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(CASES + case);
        let n = rng.gen_range(1..12usize);
        let batches: Vec<Vec<u64>> = (0..n as u64).map(|i| batch(&mut rng, i)).collect();
        let order = permutation(&mut rng, n);
        let grouped = groups(&mut rng, &order);
        let cut = rng.gen_range(0..grouped.len() + 1);

        let mut uninterrupted = dep.ingestor();
        let mut first = dep.ingestor();
        for group in &grouped[..cut] {
            uninterrupted.absorb(&mut shard_of(&batches, group), group.len() as u64);
            first.absorb(&mut shard_of(&batches, group), group.len() as u64);
        }
        // Both take a checkpoint at the cut, so their epochs agree.
        encode(&mut uninterrupted);
        let cp = decode_sparse_checkpoint(&encode(&mut first), dep.binding()).unwrap();
        let mut resumed = SparseIngestor::resume(cp.binding, cp.epoch, cp.batches, &cp.pairs);
        for group in &grouped[cut..] {
            uninterrupted.absorb(&mut shard_of(&batches, group), group.len() as u64);
            resumed.absorb(&mut shard_of(&batches, group), group.len() as u64);
        }
        assert_eq!(resumed.pairs(), uninterrupted.pairs(), "case {case}: pairs");
        assert_eq!(resumed.reports(), uninterrupted.reports(), "case {case}");
        assert_eq!(
            encode(&mut resumed),
            encode(&mut uninterrupted),
            "case {case}: checkpoint bytes"
        );
    }
}
