//! Projection onto the bounded probability simplex (Algorithm 1 /
//! Problem 4.1 of the paper) and its derivative with respect to the bound
//! vector `z`.
//!
//! For each column `r` of the iterate, the projection solves
//!
//! ```text
//! minimize_q ‖q − r‖²   s.t.   1ᵀq = 1,  z ≤ q ≤ e^ε·z
//! ```
//!
//! whose solution is `q = clip(r + λ, z, e^ε·z)` for the scalar Lagrange
//! multiplier `λ` making the coordinates sum to one (Proposition 4.2).
//! `φ(λ) = Σ_o clip(r_o + λ, z_o, e^ε z_o)` is a nondecreasing piecewise
//! linear function whose breakpoints are `z_o − r_o` and `e^ε z_o − r_o`;
//! sorting the `2m` breakpoints and scanning once finds the crossing in
//! `O(m log m)` (the paper's Algorithm 1). A bisection fallback guards
//! against degenerate all-clipped configurations and doubles as a test
//! oracle.
//!
//! The scan stops at the crossing, so only the sorted prefix up to it is
//! ever read. [`ProjectionScratch`] keeps each column's last `λ`; two
//! Newton steps on `φ` from that hint estimate the crossing, and only the
//! breakpoints up to the estimate (plus the next one) are sorted and
//! scanned before the rest. Because every breakpoint in the first part
//! orders before every one in the second, the scan visits the breakpoints
//! in exactly the full sort's order, so `λ` has the same bits whatever
//! the hint.
//!
//! ## Differentiating through the projection
//!
//! Algorithm 2 needs `∇_z L` where `Q = Π_{z,ε}(R)`: the projection is
//! piecewise linear in `(r, z)`, so on each linearity region the Jacobian
//! is determined by the partition of coordinates into *lower-clipped*
//! (`q_o = z_o`), *active* (`q_o = r_o + λ`), and *upper-clipped*
//! (`q_o = e^ε z_o`). With `E = e^ε`, `A` the active set and `g` an
//! upstream gradient w.r.t. `q`:
//!
//! ```text
//! λ = (1 − Σ_{L} z_o − E·Σ_{U} z_o − Σ_{A} r_o) / |A|
//! ∂q_i/∂z_j = δ_ij·1{i∈L} + E·δ_ij·1{i∈U} + 1{i∈A}·∂λ/∂z_j
//! ∂λ/∂z_j  = −(1{j∈L} + E·1{j∈U}) / |A|
//! ⇒ (∂q/∂z)ᵀg |_j = (1{j∈L} + E·1{j∈U})·(g_j − mean_{A}(g))
//! ```
//!
//! which is what [`ProjectionJacobian::backprop_z_into`] computes.
//!
//! The bookkeeping around Algorithm 1's sort and scan takes one pass
//! each: the partition writes each column's keys once, already split,
//! and the clip pass and the backprop walk the iterate in its row-major
//! layout.

use ldp_linalg::Matrix;

/// Minimum `m·n` before the column loop fans out across the thread pool:
/// scoped-thread spawn costs tens of microseconds, so small projections
/// (every unit-test instance) stay on the allocation-free serial path.
/// Bit-identity does not depend on this constant — the parallel path
/// computes every column with the serial arithmetic — it only gates when
/// parallelism pays.
const PAR_MIN_WORK: usize = 8_192;

/// How a coordinate ended up after projection. The discriminant indexes
/// the backprop's per-state tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum ClipState {
    Lower = 0,
    Active = 1,
    Upper = 2,
}

/// The clip pattern of a projection, retained so gradients can be
/// backpropagated onto `z`. Stored flat in the iterate's row-major
/// layout, with the backprop's per-column scratch beside it, so the
/// buffers are reused across iterations without reallocation.
#[derive(Clone, Debug)]
pub struct ProjectionJacobian {
    /// `states[o·n + u]` — clip state of entry `(o, u)`.
    states: Vec<ClipState>,
    /// Per column: the upstream gradient's sum, then mean, over the
    /// active set.
    active_means: Vec<f64>,
    /// Per column: the size of the active set.
    active_counts: Vec<u32>,
    m: usize,
    n: usize,
    exp_eps: f64,
}

impl ProjectionJacobian {
    /// An empty jacobian to be filled by [`project_columns_into`].
    pub fn empty() -> Self {
        Self {
            states: Vec::new(),
            active_means: Vec::new(),
            active_counts: Vec::new(),
            m: 0,
            n: 0,
            exp_eps: 1.0,
        }
    }

    /// Resizes (reusing capacity) for an `m × n` projection. The clip
    /// pass then overwrites every state.
    fn reset(&mut self, m: usize, n: usize, exp_eps: f64) {
        self.states.resize(m * n, ClipState::Active);
        self.m = m;
        self.n = n;
        self.exp_eps = exp_eps;
    }

    /// Pulls a gradient w.r.t. the projected matrix `Q` back onto the
    /// bound vector `z`, summing contributions over all columns, into a
    /// preallocated buffer (overwritten). No allocation after the first
    /// call at a given `n`.
    ///
    /// Two row-major passes: the first sums each column's active
    /// gradient over ascending `o`, the second sums each `grad_z[o]` over
    /// ascending `u`. Where an entry must not count (a clipped one in the
    /// first pass, an active one in the second), it adds `+0.0` through a
    /// select or a mask, never a multiply. Every sum starts at `+0.0`, so it
    /// can never become `−0.0` and those additions leave its bits alone; a
    /// non-finite upstream entry at a clipped position reaches only its own
    /// output.
    ///
    /// # Panics
    /// Panics if shapes disagree with the recorded projection.
    pub fn backprop_z_into(&mut self, grad_q: &Matrix, grad_z: &mut [f64]) {
        let (m, n) = grad_q.shape();
        assert_eq!(self.n, n, "column count mismatch");
        assert_eq!(self.m, m, "row count mismatch");
        assert_eq!(grad_z.len(), m, "gradient buffer length");
        let Self {
            states,
            active_means,
            active_counts,
            exp_eps,
            ..
        } = self;
        active_means.clear();
        active_means.resize(n, 0.0);
        active_counts.clear();
        active_counts.resize(n, 0);
        for o in 0..m {
            let rows = grad_q.row(o).iter().zip(&states[o * n..][..n]);
            for ((sum, count), (&g, &s)) in
                active_means.iter_mut().zip(&mut *active_counts).zip(rows)
            {
                let active = s == ClipState::Active;
                *sum += if active { g } else { 0.0 };
                *count += u32::from(active);
            }
        }
        for (mean, &count) in active_means.iter_mut().zip(&*active_counts) {
            *mean = if count > 0 {
                *mean / f64::from(count)
            } else {
                0.0
            };
        }
        // Per state: the factor on `g − mean` (`1·x` is exact) and the
        // mask that turns an active entry into +0.0 without a branch.
        let scale = [1.0, 1.0, *exp_eps];
        let keep = [u64::MAX, 0, u64::MAX];
        for (o, gz) in grad_z.iter_mut().enumerate() {
            let rows = grad_q.row(o).iter().zip(&states[o * n..][..n]);
            let mut acc = 0.0;
            for (&mean, (&g, &s)) in active_means.iter().zip(rows) {
                let pulled = scale[s as usize] * (g - mean);
                acc += f64::from_bits(pulled.to_bits() & keep[s as usize]);
            }
            *gz = acc;
        }
    }
}

/// Reusable scratch for [`project_columns_into`] (breakpoint keys, one
/// column buffer, and each column's multiplier), so repeated projections
/// allocate nothing on the serial path.
///
/// The multipliers double as hints: the next projection of the same
/// shape starts each column's crossing search from its previous `λ`. A
/// hint changes how much of the breakpoint list is sorted, never the
/// result.
#[derive(Clone, Debug, Default)]
pub struct ProjectionScratch {
    keys: Vec<u128>,
    col: Vec<f64>,
    lambdas: Vec<f64>,
    /// `(m, n)` the hints in `lambdas` belong to.
    shape: (usize, usize),
}

impl ProjectionScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Projects every column of `r` onto the bounded simplex
/// `{q : 1ᵀq = 1, z ≤ q ≤ e^ε z}` (Algorithm 1 applied column-wise).
///
/// Returns the projected matrix and the clip pattern for `z`-gradients.
///
/// # Panics
/// Panics if the constraint set is empty (`Σz > 1` or `e^ε·Σz < 1`), if
/// shapes disagree, or if some `z_o < 0`.
pub fn project_columns(r: &Matrix, z: &[f64], epsilon: f64) -> (Matrix, ProjectionJacobian) {
    let (m, n) = r.shape();
    let mut q = Matrix::zeros(m, n);
    let mut jacobian = ProjectionJacobian::empty();
    let mut scratch = ProjectionScratch::new();
    project_columns_into(r, z, epsilon, &mut q, &mut jacobian, &mut scratch);
    (q, jacobian)
}

/// [`project_columns`] into preallocated buffers: the projected matrix
/// lands in `q`, the clip pattern in `jacobian`, and `scratch` holds the
/// breakpoint list. On the serial path, repeated projections perform no
/// heap allocation after the first call at a given size. The parallel
/// path (`m·n ≥ PAR_MIN_WORK` with more than one thread) allocates a
/// column and a key buffer per worker on every call, besides spawning
/// its scoped threads.
///
/// # Panics
/// As [`project_columns`], plus if `q`'s shape disagrees with `r`.
pub fn project_columns_into(
    r: &Matrix,
    z: &[f64],
    epsilon: f64,
    q: &mut Matrix,
    jacobian: &mut ProjectionJacobian,
    scratch: &mut ProjectionScratch,
) {
    let (m, n) = r.shape();
    assert_eq!(q.shape(), (m, n), "output shape");
    assert_eq!(z.len(), m, "z must have one entry per output");
    assert!(z.iter().all(|&v| v >= 0.0), "z must be non-negative");
    let exp_eps = epsilon.exp();
    let z_sum: f64 = z.iter().sum();
    assert!(
        z_sum <= 1.0 + 1e-9 && exp_eps * z_sum >= 1.0 - 1e-9,
        "infeasible bounds: need Σz ≤ 1 ≤ e^ε·Σz (Σz = {z_sum}, e^ε·Σz = {})",
        exp_eps * z_sum
    );

    jacobian.reset(m, n, exp_eps);
    let ProjectionScratch {
        keys,
        col,
        lambdas,
        shape,
    } = scratch;
    if *shape != (m, n) {
        // Hints from another shape mean nothing; +∞ sorts everything.
        *shape = (m, n);
        lambdas.clear();
        lambdas.resize(n, f64::INFINITY);
    }
    // The expensive part of a column — the sorted breakpoint scan —
    // depends only on that column of `r`, the shared `z` and the column's
    // own hint slot, which it overwrites with the new λ.
    let solve = |u0: usize, chunk: &mut [f64], col: &mut Vec<f64>, keys: &mut Vec<u128>| {
        col.resize(m, 0.0);
        for (i, slot) in chunk.iter_mut().enumerate() {
            for (o, c) in col.iter_mut().enumerate() {
                *c = r[(o, u0 + i)];
            }
            *slot = solve_lambda(col, z, exp_eps, *slot, keys);
        }
    };
    let pool = ldp_parallel::pool();
    if pool.threads() > 1 && m * n >= PAR_MIN_WORK {
        // One column per granule with nothing shared between workers.
        // Each λ_u is produced by exactly the arithmetic the serial loop
        // runs on exactly the same inputs, so the result is bit-identical
        // at every thread count (the crate-wide determinism contract).
        pool.par_chunks(lambdas, 1, |u0, chunk| {
            solve(u0, chunk, &mut Vec::new(), &mut Vec::new());
        });
    } else {
        solve(0, lambdas, col, keys);
    }
    // The cheap clip/classify pass, row by row.
    for (o, &zo) in z.iter().enumerate() {
        let (lo, hi) = (zo, exp_eps * zo);
        let states = &mut jacobian.states[o * n..][..n];
        let entries = q.row_mut(o).iter_mut().zip(states).zip(r.row(o));
        for (((qv, state), &rv), &lambda) in entries.zip(lambdas.iter()) {
            let v = rv + lambda;
            (*qv, *state) = if v <= lo {
                (lo, ClipState::Lower)
            } else if v >= hi {
                (hi, ClipState::Upper)
            } else {
                (v, ClipState::Active)
            };
        }
    }
}

/// Finds `λ` with `Σ_o clip(r_o + λ, z_o, E z_o) = 1` by the sorted
/// breakpoint scan of Algorithm 1, falling back to bisection if the scan
/// is defeated by degenerate ties.
///
/// The breakpoints are visited in `f64::total_cmp` order, ties in push
/// order (the lower breakpoint of output `o` is pushed at `2o`, its upper
/// one at `2o + 1`). `hint` only decides how much of that order is
/// sorted before the scan starts: a finite hint splits the list at a
/// Newton estimate of the crossing, anything else sorts it whole.
fn solve_lambda(r: &[f64], z: &[f64], exp_eps: f64, hint: f64, keys: &mut Vec<u128>) -> f64 {
    let split = partition_keys(r, z, exp_eps, head_bound(r, z, exp_eps, hint), keys);
    let (head, tail) = keys.split_at_mut(split);
    head.sort_unstable();

    // Below every breakpoint, φ(λ) = Σ z (all at lower clip), slope 0.
    let mut scan = Scan {
        phi: z.iter().sum(),
        slope: 0.0,
        prev: breakpoint(head[0]).0,
    };
    if let Some(lambda) = scan.crossing(head) {
        return lambda;
    }
    tail.sort_unstable();
    if let Some(lambda) = scan.crossing(tail) {
        return lambda;
    }
    let Scan { phi, slope, prev } = scan;
    if slope > 0.0 {
        // Crossing beyond the last breakpoint (cannot happen when the
        // feasibility precondition holds, but handle it).
        return prev + (1.0 - phi) / slope;
    }
    // φ is flat at Σ E z ≥ 1 past the last breakpoint; equality case.
    if (phi - 1.0).abs() < 1e-9 {
        return prev;
    }
    bisect_lambda(r, z, exp_eps)
}

/// The state of Algorithm 1's scan after the breakpoints seen so far:
/// `φ` at the last breakpoint `prev` and the slope to its right.
struct Scan {
    phi: f64,
    slope: f64,
    prev: f64,
}

impl Scan {
    /// Continues the scan over the sorted `keys`, returning `λ` if the
    /// crossing lies at or before the last of them.
    fn crossing(&mut self, keys: &[u128]) -> Option<f64> {
        for &key in keys {
            let (bp, ds) = breakpoint(key);
            let next_phi = self.phi + self.slope * (bp - self.prev);
            if next_phi >= 1.0 && self.slope > 0.0 {
                // Crossing inside (prev, bp].
                return Some(self.prev + (1.0 - self.phi) / self.slope);
            }
            self.phi = next_phi;
            self.slope += ds;
            self.prev = bp;
        }
        None
    }
}

/// Maps `f64::total_cmp` order onto unsigned integer order.
fn order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A breakpoint's sort key: its [`order_bits`] above its push index, so
/// the keys are unique and integer order is the stable `total_cmp` order.
fn breakpoint_key(value: f64, index: usize) -> u128 {
    (u128::from(order_bits(value)) << 32) | index as u128
}

/// Decodes a [`breakpoint_key`] into the exact breakpoint and its slope
/// change (`+1` for a lower breakpoint, at an even index; `−1` for an
/// upper one).
fn breakpoint(key: u128) -> (f64, f64) {
    let order = (key >> 32) as u64;
    let bits = if order >> 63 == 1 {
        order & !(1 << 63)
    } else {
        !order
    };
    let ds = if key & 1 == 0 { 1.0 } else { -1.0 };
    (f64::from_bits(bits), ds)
}

/// The largest key [`solve_lambda`] sorts before its first scan: the
/// Newton estimate from a finite `hint`, or every key otherwise.
fn head_bound(r: &[f64], z: &[f64], exp_eps: f64, hint: f64) -> u128 {
    if hint.is_finite() {
        breakpoint_key(newton_estimate(r, z, exp_eps, hint), u32::MAX as usize)
    } else {
        u128::MAX
    }
}

/// Two Newton steps on `φ(λ) = 1` from `lambda`. `φ` is piecewise linear,
/// so from a nearby hint this usually lands on the crossing itself. The
/// result is only an estimate: a flat `φ` at the hint sends it to ±∞ or
/// NaN, which merely makes the split sort more. It sets the split, never
/// `λ`'s bits, so `φ` and the active count run on four accumulators.
fn newton_estimate(r: &[f64], z: &[f64], exp_eps: f64, mut lambda: f64) -> f64 {
    for _ in 0..2 {
        let mut phi = [0.0; 4];
        let mut active = [0u32; 4];
        let mut add = |lane: usize, ro: f64, zo: f64| {
            let (lo, hi) = (zo, exp_eps * zo);
            let v = ro + lambda;
            phi[lane] += v.max(lo).min(hi);
            active[lane] += u32::from((v > lo) & (v < hi));
        };
        let (r4, z4) = (r.chunks_exact(4), z.chunks_exact(4));
        let rest = r4.remainder().iter().zip(z4.remainder());
        for (rs, zs) in r4.zip(z4) {
            for lane in 0..4 {
                add(lane, rs[lane], zs[lane]);
            }
        }
        for (lane, (&ro, &zo)) in rest.enumerate() {
            add(lane, ro, zo);
        }
        let phi = (phi[0] + phi[1]) + (phi[2] + phi[3]);
        let active = (active[0] + active[1]) + (active[2] + active[3]);
        lambda += (1.0 - phi) / f64::from(active);
    }
    lambda
}

/// Writes the `2m` breakpoint keys of the column into `keys` in one pass:
/// every key `≤ bound` to the front (in push order), the others to the
/// back. The least back key then moves to the split, and the front part's
/// length is returned. Every key in the front part is below every key
/// behind it. `keys` is resized only when `m` changes.
fn partition_keys(r: &[f64], z: &[f64], exp_eps: f64, bound: u128, keys: &mut Vec<u128>) -> usize {
    let len = 2 * r.len();
    assert!(len as u64 <= 1 << 32, "push indices must fit in 32 bits");
    keys.resize(len, 0);
    let (mut front, mut back) = (0, len);
    for (o, (&ro, &zo)) in r.iter().zip(z).enumerate() {
        // At λ = z_o − r_o coordinate o starts increasing (slope +1); at
        // λ = E·z_o − r_o it saturates (slope −1 relative).
        for key in [
            breakpoint_key(zo - ro, 2 * o),
            breakpoint_key(exp_eps * zo - ro, 2 * o + 1),
        ] {
            let below = key <= bound;
            back -= usize::from(!below);
            keys[if below { front } else { back }] = key;
            front += usize::from(below);
        }
    }
    if let Some(least) = (front..len).min_by_key(|&i| keys[i]) {
        keys.swap(front, least);
        front += 1;
    }
    front
}

/// Bisection oracle for `λ` — slower but unconditionally robust. Public
/// within the crate for use as a test oracle.
pub(crate) fn bisect_lambda(r: &[f64], z: &[f64], exp_eps: f64) -> f64 {
    let phi = |lambda: f64| -> f64 {
        r.iter()
            .zip(z)
            .map(|(&ri, &zi)| (ri + lambda).clamp(zi, exp_eps * zi))
            .sum()
    };
    let r_max = r.iter().cloned().fold(f64::MIN, f64::max);
    let r_min = r.iter().cloned().fold(f64::MAX, f64::min);
    let z_max = z.iter().cloned().fold(0.0, f64::max);
    let mut lo = -r_max - exp_eps * z_max - 1.0;
    let mut hi = -r_min + exp_eps * z_max + 1.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if phi(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-15 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn feasible_z(m: usize, epsilon: f64) -> Vec<f64> {
        // The paper's initialization: z = (1 + e^{−ε})/(2m)·1, which
        // satisfies Σz ≤ 1 ≤ e^ε Σz.
        vec![(1.0 + (-epsilon).exp()) / (2.0 * m as f64); m]
    }

    fn check_column_feasible(q: &[f64], z: &[f64], epsilon: f64) {
        let e = epsilon.exp();
        let sum: f64 = q.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "column sums to {sum}");
        for (qi, zi) in q.iter().zip(z) {
            assert!(*qi >= zi - 1e-12, "below lower bound");
            assert!(*qi <= e * zi + 1e-12, "above upper bound");
        }
    }

    #[test]
    fn projects_onto_constraints() {
        let mut rng = StdRng::seed_from_u64(1);
        let (m, n, eps) = (12, 5, 1.0);
        let z = feasible_z(m, eps);
        let r = Matrix::from_fn(m, n, |_, _| rng.gen_range(-0.5..1.5));
        let (q, _) = project_columns(&r, &z, eps);
        for u in 0..n {
            check_column_feasible(&q.col(u), &z, eps);
        }
    }

    #[test]
    fn feasible_point_is_fixed() {
        // A column already in the set projects to itself.
        let eps = 1.0_f64;
        let m = 4;
        let z = feasible_z(m, eps);
        // Build a feasible column: start at z, distribute the slack.
        let slack = 1.0 - z.iter().sum::<f64>();
        let mut col = z.clone();
        let headroom: Vec<f64> = z.iter().map(|zi| (eps.exp() - 1.0) * zi).collect();
        let total_head: f64 = headroom.iter().sum();
        for (c, h) in col.iter_mut().zip(&headroom) {
            *c += slack * h / total_head;
        }
        let r = Matrix::from_fn(m, 1, |o, _| col[o]);
        let (q, _) = project_columns(&r, &z, eps);
        for o in 0..m {
            assert!((q[(o, 0)] - col[o]).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_bisection_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let m = rng.gen_range(2..20);
            let eps: f64 = rng.gen_range(0.2..4.0);
            // Random feasible z: uniform entries scaled into the window.
            let raw: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..1.0)).collect();
            let s: f64 = raw.iter().sum();
            // Scale so that Σz = t with e^{-ε} < t < 1.
            let t = rng.gen_range(((-eps).exp() + 1e-3)..0.999);
            let z: Vec<f64> = raw.iter().map(|v| v * t / s).collect();
            let r: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..2.0)).collect();
            let fast = solve_lambda(&r, &z, eps.exp(), f64::INFINITY, &mut Vec::new());
            let slow = bisect_lambda(&r, &z, eps.exp());
            // Compare the clipped results (λ itself may be non-unique on
            // flat segments).
            for o in 0..m {
                let qf = (r[o] + fast).clamp(z[o], eps.exp() * z[o]);
                let qs = (r[o] + slow).clamp(z[o], eps.exp() * z[o]);
                assert!(
                    (qf - qs).abs() < 1e-7,
                    "trial {trial}: entry {o} differs: {qf} vs {qs}"
                );
            }
        }
    }

    #[test]
    fn projection_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, n, eps) = (8, 4, 0.8);
        let z = feasible_z(m, eps);
        let r = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let (q1, _) = project_columns(&r, &z, eps);
        let (q2, _) = project_columns(&q1, &z, eps);
        assert!(q1.max_abs_diff(&q2) < 1e-9);
    }

    #[test]
    fn projected_matrix_is_ldp() {
        // Entries within [z_o, e^ε z_o] per row imply row ratio ≤ e^ε.
        let mut rng = StdRng::seed_from_u64(4);
        let (m, n, eps) = (16, 4, 1.3);
        let z = feasible_z(m, eps);
        let r = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>());
        let (q, _) = project_columns(&r, &z, eps);
        let s = ldp_core::StrategyMatrix::new(q).expect("valid strategy");
        assert!(s.epsilon() <= eps + 1e-9);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_infeasible_bounds() {
        let r = Matrix::zeros(3, 1);
        // Σz = 1.5 > 1.
        let _ = project_columns(&r, &[0.5, 0.5, 0.5], 1.0);
    }

    #[test]
    fn backprop_z_matches_finite_differences() {
        // f(z) = <C, Π_z(R)> for a fixed coefficient matrix C; compare
        // the analytic pullback to central differences at a generic point.
        let mut rng = StdRng::seed_from_u64(11);
        let (m, n, eps) = (7usize, 3usize, 1.1);
        let z0 = feasible_z(m, eps);
        let r = Matrix::from_fn(m, n, |_, _| rng.gen_range(-0.3..0.8));
        let c = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let f = |z: &[f64]| -> f64 {
            let (q, _) = project_columns(&r, z, eps);
            q.as_slice()
                .iter()
                .zip(c.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (_, mut jac) = project_columns(&r, &z0, eps);
        let mut grad = vec![0.0; m];
        jac.backprop_z_into(&c, &mut grad);
        let h = 1e-7;
        for j in 0..m {
            let mut zp = z0.clone();
            zp[j] += h;
            let mut zm = z0.clone();
            zm[j] -= h;
            let fd = (f(&zp) - f(&zm)) / (2.0 * h);
            assert!(
                (fd - grad[j]).abs() < 1e-4 * (1.0 + fd.abs()),
                "coordinate {j}: fd {fd} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn parallel_path_is_bit_identical_to_serial() {
        // m·n = 128·80 = 10 240 crosses PAR_MIN_WORK, so the multi-worker
        // runs genuinely take the fan-out λ path; the 1-worker run takes
        // the serial loop. Byte equality, not approximate.
        let mut rng = StdRng::seed_from_u64(21);
        let (m, n, eps) = (128usize, 80usize, 1.0);
        assert!(m * n >= PAR_MIN_WORK, "instance must engage the pool");
        let z = feasible_z(m, eps);
        let r = Matrix::from_fn(m, n, |_, _| rng.gen_range(-0.5..1.5));
        let run = || {
            let mut q = Matrix::zeros(m, n);
            let mut jac = ProjectionJacobian::empty();
            let mut scratch = ProjectionScratch::new();
            project_columns_into(&r, &z, eps, &mut q, &mut jac, &mut scratch);
            let grad = Matrix::from_fn(m, n, |o, u| ((o * 7 + u) % 5) as f64 - 2.0);
            let mut grad_z = vec![0.0; m];
            jac.backprop_z_into(&grad, &mut grad_z);
            (q.as_slice().to_vec(), grad_z)
        };
        ldp_parallel::set_thread_override(Some(1));
        let serial = run();
        for workers in [2usize, 4] {
            ldp_parallel::set_thread_override(Some(workers));
            let parallel = run();
            assert_eq!(parallel, serial, "projection diverged at {workers} workers");
        }
        ldp_parallel::set_thread_override(None);
    }

    #[test]
    fn degenerate_all_clipped_column() {
        // r so large that everything clips to the upper bound except what
        // must come down: still sums to one and stays in bounds.
        let eps = 0.5_f64;
        let m = 5;
        let z = feasible_z(m, eps);
        let r = Matrix::filled(m, 1, 100.0);
        let (q, _) = project_columns(&r, &z, eps);
        check_column_feasible(&q.col(0), &z, eps);
    }

    /// Algorithm 1 as it was before the prefix split, kept verbatim as the
    /// oracle: a stable `total_cmp` sort of all `2m` breakpoints, then one
    /// scan.
    fn full_sort_lambda(r: &[f64], z: &[f64], exp_eps: f64) -> f64 {
        let m = r.len();
        let mut breakpoints = Vec::with_capacity(2 * m);
        for o in 0..m {
            breakpoints.push((z[o] - r[o], 1.0));
            breakpoints.push((exp_eps * z[o] - r[o], -1.0));
        }
        breakpoints.sort_by(|a: &(f64, f64), b| a.0.total_cmp(&b.0));
        let mut phi: f64 = z.iter().sum();
        let mut slope = 0.0;
        let mut prev = breakpoints[0].0;
        for &(bp, ds) in breakpoints.iter() {
            let next_phi = phi + slope * (bp - prev);
            if next_phi >= 1.0 && slope > 0.0 {
                return prev + (1.0 - phi) / slope;
            }
            phi = next_phi;
            slope += ds;
            prev = bp;
        }
        if slope > 0.0 {
            return prev + (1.0 - phi) / slope;
        }
        if (phi - 1.0).abs() < 1e-9 {
            return prev;
        }
        bisect_lambda(r, z, exp_eps)
    }

    /// A random column with feasible bounds (`Σz < 1 < E·Σz`).
    fn random_column(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>, f64) {
        let m = rng.gen_range(1..40);
        let exp_eps = rng.gen_range(0.2f64..4.0).exp();
        let raw: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..1.0)).collect();
        let s: f64 = raw.iter().sum();
        let t = rng.gen_range((1.0 / exp_eps + 1e-3)..0.999);
        let z = raw.iter().map(|v| v * t / s).collect();
        let r = (0..m).map(|_| rng.gen_range(-1.0..2.0)).collect();
        (r, z, exp_eps)
    }

    /// A column whose breakpoints tie a lot, across kinds too: E = 2,
    /// every `z_o = 1/16` and every `r_o` a multiple of 1/16, so every
    /// breakpoint is an exact multiple of 1/16 in a narrow range. At
    /// m = 16, `Σz = 1` sits exactly on the feasibility boundary.
    fn tied_column(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>, f64) {
        let m = rng.gen_range(12..17);
        let r = (0..m)
            .map(|_| rng.gen_range(-4i32..5) as f64 / 16.0)
            .collect();
        (r, vec![1.0 / 16.0; m], 2.0)
    }

    #[test]
    fn lambda_bits_do_not_depend_on_the_hint() {
        let mut rng = StdRng::seed_from_u64(0x1a3b);
        let mut keys = Vec::new();
        let mut other = 0.25;
        let mut bisected = 0;
        for case in 0..600 {
            let (r, z, exp_eps) = match case % 3 {
                0 => random_column(&mut rng),
                1 => tied_column(&mut rng),
                _ => {
                    // Infeasible bounds (E·Σz < 1): the scan never
                    // crosses and the bisection fallback decides λ.
                    let (r, mut z, exp_eps) = random_column(&mut rng);
                    let scale = rng.gen_range(0.2..0.9) / (exp_eps * z.iter().sum::<f64>());
                    z.iter_mut().for_each(|v| *v *= scale);
                    let want = bisect_lambda(&r, &z, exp_eps);
                    assert_eq!(full_sort_lambda(&r, &z, exp_eps).to_bits(), want.to_bits());
                    bisected += 1;
                    (r, z, exp_eps)
                }
            };
            let want = full_sort_lambda(&r, &z, exp_eps);
            // Besides each hint's split: the bounds that take nothing,
            // everything, and everything up to one key exactly.
            let some_key = breakpoint_key(z[0] - r[0], 0);
            let mut bounds = vec![0, u128::MAX, some_key];
            for hint in [
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                want,
                want + 1.0,
                want - 1.0,
                other,
            ] {
                let got = solve_lambda(&r, &z, exp_eps, hint, &mut keys);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}, hint {hint}: {got} vs full sort {want}"
                );
                bounds.push(head_bound(&r, &z, exp_eps, hint));
            }
            for bound in bounds {
                assert_head_matches_swap_partition((&r, &z, exp_eps), bound, &mut keys, case);
            }
            other = want;
        }
        assert_eq!(bisected, 200);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_bytewise() {
        // PGD-like iterates: each projection's input is the last output
        // stepped along a random direction, with z drifting, so the hints
        // the reused scratch carries are close but never exact. The
        // second instance crosses PAR_MIN_WORK and runs on four workers.
        for (m, n, threads) in [(24usize, 10usize, 1usize), (128, 80, 4)] {
            assert_eq!(m * n >= PAR_MIN_WORK, threads > 1);
            ldp_parallel::with_thread_override(Some(threads), || {
                let mut rng = StdRng::seed_from_u64((m * n) as u64);
                let eps = 1.0_f64;
                let mut z = feasible_z(m, eps);
                let mut r = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>());
                let mut q = Matrix::zeros(m, n);
                let mut jac = ProjectionJacobian::empty();
                let mut scratch = ProjectionScratch::new();
                let bits =
                    |a: &Matrix| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for iterate in 0..50 {
                    project_columns_into(&r, &z, eps, &mut q, &mut jac, &mut scratch);
                    let (fresh_q, fresh_jac) = project_columns(&r, &z, eps);
                    assert_eq!(bits(&q), bits(&fresh_q), "q at iterate {iterate}");
                    assert_eq!(jac.states, fresh_jac.states, "states at iterate {iterate}");
                    r = Matrix::from_fn(m, n, |o, u| {
                        q[(o, u)] - 0.05 * rng.gen_range(-1.0..1.0) / m as f64
                    });
                    for v in z.iter_mut() {
                        *v *= 1.0 + rng.gen_range(-0.02..0.02);
                    }
                    crate::pgd::enforce_feasible_bounds(&mut z, eps.exp());
                }
                // A shape change drops the hints rather than misusing them.
                let narrow = Matrix::from_fn(m, n - 1, |o, u| r[(o, u)]);
                let mut narrow_q = Matrix::zeros(m, n - 1);
                project_columns_into(&narrow, &z, eps, &mut narrow_q, &mut jac, &mut scratch);
                let (fresh_q, fresh_jac) = project_columns(&narrow, &z, eps);
                assert_eq!(bits(&narrow_q), bits(&fresh_q));
                assert_eq!(jac.states, fresh_jac.states);
            });
        }
    }

    /// The backprop as it was before the row-major layout, kept as the
    /// oracle: a walk over each column, adding only clipped entries. The
    /// one edit is the state lookup, which reads the row-major layout.
    fn column_walk_backprop(jac: &ProjectionJacobian, grad_q: &Matrix) -> Vec<f64> {
        let (m, n) = grad_q.shape();
        let state = |o: usize, u: usize| jac.states[o * n + u];
        let mut grad_z = vec![0.0; m];
        for u in 0..n {
            // Mean of the upstream gradient over the active set.
            let mut active_sum = 0.0;
            let mut active_count = 0usize;
            for o in 0..m {
                if state(o, u) == ClipState::Active {
                    active_sum += grad_q[(o, u)];
                    active_count += 1;
                }
            }
            let active_mean = if active_count > 0 {
                active_sum / active_count as f64
            } else {
                0.0
            };
            for (o, gz) in grad_z.iter_mut().enumerate() {
                match state(o, u) {
                    ClipState::Lower => *gz += grad_q[(o, u)] - active_mean,
                    ClipState::Upper => *gz += jac.exp_eps * (grad_q[(o, u)] - active_mean),
                    ClipState::Active => {}
                }
            }
        }
        grad_z
    }

    #[test]
    fn backprop_bits_match_the_column_walk() {
        let mut rng = StdRng::seed_from_u64(0xb9);
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0];
        let (mut nonfinite, mut nan_outputs, mut inf_outputs) = (0, 0, 0);
        for (m, n) in [(1usize, 1usize), (3, 2), (7, 3), (24, 10), (128, 80)] {
            let eps = 1.0_f64;
            let z = feasible_z(m, eps);
            let r = Matrix::from_fn(m, n, |_, _| rng.gen_range(-0.5..1.5) / m as f64);
            let (_, mut jac) = project_columns(&r, &z, eps);
            // The last column has no active entry.
            for o in 0..m {
                jac.states[o * n + n - 1] = [ClipState::Lower, ClipState::Upper][o % 2];
            }
            let active: Vec<usize> = (0..m * n)
                .filter(|&i| jac.states[i] == ClipState::Active)
                .collect();
            for round in 0..5 {
                // Round 0 is finite; rounds 1–3 put ±∞, NaN and −0 at
                // clipped positions, as an unscreened trial gradient may.
                // Round 4 puts one at a single active position: it spoils
                // that column's mean but must stay out of its own output.
                let lone = (round == 4 && !active.is_empty())
                    .then(|| active[rng.gen_range(0..active.len())]);
                let grad = Matrix::from_fn(m, n, |o, u| {
                    let clipped = jac.states[o * n + u] != ClipState::Active;
                    let special = if round == 4 {
                        lone == Some(o * n + u)
                    } else {
                        round > 0 && clipped && rng.gen_range(0..4) == 0
                    };
                    if special {
                        nonfinite += 1;
                        // −0 is the last special; it is finite, so round
                        // 4 leaves it out.
                        let kinds = if round == 4 { 3 } else { specials.len() };
                        specials[rng.gen_range(0..kinds)]
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                });
                let want = column_walk_backprop(&jac, &grad);
                let mut got = vec![f64::NAN; m];
                jac.backprop_z_into(&grad, &mut got);
                // Every non-NaN result must match to the bit. A NaN result
                // only has to be NaN: Rust leaves the sign and payload of a
                // NaN that an operation produces unspecified (an addition
                // may be commuted), so no code can pin them.
                let bits = |v: &[f64]| {
                    v.iter()
                        .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want), "{m}×{n}, round {round}");
                nan_outputs += got.iter().filter(|x| x.is_nan()).count();
                inf_outputs += got.iter().filter(|x| x.is_infinite()).count();
            }
        }
        assert!(nonfinite > 100, "too few non-finite entries: {nonfinite}");
        assert!(
            nan_outputs > 0 && inf_outputs > 0,
            "{nan_outputs} NaN, {inf_outputs} ±∞"
        );
    }

    /// The split as it was before the one-pass partition, kept verbatim
    /// as the oracle: keys pushed in order, then swapped into place.
    fn partition_through(keys: &mut [u128], bound: u128) -> usize {
        let mut split = 0;
        for i in 0..keys.len() {
            keys.swap(split, i);
            split += usize::from(keys[split] <= bound);
        }
        if let Some(least) = (split..keys.len()).min_by_key(|&i| keys[i]) {
            keys.swap(split, least);
            split += 1;
        }
        split
    }

    /// `partition_keys` must put exactly the keys the swap partition put
    /// in front of the split: {keys ≤ bound} ∪ {least key above it}.
    fn assert_head_matches_swap_partition(
        (r, z, exp_eps): (&[f64], &[f64], f64),
        bound: u128,
        keys: &mut Vec<u128>,
        case: usize,
    ) {
        let mut old: Vec<u128> = (0..r.len())
            .flat_map(|o| {
                [
                    breakpoint_key(z[o] - r[o], 2 * o),
                    breakpoint_key(exp_eps * z[o] - r[o], 2 * o + 1),
                ]
            })
            .collect();
        let old_split = partition_through(&mut old, bound);
        let split = partition_keys(r, z, exp_eps, bound, keys);
        assert_eq!(split, old_split, "case {case}, bound {bound:#x}");
        let mut head = keys[..split].to_vec();
        let mut old_head = old[..split].to_vec();
        head.sort_unstable();
        old_head.sort_unstable();
        assert_eq!(head, old_head, "case {case}, bound {bound:#x}");
        let mut all = keys.clone();
        all.sort_unstable();
        old.sort_unstable();
        assert_eq!(all, old, "case {case}: the tail lost or gained keys");
    }
}
