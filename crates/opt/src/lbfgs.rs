//! Projected L-BFGS descent over strategy matrices — the quasi-Newton
//! alternative to Algorithm 2's first-order loop, selected with
//! [`crate::pgd::Algorithm::Lbfgs`].
//!
//! PGD pays for its simplicity twice: a geometric step-size search burns
//! `~6·search_iterations` objective evaluations before the real descent
//! even starts, and the fixed iteration budget keeps evaluating long
//! after the objective has flattened. Cold deploys — every new
//! schema/query set at production scale — sit directly on that path.
//! This module replaces the descent loop (and only the descent loop:
//! initialization, the bounded-simplex projection with its
//! `z`-backpropagation, best-iterate tracking, and multi-restart
//! reduction are shared with [`crate::pgd`]) with L-BFGS over the
//! **joint** variable `x = (Q, z)`:
//!
//! * **Joint curvature.** Problem 3.12 minimizes over the strategy *and*
//!   its bound vector together, and the two interact strongly (moving
//!   `z` reshapes the feasible set every column is projected onto).
//!   First-order `z` steps are exactly why PGD needs hundreds of
//!   iterations; here `z` sits inside the quasi-Newton model, so its
//!   steps are curvature-scaled and line-searched like everything else.
//! * **Two-loop recursion over a bounded history ring.** The last
//!   [`HISTORY`] curvature pairs `(s, y)` of the joint iterate live in
//!   two flat preallocated rings; the classic two-loop recursion turns
//!   them into a direction in `O(HISTORY·(mn+m))` flops with **zero
//!   per-iteration allocation** — the same discipline as the rest of
//!   the workspace. With an empty ring the direction reduces to scaled
//!   steepest descent with PGD's step ratio (`z` moves `n·e^ε` times
//!   more cautiously than `Q`, the paper's own robustness choice).
//! * **Projection-aware Armijo line search.** A raw step leaves the
//!   ε-LDP simplex, so a trial at step `t` is retracted:
//!   `z_t = feasible(z + t·d_z)`, `Q_t = Π_{z_t,ε}(Q + t·d_Q)`, and the
//!   Armijo model uses the *retracted* displacement — accept when
//!   `L(Q_t) ≤ L(Q) + c₁·(⟨∇_Q L, Q_t − Q⟩ + ⟨∇_z L, z_t − z⟩)`.
//!   Backtracking halves `t`; because every trial is projected,
//!   **every** iterate is a valid ε-LDP strategy and privacy never
//!   depends on convergence — exactly the invariant PGD maintains.
//! * **Deterministic degeneracy handling.** Pairs with degenerate
//!   curvature (`sᵀy ≤ ε_c·‖s‖‖y‖`, the standard cautious-update test)
//!   are skipped; a non-descent direction drops the ring and retries as
//!   steepest descent; an exhausted line search falls back to a
//!   projected gradient step at a halved deterministic scale. No
//!   randomness, no clocks — the whole trajectory is a pure function of
//!   the seed and config.
//! * **Plateau stopping.** The run ends once `PLATEAU_WINDOW` (9)
//!   consecutive iterations bring no significant relative improvement,
//!   so [`crate::pgd::OptimizerConfig::iterations`] is a cap rather than
//!   a budget. The decision reads only the objective values, so the
//!   stopping point — like every iterate — is bit-identical at every
//!   `LDP_THREADS` setting.
//!
//! `tests/optimizer_parity.rs` gates the result: PGD's final objective
//! (within `1e-6` relative) on the n = 8 conformance families in at most
//! a third of PGD's evaluations (half for one borderline family), and
//! within 2% of PGD's objective on All Range at n = 64 in at most half of
//! them.

use ldp_linalg::{axpy, dot, Matrix};

use crate::objective::evaluate_into;
use crate::pgd::{enforce_feasible_bounds, OptimizerConfig, Workspace};
use crate::projection::project_columns_into;

/// Curvature pairs kept in the two-loop recursion ring. Classic L-BFGS
/// guidance is 5–10; eight captures the objective's local curvature well
/// while keeping the ring (`2·HISTORY·(mn+m)` doubles) a small multiple
/// of the workspace the descent already holds.
pub const HISTORY: usize = 8;

/// Armijo sufficient-decrease constant `c₁`.
const ARMIJO_C: f64 = 1e-4;

/// Line-search backtracking cap: `t` reaches `2⁻²³ ≈ 1.2e-7` before the
/// iteration falls back to a projected gradient step. Backtracks whose
/// retracted move does not point downhill cost no evaluation, so the cap
/// is generous; [`MAX_EVAL_TRIALS`] bounds the expensive kind.
const MAX_BACKTRACKS: usize = 12;

/// Objective evaluations a single line search may spend before giving
/// up. Failed searches signal a stale curvature model (the projection's
/// active set moved), so burning the full backtrack schedule on
/// evaluations buys nothing — bail early, reset the model, take the
/// deterministic gradient fallback.
const MAX_EVAL_TRIALS: usize = 4;

/// Consecutive iterations without a significant improvement (see
/// [`PLATEAU_REL`]) after which the descent spends its restart pulse or
/// stops.
const PLATEAU_WINDOW: usize = 9;

/// Relative best-objective improvement below which an iteration counts
/// toward the [`PLATEAU_WINDOW`] stopping rule.
const PLATEAU_REL: f64 = 5e-4;

/// Cautious-update threshold: a pair is stored only if
/// `sᵀy > CURV_EPS·‖s‖·‖y‖`, so near-orthogonal (or negative-curvature)
/// pairs never poison the inverse-Hessian model.
const CURV_EPS: f64 = 1e-8;

/// Relative-progress tail threshold: the run is considered converged
/// once the best objective improves by less than this fraction of the
/// total descent achieved so far over one full plateau window. Unlike
/// the per-iteration plateau test ([`PLATEAU_REL`]), this is scale-free
/// in the *trajectory*: late oscillating steps that still shave whole
/// objective units on a large instance no longer postpone termination
/// when they amount to well under a percent of the descent.
const PROGRESS_FRAC: f64 = 0.001;

/// Restart-pulse horizon, as a divisor of the iteration cap: a plateau
/// reached within the first `iterations / PULSE_HORIZON_DIV` iterations
/// spends the pulse (the stall is young — likely the fallback trust
/// scale mis-calibrated, which a fresh scale and an empty curvature
/// ring reliably dislodge); a plateau reached later is sustained
/// convergence, and restarting there only re-explores the same basin
/// at the cost of a full extra plateau window of evaluations.
const PULSE_HORIZON_DIV: usize = 5;

/// L-BFGS curvature history and line-search buffers for the joint
/// `(Q, z)` iterate, owned by [`Workspace`] and allocated once on the
/// first L-BFGS descent through it (PGD-only workspaces never pay).
/// Everything is preallocated: an iteration of [`descend`] performs
/// zero heap allocation.
pub(crate) struct LbfgsState {
    /// Joint displacements `s = x⁺ − x`, [`HISTORY`] flat `mn+m` slots
    /// (`Q` block first, then `z`).
    s_ring: Vec<f64>,
    /// Joint gradient displacements `y = ∇L(x⁺) − ∇L(x)`, same layout.
    y_ring: Vec<f64>,
    /// `1/(sᵀy)` per committed ring slot.
    rho: [f64; HISTORY],
    /// First-pass coefficients of the two-loop recursion.
    alpha: [f64; HISTORY],
    /// Initial inverse-Hessian scaling `γ = sᵀy/yᵀy` of the newest pair.
    gamma: f64,
    /// Next ring slot to write.
    write: usize,
    /// Committed pairs (`≤ HISTORY`).
    pairs: usize,
    /// Joint gradient `[∇_Q L | ∇_z L]` at the current iterate (`mn+m`).
    grad: Vec<f64>,
    /// Joint search direction (`mn+m`).
    dir: Vec<f64>,
    /// Projected line-search trial strategy (`m × n`).
    trial: Matrix,
    /// Gradient at the trial strategy (`m × n`).
    trial_grad: Matrix,
    /// Trial bound vector (`m`).
    trial_z: Vec<f64>,
    /// `∇_z L` backpropagated through the trial's projection (`m`).
    trial_gz: Vec<f64>,
    /// Problem shape this state was sized for.
    m: usize,
    /// Domain size.
    n: usize,
}

impl LbfgsState {
    /// Buffers for `m`-output strategies over an `n`-type domain.
    pub(crate) fn new(m: usize, n: usize) -> Self {
        let dim = m * n + m;
        Self {
            s_ring: vec![0.0; HISTORY * dim],
            y_ring: vec![0.0; HISTORY * dim],
            rho: [0.0; HISTORY],
            alpha: [0.0; HISTORY],
            gamma: 1.0,
            write: 0,
            pairs: 0,
            grad: vec![0.0; dim],
            dir: vec![0.0; dim],
            trial: Matrix::zeros(m, n),
            trial_grad: Matrix::zeros(m, n),
            trial_z: vec![0.0; m],
            trial_gz: vec![0.0; m],
            m,
            n,
        }
    }

    /// `(m, n)` this state was sized for.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Joint-vector length `mn + m`.
    fn dim(&self) -> usize {
        self.m * self.n + self.m
    }

    /// Forgets every stored curvature pair (the inverse-Hessian model
    /// resets to the scaled block identity).
    fn clear_pairs(&mut self) {
        self.pairs = 0;
        self.write = 0;
    }

    /// Refreshes the joint gradient buffer from the per-block gradients.
    fn load_grad(&mut self, grad_q: &Matrix, grad_z: &[f64]) {
        let mn = self.m * self.n;
        self.grad[..mn].copy_from_slice(grad_q.as_slice());
        self.grad[mn..].copy_from_slice(grad_z);
    }

    /// Writes the candidate pair `s = trial − x`, `y = trial_grad − ∇L(x)`
    /// into the next ring slot and commits it iff the curvature passes
    /// the cautious-update test (otherwise the slot is simply reused by
    /// the next candidate — a deterministic skip). Returns `sᵀs` for the
    /// caller's bookkeeping.
    fn push_pair(&mut self, q: &Matrix, z: &[f64]) -> f64 {
        let mn = self.m * self.n;
        let dim = self.dim();
        let slot = self.write;
        let s = &mut self.s_ring[slot * dim..(slot + 1) * dim];
        let y = &mut self.y_ring[slot * dim..(slot + 1) * dim];
        for i in 0..mn {
            s[i] = self.trial.as_slice()[i] - q.as_slice()[i];
            y[i] = self.trial_grad.as_slice()[i] - self.grad[i];
        }
        for i in 0..self.m {
            s[mn + i] = self.trial_z[i] - z[i];
            y[mn + i] = self.trial_gz[i] - self.grad[mn + i];
        }
        let ss = dot(s, s);
        let sy = dot(s, y);
        let yy = dot(y, y);
        if sy.is_finite()
            && yy.is_finite()
            && ss.is_finite()
            && sy > CURV_EPS * ss.sqrt() * yy.sqrt()
        {
            self.rho[slot] = 1.0 / sy;
            self.gamma = sy / yy;
            self.write = (slot + 1) % HISTORY;
            self.pairs = (self.pairs + 1).min(HISTORY);
        }
        ss
    }

    /// The two-loop recursion: `dir ← −H·grad`, where `H` is the L-BFGS
    /// inverse-Hessian model built from the committed pairs (scaled
    /// identity `γ·I` at the core). With an empty ring `H` is the block
    /// diagonal `diag(q_scale·I, z_scale·I)` — scaled steepest descent
    /// with PGD's deliberate `Q`/`z` step ratio.
    /// `O(HISTORY·(mn+m))`, allocation-free.
    fn two_loop(&mut self, q_scale: f64, z_scale: f64) {
        let mn = self.m * self.n;
        let dim = self.dim();
        let Self {
            s_ring,
            y_ring,
            rho,
            alpha,
            gamma,
            write,
            pairs,
            grad,
            dir,
            ..
        } = self;
        dir.copy_from_slice(grad);
        let k = *pairs;
        // Newest to oldest.
        for j in 0..k {
            let slot = (*write + HISTORY - 1 - j) % HISTORY;
            let s = &s_ring[slot * dim..(slot + 1) * dim];
            let y = &y_ring[slot * dim..(slot + 1) * dim];
            let a = rho[slot] * dot(s, dir);
            alpha[slot] = a;
            axpy(-a, y, dir);
        }
        if k > 0 {
            for v in dir.iter_mut() {
                *v *= *gamma;
            }
        } else {
            for v in dir[..mn].iter_mut() {
                *v *= q_scale;
            }
            for v in dir[mn..].iter_mut() {
                *v *= z_scale;
            }
        }
        // Oldest to newest.
        for j in (0..k).rev() {
            let slot = (*write + HISTORY - 1 - j) % HISTORY;
            let s = &s_ring[slot * dim..(slot + 1) * dim];
            let y = &y_ring[slot * dim..(slot + 1) * dim];
            let b = rho[slot] * dot(y, dir);
            axpy(alpha[slot] - b, s, dir);
        }
        for v in dir.iter_mut() {
            *v = -*v;
        }
    }
}

/// Whether `value` improves on `best` by more than [`PLATEAU_REL`]
/// relative — the "did this iteration make progress" test of the plateau
/// stopping rule.
fn significant_improvement(value: f64, best: f64) -> bool {
    !best.is_finite() || value < best - PLATEAU_REL * best.abs()
}

/// The projected L-BFGS descent loop, starting from the workspace's
/// `(q0, z0)` — the [`Algorithm::Lbfgs`](crate::pgd::Algorithm::Lbfgs)
/// counterpart of PGD's inner loop, with the same contract: the best
/// iterate ends in `ws.best_q`, the per-iteration objective history in
/// `ws.history` (final entry = best objective = return value), and the
/// whole loop is allocation-free after the workspace (plus this
/// module's state, created on first use) is warm.
pub(crate) fn descend(
    gram: &Matrix,
    epsilon: f64,
    config: &OptimizerConfig,
    ws: &mut Workspace,
    evals: &mut usize,
) -> f64 {
    let n = gram.rows();
    let (m, _) = ws.shape();
    let mn = m * n;
    let exp_eps = epsilon.exp();
    let iterations = config.iterations;
    let mut st = ws
        .lbfgs
        .take()
        .filter(|s| s.shape() == (m, n))
        .unwrap_or_else(|| LbfgsState::new(m, n));
    st.clear_pairs();
    let Workspace {
        q0,
        z0,
        q,
        stepped,
        best_q,
        gradient,
        z,
        grad_z,
        jacobian,
        proj,
        obj,
        history,
        ..
    } = ws;

    z.copy_from_slice(z0);
    // Initial projection establishes the Jacobian for z-backprop.
    project_columns_into(q0, z, epsilon, q, jacobian, proj);
    history.clear();
    history.reserve(iterations + 2);

    let mut f = evaluate_into(q, gram, obj, gradient);
    *evals += 1;
    history.push(f);
    if !f.is_finite() || !gradient.is_finite() {
        // The (interior) initialization always evaluates finite; only a
        // degenerate warm start lands here. Mirror PGD's outcome for an
        // unrecoverable start: report divergence to the caller.
        history.push(f64::INFINITY);
        ws.lbfgs = Some(st);
        return f64::INFINITY;
    }
    jacobian.backprop_z_into(gradient, grad_z);
    let mut best = f;
    let f_init = f;
    best_q.copy_from(q);
    let mut since_improve = 0usize;
    // Stall-restart pulses left: when the plateau window first fills,
    // the descent gets a fresh start (full trust scale, empty ring)
    // from the stalled iterate instead of stopping — the deterministic
    // analogue of a momentum restart, which reliably dislodges shallow
    // stalls. Only after the pulses are spent does a full window of
    // insignificant progress actually end the run.
    let mut pulses_left = 1usize;
    // Ring of the best objective seen at each of the last
    // PLATEAU_WINDOW iterations, for the relative-progress tail test
    // (see PROGRESS_FRAC).
    let mut progress_ring = [0.0f64; PLATEAU_WINDOW];
    let mut progress_at = 0usize;
    let mut progress_filled = false;

    // Scale of steepest-descent fallback steps in the Q block: PGD's
    // scale-aware base (a step that can move an entry by about its own
    // magnitude, 1/m), halved on every line-search failure and recovered
    // on every accepted step — a monotone shrink would freeze the
    // iterate at a non-stationary point once a rough patch passed. The
    // z block steps n·e^ε more cautiously, exactly PGD's α/β ratio.
    let base_scale = 1.0 / (m as f64 * gradient.max_abs().max(f64::MIN_POSITIVE));
    let mut fallback_scale = base_scale;

    for it in 0..iterations {
        // Quasi-Newton direction over the joint (Q, z) vector; a
        // non-descent direction means the stored curvature went stale —
        // drop it and retry as scaled steepest descent (always a descent
        // direction for a non-zero gradient).
        st.load_grad(gradient, grad_z);
        let z_fallback = fallback_scale / (n as f64 * exp_eps);
        st.two_loop(fallback_scale, z_fallback);
        let slope = dot(&st.dir, &st.grad);
        if slope >= 0.0 {
            st.clear_pairs();
            st.two_loop(fallback_scale, z_fallback);
        }
        // Trust cap on the z block: a unit step may move no bound by
        // more than a fraction of itself. Moving z reshapes the feasible
        // set of every column at once, so an overlong z component turns
        // the line search into a cliff hunt; uniformly shortening the
        // direction (slope sign is preserved) keeps t = 1 meaningful.
        let mut shrink = 1.0f64;
        for (&dz, &zv) in st.dir[mn..].iter().zip(z.iter()) {
            let cap = 0.25 * zv;
            if dz.abs() > cap {
                shrink = shrink.min(cap / dz.abs());
            }
        }
        if shrink < 1.0 {
            for v in st.dir.iter_mut() {
                *v *= shrink;
            }
        }

        // Projection-aware Armijo backtracking on the retracted path:
        // z_t = feasible(z + t·d_z), Q_t = Π_{z_t,ε}(Q + t·d_Q), with
        // sufficient decrease measured along the retracted displacement.
        let mut accepted = false;
        let mut f_new = f;
        let mut t = 1.0;
        let mut eval_trials = 0usize;
        for _ in 0..MAX_BACKTRACKS {
            for ((zt, &zv), &dz) in st.trial_z.iter_mut().zip(z.iter()).zip(st.dir[mn..].iter()) {
                *zt = (zv + t * dz).clamp(1e-12, 1.0);
            }
            enforce_feasible_bounds(&mut st.trial_z, exp_eps);
            for ((sv, &qv), &dv) in stepped
                .as_mut_slice()
                .iter_mut()
                .zip(q.as_slice())
                .zip(st.dir[..mn].iter())
            {
                *sv = qv + t * dv;
            }
            project_columns_into(stepped, &st.trial_z, epsilon, &mut st.trial, jacobian, proj);
            let mut pred = 0.0;
            for ((&tv, &qv), &gv) in st
                .trial
                .as_slice()
                .iter()
                .zip(q.as_slice())
                .zip(gradient.as_slice())
            {
                pred += gv * (tv - qv);
            }
            // No explicit z term: the objective depends on z only through
            // the projection, and the retracted displacement Q_t − Q
            // already carries the full first-order effect of moving the
            // bounds. Adding ⟨∇_z L, z_t − z⟩ here would double-count it
            // and systematically overstate the predicted decrease.
            // Only spend an evaluation when the retracted move still
            // points downhill (the projection can annihilate or even
            // reverse a too-long step; a shorter one may re-enter).
            if pred < 0.0 {
                let ft = evaluate_into(&st.trial, gram, obj, &mut st.trial_grad);
                *evals += 1;
                eval_trials += 1;
                let finite = ft.is_finite() && st.trial_grad.is_finite();
                // Sufficient decrease is the target, but near the
                // boundary the projection eats most of a step's
                // predicted progress; refusing a strict improvement
                // there just re-spends the evaluation on a smaller t.
                // Any strict decrease is accepted — the Armijo test
                // only decides whether to stop backtracking early.
                if finite && (ft <= f + ARMIJO_C * pred || ft < f) {
                    accepted = true;
                    f_new = ft;
                    break;
                }
                if eval_trials >= MAX_EVAL_TRIALS {
                    break;
                }
                if finite && ft > f {
                    // Safeguarded quadratic interpolation: fit
                    // φ(τ) ≈ f + (pred/t)·τ + a·τ² through φ(t) = ft and
                    // jump to its minimizer. Near the boundary the
                    // projection carves valleys orders of magnitude
                    // shorter than the model step; plain halving cannot
                    // reach them within the evaluation budget, the
                    // interpolated step can.
                    let denom = ft - f - pred;
                    let t_min = if denom > 0.0 {
                        -pred * t / (2.0 * denom)
                    } else {
                        0.5 * t
                    };
                    t = t_min.clamp(0.01 * t, 0.5 * t);
                    continue;
                }
            }
            t *= 0.5;
        }
        if !accepted {
            // The quasi-Newton trial was refused — freely, when the
            // retracted path ascends at every backtracked t (no pred < 0
            // trial is ever evaluated). Fall back to Algorithm 2's
            // first-order step at the current trust scale, accepted
            // unconditionally: the projection geometry makes transient
            // increases part of any successful trajectory (a z move
            // redistributes bound mass before the objective can follow),
            // so monotone acceptance stalls exactly where PGD sails
            // through. The scale halves whenever a fallback step failed
            // to descend — PGD's own decay heuristic — which keeps the
            // excursions bounded.
            let z_step = fallback_scale / (n as f64 * exp_eps);
            for ((zt, &zv), &gz) in st.trial_z.iter_mut().zip(z.iter()).zip(grad_z.iter()) {
                *zt = (zv - z_step * gz).clamp(1e-12, 1.0);
            }
            enforce_feasible_bounds(&mut st.trial_z, exp_eps);
            for ((sv, &qv), &gv) in stepped
                .as_mut_slice()
                .iter_mut()
                .zip(q.as_slice())
                .zip(gradient.as_slice())
            {
                *sv = qv - fallback_scale * gv;
            }
            project_columns_into(stepped, &st.trial_z, epsilon, &mut st.trial, jacobian, proj);
            let ft = evaluate_into(&st.trial, gram, obj, &mut st.trial_grad);
            *evals += 1;
            if !ft.is_finite() || !st.trial_grad.is_finite() {
                // Crossed the W = WQ†Q boundary: rewind to the best
                // iterate (PGD's recovery) and drop the history.
                fallback_scale *= 0.5;
                project_columns_into(best_q, z, epsilon, q, jacobian, proj);
                f = evaluate_into(q, gram, obj, gradient);
                *evals += 1;
                st.clear_pairs();
                history.push(f);
                if best < f_init {
                    since_improve += 1;
                    if since_improve >= PLATEAU_WINDOW {
                        break;
                    }
                }
                if !f.is_finite() || !gradient.is_finite() {
                    // Even the best iterate re-evaluates non-finite under
                    // the current bounds; keep the stored best and stop.
                    break;
                }
                jacobian.backprop_z_into(gradient, grad_z);
                continue;
            }
            if ft > f {
                fallback_scale *= 0.5;
            } else {
                fallback_scale = (2.0 * fallback_scale).min(base_scale);
            }
            f_new = ft;
        }

        // Gradient of the accepted trial (the live Jacobian is the
        // trial's), then the curvature pair, then advance the iterate.
        jacobian.backprop_z_into(&st.trial_grad, &mut st.trial_gz);
        st.push_pair(q, z);
        q.copy_from(&st.trial);
        gradient.copy_from(&st.trial_grad);
        z.copy_from_slice(&st.trial_z);
        grad_z.copy_from_slice(&st.trial_gz);
        f = f_new;
        history.push(f);
        let significant = significant_improvement(f, best);
        if f < best {
            best = f;
            best_q.copy_from(q);
        }
        if significant {
            since_improve = 0;
        } else if best < f_init {
            // The plateau counter only runs once the descent has
            // genuinely begun: the first iterations of a run may climb
            // away from the initialization (the fallback trust scale
            // calibrating itself), and "no improvement on the starting
            // point yet" is not convergence.
            since_improve += 1;
            if since_improve >= PLATEAU_WINDOW {
                if pulses_left == 0 || it >= iterations / PULSE_HORIZON_DIV {
                    break;
                }
                pulses_left -= 1;
                fallback_scale = base_scale;
                st.clear_pairs();
                since_improve = PLATEAU_WINDOW / 2;
                progress_at = 0;
                progress_filled = false;
            }
        }
        // Relative-progress tail test: the absolute plateau counter above
        // can be kept alive indefinitely by oscillating fallback steps
        // whose improvements are large in absolute terms yet a vanishing
        // fraction of the total descent. If the best value gained less
        // than PROGRESS_FRAC of the full descent-so-far over one whole
        // window, the run is in its tail: spend the restart pulse, or
        // stop.
        let slot = progress_at % PLATEAU_WINDOW;
        let oldest = progress_filled.then(|| progress_ring[slot]);
        progress_ring[slot] = best;
        progress_at += 1;
        if progress_at >= PLATEAU_WINDOW {
            progress_filled = true;
        }
        if let Some(old) = oldest {
            if best < f_init && old - best <= PROGRESS_FRAC * (f_init - best) {
                if pulses_left == 0 || it >= iterations / PULSE_HORIZON_DIV {
                    break;
                }
                pulses_left -= 1;
                fallback_scale = base_scale;
                st.clear_pairs();
                since_improve = PLATEAU_WINDOW / 2;
                progress_at = 0;
                progress_filled = false;
            }
        }
    }
    history.push(best);
    ws.lbfgs = Some(st);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgd::{optimize_strategy, Algorithm};

    fn prefix_gram(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |j, k| (n - j.max(k)) as f64)
    }

    #[test]
    fn reaches_pgd_objective_with_fewer_evaluations() {
        let gram = prefix_gram(8);
        let pgd = optimize_strategy(&gram, 1.0, &OptimizerConfig::new(7)).unwrap();
        let lbfgs = optimize_strategy(&gram, 1.0, &OptimizerConfig::lbfgs(7)).unwrap();
        assert!(
            lbfgs.objective <= pgd.objective * (1.0 + 1e-6),
            "lbfgs {} vs pgd {}",
            lbfgs.objective,
            pgd.objective
        );
        assert!(
            lbfgs.evaluations * 3 <= pgd.evaluations,
            "lbfgs used {} evals, pgd {}",
            lbfgs.evaluations,
            pgd.evaluations
        );
    }

    #[test]
    fn produces_valid_private_strategy() {
        let gram = Matrix::identity(6);
        let result = optimize_strategy(&gram, 1.0, &OptimizerConfig::lbfgs(7)).unwrap();
        assert!(result.strategy.epsilon() <= 1.0 + 1e-6);
        assert_eq!(result.strategy.domain_size(), 6);
        assert_eq!(result.strategy.num_outputs(), 24);
    }

    #[test]
    fn stopping_rules_fire_before_the_cap() {
        let gram = prefix_gram(6);
        let result = optimize_strategy(&gram, 1.0, &OptimizerConfig::lbfgs(3)).unwrap();
        // history = initial + one entry per iteration + final best.
        let config = OptimizerConfig::lbfgs(3);
        assert!(
            result.history.len() < config.iterations + 2,
            "expected convergence stop before the {}-iteration cap, got {} entries",
            config.iterations,
            result.history.len()
        );
    }

    #[test]
    fn deterministic_across_repeated_runs() {
        let gram = prefix_gram(7);
        let config = OptimizerConfig::lbfgs(11);
        let a = optimize_strategy(&gram, 1.0, &config).unwrap();
        let b = optimize_strategy(&gram, 1.0, &config).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.history, b.history);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(
            a.strategy.matrix().as_slice(),
            b.strategy.matrix().as_slice()
        );
    }

    #[test]
    fn curvature_ring_skips_degenerate_pairs() {
        let mut st = LbfgsState::new(2, 2);
        // A zero displacement must not be committed.
        let q = Matrix::zeros(2, 2);
        let z = [0.0, 0.0];
        st.push_pair(&q, &z);
        assert_eq!(st.pairs, 0);
        // A genuine positive-curvature pair is.
        st.trial = Matrix::from_fn(2, 2, |_, _| 0.1);
        st.trial_grad = Matrix::from_fn(2, 2, |_, _| 0.2);
        st.push_pair(&q, &z);
        assert_eq!(st.pairs, 1);
    }

    #[test]
    fn two_loop_matches_steepest_descent_when_empty() {
        let mut st = LbfgsState::new(2, 3);
        let g = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 - 2.5);
        let gz = [0.5, -1.5];
        st.load_grad(&g, &gz);
        st.two_loop(0.25, 0.125);
        for (d, gv) in st.dir[..6].iter().zip(g.as_slice()) {
            assert_eq!(*d, -0.25 * gv);
        }
        for (d, gz) in st.dir[6..].iter().zip(gz.iter()) {
            assert_eq!(*d, -0.125 * gz);
        }
    }

    #[test]
    fn algorithm_parses_from_str() {
        assert_eq!("pgd".parse::<Algorithm>().unwrap(), Algorithm::Pgd);
        assert_eq!("L-BFGS".parse::<Algorithm>().unwrap(), Algorithm::Lbfgs);
        assert_eq!("lbfgs".parse::<Algorithm>().unwrap(), Algorithm::Lbfgs);
        assert!("newton".parse::<Algorithm>().is_err());
        assert_eq!(Algorithm::Lbfgs.to_string(), "lbfgs");
    }
}
