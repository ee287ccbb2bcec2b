//! Projected gradient descent over strategy matrices (Algorithm 2).
//!
//! Each iteration evaluates the objective and its gradient
//! ([`crate::objective::evaluate_into`]), backpropagates the gradient
//! through the previous projection onto the bound vector `z`
//! ([`crate::projection::ProjectionJacobian::backprop_z_into`]), takes
//! gradient steps on `z` and `Q`, and re-projects `Q` onto the ε-LDP
//! bounded simplex. Following the paper:
//!
//! * `m = 4n` outputs by default (the paper's empirical sweet spot);
//! * random initialization `R ~ U\[0,1\]^{m×n}`, `z = (1+e^{−ε})/(2m)·1`
//!   (the paper's `(1+e^{−ε})/(8n)` with `m = 4n`), `Q = Π_{z,ε}(R)`;
//! * the `z` step size is `α = β/(n·e^ε)` — deliberately smaller than the
//!   `Q` step `β` for robustness;
//! * the row-space constraint `W = WQ†Q` is handled "for free": the
//!   objective blows up near the boundary, so descent steps never cross it
//!   (Section 4); a full-rank random initialization starts inside.
//!
//! Because projected iterates always satisfy `z ≤ q_u ≤ e^ε·z`
//! coordinate-wise, *every* iterate is a valid ε-LDP strategy — privacy
//! never depends on convergence.
//!
//! ## Allocation discipline
//!
//! The whole descent runs inside a preallocated [`Workspace`]: iterate,
//! step, best-iterate, gradient, objective and projection buffers are
//! sized once per problem and reused across **every iteration and every
//! restart** (and, via [`optimize_strategy_with`], across repeated
//! optimizer calls at the same problem size). On the hot path — the
//! Cholesky branch of the objective plus the simplex projection — a PGD
//! iteration performs zero heap allocation.
//!
//! ## Parallel restarts
//!
//! With `restarts > 1` and more than one [`ldp_parallel`] thread, the
//! restarts run concurrently, each in a private workspace with its own
//! seed stream (the same per-restart seeds the sequential schedule
//! draws). Restart results are reduced in restart order with a strict
//! `<` argmin — exactly the sequential fold — so the optimizer's output
//! is bit-identical at every thread count.

use ldp_core::{FactorizationMechanism, LdpError, StrategyMatrix};
use ldp_linalg::stablehash::Fnv64;
use ldp_linalg::{LinOp, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lbfgs::LbfgsState;
use crate::objective::{evaluate_into, ObjectiveWorkspace};
use crate::projection::{project_columns_into, ProjectionJacobian, ProjectionScratch};

/// Which descent algorithm [`optimize_strategy`] runs over the bounded
/// ε-LDP simplex.
///
/// Both algorithms share the whole surrounding machinery — the paper's
/// initialization, the [`crate::projection`] simplex projection with its
/// `z`-backpropagation, multi-restart argmin reduction, best-iterate
/// tracking — and both honor the determinism contract (bit-identical
/// results across `LDP_THREADS` worker counts, per kernel backend).
/// They differ only in how the next iterate is chosen, and they produce
/// *different* strategies from the same seed, so the
/// [`OptimizerConfig::fingerprint`] keys them separately and the
/// `StrategyRegistry` never aliases one for the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's Algorithm 2: first-order projected gradient descent
    /// with a geometric step-size search. The default.
    Pgd,
    /// Projected L-BFGS: quasi-Newton directions from a bounded
    /// curvature-pair history (two-loop recursion), a projection-aware
    /// Armijo backtracking line search, and an objective-plateau stop
    /// under an iteration cap.
    Lbfgs,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::Pgd => "pgd",
            Algorithm::Lbfgs => "lbfgs",
        })
    }
}

impl std::str::FromStr for Algorithm {
    type Err = LdpError;

    /// Parses an algorithm name (`pgd`, `lbfgs`; case, `-` and `_` are
    /// ignored).
    fn from_str(s: &str) -> Result<Self, LdpError> {
        let mut norm = s.trim().to_ascii_lowercase();
        norm.retain(|c| !matches!(c, '-' | '_' | ' '));
        match norm.as_str() {
            "pgd" | "projectedgradientdescent" => Ok(Algorithm::Pgd),
            "lbfgs" | "lbfgsb" => Ok(Algorithm::Lbfgs),
            _ => Err(LdpError::OptimizationFailed(format!(
                "unknown optimizer algorithm '{s}' (expected 'pgd' or 'lbfgs')"
            ))),
        }
    }
}

/// Configuration for [`optimize_strategy`].
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Number of mechanism outputs `m`; defaults to `4n` (paper §4).
    pub num_outputs: Option<usize>,
    /// Descent iterations per restart. For [`Algorithm::Pgd`] this is an
    /// exact budget; for [`Algorithm::Lbfgs`] it is a cap its plateau
    /// stop usually beats.
    pub iterations: usize,
    /// Number of random restarts; the best strategy wins.
    pub restarts: usize,
    /// Fixed `Q` step size `β`. `None` runs a short geometric search
    /// (the paper's hyper-parameter search, §4). Ignored by
    /// [`Algorithm::Lbfgs`], whose line search scales steps itself.
    pub step_size: Option<f64>,
    /// Iterations used per candidate during the step-size search.
    pub search_iterations: usize,
    /// RNG seed for the random initialization.
    pub seed: u64,
    /// Optional warm start: initialize from an existing strategy matrix
    /// instead of randomly (the paper's §4 alternative initialization).
    /// Because the best iterate is tracked, the result is then never
    /// worse than the warm-start strategy. Overrides `num_outputs`.
    pub initial_strategy: Option<StrategyMatrix>,
    /// Which descent algorithm to run. Defaults to [`Algorithm::Pgd`]
    /// (the paper's Algorithm 2); see [`OptimizerConfig::lbfgs`] for the
    /// quasi-Newton preset.
    pub algorithm: Algorithm,
}

impl OptimizerConfig {
    /// The paper-faithful default configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            num_outputs: None,
            iterations: 250,
            restarts: 1,
            step_size: None,
            search_iterations: 15,
            seed,
            initial_strategy: None,
            algorithm: Algorithm::Pgd,
        }
    }

    /// A cheaper configuration for tests, examples, and `--quick` bench
    /// runs: fewer iterations, shorter search.
    pub fn quick(seed: u64) -> Self {
        Self {
            num_outputs: None,
            iterations: 80,
            restarts: 1,
            step_size: None,
            search_iterations: 8,
            seed,
            initial_strategy: None,
            algorithm: Algorithm::Pgd,
        }
    }

    /// The projected L-BFGS preset: quasi-Newton descent that targets the
    /// same final objective as [`OptimizerConfig::new`] in fewer
    /// objective/gradient evaluations. The iteration count is a cap, not
    /// a budget: the descent stops once its objective plateaus.
    pub fn lbfgs(seed: u64) -> Self {
        Self {
            num_outputs: None,
            iterations: 500,
            restarts: 1,
            step_size: None,
            search_iterations: 0,
            seed,
            initial_strategy: None,
            algorithm: Algorithm::Lbfgs,
        }
    }

    /// Selects the descent algorithm, keeping every other knob.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Warm-starts the optimizer from an existing strategy; the result is
    /// never worse than the given strategy (the best iterate is kept).
    pub fn with_warm_start(mut self, strategy: StrategyMatrix) -> Self {
        self.initial_strategy = Some(strategy);
        self
    }

    /// Overrides the number of outputs `m`.
    pub fn with_num_outputs(mut self, m: usize) -> Self {
        self.num_outputs = Some(m);
        self
    }

    /// Overrides the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// The number of outputs `m` this configuration produces for an
    /// `n`-type domain (warm start wins, then the override, then `4n`).
    pub fn resolved_num_outputs(&self, n: usize) -> usize {
        match &self.initial_strategy {
            Some(warm) => warm.num_outputs(),
            None => self.num_outputs.unwrap_or(4 * n).max(n),
        }
    }

    /// A stable 64-bit fingerprint of every field that influences the
    /// optimizer's output — two configs with equal fingerprints drive
    /// Algorithm 2 to bit-identical strategies on the same problem (the
    /// descent is deterministic given the seed and hyper-parameters,
    /// PR 3's thread-count-invariance included). `ldp-store` combines
    /// this with the workload fingerprint and ε to content-address
    /// cached strategies.
    ///
    /// A warm-start strategy participates by exact matrix bit pattern,
    /// so warm-started runs never alias cold-started ones.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("ldp-optimizer-config/1");
        match self.num_outputs {
            None => h.write_u64(0),
            Some(m) => {
                h.write_u64(1);
                h.write_u64(m as u64);
            }
        }
        h.write_u64(self.iterations as u64);
        h.write_u64(self.restarts as u64);
        match self.step_size {
            None => h.write_u64(0),
            Some(beta) => {
                h.write_u64(1);
                h.write_f64(beta);
            }
        }
        h.write_u64(self.search_iterations as u64);
        h.write_u64(self.seed);
        match &self.initial_strategy {
            None => h.write_u64(0),
            Some(warm) => {
                h.write_u64(1);
                let q = warm.matrix();
                h.write_u64(q.rows() as u64);
                h.write_u64(q.cols() as u64);
                for &v in q.as_slice() {
                    h.write_f64(v);
                }
            }
        }
        // The algorithm is hashed only away from the PGD default, so every
        // fingerprint minted before it existed — including the committed
        // goldens and any strategy store in the field — is unchanged. The
        // `/3` tag marks L-BFGS's fixed plateau stop: strategies stored
        // under an older L-BFGS key came from a different stopping rule.
        if self.algorithm != Algorithm::Pgd {
            h.write_str("ldp-optimizer-config/3");
            h.write_u64(match self.algorithm {
                Algorithm::Pgd => 0,
                Algorithm::Lbfgs => 1,
            });
        }
        h.finish()
    }
}

/// The outcome of a strategy optimization.
#[derive(Clone, Debug)]
pub struct OptimizationResult {
    /// The best strategy found (a valid ε-LDP strategy by construction).
    pub strategy: StrategyMatrix,
    /// Its objective value `L(Q)`.
    pub objective: f64,
    /// Objective value at every iteration of the best restart.
    pub history: Vec<f64>,
    /// Total objective/gradient evaluations spent across **all**
    /// restarts, step-size search included — the work metric the
    /// L-BFGS-vs-PGD parity gate compares (each unit is one
    /// [`crate::objective::evaluate_into`] call, the `O(n³)` dominant
    /// cost of an iteration).
    pub evaluations: usize,
}

/// Every buffer Algorithm 2 touches, preallocated for an `m × n` problem
/// and reused across iterations, restarts, and (when callers hold on to
/// it) whole optimizer invocations.
pub struct Workspace {
    /// Projected initial iterate of the current restart (`m × n`).
    pub(crate) q0: Matrix,
    /// Initial bound vector of the current restart (`m`).
    pub(crate) z0: Vec<f64>,
    /// Current iterate (`m × n`).
    pub(crate) q: Matrix,
    /// Gradient-step scratch `Q − β∇` (`m × n`).
    pub(crate) stepped: Matrix,
    /// Best iterate so far (`m × n`).
    pub(crate) best_q: Matrix,
    /// Objective gradient (`m × n`).
    pub(crate) gradient: Matrix,
    /// Bound vector (`m`).
    pub(crate) z: Vec<f64>,
    /// Gradient w.r.t. `z` (`m`).
    pub(crate) grad_z: Vec<f64>,
    /// Clip pattern of the latest projection.
    pub(crate) jacobian: ProjectionJacobian,
    /// Projection breakpoint scratch.
    pub(crate) proj: ProjectionScratch,
    /// Objective/gradient buffers.
    pub(crate) obj: ObjectiveWorkspace,
    /// Per-iteration objective history of the current descent.
    pub(crate) history: Vec<f64>,
    /// Densified-Gram buffer for structured operators, kept across
    /// [`optimize_strategy_with`] calls so re-optimizations refill it in
    /// place instead of reallocating `n²` entries.
    pub(crate) gram_buf: Option<Matrix>,
    /// L-BFGS curvature ring and line-search buffers, allocated on the
    /// first [`Algorithm::Lbfgs`] descent through this workspace and
    /// reused (like `gram_buf`) for every one after it. PGD-only
    /// workspaces never pay for it.
    pub(crate) lbfgs: Option<LbfgsState>,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("m", &self.q.rows())
            .field("n", &self.q.cols())
            .finish_non_exhaustive()
    }
}

impl Workspace {
    /// Buffers for `m`-output strategies over an `n`-type domain.
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            q0: Matrix::zeros(m, n),
            z0: vec![0.0; m],
            q: Matrix::zeros(m, n),
            stepped: Matrix::zeros(m, n),
            best_q: Matrix::zeros(m, n),
            gradient: Matrix::zeros(m, n),
            z: vec![0.0; m],
            grad_z: vec![0.0; m],
            jacobian: ProjectionJacobian::empty(),
            proj: ProjectionScratch::new(),
            obj: ObjectiveWorkspace::new(m, n),
            history: Vec::new(),
            gram_buf: None,
            lbfgs: None,
        }
    }

    /// Buffers sized for `config` on an `n`-type domain.
    pub fn for_config(config: &OptimizerConfig, n: usize) -> Self {
        Self::new(config.resolved_num_outputs(n), n)
    }

    /// `(m, n)` this workspace was sized for.
    pub fn shape(&self) -> (usize, usize) {
        self.q.shape()
    }
}

/// Runs Algorithm 2 and returns the best strategy found across restarts.
///
/// Accepts the workload Gram as any [`LinOp`] — a dense matrix or a
/// structured operator. The operator is materialized once into the
/// iteration workspace (the objective's `n × n` solves need dense
/// right-hand sides); everything after that is allocation-free per
/// iteration.
///
/// # Errors
/// [`LdpError::InvalidEpsilon`] for a bad budget;
/// [`LdpError::OptimizationFailed`] if no finite-objective iterate was
/// ever produced (does not occur for well-formed Gram matrices).
///
/// # Panics
/// Panics if `gram` is not square.
pub fn optimize_strategy(
    gram: &dyn LinOp,
    epsilon: f64,
    config: &OptimizerConfig,
) -> Result<OptimizationResult, LdpError> {
    let mut workspace = Workspace::for_config(config, gram.rows());
    optimize_strategy_with(gram, epsilon, config, &mut workspace)
}

/// [`optimize_strategy`] with a caller-provided [`Workspace`], so repeated
/// optimizations at one problem size (benchmarks, hyper-parameter sweeps,
/// re-optimization on workload drift) reuse every buffer.
///
/// # Errors
/// As [`optimize_strategy`].
///
/// # Panics
/// Panics if `gram` is not square or the workspace shape disagrees with
/// the problem implied by `gram` and `config`.
pub fn optimize_strategy_with(
    gram: &dyn LinOp,
    epsilon: f64,
    config: &OptimizerConfig,
    workspace: &mut Workspace,
) -> Result<OptimizationResult, LdpError> {
    if epsilon.is_nan() || epsilon <= 0.0 || !epsilon.is_finite() {
        return Err(LdpError::InvalidEpsilon(epsilon));
    }
    assert!(gram.is_square(), "Gram matrix must be square");
    let n = gram.rows();
    let m = config.resolved_num_outputs(n);
    assert_eq!(
        workspace.shape(),
        (m, n),
        "workspace sized for a different problem"
    );
    // Structured Grams materialize once per optimization into a buffer
    // the workspace keeps across calls (dense matrices are borrowed
    // as-is); every iteration then reuses it.
    let owned: Option<Matrix> = if gram.as_dense().is_some() {
        None
    } else {
        let mut buf = workspace
            .gram_buf
            .take()
            .filter(|b| b.shape() == (n, n))
            .unwrap_or_else(|| Matrix::zeros(n, n));
        gram.materialize_into(&mut buf);
        Some(buf)
    };
    let result = {
        let g: &Matrix = match &owned {
            Some(buf) => buf,
            None => gram.as_dense().ok_or_else(|| {
                LdpError::OptimizationFailed(
                    "Gram operator offered no dense view and no materialization".to_string(),
                )
            })?,
        };
        let restarts = config.restarts.max(1);
        let pool = ldp_parallel::pool();
        let runs: Vec<Result<OptimizationResult, LdpError>> = if restarts > 1 && pool.threads() > 1
        {
            // Parallel restarts: each runs in its own private
            // workspace with its own seed stream. A restart's
            // computation never depends on workspace contents (the
            // descent overwrites every buffer it reads — property
            // `workspace_reuse_across_calls_is_bit_identical`), so
            // per-restart outputs match the sequential schedule bit
            // for bit; the reduction below scans in restart order,
            // making the whole result thread-count independent.
            pool.par_map(restarts, |restart| {
                let seed = restart_seed(config.seed, restart);
                let mut private = Workspace::new(m, n);
                single_run(g, epsilon, config, seed, &mut private)
            })
        } else {
            // No `?` here: an early return would drop the taken gram
            // buffer instead of restoring it below.
            let mut runs = Vec::with_capacity(restarts);
            for restart in 0..restarts {
                let seed = restart_seed(config.seed, restart);
                let run = single_run(g, epsilon, config, seed, workspace);
                let failed = run.is_err();
                runs.push(run);
                if failed {
                    break;
                }
            }
            runs
        };
        // Deterministic reduction, identical to the historical
        // sequential loop: the first error (in restart order) wins, and
        // ties in the objective keep the earliest restart (strict `<`).
        // The winner's `evaluations` reports the whole invocation's work
        // (every restart's evals summed), since that is the cost a caller
        // actually paid for the returned strategy.
        let mut best: Option<OptimizationResult> = None;
        let mut failure: Option<LdpError> = None;
        let mut total_evals = 0usize;
        for run in runs {
            match run {
                Ok(result) => {
                    total_evals += result.evaluations;
                    let better = best
                        .as_ref()
                        .map(|b| result.objective < b.objective)
                        .unwrap_or(true);
                    if better {
                        best = Some(result);
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => match best {
                Some(mut winner) => {
                    winner.evaluations = total_evals;
                    Ok(winner)
                }
                None => Err(LdpError::OptimizationFailed(
                    "no restart produced a strategy".into(),
                )),
            },
        }
    };
    if owned.is_some() {
        workspace.gram_buf = owned;
    }
    result
}

/// Convenience wrapper: optimizes a strategy and assembles the
/// factorization mechanism (named `"Optimized"`, as in the paper's
/// figures) with the optimal reconstruction of Theorem 3.10.
///
/// # Errors
/// Propagates optimization and mechanism-construction failures.
pub fn optimized_mechanism(
    gram: &dyn LinOp,
    epsilon: f64,
    config: &OptimizerConfig,
) -> Result<FactorizationMechanism, LdpError> {
    let result = optimize_strategy(gram, epsilon, config)?;
    Ok(
        FactorizationMechanism::new_unchecked_privacy(result.strategy, gram, epsilon)?
            .with_name("Optimized"),
    )
}

/// The seed of restart `restart` — a fixed affine stream so restart `r`
/// draws the same initialization whether restarts run sequentially in a
/// shared workspace or concurrently in private ones.
fn restart_seed(seed: u64, restart: usize) -> u64 {
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(restart as u64))
}

/// One restart: init, optional step-size search, main loop.
fn single_run(
    gram: &Matrix,
    epsilon: f64,
    config: &OptimizerConfig,
    seed: u64,
    ws: &mut Workspace,
) -> Result<OptimizationResult, LdpError> {
    let n = gram.rows();
    match &config.initial_strategy {
        Some(warm) => {
            assert_eq!(
                warm.domain_size(),
                n,
                "warm start domain must match workload"
            );
            // z = per-row minima of the warm strategy puts the strategy
            // inside (or on the boundary of) the projection's feasible
            // set whenever it is ε-LDP, so the first iterate *is* the
            // warm strategy up to clipping slack.
            let q = warm.matrix();
            for (zo, o) in ws.z0.iter_mut().zip(0..q.rows()) {
                *zo = q.row(o).iter().copied().fold(f64::MAX, f64::min).max(1e-12);
            }
            project_columns_into(
                q,
                &ws.z0,
                epsilon,
                &mut ws.q0,
                &mut ws.jacobian,
                &mut ws.proj,
            );
        }
        None => {
            // Paper initialization: R ~ U[0,1], z = (1+e^{−ε})/(2m)·1.
            let m = ws.z0.len();
            let mut rng = StdRng::seed_from_u64(seed);
            ws.z0.fill((1.0 + (-epsilon).exp()) / (2.0 * m as f64));
            for v in ws.stepped.as_mut_slice() {
                *v = rng.gen::<f64>();
            }
            let Workspace {
                q0,
                z0,
                stepped,
                jacobian,
                proj,
                ..
            } = ws;
            project_columns_into(stepped, z0, epsilon, q0, jacobian, proj);
        }
    }

    let mut evals = 0usize;
    let objective = match config.algorithm {
        Algorithm::Pgd => {
            // Step-size selection.
            let beta = match config.step_size {
                Some(b) => b,
                None => search_step_size(gram, epsilon, config, ws, &mut evals),
            };
            descend(gram, epsilon, beta, config.iterations, ws, &mut evals)
        }
        // L-BFGS scales its own steps via the line search, so the whole
        // geometric step-size search (and its eval budget) is skipped.
        Algorithm::Lbfgs => crate::lbfgs::descend(gram, epsilon, config, ws, &mut evals),
    };
    if !objective.is_finite() {
        return Err(LdpError::OptimizationFailed(format!(
            "objective diverged to {objective}"
        )));
    }
    // Projection output is stochastic up to rounding; renormalize exactly.
    let strategy = StrategyMatrix::from_unnormalized(ws.best_q.clone())?;
    Ok(OptimizationResult {
        strategy,
        objective,
        history: ws.history.clone(),
        evaluations: evals,
    })
}

/// The core descent loop, starting from the workspace's `(q0, z0)`.
/// Leaves the best iterate in `ws.best_q` and the per-iteration objective
/// history in `ws.history` (entry `t` is the objective *before* iteration
/// `t`'s step; the final entry is the best objective found, which is also
/// the return value). Allocation-free after workspace warm-up.
fn descend(
    gram: &Matrix,
    epsilon: f64,
    beta0: f64,
    iterations: usize,
    ws: &mut Workspace,
    evals: &mut usize,
) -> f64 {
    let n = gram.rows();
    let exp_eps = epsilon.exp();
    // Paper: α = β/(n·e^ε), a deliberately smaller step for z.
    let mut beta = beta0;
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
    // Initial projection to establish a Jacobian for z-backprop.
    project_columns_into(q0, z, epsilon, q, jacobian, proj);

    best_q.copy_from(q);
    let mut best_obj = f64::INFINITY;
    let mut prev_obj = f64::INFINITY;
    history.clear();
    history.reserve(iterations + 1);

    for _ in 0..iterations {
        let value = evaluate_into(q, gram, obj, gradient);
        *evals += 1;
        history.push(value);
        if !value.is_finite() || !gradient.is_finite() {
            // The iterate crossed the W = WQ†Q boundary (rank collapse) or
            // became ill-conditioned enough to produce non-finite
            // derivatives: rewind to the best iterate with a halved step.
            beta *= 0.5;
            if best_obj.is_finite() {
                project_columns_into(best_q, z, epsilon, q, jacobian, proj);
            }
            // Either way, never step along a non-finite gradient.
            prev_obj = f64::INFINITY;
            continue;
        }
        if value < best_obj {
            best_obj = value;
            best_q.copy_from(q);
        }
        if value > prev_obj {
            // Overshoot: decay the step (simple trust heuristic; the
            // paper likewise recommends decaying step sizes).
            beta *= 0.5;
        }
        prev_obj = value;

        // z step (Algorithm 2 line 1), then Q step + projection (line 2).
        let alpha = beta / (n as f64 * exp_eps);
        jacobian.backprop_z_into(gradient, grad_z);
        for (zo, g) in z.iter_mut().zip(grad_z.iter()) {
            *zo = (*zo - alpha * g).clamp(1e-12, 1.0);
        }
        enforce_feasible_bounds(z, exp_eps);

        for ((s, &qv), &gv) in stepped
            .as_mut_slice()
            .iter_mut()
            .zip(q.as_slice())
            .zip(gradient.as_slice())
        {
            *s = qv - gv * beta;
        }
        project_columns_into(stepped, z, epsilon, q, jacobian, proj);
    }
    history.push(best_obj);
    best_obj
}

/// Keeps the bound vector inside the region where the projection is
/// feasible for every column: `Σz ≤ 1 ≤ e^ε·Σz` (with a small margin).
pub(crate) fn enforce_feasible_bounds(z: &mut [f64], exp_eps: f64) {
    const MARGIN: f64 = 1e-9;
    let sum: f64 = z.iter().sum();
    if sum > 1.0 - MARGIN {
        let scale = (1.0 - MARGIN) / sum;
        for v in z.iter_mut() {
            *v *= scale;
        }
    }
    let sum: f64 = z.iter().sum();
    if exp_eps * sum < 1.0 + MARGIN {
        let scale = (1.0 + MARGIN) / (exp_eps * sum);
        for v in z.iter_mut() {
            *v = (*v * scale).min(1.0);
        }
    }
}

/// Short geometric search for the `Q` step size (the paper's
/// hyper-parameter search): each candidate runs a few iterations from the
/// workspace's `(q0, z0)` initialization; the best short-horizon objective
/// wins.
fn search_step_size(
    gram: &Matrix,
    epsilon: f64,
    config: &OptimizerConfig,
    ws: &mut Workspace,
    evals: &mut usize,
) -> f64 {
    // Scale-aware base: a step that could move an entry by about its own
    // magnitude (1/m) against the initial gradient.
    evaluate_into(&ws.q0, gram, &mut ws.obj, &mut ws.gradient);
    *evals += 1;
    let base = 1.0 / (ws.q0.rows() as f64 * ws.gradient.max_abs().max(f64::MIN_POSITIVE));
    let mut best_beta = base;
    let mut best_obj = f64::INFINITY;
    for factor in [0.01, 0.1, 0.3, 1.0, 3.0, 10.0] {
        let beta = base * factor;
        let obj = descend(gram, epsilon, beta, config.search_iterations, ws, evals);
        if obj.is_finite() && obj < best_obj {
            best_obj = obj;
            best_beta = beta;
        }
    }
    best_beta
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::variance::strategy_objective;
    use ldp_core::{bounds, LdpMechanism};
    use ldp_linalg::StructuredGram;

    fn prefix_gram(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |j, k| (n - j.max(k)) as f64)
    }

    fn rr_objective(n: usize, epsilon: f64, gram: &Matrix) -> f64 {
        let e = epsilon.exp();
        let z = e + n as f64 - 1.0;
        let s = StrategyMatrix::new(Matrix::from_fn(
            n,
            n,
            |o, u| {
                if o == u {
                    e / z
                } else {
                    1.0 / z
                }
            },
        ))
        .unwrap();
        strategy_objective(&s, gram)
    }

    #[test]
    fn produces_valid_private_strategy() {
        let gram = Matrix::identity(6);
        let result = optimize_strategy(&gram, 1.0, &OptimizerConfig::quick(7)).unwrap();
        assert!(result.strategy.epsilon() <= 1.0 + 1e-6);
        assert_eq!(result.strategy.domain_size(), 6);
        assert_eq!(result.strategy.num_outputs(), 24); // m = 4n
    }

    #[test]
    fn objective_improves_from_initialization() {
        let gram = prefix_gram(8);
        let result = optimize_strategy(&gram, 1.0, &OptimizerConfig::quick(3)).unwrap();
        let first = result.history[0];
        assert!(
            result.objective < first,
            "final {} should beat initial {first}",
            result.objective
        );
    }

    #[test]
    fn structured_gram_matches_dense_bitwise() {
        // The acceptance contract of the operator refactor: optimizing
        // against the structured Prefix/AllRange Grams is bit-identical to
        // the historical dense path (the materialized closed forms are the
        // same f64s, and the iteration arithmetic is unchanged).
        for n in [6usize, 9] {
            let config = OptimizerConfig::quick(17);
            let dense = optimize_strategy(&prefix_gram(n), 1.0, &config).unwrap();
            let structured = optimize_strategy(&StructuredGram::prefix(n), 1.0, &config).unwrap();
            assert_eq!(dense.objective, structured.objective);
            assert_eq!(dense.history, structured.history);
            assert_eq!(
                dense.strategy.matrix().as_slice(),
                structured.strategy.matrix().as_slice()
            );

            let range_dense =
                Matrix::from_fn(n, n, |j, k| ((j.min(k) + 1) * (n - j.max(k))) as f64);
            let a = optimize_strategy(&range_dense, 1.0, &config).unwrap();
            let b = optimize_strategy(&StructuredGram::all_range(n), 1.0, &config).unwrap();
            assert_eq!(a.objective, b.objective);
            assert_eq!(
                a.strategy.matrix().as_slice(),
                b.strategy.matrix().as_slice()
            );
        }
    }

    #[test]
    fn workspace_reuse_across_calls_is_bit_identical() {
        let gram = prefix_gram(7);
        let config = OptimizerConfig::quick(23);
        let fresh_a = optimize_strategy(&gram, 1.0, &config).unwrap();
        let mut ws = Workspace::for_config(&config, 7);
        let reused_a = optimize_strategy_with(&gram, 1.0, &config, &mut ws).unwrap();
        // Run a second, different optimization through the same workspace,
        // then repeat the first: stale buffer contents must not leak.
        let _ = optimize_strategy_with(&gram, 0.5, &OptimizerConfig::quick(99), &mut ws).unwrap();
        let reused_b = optimize_strategy_with(&gram, 1.0, &config, &mut ws).unwrap();
        assert_eq!(fresh_a.objective, reused_a.objective);
        assert_eq!(fresh_a.objective, reused_b.objective);
        assert_eq!(fresh_a.history, reused_a.history);
        assert_eq!(
            fresh_a.strategy.matrix().as_slice(),
            reused_b.strategy.matrix().as_slice()
        );
    }

    #[test]
    fn respects_svd_lower_bound() {
        for (n, eps) in [(6usize, 0.5), (8, 1.0)] {
            let gram = prefix_gram(n);
            let result = optimize_strategy(&gram, eps, &OptimizerConfig::quick(1)).unwrap();
            let bound = bounds::svd_bound_objective(&gram, eps);
            assert!(
                result.objective >= bound * (1.0 - 1e-9),
                "objective {} below SVD bound {bound}",
                result.objective
            );
        }
    }

    #[test]
    fn beats_randomized_response_on_prefix() {
        // The paper's headline: the optimized mechanism dominates the
        // baselines. RR is in the search class, so with enough iterations
        // the optimizer should at least match it on any workload.
        let n = 8;
        let gram = prefix_gram(n);
        let eps = 1.0;
        let config = OptimizerConfig::new(5).with_iterations(200);
        let result = optimize_strategy(&gram, eps, &config).unwrap();
        let rr = rr_objective(n, eps, &gram);
        assert!(
            result.objective < rr,
            "optimized {} should beat RR {rr} on Prefix",
            result.objective
        );
    }

    #[test]
    fn optimized_mechanism_integrates_with_core() {
        let gram = Matrix::identity(5);
        let mech = optimized_mechanism(&gram, 1.0, &OptimizerConfig::quick(11)).unwrap();
        assert_eq!(mech.name(), "Optimized");
        let profile = mech.variance_profile(&gram);
        assert_eq!(profile.len(), 5);
        assert!(profile.iter().all(|t| t.is_finite() && *t >= 0.0));
    }

    #[test]
    fn restarts_pick_the_best() {
        let gram = prefix_gram(5);
        let single =
            optimize_strategy(&gram, 1.0, &OptimizerConfig::quick(2).with_restarts(1)).unwrap();
        let multi =
            optimize_strategy(&gram, 1.0, &OptimizerConfig::quick(2).with_restarts(3)).unwrap();
        assert!(multi.objective <= single.objective + 1e-9);
    }

    #[test]
    fn warm_start_never_worse_than_baseline() {
        // Initialize from randomized response on Histogram at high ε; the
        // result must match or beat RR's objective (the paper's §4
        // intuition made precise by best-iterate tracking).
        let n = 8;
        let eps = 4.0_f64;
        let gram = Matrix::identity(n);
        let e = eps.exp();
        let z = e + n as f64 - 1.0;
        let rr = StrategyMatrix::new(Matrix::from_fn(
            n,
            n,
            |o, u| {
                if o == u {
                    e / z
                } else {
                    1.0 / z
                }
            },
        ))
        .unwrap();
        let rr_objective = ldp_core::variance::strategy_objective(&rr, &gram);
        let config = OptimizerConfig::quick(3).with_warm_start(rr);
        let result = optimize_strategy(&gram, eps, &config).unwrap();
        assert!(
            result.objective <= rr_objective * (1.0 + 1e-6),
            "warm-started {} should not exceed RR {rr_objective}",
            result.objective
        );
        assert!(result.strategy.epsilon() <= eps + 1e-6);
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let gram = Matrix::identity(3);
        assert!(matches!(
            optimize_strategy(&gram, 0.0, &OptimizerConfig::quick(0)),
            Err(LdpError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            optimize_strategy(&gram, f64::INFINITY, &OptimizerConfig::quick(0)),
            Err(LdpError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn custom_output_count() {
        let gram = Matrix::identity(4);
        let config = OptimizerConfig::quick(9).with_num_outputs(10);
        let result = optimize_strategy(&gram, 1.0, &config).unwrap();
        assert_eq!(result.strategy.num_outputs(), 10);
    }

    #[test]
    fn config_fingerprint_tracks_every_field() {
        let base = OptimizerConfig::new(7);
        assert_eq!(base.fingerprint(), OptimizerConfig::new(7).fingerprint());
        let variants = [
            OptimizerConfig::new(8),
            OptimizerConfig::new(7).with_iterations(99),
            OptimizerConfig::new(7).with_restarts(3),
            OptimizerConfig::new(7).with_num_outputs(12),
            OptimizerConfig {
                step_size: Some(0.1),
                ..OptimizerConfig::new(7)
            },
            OptimizerConfig {
                search_iterations: 3,
                ..OptimizerConfig::new(7)
            },
            OptimizerConfig::new(7).with_algorithm(Algorithm::Lbfgs),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
        // The algorithm is hashed only away from its default, so every
        // historical fingerprint (committed goldens, field strategy
        // stores) is unchanged by its mere existence.
        let defaulted = OptimizerConfig::new(7).with_algorithm(Algorithm::Pgd);
        assert_eq!(base.fingerprint(), defaulted.fingerprint());
        // A warm start keys on the exact matrix bits.
        let e = 1.0_f64.exp();
        let z = e + 1.0;
        let q = Matrix::from_fn(2, 2, |o, u| if o == u { e / z } else { 1.0 / z });
        let warm = StrategyMatrix::new(q).unwrap();
        let warmed = OptimizerConfig::new(7).with_warm_start(warm);
        assert_ne!(base.fingerprint(), warmed.fingerprint());
    }

    #[test]
    fn feasibility_enforcement() {
        let mut z = vec![0.4, 0.4, 0.4]; // Σ = 1.2 > 1
        enforce_feasible_bounds(&mut z, 1.0_f64.exp());
        let s: f64 = z.iter().sum();
        assert!(s <= 1.0);
        assert!(1.0_f64.exp() * s >= 1.0);

        let mut z = vec![0.01, 0.01]; // e^ε Σ = 0.054 < 1 at ε=1
        enforce_feasible_bounds(&mut z, 1.0_f64.exp());
        let s: f64 = z.iter().sum();
        assert!(1.0_f64.exp() * s >= 1.0);
        assert!(s <= 1.0 + 1e-9);
    }
}
