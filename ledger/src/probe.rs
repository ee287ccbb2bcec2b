//! Stage timings of the optimizer at one workload's shape: Gram
//! construction, a full optimization (for its exact evaluation count),
//! one objective evaluation, one column projection, and the blocked
//! matrix product at PGD's m×n shape.

use ldp_linalg::{dense_of, Matrix};
use ldp_opt::objective::evaluate;
use ldp_opt::{optimize_strategy, project_columns, OptimizerConfig};
use ldp_workloads::Workload;

use crate::report::Metrics;
use crate::trace::Trace;

/// What one optimizer probe measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct OptProbe {
    /// Objective evaluations the optimization made.
    pub evaluations: usize,
    /// `Workload::gram`, ms.
    pub gram_ms: f64,
    /// One `objective::evaluate` at the optimized strategy, ms.
    pub evaluate_ms: f64,
    /// One `project_columns` of the optimized strategy, ms.
    pub project_ms: f64,
    /// The m×n by n×n product, GFLOP/s from its computed flop count.
    pub matmul_gflops: f64,
}

impl OptProbe {
    /// Writes the probe's per-layer metrics.
    pub fn record(&self, m: &mut Metrics) {
        m.set("workloads.gram_ms", self.gram_ms, "ms");
        m.set("opt.evaluations", self.evaluations as f64, "count");
        m.set("opt.evaluate_ms", self.evaluate_ms, "ms");
        m.set("opt.project_ms", self.project_ms, "ms");
        m.set("linalg.matmul_gflops", self.matmul_gflops, "GFLOP/s");
    }

    /// Element-wise mean of several probes.
    pub fn mean(probes: &[OptProbe]) -> OptProbe {
        let k = probes.len().max(1) as f64;
        let sum = |f: fn(&OptProbe) -> f64| probes.iter().map(f).sum::<f64>() / k;
        OptProbe {
            evaluations: probes.iter().map(|p| p.evaluations).sum(),
            gram_ms: sum(|p| p.gram_ms),
            evaluate_ms: sum(|p| p.evaluate_ms),
            project_ms: sum(|p| p.project_ms),
            matmul_gflops: sum(|p| p.matmul_gflops),
        }
    }
}

/// Repetitions of each single-call stage; the mean is reported.
const REPS: usize = 20;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Times `f` `REPS` times under `parent`, one span each; returns the
/// mean in ns.
fn repeated<R>(
    trace: &mut Trace,
    name: &'static str,
    parent: usize,
    mut f: impl FnMut() -> R,
) -> u64 {
    let mut total = 0;
    for _ in 0..REPS {
        let id = trace.open(name, Some(parent), 0);
        std::hint::black_box(f());
        trace.close(id);
        total += trace.spans()[id].duration();
    }
    total / REPS as u64
}

/// Times the optimizer's stages for `workload` at ε around `strategy`
/// (an m×n strategy matrix), recording spans under `parent`.
pub fn stages(
    trace: &mut Trace,
    parent: usize,
    workload: &dyn Workload,
    strategy: &Matrix,
    epsilon: f64,
) -> OptProbe {
    let gram_ns = repeated(trace, "workloads.gram", parent, || workload.gram());
    let gram = workload.gram();
    let (m, n) = strategy.shape();
    let evaluate_ns = repeated(trace, "opt.evaluate", parent, || evaluate(strategy, &gram));
    let z = vec![(1.0 + (-epsilon).exp()) / (2.0 * m as f64); m];
    let project_ns = repeated(trace, "opt.project", parent, || {
        project_columns(strategy, &z, epsilon)
    });
    let g = dense_of(&gram).into_owned();
    let mut out = Matrix::zeros(m, n);
    let matmul_ns = repeated(trace, "linalg.matmul", parent, || {
        strategy.matmul_into(&g, &mut out);
    });
    let flops = 2.0 * m as f64 * n as f64 * n as f64;
    OptProbe {
        evaluations: 0,
        gram_ms: ms(gram_ns),
        evaluate_ms: ms(evaluate_ns),
        project_ms: ms(project_ns),
        matmul_gflops: flops / matmul_ns.max(1) as f64,
    }
}

/// Optimizes `workload` at ε under `config` inside an `opt.optimize`
/// span, for the exact evaluation count, then times its stages.
pub fn optimizer(
    trace: &mut Trace,
    parent: usize,
    workload: &dyn Workload,
    epsilon: f64,
    config: &OptimizerConfig,
) -> OptProbe {
    let gram = workload.gram();
    let result = trace.time("opt.optimize", parent, 0, || {
        optimize_strategy(&gram, epsilon, config).expect("optimize")
    });
    let mut probe = stages(trace, parent, workload, result.strategy.matrix(), epsilon);
    probe.evaluations = result.evaluations;
    probe
}
