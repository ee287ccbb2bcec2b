//! The `optimize` workload: cold PGD with the paper's default
//! configuration on the six `paper_suite(64)` workloads at ε = 1, with
//! no serving. Whole passes over the six families repeat while the next
//! one is expected to end within the run's time (at least one pass).

use std::time::Instant;

use ldp_core::{FactorizationMechanism, LdpMechanism, StrategyMatrix};
use ldp_mechanisms::randomized_response;
use ldp_opt::{optimize_strategy, OptimizationResult, OptimizerConfig};
use ldp_workloads::{paper_suite, Workload};

use crate::probe::{self, OptProbe};
use crate::report::Gate;
use crate::stats::{geometric_mean, median};
use crate::trace::{Span, Trace};
use crate::{Ctx, Outcome};

/// Domain size of the suite.
const N: usize = 64;

/// Privacy budget.
const EPSILON: f64 = 1.0;

/// Users at which the expected per-query RMSE is reported.
const USERS: f64 = 100_000.0;

struct Setup {
    suite: Vec<Box<dyn Workload>>,
    /// Randomized response's worst-case total variance per user, per
    /// family (the `err_ratio` reference).
    rr: Vec<f64>,
}

fn setup() -> Setup {
    let suite = paper_suite(N);
    let rr = suite
        .iter()
        .map(|w| {
            let gram = w.gram();
            randomized_response(N, EPSILON, &gram)
                .expect("randomized response")
                .worst_case_variance(&gram, 1.0)
        })
        .collect();
    Setup { suite, rr }
}

/// Finite entries, non-negative, columns summing to one, and the ε-LDP
/// ratio bound within each row.
fn check_strategy(gate: &mut Gate, name: &str, s: &StrategyMatrix) {
    let q = s.matrix();
    let (m, n) = q.shape();
    gate.check(
        q.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0),
        || format!("optimize/{name}: strategy has a negative or non-finite entry"),
    );
    let worst = (0..n)
        .map(|u| ((0..m).map(|o| q[(o, u)]).sum::<f64>() - 1.0).abs())
        .fold(0.0, f64::max);
    gate.check(worst <= 1e-9, || {
        format!("optimize/{name}: a column sums to 1 ± {worst}")
    });
    gate.check(s.check_ldp(EPSILON).is_ok(), || {
        format!(
            "optimize/{name}: strategy spends ε = {} > {EPSILON}",
            s.epsilon()
        )
    });
}

/// Runs the `optimize` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let (Setup { suite, rr }, setup_s) = crate::repeat_setup(15, setup);
    let config = OptimizerConfig::new(ctx.pop_seed);

    let mut trace = Trace::new();
    let run = trace.open("ledger.run", None, 0);
    let timed = trace.open("ledger.timed", Some(run), 0);
    let started = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); suite.len()];
    let mut pass_times = Vec::new();
    let mut first: Vec<OptimizationResult> = Vec::new();
    let mut attempted = 0;
    let mut gate = Gate::default();
    // Whole passes only, while the next one is expected to end in time.
    while pass_times.is_empty()
        || started.elapsed().as_secs_f64() + median(&pass_times).unwrap_or(0.0) <= ctx.seconds
    {
        let pass = Instant::now();
        for (f, w) in suite.iter().enumerate() {
            let t = Instant::now();
            let gram = w.gram();
            let result = optimize_strategy(&gram, EPSILON, &config).expect("optimize");
            let end = Instant::now();
            attempted += 1;
            times[f].push(end.duration_since(t).as_secs_f64() * 1e3);
            if ctx.trace {
                trace.push(Span {
                    name: "opt.optimize",
                    start: trace.at(t),
                    end: trace.at(end),
                    parent: Some(timed),
                    request: attempted,
                });
            }
            match first.get(f) {
                None => first.push(result),
                Some(earlier) => gate.check(
                    earlier.strategy.matrix().as_slice() == result.strategy.matrix().as_slice(),
                    || format!("optimize/{}: a repeated run gave different bits", w.name()),
                ),
            }
        }
        pass_times.push(pass.elapsed().as_secs_f64());
    }
    trace.close(timed);

    let mut ratios = Vec::new();
    let mut rmses = Vec::new();
    let mut evaluations = 0;
    for (f, ((w, result), rr_var)) in suite.iter().zip(&first).zip(&rr).enumerate() {
        let name = w.name();
        check_strategy(&mut gate, &name, &result.strategy);
        let gram = w.gram();
        let mechanism =
            FactorizationMechanism::new_unchecked_privacy(result.strategy.clone(), &gram, EPSILON)
                .expect("assemble mechanism");
        let worst = mechanism.worst_case_variance(&gram, 1.0);
        ratios.push(worst / rr_var);
        rmses.push((worst * USERS / w.num_queries() as f64).sqrt());
        evaluations += result.evaluations;
        eprintln!(
            "# optimize/{name}: {} evaluations, objective {:.6e}, {:.1} ms median, err_ratio {:.4}",
            result.evaluations,
            result.objective,
            median(&times[f]).unwrap_or(0.0),
            worst / rr_var
        );
    }
    let family_ms: Vec<f64> = times
        .iter()
        .map(|t| median(t).expect("at least one pass"))
        .collect();
    let optimize_s = family_ms.iter().sum::<f64>() / 1e3;
    let err_ratio = geometric_mean(&ratios);
    eprintln!(
        "# optimize: {} passes, optimize_s {optimize_s:.3} (sum of per-family medians), err_ratio {err_ratio:.4}",
        pass_times.len()
    );

    let mut out = Outcome {
        attempted,
        ..Outcome::default()
    };
    out.gate = gate;
    out.setup_s = setup_s;
    out.throughput = evaluations as f64 / optimize_s;
    out.p50_ms = median(&family_ms).expect("six families");
    out.p99_ms = family_ms.iter().copied().fold(0.0, f64::max);
    out.rmse = geometric_mean(&rmses);

    if ctx.trace {
        let replay = trace.open("ledger.replay", Some(run), 0);
        let probes: Vec<OptProbe> = suite
            .iter()
            .zip(&first)
            .map(|(w, r)| {
                probe::stages(&mut trace, replay, w.as_ref(), r.strategy.matrix(), EPSILON)
            })
            .collect();
        trace.close(replay);
        let mut p = OptProbe::mean(&probes);
        p.evaluations = evaluations;

        let lbfgs_root = trace.open("probe", None, 0);
        let lbfgs = OptimizerConfig::lbfgs(ctx.pop_seed);
        let mut lbfgs_evaluations = 0;
        let mut objective_ratios = Vec::new();
        for (w, pgd) in suite.iter().zip(&first) {
            let gram = w.gram();
            let result = trace.time("opt.lbfgs", lbfgs_root, 0, || {
                optimize_strategy(&gram, EPSILON, &lbfgs).expect("L-BFGS")
            });
            lbfgs_evaluations += result.evaluations;
            objective_ratios.push(result.objective / pgd.objective);
            eprintln!(
                "# optimize/{}: L-BFGS {} evaluations, objective {:.6e} ({:.3}x PGD's)",
                w.name(),
                result.evaluations,
                result.objective,
                result.objective / pgd.objective
            );
        }
        trace.close(lbfgs_root);
        trace.close(run);

        let m = &mut out.layers;
        p.record(m);
        m.set("opt.err_ratio", err_ratio, "ratio");
        m.set("opt.slowest_family_ms", out.p99_ms, "ms");
        m.set("opt.lbfgs_evaluations", lbfgs_evaluations as f64, "count");
        m.set(
            "opt.lbfgs_objective_ratio",
            geometric_mean(&objective_ratios),
            "ratio",
        );
        out.finish_trace(ctx, trace, replay);
    }
    out.peak_rss_mb = crate::serving::peak_rss_mb();
    out
}
