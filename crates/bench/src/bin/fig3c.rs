//! Figure 3c (Section 6.6): per-iteration time of strategy optimization
//! for increasing domain sizes.
//!
//! Matches the paper's protocol: `W = I` (the per-iteration cost depends
//! on `WᵀW` only through its size), `Q` a random `4n × n` strategy, and
//! the time of one objective + gradient evaluation plus one projection,
//! averaged over `--iters` iterations (paper: 15).
//!
//! ```text
//! cargo run --release -p ldp-bench --bin fig3c            # up to n = 2048
//! cargo run --release -p ldp-bench --bin fig3c -- --quick # up to n = 256
//! cargo run --release -p ldp-bench --bin fig3c -- --domains 16,64,256,1024,4096
//! ```
//!
//! Output: CSV `domain,m,seconds_per_iteration` on stdout. The paper's
//! claim is the O(n³) growth rate.

// Figure 3c measures wall-clock per-iteration time by design.
#![allow(clippy::disallowed_methods)]
use std::time::Instant;

use ldp_bench::report::{banner, fmt, write_csv};
use ldp_bench::Args;
use ldp_linalg::Matrix;
use ldp_opt::{objective, project_columns};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let default_domains: &[usize] = if quick {
        &[16, 32, 64, 128, 256]
    } else {
        &[16, 32, 64, 128, 256, 512, 1024, 2048]
    };
    let domains: Vec<usize> = args.get_list("domains", default_domains);
    let iters: usize = args.get_or("iters", 15);
    let seed: u64 = args.get_or("seed", 0);

    banner(
        "fig3c",
        &format!("domains={domains:?}, {iters} iterations each"),
    );

    let mut rows = Vec::new();
    for &n in &domains {
        let m = 4 * n;
        let gram = Matrix::identity(n);
        let epsilon = 1.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let z = vec![(1.0 + (-epsilon_f(epsilon)).exp()) / (2.0 * m as f64); m];
        let r = Matrix::from_fn(m, n, |_, _| rng.gen::<f64>());
        let (mut q, _) = project_columns(&r, &z, epsilon);

        // One warm-up iteration (page-in, allocator effects).
        let eval = objective::evaluate(&q, &gram);
        let step = 1e-3 / eval.gradient.max_abs().max(1e-12);

        let start = Instant::now();
        for _ in 0..iters {
            let eval = objective::evaluate(&q, &gram);
            let stepped = &q - &eval.gradient.scaled(step);
            let (q_next, _) = project_columns(&stepped, &z, epsilon);
            q = q_next;
        }
        let per_iter = start.elapsed().as_secs_f64() / iters as f64;
        banner("fig3c", &format!("n={n}: {per_iter:.4}s per iteration"));
        rows.push(vec![format!("{n}"), format!("{m}"), fmt(per_iter)]);
    }
    write_csv(
        &mut std::io::stdout().lock(),
        &["domain", "m", "seconds_per_iteration"],
        &rows,
    );
}

/// Keeps the `-epsilon` literal readable above (avoids a unary-minus on a
/// method call chain).
fn epsilon_f(e: f64) -> f64 {
    e
}
