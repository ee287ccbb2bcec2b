//! The ldp system benchmark: four workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <ingest|answer|optimize|sparse> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The server runs in this process; the load generator reaches every
//! layer only through its public functions and times those calls from
//! outside. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `ledger/README.md` for the workloads and the metric map.

// Wall-clock reads are this benchmark's whole job.
#![allow(clippy::disallowed_methods)]

mod dense;
mod load;
mod optimize;
mod probe;
mod report;
mod serving;
mod sparse;
mod stats;
mod trace;

use std::time::Instant;

use load::{Record, Summary};
use report::{result_line, Gate, Metrics};
use trace::{Span, Trace};

/// Most requests the traced replay re-runs.
const REPLAY_OPS: usize = 5000;

/// Wall-time cap of the traced replay, seconds.
const REPLAY_SECONDS: f64 = 5.0;

/// Submit frames kept for the `read_frame` decomposition probes.
const PROBE_FRAMES: usize = 512;

/// Seed of the report populations and of the optimizer. It is fixed so
/// the accuracy metrics compare like with like whatever the traffic seed.
const POPULATION_SEED: u64 = 7;

/// Client connections, capped at `nproc`.
const CONNECTIONS: usize = 2;

/// `LDP_THREADS`: one compute thread, so the connections alone use the
/// cores.
const LDP_THREADS: usize = 1;

/// Layers whose self-time share the traced run reports.
const LAYERS: [&str; 9] = [
    "serve",
    "core",
    "pipeline",
    "store",
    "workloads",
    "opt",
    "linalg",
    "sparse",
    "ledger",
];

/// Every per-layer metric with its unit, in output order. A layer the
/// workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire.encode_us", "us"),
    ("serve.wire.read_frame_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.checksum_us", "us"),
    ("serve.wire.copy_us", "us"),
    ("serve.wire.bytes_per_report", "bytes"),
    ("serve.client.wait_us", "us"),
    ("serve.p99_ms", "ms"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.ops", "count"),
    ("serve.failed", "count"),
    ("core.validate_ns_per_report", "ns"),
    ("core.absorb_ns_per_report", "ns"),
    ("pipeline.merge_us", "us"),
    ("pipeline.estimate_us", "us"),
    ("pipeline.answers_us", "us"),
    ("pipeline.query_us", "us"),
    ("pipeline.fresh_query_share", "ratio"),
    ("store.checkpoint_us", "us"),
    ("store.checkpoint_bytes", "bytes"),
    ("workloads.gram_ms", "ms"),
    ("opt.evaluations", "count"),
    ("opt.evaluate_ms", "ms"),
    ("opt.slowest_family_ms", "ms"),
    ("opt.project_ms", "ms"),
    ("opt.err_ratio", "ratio"),
    ("opt.lbfgs_evaluations", "count"),
    ("opt.lbfgs_objective_ratio", "ratio"),
    ("linalg.matmul_gflops", "GFLOP/s"),
    ("sparse.absorb_ns_per_report", "ns"),
    ("sparse.merge_us", "us"),
    ("sparse.distinct_keys", "count"),
    ("sparse.point_us", "us"),
    ("sparse.hh_ms", "ms"),
    ("sparse.hh_admit_ratio", "ratio"),
    ("sparse.hh_recall", "ratio"),
    ("share.serve", "ratio"),
    ("share.core", "ratio"),
    ("share.pipeline", "ratio"),
    ("share.store", "ratio"),
    ("share.workloads", "ratio"),
    ("share.opt", "ratio"),
    ("share.linalg", "ratio"),
    ("share.sparse", "ratio"),
    ("share.ledger", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: traffic mix, batch cuts, query choice.
    pub seed: u64,
    /// Seed of the report populations and the optimizer.
    pub pop_seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Client connections.
    pub connections: usize,
    /// Workload name.
    pub workload: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or optimizations) attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Correctness checks.
    pub gate: Gate,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Work per second.
    pub throughput: f64,
    /// Median round trip, ms.
    pub p50_ms: f64,
    /// Tail round trip, ms (a per-layer record: on the shared 2-core
    /// host the tail follows scheduler hiccups more than the system).
    pub p99_ms: f64,
    /// Per-query RMSE, counts.
    pub rmse: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
}

impl Outcome {
    /// Counts, work rate and latency percentiles of a serving run, taken
    /// as medians over windows of `width` seconds (see
    /// [`load::windowed`]); `work` is each record's contribution to the
    /// work rate, `timed` picks the requests the percentiles cover.
    pub fn serving(
        records: &[Record],
        width: f64,
        work: impl Fn(&Record) -> f64,
        timed: impl Fn(&Record) -> bool,
    ) -> Self {
        let summary = Summary::of(records);
        for (label, lat) in [
            ("all", &summary.all),
            ("submit", &summary.submit),
            ("query", &summary.query),
        ] {
            let mut lat = lat.clone();
            if let Some(m) = lat.median() {
                let t = lat.tail(0.99);
                eprintln!(
                    "# latency {label}: n = {}, p50 {:.4} ms, {}",
                    m.count,
                    m.value,
                    t.map_or("no tail percentile supported".to_string(), |t| format!(
                        "p{} {:.4} ms",
                        t.quantile * 100.0,
                        t.value
                    ))
                );
            }
        }
        let w = load::windowed(records, width, work, timed).unwrap_or_else(|| {
            eprintln!("# error: a {width} s window holds too few requests for a p99");
            std::process::exit(1)
        });
        eprintln!(
            "# {} windows of {width} s, at least {} requests each: median work {:.6e}/s, p50 {:.4} ms, p99 {:.4} ms",
            w.windows, w.min_requests, w.work_per_s, w.p50_ms, w.p99_ms
        );
        eprintln!("# per window (work/s, p50 ms, p99 ms): {:?}", w.each);
        Outcome {
            attempted: summary.attempted,
            failed: summary.failed,
            throughput: w.work_per_s,
            p50_ms: w.p50_ms,
            p99_ms: w.p99_ms,
            ..Outcome::default()
        }
    }

    /// Self-time shares over the replay, the overhead estimate, and the
    /// span file.
    pub fn finish_trace(&mut self, ctx: &Ctx, trace: Trace, replay_root: usize) {
        let replay = trace.spans()[replay_root].duration().max(1) as f64;
        let layers = trace.layer_self(replay_root);
        eprintln!(
            "# self time by layer over the traced replay ({:.3} s):",
            replay / 1e9
        );
        for layer in LAYERS {
            let share = layers.get(layer).copied().unwrap_or(0) as f64 / replay;
            eprintln!("#   {layer:<10} {:>6.2}%", share * 100.0);
            self.layers.set(&format!("share.{layer}"), share, "ratio");
        }
        // The timed phase records one entry per request whether traced or
        // not; what tracing adds there is turning entries into spans.
        // Measure that per request against the median round trip.
        let mut scratch = Trace::new();
        let reps = 100_000u64;
        let t = Instant::now();
        for i in 0..reps {
            scratch.push(Span {
                name: "serve.client.submit",
                start: i,
                end: i + 1,
                parent: Some(0),
                request: i,
            });
        }
        let per_span_ns = t.elapsed().as_nanos() as f64 / reps as f64;
        let overhead_pct = per_span_ns / (self.p50_ms * 1e6) * 100.0;
        self.layers.set("trace.overhead_pct", overhead_pct, "%");
        eprintln!(
            "# tracing overhead: {per_span_ns:.1} ns per request span, {overhead_pct:.5}% of the median round trip"
        );
        eprintln!(
            "# traced run end-to-end: throughput {:.6e}/s, p50 {:.4} ms, p99 {:.4} ms (compare with an untraced run of the same seed)",
            self.throughput, self.p50_ms, self.p99_ms
        );
        let path = std::path::Path::new(".ledger_run")
            .join(format!("trace-{}-seed{}.tsv", ctx.workload, ctx.seed));
        match std::fs::create_dir_all(".ledger_run").and_then(|_| trace.write_tsv(&path)) {
            Ok(()) => eprintln!(
                "# wrote {} spans to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("# could not write spans: {e}"),
        }
    }
}

/// Runs set-up `reps` times, dropping each result before the next, and
/// returns the last result with the median time.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("# set-up times (s): {times:?}");
    (
        last.expect("at least one set-up"),
        stats::median(&times).expect("at least one set-up"),
    )
}

/// Adds the timed phase under `parent`: one span per connection and one
/// span per client call, whose request id is its record index.
pub fn timed_spans(trace: &mut Trace, parent: usize, records: &[Record], connections: usize) {
    let bounds = |rs: &mut dyn Iterator<Item = &Record>| {
        rs.fold((u64::MAX, 0), |(s, e), r| (s.min(r.start), e.max(r.end)))
    };
    let (start, end) = bounds(&mut records.iter());
    let timed = trace.push(Span {
        name: "ledger.timed",
        start,
        end,
        parent: Some(parent),
        request: 0,
    });
    for conn in 0..connections {
        let (start, end) = bounds(&mut records.iter().filter(|r| r.conn == conn));
        let id = trace.push(Span {
            name: "ledger.conn",
            start,
            end,
            parent: Some(timed),
            request: conn as u64,
        });
        for (i, r) in records.iter().enumerate().filter(|(_, r)| r.conn == conn) {
            trace.push(Span {
                name: r.op.kind.span(),
                start: r.start,
                end: r.end,
                parent: Some(id),
                request: i as u64,
            });
        }
    }
}

/// The serve-layer metrics shared by the serving workloads. The wire
/// stage means are taken over the probed submits (`probed`, sorted
/// request ids), so encode, `read_frame`, decode, checksum and copy are
/// timed on the same frames.
pub fn serve_metrics(
    out: &mut Outcome,
    trace: &Trace,
    records: &[Record],
    probed: &[u64],
    submit_bytes: u64,
    submit_reports: u64,
) {
    let mean = |name: &str| serving::mean_us_for(trace, name, probed);
    let m = &mut out.layers;
    m.set("serve.p99_ms", out.p99_ms, "ms");
    m.set("serve.wire.encode_us", mean("serve.wire.encode"), "us");
    m.set(
        "serve.wire.read_frame_us",
        mean("serve.wire.read_frame"),
        "us",
    );
    m.set("serve.wire.decode_us", mean("probe.decode"), "us");
    m.set("serve.wire.checksum_us", mean("probe.checksum"), "us");
    m.set("serve.wire.copy_us", mean("probe.copy"), "us");
    m.set(
        "serve.wire.bytes_per_report",
        if submit_reports == 0 {
            0.0
        } else {
            submit_bytes as f64 / submit_reports as f64
        },
        "bytes",
    );
    m.set(
        "serve.client.wait_us",
        serving::client_wait_us(trace, records),
        "us",
    );
    let summary = Summary::of(records);
    let p50 = |l: &stats::Latencies| l.clone().median().map_or(0.0, |p| p.value);
    m.set("serve.submit_p50_ms", p50(&summary.submit), "ms");
    m.set("serve.query_p50_ms", p50(&summary.query), "ms");
    m.set("serve.ops", summary.attempted as f64, "count");
    m.set("serve.failed", summary.failed as f64, "count");
}

/// Prints where a submit's round trip goes, as shares of the mean round
/// trip of the probed submits (`probed`, sorted request ids), and the
/// in-memory versus TCP ingest rate.
pub fn wire_breakdown(trace: &Trace, records: &[Record], probed: &[u64]) {
    if probed.is_empty() {
        return;
    }
    let mean = |name: &str| serving::mean_us_for(trace, name, probed);
    let submits: Vec<&Record> = probed.iter().map(|&i| &records[i as usize]).collect();
    let rt = submits
        .iter()
        .map(|r| (r.end - r.start) as f64)
        .sum::<f64>()
        / submits.len() as f64
        / 1e3;
    let reports =
        submits.iter().map(|r| r.value.unwrap_or(0)).sum::<u64>() as f64 / submits.len() as f64;
    let stages = [
        ("client encode", mean("serve.wire.encode")),
        ("server read_frame", mean("serve.wire.read_frame")),
        ("  of which checksum", mean("probe.checksum")),
        ("  of which 2nd-buffer copy", mean("probe.copy")),
        ("server dispatch (u64 -> usize)", mean("serve.dispatch")),
        ("validate", mean("core.validate") + mean("sparse.validate")),
        ("absorb", mean("core.absorb") + mean("sparse.absorb")),
        ("reply encode", mean("serve.wire.encode_reply")),
        ("client reply read", mean("serve.wire.read_reply")),
    ];
    let in_process: f64 = stages
        .iter()
        .filter(|(name, _)| !name.starts_with(' '))
        .map(|(_, us)| us)
        .sum();
    eprintln!(
        "# submit round trip: mean {rt:.2} us over {} probed submits of {reports:.0} reports on average",
        submits.len()
    );
    for (name, us) in stages {
        eprintln!("#   {name:<32} {us:>10.2} us {:>6.1}%", us / rt * 100.0);
    }
    eprintln!(
        "#   {:<32} {:>10.2} us {:>6.1}%  (computed: socket, scheduling, the other connection)",
        "remainder",
        rt - in_process,
        (rt - in_process) / rt * 100.0
    );
    let memory_us = mean("core.validate") + mean("core.absorb") + mean("sparse.absorb");
    let memory_rate = reports / memory_us * 1e6;
    let tcp_rate = reports / rt * 1e6;
    eprintln!(
        "# in-memory validate+absorb {memory_rate:.4e} reports/s vs one connection's TCP round trip {tcp_rate:.4e} reports/s: {:.1}x",
        memory_rate / tcp_rate
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ldp-ledger --workload <ingest|answer|optimize|sparse> --seed N --seconds S \
         --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: Option<T>) -> T {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a valid value"))),
        None => default.unwrap_or_else(|| usage(&format!("{flag} is required"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = parse(&args, "--workload", None);
    let seed: u64 = parse(&args, "--seed", None);
    let seconds: f64 = parse(&args, "--seconds", None);
    let trace: u8 = parse(&args, "--trace", Some(0));
    if !seconds.is_finite() || seconds <= 0.0 || trace > 1 {
        usage("--seconds must be positive and --trace 0 or 1");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let connections = CONNECTIONS.min(nproc);
    let pop_seed = POPULATION_SEED;
    // Pinned before any compute pool exists; the pool reads it once.
    std::env::set_var("LDP_THREADS", LDP_THREADS.to_string());

    let ctx = Ctx {
        seed,
        pop_seed,
        seconds,
        trace: trace == 1,
        connections,
        workload: workload.clone(),
    };
    let context = format!(
        "# context: workload={workload} seed={seed} population_seed={pop_seed} seconds={seconds} \
         trace={trace} backend={} LDP_THREADS={LDP_THREADS} nproc={nproc} connections={connections} \
         server_workers={}",
        ldp_linalg::kernels::backend().as_str(),
        connections + 1
    );
    eprintln!("{context}");
    let out = match workload.as_str() {
        "ingest" => dense::run(dense::Mode::Ingest, &ctx),
        "answer" => dense::run(dense::Mode::Answer, &ctx),
        "optimize" => optimize::run(&ctx),
        "sparse" => sparse::run(&ctx),
        other => usage(&format!("unknown workload {other:?}")),
    };

    let mut metrics = Metrics::default();
    if ctx.trace {
        for &(name, unit) in PER_LAYER {
            metrics.set(name, out.layers.get(name).unwrap_or(0.0), unit);
        }
    } else {
        metrics.set("setup_s", out.setup_s, "s");
        metrics.set("throughput_per_s", out.throughput, "1/s");
        metrics.set("p50_ms", out.p50_ms, "ms");
        metrics.set("rmse", out.rmse, "count");
        metrics.set("peak_rss_mb", out.peak_rss_mb, "MiB");
    }
    for (name, value, unit) in metrics.entries() {
        eprintln!("# {name} = {value} {unit}");
    }
    for v in out.gate.violations() {
        eprintln!("# CORRECTNESS VIOLATION: {v}");
    }
    let correct = out.gate.passed() && out.failed == 0;
    println!("{context}");
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
