//! The `sparse` workload: one server hosting an open-domain Hadamard
//! deployment (`url`) and an OLH deployment (`app`). Both connections
//! submit pre-randomized Zipf-keyed reports, interleaved with point
//! queries (3%), top-10 heavy-hitter mining over a fixed candidate list
//! (1.5%), and, from the first connection, checkpoints (1%).

use std::time::Instant;

use ldp_serve::{Message, ServeClient, WireError};
use ldp_sparse::{
    encode_sparse_checkpoint, key_hash, SparseCheckpoint, SparseDeployment, SparseIngestor,
    SparseShard,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{closed_loop, Cursor, Kind, Op, Record, Traffic};
use crate::serving::{self, Population, RunDir, Wire};
use crate::trace::Trace;
use crate::{Ctx, Outcome};

/// Privacy budget of both oracles.
const EPSILON: f64 = 2.0;

/// Hadamard bucket bits: 65 536 buckets.
const BITS: u32 = 16;

/// Admission z-score for heavy hitters (and the decoy check).
const Z: f64 = 5.0;

/// Heavy hitters mined per request.
const TOP: usize = 10;

/// One hosted open-domain deployment and its inputs.
struct Hosted {
    name: &'static str,
    deployment: SparseDeployment,
    pop: Population,
    /// Key hashes of ranks 1, 2, … of the key universe.
    keys: Vec<u64>,
    /// Reports per rank in one pass.
    counts: Vec<u64>,
    /// Mined candidates: the head of the key universe plus decoys.
    candidates: Vec<u64>,
    /// Keys that are never reported.
    decoys: Vec<u64>,
    /// Point-query keys are drawn from ranks `1..=point_ranks`.
    point_ranks: usize,
    cursor: Cursor,
}

struct Spec {
    name: &'static str,
    olh: bool,
    reports: usize,
    universe: usize,
    zipf: f64,
    head: usize,
    decoys: usize,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "url",
        olh: false,
        reports: 1 << 21,
        universe: 100_000,
        zipf: 1.5,
        head: 1000,
        decoys: 20,
    },
    Spec {
        name: "app",
        olh: true,
        reports: 1 << 16,
        universe: 10_000,
        zipf: 1.2,
        head: 20,
        decoys: 5,
    },
];

fn hosted(spec: &Spec, prng: &mut StdRng, trng: &mut StdRng) -> Hosted {
    let deployment = if spec.olh {
        SparseDeployment::olh(spec.name, EPSILON)
    } else {
        SparseDeployment::hadamard(spec.name, EPSILON, BITS)
    }
    .expect("valid oracle parameters");
    let keys: Vec<u64> = (1..=spec.universe)
        .map(|rank| key_hash(&format!("{}/item/{rank}", spec.name)))
        .collect();
    let mut cdf = Vec::with_capacity(spec.universe);
    let mut acc = 0.0;
    for rank in 1..=spec.universe {
        acc += (rank as f64).powf(-spec.zipf);
        cdf.push(acc);
    }
    let client = deployment.client();
    let mut counts = vec![0u64; spec.universe];
    let reports: Vec<u64> = (0..spec.reports)
        .map(|_| {
            let r: f64 = prng.gen_range(0.0..acc);
            let rank = cdf.partition_point(|&c| c < r).min(spec.universe - 1);
            counts[rank] += 1;
            client.respond_hashed(keys[rank], prng)
        })
        .collect();
    let decoys: Vec<u64> = (0..spec.decoys)
        .map(|i| key_hash(&format!("{}/decoy/{i}", spec.name)))
        .collect();
    let mut candidates = keys[..spec.head].to_vec();
    candidates.extend_from_slice(&decoys);
    let pop = Population::new(reports, || serving::log_uniform(64, 8192, trng));
    Hosted {
        name: spec.name,
        deployment,
        pop,
        keys,
        counts,
        candidates,
        decoys,
        point_ranks: spec.head.min(100),
        cursor: Cursor::default(),
    }
}

struct Setup {
    hosted: Vec<Hosted>,
    server: ldp_serve::Server,
}

fn setup(ctx: &Ctx, dir: &RunDir) -> Setup {
    let mut prng = StdRng::seed_from_u64(ctx.pop_seed);
    let mut trng = StdRng::seed_from_u64(ctx.seed);
    let hosted: Vec<Hosted> = SPECS
        .iter()
        .map(|spec| hosted(spec, &mut prng, &mut trng))
        .collect();
    let mut server = serving::bind_server(dir.path(), ctx.connections);
    for h in &hosted {
        server
            .host_sparse(h.name, h.deployment.clone())
            .expect("host sparse deployment");
    }
    Setup { hosted, server }
}

struct SparseTraffic<'a> {
    hosted: &'a [Hosted],
}

impl Traffic for SparseTraffic<'_> {
    fn mix(&self, conn: usize) -> Vec<(Kind, usize, u32)> {
        let mut mix = vec![
            (Kind::SubmitSparse, 0, 161),
            (Kind::SubmitSparse, 1, 30),
            (Kind::Point, 0, 4),
            (Kind::Point, 1, 2),
            (Kind::HeavyHitters, 0, 2),
            (Kind::HeavyHitters, 1, 1),
        ];
        // Checkpoints come from one connection only (see the dense
        // traffic and the README).
        if conn == 0 {
            mix[0].2 -= 2;
            mix.extend([(Kind::Checkpoint, 0, 1), (Kind::Checkpoint, 1, 1)]);
        }
        mix
    }

    fn arg(&self, kind: Kind, target: usize, rng: &mut StdRng) -> usize {
        let h = &self.hosted[target];
        match kind {
            Kind::SubmitSparse => h.cursor.next() as usize,
            Kind::Point => rng.gen_range(0..h.point_ranks),
            _ => 0,
        }
    }

    fn exec(&self, op: &Op, client: &mut ServeClient) -> Result<u64, WireError> {
        let h = &self.hosted[op.target];
        match op.kind {
            Kind::SubmitSparse => client
                .submit_sparse(h.name, h.pop.batch(op.arg as u64))
                .map(|a| a.accepted),
            Kind::Point => client
                .point_hashed(h.name, h.keys[op.arg])
                .map(|a| a.reports),
            Kind::HeavyHitters => client
                .heavy_hitters(h.name, &h.candidates, TOP, Z)
                .map(|a| a.reports),
            Kind::Checkpoint => client.checkpoint(h.name).map(|a| a.bytes),
            other => unreachable!("sparse traffic never plans {other:?}"),
        }
    }
}

/// One pass of `h`'s population absorbed sequentially, as sorted pairs.
fn one_pass(h: &Hosted) -> Vec<(u64, u64)> {
    let mut shard = SparseShard::new();
    for g in 0..h.pop.batches.len() as u64 {
        shard.absorb_batch(h.pop.batch(g));
    }
    shard.to_sorted()
}

/// Runs the `sparse` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let dir = RunDir::create("sparse").expect("create run directory");
    let (Setup { hosted, server }, setup_s) = crate::repeat_setup(5, || setup(ctx, &dir));
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();
    let traffic = SparseTraffic { hosted: &hosted };

    // The run's spans and the records share one clock epoch.
    let mut trace = Trace::new();
    let run = trace.open("ledger.run", None, 0);
    let records = closed_loop(
        addr,
        ctx.connections,
        ctx.seconds,
        ctx.seed,
        trace.epoch(),
        &traffic,
    );

    // Untimed: complete the passes and read the final state back.
    let mut control = ServeClient::connect(addr).expect("control connection");
    let mut finals = Vec::new();
    for h in &hosted {
        let passes = serving::top_up(&mut control, h.name, &h.pop, &h.cursor, true);
        let ack = control.checkpoint(h.name).expect("final checkpoint");
        finals.push((
            passes,
            ack.epoch,
            serving::read_snapshot(dir.path(), h.name),
        ));
    }
    let url = &hosted[0];
    let mined = control
        .heavy_hitters(url.name, &url.candidates, TOP, Z)
        .expect("final heavy hitters");
    let mut truth: Vec<usize> = (0..url.keys.len()).collect();
    truth.sort_by_key(|&rank| (std::cmp::Reverse(url.counts[rank]), rank));
    truth.truncate(TOP);
    let mut point_sq = 0.0;
    for &rank in &truth {
        let a = control
            .point_hashed(url.name, url.keys[rank])
            .expect("final point query");
        let passes = finals[0].0 as f64;
        point_sq += (a.value / passes - url.counts[rank] as f64).powi(2);
    }
    drop(control);
    serving::shutdown(handle);

    let mut out = Outcome::serving(
        &records,
        2.0,
        |r| match r.value {
            Some(v) if r.op.kind == Kind::SubmitSparse => v as f64,
            _ => 0.0,
        },
        |_| true,
    );
    out.setup_s = setup_s;
    out.rmse = (point_sq / TOP as f64).sqrt();
    let hits = truth
        .iter()
        .filter(|&&rank| mined.hitters.iter().any(|h| h.key_hash == url.keys[rank]))
        .count();
    let recall = hits as f64 / TOP as f64;

    let mut distinct = 0;
    for (h, (passes, epoch, snapshot)) in hosted.iter().zip(&finals) {
        // Gate: TCP state equals a sequential replay of the same batches.
        // Every pass holds the same reports, so `passes` passes count each
        // pair `passes` times.
        let pairs = one_pass(h);
        distinct += pairs.len();
        let expected = encode_sparse_checkpoint(&SparseCheckpoint {
            epoch: *epoch,
            batches: passes * h.pop.batches.len() as u64,
            binding: h.deployment.binding(),
            reports: passes * h.pop.reports.len() as u64,
            pairs: pairs.iter().map(|&(r, c)| (r, c * passes)).collect(),
        });
        out.gate.check(*snapshot == expected, || {
            format!(
                "sparse/{}: snapshot over TCP ({} bytes) differs from the sequential replay ({} bytes)",
                h.name,
                snapshot.len(),
                expected.len()
            )
        });
        // Gate: no never-reported key clears z·σ on one pass of data.
        let admitted = h
            .deployment
            .heavy_hitters(&pairs, &h.decoys, h.decoys.len(), Z);
        out.gate.check(admitted.is_empty(), || {
            format!(
                "sparse/{}: {} decoy keys cleared the {Z}σ admission threshold",
                h.name,
                admitted.len()
            )
        });
        eprintln!(
            "# sparse/{}: {passes} passes of {} reports, {} distinct reports",
            h.name,
            h.pop.reports.len(),
            pairs.len()
        );
    }
    eprintln!(
        "# sparse/url: recall@{TOP} {recall} ({hits}/{TOP} of the true top-{TOP} mined), top-{TOP} point rmse {:.1}",
        out.rmse
    );

    if ctx.trace {
        traced(ctx, (trace, run), &hosted, &records, &dir, &mut out);
        let m = &mut out.layers;
        m.set("sparse.hh_recall", recall, "ratio");
        m.set("sparse.distinct_keys", distinct as f64, "count");
    }
    out.peak_rss_mb = serving::peak_rss_mb();
    out
}

/// Replays the run's own requests through the stage functions.
fn traced(
    ctx: &Ctx,
    (mut trace, run): (Trace, usize),
    hosted: &[Hosted],
    records: &[Record],
    dir: &RunDir,
    out: &mut Outcome,
) {
    crate::timed_spans(&mut trace, run, records, ctx.connections);
    let replay_root = trace.open("ledger.replay", Some(run), 0);
    let mut central: Vec<SparseIngestor> = hosted.iter().map(|h| h.deployment.ingestor()).collect();
    let mut shards: Vec<Vec<(SparseShard, u64)>> = hosted
        .iter()
        .map(|_| {
            (0..ctx.connections)
                .map(|_| (SparseShard::new(), 0))
                .collect()
        })
        .collect();
    let mut frames = Vec::new();
    let (mut submit_bytes, mut submit_reports) = (0u64, 0u64);
    let (mut admitted, mut offered) = (0usize, 0usize);
    let mut checkpoint_bytes = 0usize;
    let snapshot_path = dir.path().join("replay.ldpc");
    let started = Instant::now();
    for (i, rec) in records.iter().enumerate() {
        if i >= crate::REPLAY_OPS || started.elapsed().as_secs_f64() > crate::REPLAY_SECONDS {
            break;
        }
        let req = i as u64;
        let h = &hosted[rec.op.target];
        let name = h.name.to_string();
        let op = trace.open("ledger.op", Some(replay_root), req);
        let mut wire = Wire {
            trace: &mut trace,
            op,
            req,
        };
        if rec.op.kind == Kind::SubmitSparse {
            let batch = h.pop.batch(rec.op.arg as u64);
            let frame = wire.send(|| Message::SubmitSparse {
                deployment: name,
                reports: batch.to_vec(),
            });
            let Message::SubmitSparse { reports, .. } = wire.receive(&frame) else {
                unreachable!("a sparse submit frame decodes to a sparse submit")
            };
            let oracle = h.deployment.oracle();
            let valid = wire.trace.time("sparse.validate", op, req, || {
                reports.iter().all(|&r| oracle.validate_report(r))
            });
            assert!(valid, "replayed reports are valid");
            let (shard, batches) = &mut shards[rec.op.target][rec.conn];
            wire.trace
                .time("sparse.absorb", op, req, || shard.absorb_batch(&reports));
            *batches += 1;
            wire.reply(&Message::SubmitOk {
                accepted: reports.len() as u64,
                pending: shard.reports(),
            });
            submit_bytes += frame.len() as u64;
            submit_reports += reports.len() as u64;
            if frames.len() < crate::PROBE_FRAMES {
                frames.push((req, frame));
            }
        } else {
            let request = match rec.op.kind {
                Kind::Point => Message::SparsePoint {
                    deployment: name,
                    key_hash: h.keys[rec.op.arg],
                },
                Kind::HeavyHitters => Message::HeavyHitters {
                    deployment: name,
                    k: TOP as u64,
                    z: Z,
                    candidates: h.candidates.clone(),
                },
                _ => Message::Checkpoint { deployment: name },
            };
            let frame = wire.send(|| request);
            let request = wire.receive(&frame);
            let central = &mut central[rec.op.target];
            for (shard, batches) in shards[rec.op.target].iter_mut() {
                wire.trace
                    .time("sparse.merge", op, req, || central.absorb(shard, *batches));
                *batches = 0;
            }
            let reply = match request {
                Message::SparsePoint { key_hash, .. } => {
                    wire.trace
                        .time("sparse.pairs", op, req, || central.pairs().len());
                    let value = wire.trace.time("sparse.point", op, req, || {
                        h.deployment.point(central.pairs(), key_hash)
                    });
                    Message::QueryOk {
                        value,
                        variance: 0.0,
                        stddev: 0.0,
                        reports: central.reports(),
                    }
                }
                Message::HeavyHitters { candidates, .. } => {
                    wire.trace
                        .time("sparse.pairs", op, req, || central.pairs().len());
                    let hitters = wire.trace.time("sparse.hh", op, req, || {
                        h.deployment
                            .heavy_hitters(central.pairs(), &candidates, TOP, Z)
                    });
                    admitted += hitters.len();
                    offered += candidates.len();
                    Message::HeavyHittersOk {
                        reports: central.reports(),
                        keys: hitters.iter().map(|x| x.key_hash).collect(),
                        estimates: hitters.iter().map(|x| x.estimate).collect(),
                        stddevs: hitters.iter().map(|x| x.stddev).collect(),
                    }
                }
                _ => {
                    let record = wire.trace.time("store.checkpoint", op, req, || {
                        let reports = central.reports();
                        let (epoch, batches, binding, pairs) = central.checkpoint();
                        encode_sparse_checkpoint(&SparseCheckpoint {
                            epoch,
                            batches,
                            binding,
                            reports,
                            pairs,
                        })
                    });
                    wire.trace.time("store.write", op, req, || {
                        std::fs::write(&snapshot_path, &record).expect("write snapshot")
                    });
                    checkpoint_bytes = record.len();
                    Message::CheckpointOk {
                        epoch: central.epoch(),
                        bytes: record.len() as u64,
                    }
                }
            };
            wire.reply(&reply);
        }
        trace.close(op);
    }
    trace.close(replay_root);
    let probed: Vec<u64> = frames.iter().map(|(req, _)| *req).collect();
    serving::probe_frames(&mut trace, &frames);
    trace.close(run);

    crate::serve_metrics(out, &trace, records, &probed, submit_bytes, submit_reports);
    let m = &mut out.layers;
    let absorb_ns = serving::total_ns(&trace, "sparse.absorb") as f64;
    m.set(
        "sparse.absorb_ns_per_report",
        if submit_reports == 0 {
            0.0
        } else {
            absorb_ns / submit_reports as f64
        },
        "ns",
    );
    m.set("sparse.merge_us", trace.mean_us("sparse.merge"), "us");
    m.set("sparse.point_us", trace.mean_us("sparse.point"), "us");
    m.set("sparse.hh_ms", trace.mean_us("sparse.hh") / 1e3, "ms");
    m.set(
        "sparse.hh_admit_ratio",
        if offered == 0 {
            0.0
        } else {
            admitted as f64 / offered as f64
        },
        "ratio",
    );
    m.set(
        "store.checkpoint_us",
        trace.mean_us("store.checkpoint"),
        "us",
    );
    m.set("store.checkpoint_bytes", checkpoint_bytes as f64, "bytes");
    m.set(
        "pipeline.fresh_query_share",
        serving::fresh_query_share(records),
        "ratio",
    );
    crate::wire_breakdown(&trace, records, &probed);
    out.finish_trace(ctx, trace, replay_root);
}
