//! What the three serving workloads share: report populations cut into
//! batches, the in-process server, the run directory, the top-up to
//! whole passes, and the wire legs of the traced replay.

use std::fs;
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};

use ldp_linalg::stablehash::fnv1a64;
use ldp_serve::wire::{decode_frame, encode_frame, read_frame};
use ldp_serve::{Message, ServeClient, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::Rng;

use crate::load::{Cursor, Record};
use crate::trace::Trace;

/// Pre-randomized reports cut into batches. Submits walk the batches
/// cyclically: global batch number `g` is batch `g mod len`, so `k`
/// whole passes hold every report exactly `k` times.
#[derive(Debug)]
pub struct Population {
    /// The reports, in submission order.
    pub reports: Vec<u64>,
    /// Batch boundaries, covering `reports` in order.
    pub batches: Vec<Range<usize>>,
}

/// A size drawn log-uniformly from `lo..=hi`.
pub fn log_uniform(lo: usize, hi: usize, rng: &mut StdRng) -> usize {
    let x: f64 = rng.gen_range((lo as f64).ln()..((hi + 1) as f64).ln());
    (x.exp() as usize).clamp(lo, hi)
}

impl Population {
    /// Cuts `reports` into batches whose sizes are drawn by `size`.
    pub fn new(reports: Vec<u64>, mut size: impl FnMut() -> usize) -> Self {
        let mut batches = Vec::new();
        let mut at = 0;
        while at < reports.len() {
            let end = (at + size().max(1)).min(reports.len());
            batches.push(at..end);
            at = end;
        }
        Self { reports, batches }
    }

    /// The reports of global batch number `g`.
    pub fn batch(&self, g: u64) -> &[u64] {
        &self.reports[self.batches[(g % self.batches.len() as u64) as usize].clone()]
    }

    /// Whole passes needed to cover `taken` batch numbers (at least one).
    pub fn passes(&self, taken: u64) -> u64 {
        taken.div_ceil(self.batches.len() as u64).max(1)
    }
}

/// A scratch directory for snapshots and the trace, under the current
/// directory, removed when dropped.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.ledger_run/<tag>-<pid>`.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let path = Path::new(".ledger_run").join(format!("{tag}-{}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Removes the parent too when no other run is using it.
        let _ = fs::remove_dir(".ledger_run");
    }
}

/// Binds a server on an ephemeral port with persistence into `dir` and
/// one worker per connection plus one for the control connection, so no
/// connection waits for a worker.
pub fn bind_server(dir: &Path, connections: usize) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: Some(dir.to_path_buf()),
        workers: connections + 1,
    })
    .expect("bind server")
}

/// Sends `Shutdown` and waits for the server to exit.
pub fn shutdown(handle: ServerHandle) {
    let mut client = ServeClient::connect(handle.addr()).expect("connect for shutdown");
    client.shutdown().expect("shutdown request");
    drop(client);
    handle.join().expect("server exits cleanly");
}

/// Submits the batches left in the current pass over `client`, so the
/// server holds whole passes. Returns the pass count.
pub fn top_up(
    client: &mut ServeClient,
    name: &str,
    pop: &Population,
    cursor: &Cursor,
    sparse: bool,
) -> u64 {
    let passes = pop.passes(cursor.taken());
    let goal = passes * pop.batches.len() as u64;
    while cursor.taken() < goal {
        let batch = pop.batch(cursor.next());
        let ack = if sparse {
            client.submit_sparse(name, batch)
        } else {
            client.submit(name, batch)
        };
        ack.expect("top-up submit");
    }
    passes
}

/// Reads the snapshot the server persisted for deployment `name`.
pub fn read_snapshot(dir: &Path, name: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    fs::File::open(dir.join(format!("{name}.ldpc")))
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .expect("read persisted snapshot");
    bytes
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Share of answer-reading requests that saw reports no earlier query
/// saw, taken in reply order per deployment.
pub fn fresh_query_share(records: &[Record]) -> f64 {
    let mut queries: Vec<&Record> = records
        .iter()
        .filter(|r| r.op.kind.is_query() && r.value.is_some())
        .collect();
    if queries.is_empty() {
        return 0.0;
    }
    queries.sort_by_key(|r| r.end);
    let mut seen: Vec<u64> = Vec::new();
    let mut fresh = 0;
    for r in &queries {
        if seen.len() <= r.op.target {
            seen.resize(r.op.target + 1, 0);
        }
        let reports = r.value.unwrap_or(0);
        if reports > seen[r.op.target] {
            fresh += 1;
            seen[r.op.target] = reports;
        }
    }
    fresh as f64 / queries.len() as f64
}

/// The wire legs of one replayed request: client encode, server read,
/// server reply encode, client reply read. Each leg is a span under the
/// request's op span.
pub struct Wire<'t> {
    /// The trace receiving the spans.
    pub trace: &'t mut Trace,
    /// The op span.
    pub op: usize,
    /// Request id.
    pub req: u64,
}

impl Wire<'_> {
    /// Encodes the request as the client does; returns its frame.
    pub fn send(&mut self, request: impl FnOnce() -> Message) -> Vec<u8> {
        self.trace.time("serve.wire.encode", self.op, self.req, || {
            encode_frame(&request())
        })
    }

    /// Reads the request frame as the server does.
    pub fn receive(&mut self, frame: &[u8]) -> Message {
        self.trace
            .time("serve.wire.read_frame", self.op, self.req, || {
                read_frame(&mut &frame[..])
                    .expect("replayed frame reads")
                    .expect("replayed frame is not empty")
            })
    }

    /// Encodes the reply and reads it back as the client does.
    pub fn reply(&mut self, reply: &Message) {
        let frame = self
            .trace
            .time("serve.wire.encode_reply", self.op, self.req, || {
                encode_frame(reply)
            });
        self.trace
            .time("serve.wire.read_reply", self.op, self.req, || {
                read_frame(&mut &frame[..]).expect("reply frame reads")
            });
    }
}

/// Times the pieces of `read_frame` separately on recorded request
/// frames, under a `probe` root outside the replay: the FNV checksum over
/// header and payload, `decode_frame` on the same bytes, and the copy of
/// header and payload into a second buffer that `read_frame` makes.
pub fn probe_frames(trace: &mut Trace, frames: &[(u64, Vec<u8>)]) {
    let root = trace.open("probe", None, 0);
    for (req, frame) in frames {
        let sealed = &frame[..frame.len() - 8];
        trace.time("probe.checksum", root, *req, || {
            std::hint::black_box(fnv1a64(std::hint::black_box(sealed)))
        });
        trace.time("probe.decode", root, *req, || {
            std::hint::black_box(decode_frame(frame).expect("recorded frame decodes"))
        });
        trace.time("probe.copy", root, *req, || {
            let mut copy = Vec::with_capacity(sealed.len());
            copy.extend_from_slice(&sealed[..16]);
            copy.extend_from_slice(&sealed[16..]);
            std::hint::black_box(copy)
        });
    }
    trace.close(root);
}

/// Median over replayed requests of the client's wait: round trip minus
/// client encode minus client reply read.
pub fn client_wait_us(trace: &Trace, records: &[Record]) -> f64 {
    let mut enc = vec![0u64; records.len()];
    let mut dec = vec![0u64; records.len()];
    let mut seen = vec![false; records.len()];
    for s in trace.spans() {
        let i = s.request as usize;
        if i >= records.len() {
            continue;
        }
        match s.name {
            "serve.wire.encode" => {
                enc[i] += s.duration();
                seen[i] = true;
            }
            "serve.wire.read_reply" => dec[i] += s.duration(),
            _ => {}
        }
    }
    let waits: Vec<f64> = (0..records.len())
        .filter(|&i| seen[i] && records[i].value.is_some())
        .map(|i| {
            let rt = records[i].end - records[i].start;
            rt.saturating_sub(enc[i] + dec[i]) as f64 / 1e3
        })
        .collect();
    crate::stats::median(&waits).unwrap_or(0.0)
}

/// Mean duration in µs of spans called `name` whose request id is in
/// `requests` (sorted).
pub fn mean_us_for(trace: &Trace, name: &str, requests: &[u64]) -> f64 {
    trace.mean_us_where(name, |r| requests.binary_search(&r).is_ok())
}

/// Total ns of spans called `name`.
pub fn total_ns(trace: &Trace, name: &str) -> u64 {
    trace
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration())
        .sum()
}
