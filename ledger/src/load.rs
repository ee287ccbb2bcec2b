//! The closed-loop load generator: each connection sends its next
//! request only after the previous reply arrived, and every round trip
//! is timed at the client.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ldp_serve::{ServeClient, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Latencies;

/// The request kinds the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Dense report batch.
    Submit,
    /// Ad-hoc scalar query.
    Query,
    /// Full deployed-workload evaluation.
    Answers,
    /// Merge barrier plus persisted snapshot.
    Checkpoint,
    /// Open-domain report batch.
    SubmitSparse,
    /// Open-domain point query.
    Point,
    /// Top-k heavy-hitter mining.
    HeavyHitters,
}

impl Kind {
    /// Span name of a client call of this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Submit => "serve.client.submit",
            Kind::Query => "serve.client.query",
            Kind::Answers => "serve.client.answers",
            Kind::Checkpoint => "serve.client.checkpoint",
            Kind::SubmitSparse => "serve.client.submit_sparse",
            Kind::Point => "serve.client.point",
            Kind::HeavyHitters => "serve.client.heavy_hitters",
        }
    }

    /// True for report-carrying kinds.
    pub fn is_submit(self) -> bool {
        matches!(self, Kind::Submit | Kind::SubmitSparse)
    }

    /// True for kinds that read an answer.
    pub fn is_query(self) -> bool {
        matches!(
            self,
            Kind::Query | Kind::Answers | Kind::Point | Kind::HeavyHitters
        )
    }
}

/// One planned request: its kind, the deployment it targets (index into
/// the workload's deployments) and a workload-defined argument (a batch
/// id or a query id).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Request kind.
    pub kind: Kind,
    /// Deployment index.
    pub target: usize,
    /// Batch id or query id.
    pub arg: usize,
}

/// What one request did, as seen by the client.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The request.
    pub op: Op,
    /// Connection that sent it.
    pub conn: usize,
    /// Send time, ns since the run epoch.
    pub start: u64,
    /// Reply time, ns since the run epoch.
    pub end: u64,
    /// Reports acknowledged (submits) or reports behind the answer
    /// (queries); `None` when the request failed.
    pub value: Option<u64>,
}

/// A workload's traffic: the request mix of each connection and how a
/// request is sent.
pub trait Traffic: Sync {
    /// One deck of connection `conn`'s requests: how many of each
    /// `(kind, target)` it holds. A connection deals its deck in a seeded
    /// shuffled order, then reshuffles, so every stretch of a deck's
    /// length holds the mix exactly.
    fn mix(&self, conn: usize) -> Vec<(Kind, usize, u32)>;
    /// The argument of a request (a batch id or a query id).
    fn arg(&self, kind: Kind, target: usize, rng: &mut StdRng) -> usize;
    /// Sends `op` and returns the value a [`Record`] keeps.
    fn exec(&self, op: &Op, client: &mut ServeClient) -> Result<u64, WireError>;
    /// Pause of connection `conn` after a reply before its next request.
    fn think(&self, _conn: usize) -> Duration {
        Duration::ZERO
    }
}

/// A connection's shuffled deck of `(kind, target)` requests.
#[derive(Debug)]
pub struct Deck {
    cards: Vec<(Kind, usize)>,
    next: usize,
}

impl Deck {
    /// A deck holding `mix`.
    pub fn new(mix: &[(Kind, usize, u32)]) -> Self {
        let cards: Vec<(Kind, usize)> = mix
            .iter()
            .flat_map(|&(kind, target, n)| std::iter::repeat_n((kind, target), n as usize))
            .collect();
        assert!(
            !cards.is_empty(),
            "a traffic mix holds at least one request"
        );
        let next = cards.len();
        Self { cards, next }
    }

    /// The next card, reshuffling when the deck is spent.
    pub fn deal(&mut self, rng: &mut StdRng) -> (Kind, usize) {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Records reserved per connection.
const RECORD_CAPACITY: usize = 1 << 20;

/// Per-connection RNG seed: the workload seed mixed with the connection.
pub fn conn_seed(seed: u64, conn: usize) -> u64 {
    ldp_sparse::mix(seed ^ 0x6c65_6467_6572, conn as u64 + 1)
}

/// Runs `connections` closed loops against `addr` for `seconds`, each
/// connection with its own seeded RNG. Returns every connection's
/// records, sorted by send time.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    seconds: f64,
    seed: u64,
    epoch: Instant,
    traffic: &dyn Traffic,
) -> Vec<Record> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let at = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let per_conn: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(conn_seed(seed, conn));
                    let mut client = ServeClient::connect(addr).expect("connect to server");
                    // Reserved up front so the vector never doubles and
                    // copies mid-run, which would show in peak memory.
                    let mut records = Vec::with_capacity(RECORD_CAPACITY);
                    let mut deck = Deck::new(&traffic.mix(conn));
                    loop {
                        let (kind, target) = deck.deal(&mut rng);
                        let arg = traffic.arg(kind, target, &mut rng);
                        let op = Op { kind, target, arg };
                        let start = Instant::now();
                        let outcome = traffic.exec(&op, &mut client);
                        let end = Instant::now();
                        let broken =
                            matches!(outcome, Err(ref e) if !matches!(e, WireError::Remote { .. }));
                        if let Err(e) = &outcome {
                            eprintln!("# request {:?} on connection {conn} failed: {e}", op.kind);
                        }
                        records.push(Record {
                            op,
                            conn,
                            start: at(start),
                            end: at(end),
                            value: outcome.ok(),
                        });
                        if broken || end >= deadline {
                            break;
                        }
                        let pause = traffic.think(conn);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut records: Vec<Record> = per_conn.into_iter().flatten().collect();
    records.sort_by_key(|r| (r.start, r.conn));
    records
}

/// A shared cursor over a population's batches: every submit takes the
/// next batch id, so after the run the ids taken are exactly `0..taken`.
#[derive(Debug, Default)]
pub struct Cursor(AtomicU64);

impl Cursor {
    /// The next global batch number.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Batch numbers handed out so far.
    pub fn taken(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Round-trip latencies and counts of one run.
#[derive(Debug, Default)]
pub struct Summary {
    /// Latencies of every request.
    pub all: Latencies,
    /// Latencies of report-carrying requests.
    pub submit: Latencies,
    /// Latencies of answer-reading requests.
    pub query: Latencies,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (error frame or transport error).
    pub failed: u64,
}

impl Summary {
    /// Tallies `records`; a failed request is a miss in every latency
    /// set it belongs to.
    pub fn of(records: &[Record]) -> Self {
        let mut s = Summary::default();
        for r in records {
            s.attempted += 1;
            let kind = r.op.kind;
            let mut sets = vec![&mut s.all];
            if kind.is_submit() {
                sets.push(&mut s.submit);
            } else if kind.is_query() {
                sets.push(&mut s.query);
            }
            match r.value {
                Some(_) => {
                    let ms = (r.end - r.start) as f64 / 1e6;
                    sets.into_iter().for_each(|l| l.record(ms));
                }
                None => {
                    sets.into_iter().for_each(|l| l.miss());
                    s.failed += 1;
                }
            }
        }
        s
    }
}

/// Steady end-to-end figures of a serving run: the timed phase is cut
/// into windows of equal width by reply time, each window yields its
/// work rate, median and 99th-percentile round trip, and the median over
/// windows is reported, so a stall confined to a few windows does not
/// move the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Median over windows of work completed per second.
    pub work_per_s: f64,
    /// Median over windows of the window's median round trip, ms.
    pub p50_ms: f64,
    /// Median over windows of the window's p99 round trip, ms.
    pub p99_ms: f64,
    /// Whole windows.
    pub windows: usize,
    /// Fewest requests in a window.
    pub min_requests: usize,
    /// Per window: work per second, p50 ms, p99 ms.
    pub each: Vec<(f64, f64, f64)>,
}

/// Windows `records` (sorted by start) into whole windows of `width`
/// seconds; `work` gives each record's contribution to the work rate and
/// `timed` selects the requests whose round trips make the percentiles.
/// Returns `None` when no whole window exists or a window holds too few
/// timed requests for a p99 with ten samples beyond it.
pub fn windowed(
    records: &[Record],
    width: f64,
    work: impl Fn(&Record) -> f64,
    timed: impl Fn(&Record) -> bool,
) -> Option<Windowed> {
    let t0 = records.iter().map(|r| r.start).min()?;
    let width_ns = (width * 1e9) as u64;
    let last = records.iter().map(|r| r.end).max()?;
    let count = ((last - t0) / width_ns) as usize;
    if count == 0 {
        return None;
    }
    let mut lat = vec![Latencies::default(); count];
    let mut done = vec![0.0; count];
    for r in records {
        let w = ((r.end - t0) / width_ns) as usize;
        if w >= count {
            continue;
        }
        done[w] += work(r);
        if !timed(r) {
            continue;
        }
        match r.value {
            Some(_) => lat[w].record((r.end - r.start) as f64 / 1e6),
            None => lat[w].miss(),
        }
    }
    let min_requests = lat.iter().map(Latencies::len).min()?;
    if crate::stats::supported_tail(min_requests, 0.99) != Some(0.99) {
        return None;
    }
    let rates: Vec<f64> = done.iter().map(|d| d / width).collect();
    let p50: Vec<f64> = lat.iter_mut().filter_map(|l| l.quantile(0.5)).collect();
    let p99: Vec<f64> = lat.iter_mut().filter_map(|l| l.quantile(0.99)).collect();
    let median = |v: &[f64]| crate::stats::median(v).expect("whole windows exist");
    Some(Windowed {
        work_per_s: median(&rates),
        p50_ms: median(&p50),
        p99_ms: median(&p99),
        windows: count,
        min_requests,
        each: (0..count).map(|i| (rates[i], p50[i], p99[i])).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: Kind, ms: u64, value: Option<u64>) -> Record {
        Record {
            op: Op {
                kind,
                target: 0,
                arg: 0,
            },
            conn: 0,
            start: 0,
            end: ms * 1_000_000,
            value,
        }
    }

    #[test]
    fn windows_take_medians_and_need_a_supported_tail() {
        // Five 1 s windows of 2000 requests each; window 2 stalls. A sixth
        // request ends past the fifth window, closing it, and is dropped
        // with the partial window it lands in.
        let mut records = Vec::new();
        for w in 0..5u64 {
            for i in 0..2000u64 {
                let ms = if w == 2 { 50 } else { 1 + i % 2 };
                let start = w * 1_000_000_000 + i * 400_000;
                records.push(Record {
                    start,
                    end: start + ms * 1_000_000,
                    ..rec(Kind::Submit, 0, Some(3))
                });
            }
        }
        records.push(Record {
            start: 5_000_000_000,
            end: 5_000_000_001,
            ..rec(Kind::Submit, 0, Some(3))
        });
        let w =
            windowed(&records, 1.0, |r| r.value.unwrap_or(0) as f64, |_| true).expect("supported");
        assert_eq!((w.windows, w.min_requests), (5, 2000));
        assert_eq!((w.p50_ms, w.p99_ms, w.work_per_s), (1.0, 2.0, 6000.0));
        // 100 requests per window cannot support a p99.
        records.truncate(100);
        assert_eq!(windowed(&records, 0.01, |_| 1.0, |_| true), None);
    }

    #[test]
    fn every_deck_length_holds_the_mix_exactly() {
        let mix = [
            (Kind::Submit, 0, 7),
            (Kind::Query, 0, 2),
            (Kind::Point, 1, 1),
        ];
        let mut deck = Deck::new(&mix);
        let mut rng = StdRng::seed_from_u64(3);
        let mut orders = Vec::new();
        for _ in 0..5 {
            let hand: Vec<(Kind, usize)> = (0..10).map(|_| deck.deal(&mut rng)).collect();
            let count = |k: Kind| hand.iter().filter(|c| c.0 == k).count();
            assert_eq!((count(Kind::Submit), count(Kind::Query)), (7, 2));
            assert!(hand.contains(&(Kind::Point, 1)));
            orders.push(hand);
        }
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "decks are reshuffled"
        );
    }

    #[test]
    fn failures_are_counted_and_miss_every_percentile() {
        let mut records: Vec<Record> = (1..=30).map(|i| rec(Kind::Submit, i, Some(10))).collect();
        records.push(rec(Kind::Query, 1, Some(300)));
        records.push(rec(Kind::Submit, 1, None));
        let mut s = Summary::of(&records);
        assert_eq!((s.attempted, s.failed), (32, 1));
        assert_eq!((s.all.len(), s.submit.len(), s.query.len()), (32, 31, 1));
        // The 1 ms failure sorts above the 30 ms success.
        assert_eq!(s.submit.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(s.submit.quantile(0.96), Some(30.0));
    }
}
