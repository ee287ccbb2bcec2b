//! In-memory spans for the traced run: name, start, end, parent and
//! request id. Spans are kept in memory and written out when the run
//! ends; a span's self time is its duration minus the part of its
//! interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Dotted name; the first segment is the layer (`serve.wire.encode`
    /// belongs to `serve`).
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The layer a span name belongs to: its first dotted segment.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// An append-only span store with one clock epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Adds a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        })
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// All spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-parallel to [`Trace::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
            .collect()
    }

    /// True when span `id` is `root` or one of its descendants.
    pub fn within(&self, id: usize, root: usize) -> bool {
        let mut cur = Some(id);
        while let Some(i) = cur {
            if i == root {
                return true;
            }
            cur = self.spans[i].parent;
        }
        false
    }

    /// Self time per layer over the subtree rooted at `root`.
    pub fn layer_self(&self, root: usize) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if self.within(i, root) {
                *out.entry(layer_of(s.name).to_string()).or_insert(0) += own;
            }
        }
        out
    }

    /// Mean duration in µs of the spans called `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.mean_us_where(name, |_| true)
    }

    /// Mean duration in µs of the spans called `name` whose request id
    /// passes `keep` (0 when none).
    pub fn mean_us_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s.request))
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration()));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Writes every span as one tab-separated line:
    /// `index parent request name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns"
        )?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let root = t.push(span("ledger.op", 0, 100, None));
        // Two overlapping children cover [10, 50) together: 40 ns.
        let a = t.push(span("serve.wire.read_frame", 10, 40, Some(root)));
        t.push(span("core.validate", 30, 50, Some(root)));
        // A grandchild reduces its parent's self time, not the root's.
        t.push(span("serve.wire.checksum", 15, 25, Some(a)));
        // A child running past its parent is clipped to the parent.
        let b = t.push(span("core.absorb", 90, 120, Some(root)));
        assert_eq!(t.self_times(), vec![100 - 40 - 10, 30 - 10, 20, 10, 30]);
        assert!(t.within(3, root) && t.within(b, root) && !t.within(root, a));

        let layers = t.layer_self(root);
        assert_eq!(layers["ledger"], 50);
        assert_eq!(layers["serve"], 30);
        assert_eq!(layers["core"], 50);
        // Self times of a tree whose children nest never exceed the root.
        let sum: u64 = t.self_times()[..4].iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn layer_is_first_segment_and_means_are_per_name() {
        assert_eq!(layer_of("pipeline.estimate"), "pipeline");
        assert_eq!(layer_of("ledger"), "ledger");
        let mut t = Trace::new();
        t.push(span("opt.evaluate", 0, 2_000, None));
        t.push(span("opt.evaluate", 0, 4_000, None));
        assert_eq!(t.mean_us("opt.evaluate"), 3.0);
        assert_eq!(t.mean_us("absent"), 0.0);
    }
}
