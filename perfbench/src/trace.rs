//! In-memory spans recorded by the benchmark's own code around its calls
//! into the program, kept until the run ends and then summarised and
//! written out.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! of one thread nest (a child starts after and ends before its parent),
//! so a span's self time is its duration minus the durations of its
//! direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks "no parent" and the id a disabled tracer hands out.
const NONE: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
struct Span {
    /// Layer boundary the span wraps, `layer.call` style.
    name: &'static str,
    /// Start, ns since the epoch.
    start_ns: u64,
    /// End, ns since the epoch (0 while open).
    end_ns: u64,
    /// Index of the parent span in the same thread's list, or `NONE`.
    parent: usize,
    /// The client request the span belongs to (0 for none).
    request: u64,
}

/// The spans of one thread. When disabled every call is a branch and
/// nothing is recorded.
pub struct Tracer {
    enabled: bool,
    thread: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `thread`; times are taken relative to `epoch`.
    pub fn new(enabled: bool, thread: &'static str, epoch: Instant) -> Self {
        Tracer {
            enabled,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned; spans close innermost first.
    #[inline]
    pub fn end(&mut self, id: usize) {
        if id == NONE {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span, in span order.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Share of the root spans' wall time that named child spans cover
    /// with their self time (1.0 when nothing is left unattributed).
    pub fn coverage(&self) -> f64 {
        let selfs = self.self_times();
        let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
        for (s, &own) in self.spans.iter().zip(&selfs) {
            if s.parent == NONE {
                root_ns += s.end_ns - s.start_ns;
                root_self_ns += own;
            }
        }
        if root_ns == 0 {
            return 0.0;
        }
        1.0 - root_self_ns as f64 / root_ns as f64
    }
}

/// Every thread's spans of one run.
#[derive(Default)]
pub struct Trace {
    threads: Vec<Tracer>,
}

impl Trace {
    /// Adds a finished thread's spans.
    pub fn add(&mut self, tracer: Tracer) {
        if tracer.enabled {
            self.threads.push(tracer);
        }
    }

    /// The lowest span coverage over the recorded threads.
    pub fn coverage(&self) -> f64 {
        self.threads
            .iter()
            .map(Tracer::coverage)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Per `thread/span` name: count, total and self time in ms.
    pub fn summary(&self) -> String {
        let mut rows: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
        for t in &self.threads {
            for (s, own) in t.spans.iter().zip(t.self_times()) {
                let row = rows.entry((t.thread, s.name)).or_default();
                row.0 += 1;
                row.1 += s.end_ns - s.start_ns;
                row.2 += own;
            }
        }
        let mut out = String::from(
            "thread/span                                    count    total_ms     self_ms\n",
        );
        for ((thread, name), (n, total, own)) in rows {
            let _ = writeln!(
                out,
                "{:<44} {n:>8} {:>11.3} {:>11.3}",
                format!("{thread}/{name}"),
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let _ = writeln!(out, "span coverage (lowest thread): {:.4}", self.coverage());
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for t in &self.threads {
            for (i, (s, own)) in t.spans.iter().zip(t.self_times()).enumerate() {
                let parent = if s.parent == NONE {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    w,
                    "{{\"thread\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                    t.thread, s.name, s.request, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}
