//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every client thread owns a [`Recorder`]. A span carries a name, its
//! start and end (nanoseconds since the run's epoch), its parent span and
//! the request id that all spans of one query share. Spans stay in memory
//! until the run ends; [`write_jsonl`] then writes them out. With tracing
//! off a recorder keeps nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Request id shared by one query's spans.
    pub req: u64,
    /// Layer boundary the span covers (e.g. `core.submit`).
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start: u64,
    /// End, nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread span buffer.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for client thread `thread`; ids it hands out do not
    /// collide with other threads'.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Recorder {
            on,
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh id, for a span or a request (ids are never `0`).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Record `[start, end]` under `id` (no-op when tracing is off).
    pub fn span(
        &mut self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start: at(start),
                end: at(end),
            });
        }
    }

    /// [`Self::span`] under a fresh id.
    pub fn leaf(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.id();
        self.span(id, parent, req, name, start, end);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.nanos() - covered)
        })
        .collect()
}

/// Durations (microseconds) of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e3)
        .collect()
}

/// Write one JSON object per span, with its self time, to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start, s.end, selfs[&s.id]
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..40 once (30 ns).
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // A disjoint child covers 60..70 (10 ns).
            span(4, 1, 60, 70),
            // A grandchild does not count against the root.
            span(5, 4, 61, 69),
            // A child poking out of its parent is clipped to 90..100.
            span(6, 1, 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 30 - 10 - 10);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&4], 10 - 8);
        assert_eq!(t[&5], 8);
    }

    #[test]
    fn recorder_keeps_nothing_when_off() {
        let epoch = Instant::now();
        let mut off = Recorder::new(false, epoch, 1);
        let id = off.id();
        off.span(id, 0, id, "request", epoch, Instant::now());
        assert!(off.into_spans().is_empty());

        let mut on = Recorder::new(true, epoch, 2);
        let root = on.id();
        on.leaf(root, root, "child", epoch, Instant::now());
        on.span(root, 0, root, "request", epoch, Instant::now());
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert_ne!(spans[0].id, root);
        assert_eq!(durations_us(&spans, "request").len(), 1);
    }
}
