//! Spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end (nanoseconds since the run
//! started), the span that was open when it began, and the record (setup
//! repetition or item run) it belongs to. Spans stay in memory and are
//! written once, when the run ends. With tracing off, [`Tracer::begin`]
//! and [`Tracer::end`] do nothing.

use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `explore.explore`.
    pub name: &'static str,
    /// Record the span belongs to (shared by every span of one item run).
    pub record: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    record: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder, disabled until [`set_enabled`](Self::set_enabled).
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            record: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off between records (never with a span open).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = enabled;
    }

    /// Sets the record id that new spans carry.
    pub fn set_record(&mut self, record: usize) {
        self.record = record;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            record: self.record,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let now = self.now_ns();
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap: the benchmark is serial).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"record\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.record, s.start_ns, s.end_ns, own[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.set_record(7);
        let root = t.begin("item");
        t.span("explore.explore", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.record == 7));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.begin("item");
        t.end(s);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
