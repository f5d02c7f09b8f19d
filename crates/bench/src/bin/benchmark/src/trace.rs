//! In-memory spans of a traced run.
//!
//! A span is `{name, start, end, parent, session}`: times are nanoseconds
//! since the run began, `parent` is the index of the enclosing span (or
//! `null`), and `session` ties every span of one session together. Spans
//! live in a vector preallocated at construction, so recording one never
//! allocates; spans past its capacity are counted, not stored. The file is
//! written once, after the run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    session: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id ([`NO_PARENT`] when the
    /// buffer is full, so children of a dropped span become top-level).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            session,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end [`Tracer::close`] sets later; returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, session: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, session, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, parent, session, start, end);
        (r, (end - start).as_secs_f64() * 1e3)
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as a JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96 + 2);
        text.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                text.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                text,
                r#"{{"name":"{}","start":{},"end":{},"parent":{parent},"session":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.session
            );
        }
        text.push_str("]\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
