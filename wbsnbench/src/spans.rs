//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span's name is `<layer>.<what>`; the layer is the crate the call
//! enters (`bench`, `kernels`, `dsp`, `sim`, `power`) or `wbsnbench` for
//! the benchmark's own grouping spans. Spans are kept in memory and
//! written out once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use wbsn_obs::json::escape;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The cell the span belongs to (`setup` before the first cell).
    pub cell: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled, `open`/`close` only time.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// A handle returned by [`Spans::open`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, so both share a timeline.
    pub fn sibling(&self) -> Spans {
        Spans {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, cell: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                cell,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = self.ns(end);
        }
        (end - open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("run shorter than 584 years")
    }

    /// Seconds each layer spent in its own spans, minus the time its
    /// spans' children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_layer.entry(span.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_layer
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"cell\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                escape(span.name),
                escape(span.cell),
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]\n");
        out
    }
}
