//! In-memory spans for the traced run.
//!
//! Each layer is timed from outside: the traced run wraps its calls
//! into the program's public functions in spans. Spans stay in memory
//! until the run ends; nothing is written while the clock runs.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `codec.decode`.
    pub name: &'static str,
    /// What the call worked on (a kernel name, or empty).
    pub key: String,
    /// Start, seconds since the recorder was created.
    pub start: f64,
    /// End, seconds since the recorder was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans. A disabled recorder runs the wrapped calls
/// and records nothing, which is how the untraced comparison run is
/// made from the same code.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` over `key`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        key: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            key: key.to_string(),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, over `key` when given.
    pub fn total(&self, name: &str, key: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && key.is_none_or(|k| s.key == k))
            .map(Span::duration)
            .sum()
    }

    /// Self time of span `index`: its duration minus the part of its
    /// interval that its direct children cover.
    pub fn self_time(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start, s.end))
            .collect();
        span.duration() - covered(span.start, span.end, &children)
    }
}

/// Length of the part of `[start, end]` covered by the union of
/// `intervals`. Intervals may overlap each other and stick out of the
/// window; only their overlap with the window counts, and only once.
pub fn covered(start: f64, end: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut reach = start;
    for (a, b) in clipped {
        let from = a.max(reach);
        if b > from {
            total += b - from;
            reach = b;
        }
    }
    total
}
