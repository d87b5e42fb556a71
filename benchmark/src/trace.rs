//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary — around
//! the calls into the program, never inside it — held in memory and written
//! out once when the run ends. With the tracer off every call is a branch and
//! no clock is read, so the untraced run pays nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `cause` is the id of the enclosing span (0 for a root);
/// ids start at 1 and are unique within a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u32,
    /// The span that caused this one (0 = none).
    pub cause: u32,
    /// Layer-qualified name (`sim.build`, `engine.produce`, …).
    pub name: &'static str,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iter: u32,
    /// Simulated round or grid case index the span belongs to (0 = none).
    pub round: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when the tracer is off).
pub type Open = Option<usize>;

/// The recorder. Open spans nest: a span opened while another is open is
/// caused by it.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between iterations (the traced run
    /// alternates traced and untraced iterations to price the tracing itself).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with a span open");
        self.on = on;
    }

    /// Labels the spans that follow with an iteration number.
    pub fn set_iteration(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now, caused by the innermost open span.
    pub fn open(&mut self, name: &'static str, round: u64) -> Open {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        let index = self.push(name, round, now, now);
        self.stack.push(index);
        Some(index)
    }

    /// Closes the innermost open span, which must be `handle`.
    pub fn close(&mut self, handle: Open) {
        let Some(index) = handle else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Records an already-measured child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, round: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.push(name, round, start_ns, end_ns);
        }
    }

    fn push(&mut self, name: &'static str, round: u64, start_ns: u64, end_ns: u64) -> usize {
        let cause = self.stack.last().map_or(0, |&top| self.spans[top].id);
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            cause,
            name,
            iter: self.iter,
            round,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Start of an open span (for laying measured children out inside it).
    pub fn start_of(&self, handle: Open) -> u64 {
        handle.map_or(0, |index| self.spans[index].start_ns)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON array, one span object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4);
        out.push_str("[\n");
        for (position, span) in self.spans.iter().enumerate() {
            let comma = if position + 1 == self.spans.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "{{\"id\":{},\"cause\":{},\"name\":\"{}\",\"iter\":{},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                span.id, span.cause, span.name, span.iter, span.round, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// children cover. Overlapping children are counted once (interval union) and
/// a child reaching outside its parent is clipped to it. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.cause != 0 {
            let parent = &spans[span.cause as usize - 1];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[span.cause as usize - 1].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, cause: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            cause,
            name: "x",
            iter: 0,
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 160), // overlaps span 2 by 10
            span(4, 1, 190, 230), // 30 of it lies outside the parent
            span(5, 2, 110, 120), // grandchild: only touches span 2
            span(6, 1, 300, 310), // entirely outside: covers nothing
        ];
        // Children cover [110, 160) and [190, 200): 60 of the parent's 100.
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 40, 10, 10]);
    }

    #[test]
    fn spans_nest_by_open_order_and_an_off_tracer_records_nothing() {
        let mut tracer = Tracer::on();
        tracer.set_iteration(3);
        let root = tracer.open("iteration", 0);
        let round = tracer.open("round", 7);
        tracer.leaf("engine.produce", 7, 5, 9);
        tracer.close(round);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].cause, spans[1].cause, spans[2].cause), (0, 1, 2));
        assert!(spans.iter().all(|s| s.iter == 3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tracer.to_json().contains("\"name\":\"engine.produce\""));

        let mut off = Tracer::off();
        let handle = off.open("iteration", 0);
        off.leaf("x", 0, 0, 1);
        off.close(handle);
        assert!(off.spans().is_empty());
    }
}
