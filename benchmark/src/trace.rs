//! Spans around the harness's calls into each layer.
//!
//! The harness times every call it makes (it needs the durations for
//! the round statistics either way); with tracing on, each timing is
//! also kept as a span `{name, start_ns, end_ns, parent, episode,
//! round}` in memory and written out as JSON lines when the run ends.
//! Spans come from the one driver thread, so siblings never overlap and
//! a span's self time is its duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub episode: u32,
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span being timed; closing it yields the duration.
pub struct Open {
    name: &'static str,
    started: Instant,
    /// Slot in the recorder (tracing on only).
    slot: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub episode: u32,
    pub round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            episode: 0,
            round: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts timing `name`; spans opened before it closes nest in it.
    pub fn open(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = self.enabled.then(|| {
            let start_ns = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                episode: self.episode,
                round: self.round,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            name,
            started,
            slot,
        }
    }

    /// Stops timing and returns the duration in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order — a harness bug.
    pub fn close(&mut self, open: Open) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(slot) = open.slot {
            assert_eq!(
                self.stack.pop(),
                Some(slot),
                "span {} closed out of order",
                open.name
            );
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64() * 1e3
    }

    /// Times one call: `(its result, milliseconds)`.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let result = f();
        (result, self.close(open))
    }

    /// The spans as JSON lines, with each span's self time added.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{},\"episode\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns, parent, s.episode, s.round
            );
        }
        out
    }
}

/// Each span's duration minus the part its direct children cover
/// (children are clipped to the parent's interval; one thread records
/// them, so they do not overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            episode: 0,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("offer", 10, 30, Some(0)),
            span("step", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        // round: 100 − (20 + 60); step: 60 − 10; leaves keep everything.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("parent", 10, 20, None),
            span("overhang", 15, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut t = Tracer::new(true);
        t.episode = 2;
        let outer = t.open("round");
        t.round = 7;
        let ((), ms) = t.timed("lab.step", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ms >= 2.0);
        assert!(t.close(outer) >= ms);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].episode, spans[1].round), (2, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("every span line is well-formed JSON");
        }
        assert!(jsonl.lines().next().unwrap().contains("\"parent\":null"));
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut t = Tracer::new(false);
        let (v, ms) = t.timed("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
