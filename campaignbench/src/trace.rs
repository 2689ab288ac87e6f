//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end, the span it nests in and the input
//! (seed) it belongs to.  Spans stay in memory while the traced pass runs
//! and are written out once it ends.  A layer's self time is the duration
//! of its spans minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The input (seed) the span worked on.
    pub input: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled it only runs the closures.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `work` inside a span named `name`.  Spans opened by `work`
    /// through the tracer it is handed become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        input: u64,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return work(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            input,
        });
        self.open.push(index);
        let result = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }
}

/// Each span's duration minus the durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Self time and span count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let layer = layers.entry(span.name).or_default();
        layer.self_ns += self_ns;
        layer.calls += 1;
    }
    layers
}

/// The spans as JSON lines, one span per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (index, span) in spans.iter().enumerate() {
        let parent = match span.parent {
            Some(parent) => parent.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"input\":{}}}\n",
            span.name, span.start_ns, span.end_ns, span.input
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            input: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("input", 0, 100, None),
            span("compile", 10, 40, Some(0)),
            span("equiv", 40, 90, Some(0)),
            span("sat", 50, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 20, 30]);
        // Self times partition the root's interval exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_times_sum_self_time_per_name() {
        let spans = vec![
            span("input", 0, 50, None),
            span("compile", 0, 20, Some(0)),
            span("input", 50, 100, None),
            span("compile", 60, 70, Some(2)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(
            layers["input"],
            LayerTime {
                self_ns: 70,
                calls: 2
            }
        );
        assert_eq!(
            layers["compile"],
            LayerTime {
                self_ns: 30,
                calls: 2
            }
        );
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let value = tracer.span("input", 7, |tracer| {
            tracer.span("compile", 7, |_| ());
            tracer.span("equiv", 7, |_| 42)
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.input == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("input", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
