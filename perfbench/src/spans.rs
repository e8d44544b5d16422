//! Host-time spans recorded by the benchmark around its calls into the
//! program's public functions. Spans stay in memory and are written out
//! once, when the benchmark ends.

use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Simulated rank the span ran on; `None` for host-side spans.
    pub rank: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span store: rank bodies record from the scheduler's worker
/// threads.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        rank: Option<usize>,
    ) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            rank,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
    }

    /// Record `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        rank: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op, rank);
        let r = f();
        self.end(id);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{},\"op\":{},\"rank\":{}}}{}\n",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                s.op,
                opt(s.rank),
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of `span`: its duration minus the part of its interval its
/// direct `children` cover. Children may overlap each other (rank spans
/// run concurrently), so the covered part is the measure of the union of
/// their intervals, clipped to the parent.
pub fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let mut kids: Vec<(f64, f64)> = children
        .iter()
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            op: 0,
            rank: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0.0, 10.0, None),
            // Two overlapping children cover [1, 5]; a disjoint one [7, 8].
            span(1.0, 4.0, Some(0)),
            span(2.0, 5.0, Some(0)),
            span(7.0, 8.0, Some(0)),
            // A grandchild does not count against the root.
            span(7.0, 7.5, Some(3)),
            // A child poking past the parent's end is clipped.
            span(9.5, 12.0, Some(0)),
        ];
        let children =
            |id: SpanId| -> Vec<&Span> { spans.iter().filter(|s| s.parent == Some(id)).collect() };
        let root = self_time(&spans[0], &children(0));
        assert!((root - (10.0 - 4.0 - 1.0 - 0.5)).abs() < 1e-12);
        assert!((self_time(&spans[3], &children(3)) - 0.5).abs() < 1e-12);
        assert_eq!(self_time(&spans[1], &children(1)), 3.0);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let r = Recorder::default();
        let root = r.begin("op", None, 7, None);
        r.time("child", Some(root), 7, Some(3), || ());
        r.end(root);
        let spans = r.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let json = r.to_json();
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"rank\":3"));
    }
}
