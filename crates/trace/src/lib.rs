#![forbid(unsafe_code)]
//! Virtual-time event tracing for the simulated MPI runtime.
//!
//! The runtime's clocks are *virtual*: each rank advances its own `f64`
//! clock as it computes and communicates. This crate records what happened
//! on those clocks — span begin/end pairs for compute, point-to-point and
//! collective operations, and instant markers for protocol milestones —
//! without ever advancing them. Tracing is therefore an observer: a run
//! produces bit-identical virtual timings whether tracing is enabled or
//! not (the harness tests assert this).
//!
//! Architecture:
//!
//! * [`TraceSink`] — the machine-wide handle. [`TraceSink::disabled`] holds
//!   no allocation; every recording call behind it is a single branch on an
//!   `Option`, so the instrumented runtime pays nothing when tracing is
//!   off.
//! * [`RankTracer`] — a per-rank recorder that buffers events locally
//!   (no cross-thread synchronisation on the hot path) and flushes into
//!   the sink when the rank finishes (or on drop, so panicking ranks still
//!   contribute their prefix).
//! * [`TraceEvent`] — one record: rank, node, kind, category, name,
//!   virtual timestamp, numeric args.
//!
//! The harness's `chrome_trace` module converts drained events into Chrome
//! Trace Event JSON (one Perfetto thread track per rank, one process per
//! node).
//!
//! # Example
//!
//! ```
//! use greenla_trace::{EventKind, TraceSink};
//!
//! let sink = TraceSink::enabled();
//! let mut tracer = sink.tracer(0, 0);
//! tracer.begin("compute", "dgemm", 0.0);
//! tracer.end("compute", "dgemm", 1.5e-3);
//! tracer.instant("checkpoint", 1.5e-3);
//! tracer.flush();
//!
//! let events = sink.drain();
//! assert_eq!(events.len(), 3);
//! assert_eq!(events[0].kind, EventKind::Begin);
//! assert_eq!(events[1].t_s, 1.5e-3);
//!
//! // A disabled sink records nothing and allocates nothing.
//! let off = TraceSink::disabled();
//! let mut t = off.tracer(0, 0);
//! t.begin("compute", "dgemm", 0.0);
//! assert!(off.drain().is_empty());
//! ```

use std::sync::{Arc, Mutex, PoisonError};

/// What a [`TraceEvent`] marks: the start of a span, its end, or a
/// zero-duration instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Begin,
    End,
    Instant,
}

/// One trace record on a rank's virtual clock.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global rank that recorded the event.
    pub rank: usize,
    /// Node the rank is placed on.
    pub node: usize,
    pub kind: EventKind,
    /// Coarse grouping used for colouring/filtering ("compute", "comm",
    /// "coll", "monitor").
    pub cat: &'static str,
    /// Span or marker name ("dgemm", "bcast", "measured_region", …).
    pub name: String,
    /// Virtual time in seconds.
    pub t_s: f64,
    /// Numeric payload (byte counts, flop counts, peers, …).
    pub args: Vec<(&'static str, f64)>,
}

/// Flushed per-rank buffers, in flush order.
#[derive(Default)]
struct Shared {
    flushed: Mutex<Vec<(usize, Vec<TraceEvent>)>>,
}

/// Machine-wide tracing handle. Cheap to clone; all clones feed the same
/// buffer. The disabled sink is a `None` and costs one branch per
/// (skipped) recording call.
#[derive(Clone, Default)]
pub struct TraceSink {
    shared: Option<Arc<Shared>>,
}

impl TraceSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink that collects events from every tracer it hands out.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Shared::default())),
        }
    }

    /// Is this sink collecting?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A recorder for one rank. Tracers from a disabled sink never buffer.
    pub fn tracer(&self, rank: usize, node: usize) -> RankTracer {
        RankTracer {
            shared: self.shared.clone(),
            rank,
            node,
            buf: Vec::new(),
        }
    }

    /// Take all flushed events, ordered by rank and, within a rank, by
    /// recording order (which is also virtual-time order, clocks being
    /// monotone per rank). The sink is left empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(shared) = &self.shared else {
            return Vec::new();
        };
        let mut batches = std::mem::take(
            &mut *shared
                .flushed
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        // One rank may flush several batches (e.g. tracer recreated after
        // a retry); a stable sort keeps them in flush order.
        batches.sort_by_key(|(rank, _)| *rank);
        batches.into_iter().flat_map(|(_, events)| events).collect()
    }
}

/// Per-rank event recorder. All methods are no-ops (one branch) when the
/// parent sink is disabled. Events buffer locally; [`RankTracer::flush`]
/// (or drop) publishes them to the sink.
pub struct RankTracer {
    shared: Option<Arc<Shared>>,
    rank: usize,
    node: usize,
    buf: Vec<TraceEvent>,
}

impl RankTracer {
    /// Is this tracer recording? Callers can skip argument marshalling
    /// when false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    #[inline]
    fn push(
        &mut self,
        kind: EventKind,
        cat: &'static str,
        name: &str,
        t_s: f64,
        args: &[(&'static str, f64)],
    ) {
        if self.shared.is_none() {
            return;
        }
        self.buf.push(TraceEvent {
            rank: self.rank,
            node: self.node,
            kind,
            cat,
            name: name.to_string(),
            t_s,
            args: args.to_vec(),
        });
    }

    /// Open a span at virtual time `t_s`.
    #[inline]
    pub fn begin(&mut self, cat: &'static str, name: &str, t_s: f64) {
        self.push(EventKind::Begin, cat, name, t_s, &[]);
    }

    /// Open a span carrying numeric args (byte counts, peers, …).
    #[inline]
    pub fn begin_with_args(
        &mut self,
        cat: &'static str,
        name: &str,
        t_s: f64,
        args: &[(&'static str, f64)],
    ) {
        self.push(EventKind::Begin, cat, name, t_s, args);
    }

    /// Close the innermost open span with this name at `t_s`. Spans on one
    /// rank must nest (LIFO), mirroring the call structure of the
    /// instrumented runtime.
    #[inline]
    pub fn end(&mut self, cat: &'static str, name: &str, t_s: f64) {
        self.push(EventKind::End, cat, name, t_s, &[]);
    }

    /// A zero-duration marker.
    #[inline]
    pub fn instant(&mut self, name: &str, t_s: f64) {
        self.push(EventKind::Instant, "marker", name, t_s, &[]);
    }

    /// Publish the buffered events to the sink.
    pub fn flush(&mut self) {
        let Some(shared) = &self.shared else {
            return;
        };
        if self.buf.is_empty() {
            return;
        }
        shared
            .flushed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((self.rank, std::mem::take(&mut self.buf)));
    }
}

impl Drop for RankTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_holds_no_buffer() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let mut tracer = sink.tracer(3, 1);
        tracer.begin("compute", "work", 0.0);
        tracer.begin_with_args("comm", "send", 0.1, &[("bytes", 80.0)]);
        tracer.end("comm", "send", 0.2);
        tracer.instant("mark", 0.3);
        assert!(tracer.buf.is_empty(), "disabled tracer must not buffer");
        tracer.flush();
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn events_drain_in_rank_then_record_order() {
        let sink = TraceSink::enabled();
        let mut t1 = sink.tracer(1, 0);
        let mut t0 = sink.tracer(0, 0);
        t1.begin("compute", "b", 0.5);
        t1.end("compute", "b", 0.9);
        t0.begin("compute", "a", 0.0);
        t0.end("compute", "a", 0.4);
        // Flush out of rank order on purpose.
        t1.flush();
        t0.flush();
        let events = sink.drain();
        let ranks: Vec<usize> = events.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![0, 0, 1, 1]);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[2].name, "b");
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn drop_flushes_partial_buffers() {
        let sink = TraceSink::enabled();
        {
            let mut tracer = sink.tracer(0, 0);
            tracer.begin("compute", "interrupted", 0.0);
            // No explicit flush: the drop must publish.
        }
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].name, "interrupted");
    }

    #[test]
    fn args_ride_along() {
        let sink = TraceSink::enabled();
        let mut tracer = sink.tracer(2, 1);
        tracer.begin_with_args("comm", "send", 1.0, &[("bytes", 4096.0), ("dst", 5.0)]);
        tracer.flush();
        let events = sink.drain();
        assert_eq!(events[0].args, vec![("bytes", 4096.0), ("dst", 5.0)]);
        assert_eq!(events[0].node, 1);
    }
}
