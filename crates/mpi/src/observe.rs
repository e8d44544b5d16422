//! The observer stream: every runtime site describes what it did as one
//! [`RankEvent`] on the rank's virtual clock, and one fan-out turns the
//! event into [`greenla_trace`] spans and [`greenla_check`] hook calls.
//!
//! Observing never advances a clock, so a traced or checked run is
//! bit-identical in timing to a plain one. With both consumers off,
//! [`RankCtx::emit`](crate::RankCtx::emit) is one branch on a flag and the
//! event is never built.

use greenla_check::{CheckSink, CollEvent, RankChecker};
use greenla_trace::{RankTracer, TraceSink};

/// Which blocking receive a [`RankEvent::RecvBegin`]/[`RankEvent::RecvEnd`]
/// pair brackets; names its trace span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvOp {
    /// A busy-waiting point-to-point receive.
    Recv,
    /// A receive that waits idle (`recv_f64_idle`).
    Idle,
    /// One message from each of `count` sources, charged in arrival order.
    Set { count: usize },
}

impl RecvOp {
    fn span(self) -> &'static str {
        match self {
            RecvOp::Recv => "recv",
            RecvOp::Idle => "recv_idle",
            RecvOp::Set { .. } => "recv_set",
        }
    }
}

/// One observable step of a rank, stamped with the rank's clock when it
/// is emitted. The runtime emits the compute, message, collective and
/// finish events itself; workloads emit spans, instants, phase marks,
/// fault marks and the monitoring-protocol events.
#[derive(Clone, Copy, Debug)]
pub enum RankEvent<'a> {
    /// A compute (or memory-touch) interval from `t0` to now.
    Compute {
        t0: f64,
        flops: u64,
        dram_bytes: u64,
    },
    /// A send of `bytes` to global rank `dst` starts.
    SendBegin { dst: usize, bytes: u64 },
    /// The send started by the last [`RankEvent::SendBegin`] completed.
    SendEnd,
    /// The rank blocks waiting for `(src, comm, tag)`; a receive set names
    /// its first source.
    RecvBegin {
        op: RecvOp,
        src: usize,
        comm: u64,
        tag: u64,
    },
    /// Inside a receive set: the message from `src` was charged from `t0`
    /// to now.
    RecvPart { src: usize, t0: f64 },
    /// The receive completed for a message that arrived at `arrival` (the
    /// latest arrival for a set).
    RecvEnd { op: RecvOp, arrival: f64 },
    /// The rank entered a collective over `members` (global ranks).
    CollEnter { ev: CollEvent, members: &'a [usize] },
    /// Collective `seq` uses `chunks` data chunk ids.
    CollTagSpace { seq: u64, chunks: u64 },
    /// A barrier or split released the rank.
    CollDone,
    /// Open a span; spans on one rank nest.
    SpanBegin(&'static str, &'a str),
    /// Close the innermost open span with this category and name.
    SpanEnd(&'static str, &'a str),
    /// A zero-duration marker.
    Instant(&'a str),
    /// A monitoring phase boundary (traced as `phase:<label>`).
    Phase(&'a str),
    /// An injected fault fired or was recovered (`fault:*`).
    Fault(&'static str),
    /// The node communicator of the Figure-2 monitoring protocol.
    MonitorNodeComm(u64),
    /// `start_monitoring` ran on this rank.
    MonitorStart,
    /// `end_monitoring` ran on this rank.
    MonitorEnd,
    /// The rank's closure returned.
    Finished,
}

/// One rank's consumers of the event stream.
pub(crate) struct Observer {
    tracer: RankTracer,
    checker: RankChecker,
    on: bool,
}

impl Observer {
    pub(crate) fn new(trace: &TraceSink, check: &CheckSink, rank: usize, node: usize) -> Self {
        Self {
            tracer: trace.tracer(rank, node),
            checker: check.checker(rank, node),
            on: trace.is_enabled() || check.is_enabled(),
        }
    }

    /// Feed `ev`, stamped at virtual time `t`, to every consumer.
    ///
    /// Inlined whole at every site: the site's variant is a constant, so
    /// the match folds to that one arm behind the `on` branch and the
    /// event is never materialised.
    #[inline(always)]
    pub(crate) fn emit(&mut self, t: f64, ev: RankEvent<'_>) {
        if !self.on {
            return;
        }
        let (tr, ck) = (&mut self.tracer, &mut self.checker);
        match ev {
            RankEvent::Compute {
                t0,
                flops,
                dram_bytes,
            } => {
                let args = [("flops", flops as f64), ("dram_bytes", dram_bytes as f64)];
                tr.begin_with_args("compute", "compute", t0, &args);
                tr.end("compute", "compute", t);
                ck.compute(t0, t);
            }
            RankEvent::SendBegin { dst, bytes } => {
                let args = [("bytes", bytes as f64), ("dst", dst as f64)];
                tr.begin_with_args("comm", "send", t, &args);
            }
            RankEvent::SendEnd => {
                tr.end("comm", "send", t);
                ck.sent(t);
            }
            RankEvent::RecvBegin { op, src, comm, tag } => {
                let arg = match op {
                    RecvOp::Set { count } => ("count", count as f64),
                    _ => ("src", src as f64),
                };
                tr.begin_with_args("comm", op.span(), t, &[arg]);
                ck.block_recv(src, comm, tag, t);
            }
            RankEvent::RecvPart { src, t0 } => {
                tr.begin_with_args("comm", "recv", t0, &[("src", src as f64)]);
                tr.end("comm", "recv", t);
            }
            RankEvent::RecvEnd { op, arrival } => {
                tr.end("comm", op.span(), t);
                ck.unblock_recv(arrival, t);
            }
            RankEvent::CollEnter { ev, members } => {
                ck.coll_tag_space(ev.seq, 0, t);
                ck.enter_coll(ev, members, t);
            }
            RankEvent::CollTagSpace { seq, chunks } => ck.coll_tag_space(seq, chunks, t),
            RankEvent::CollDone => ck.coll_done(t),
            RankEvent::SpanBegin(cat, name) => tr.begin(cat, name, t),
            RankEvent::SpanEnd(cat, name) => tr.end(cat, name, t),
            RankEvent::Instant(name) | RankEvent::Fault(name) => tr.instant(name, t),
            RankEvent::Phase(label) => {
                if tr.enabled() {
                    tr.instant(&format!("phase:{label}"), t);
                }
            }
            RankEvent::MonitorNodeComm(comm) => ck.monitor_node_comm(comm, t),
            RankEvent::MonitorStart => ck.monitor_start(t),
            RankEvent::MonitorEnd => ck.monitor_end(t),
            RankEvent::Finished => ck.rank_finished(t),
        }
    }
}
