//! Per-rank execution context: the API rank code programs against.

use crate::comm::{Comm, WORLD_ID};
use crate::envelope::{Envelope, Payload};
use crate::mailbox::EventMailboxes;
use crate::observe::{Observer, RankEvent, RecvOp};
use crate::registry::{Registry, SplitEntry};
use crate::sched::WakeReason;
use crate::traffic::Traffic;
use greenla_check::{CollEvent, CollKind};
use greenla_cluster::ledger::{ActivityKind, Interval, Ledger};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::topology::CoreId;
use greenla_cluster::PowerModel;
use greenla_faults::{retry_backoff_s, MsgFaultKind, RankFaults, MAX_SEND_RETRIES};
use std::collections::HashMap;
use std::sync::Arc;

/// Tag bit reserved for collective-internal messages; user tags must stay
/// below it.
pub const COLL_TAG: u64 = 1 << 63;

/// Execution context handed to each rank's closure by
/// [`crate::Machine::run`]. All communication and virtual-time charging
/// goes through this handle.
pub struct RankCtx<'m> {
    pub(crate) rank: usize,
    pub(crate) nranks: usize,
    pub(crate) core: CoreId,
    pub(crate) clock: f64,
    pub(crate) spec: &'m ClusterSpec,
    pub(crate) power: &'m PowerModel,
    pub(crate) seed: u64,
    pub(crate) perf_mult: f64,
    pub(crate) ledger: &'m Ledger,
    pub(crate) traffic: &'m Traffic,
    pub(crate) registry: &'m Registry,
    pub(crate) placement: &'m Placement,
    /// Every rank's inbox; this rank receives from slot `rank`.
    pub(crate) mailboxes: Arc<EventMailboxes>,
    pub(crate) pending: Vec<Envelope>,
    /// Per-communicator collective sequence numbers (barrier/split/bcast/…
    /// all consume from the same stream, so ordering is consistent as long
    /// as ranks issue collectives in the same order — the MPI contract).
    pub(crate) seqs: HashMap<u64, u64>,
    pub(crate) world_members: Arc<Vec<usize>>,
    /// Consumers of this rank's [`RankEvent`] stream: the trace and check
    /// sinks attached to the machine. They only observe the virtual
    /// clocks, never advance them.
    pub(crate) observer: Observer,
    /// Planned-fault state for this rank; a no-op unless the machine has
    /// an enabled [`greenla_faults::FaultSink`] attached. Unlike the
    /// observers, active faults *do* perturb virtual time (that is their
    /// point) — but a disabled handle costs one branch per hook and leaves
    /// the timeline untouched.
    pub(crate) faults: RankFaults,
}

impl<'m> RankCtx<'m> {
    /// Global rank (index in the world communicator).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        Comm::new(WORLD_ID, Arc::clone(&self.world_members), self.rank)
    }

    /// Physical core this rank is pinned to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Node index of this rank.
    pub fn node(&self) -> usize {
        self.core.node
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Cluster specification.
    pub fn cluster(&self) -> &ClusterSpec {
        self.spec
    }

    /// Power model of the machine (monitoring layers read energies through
    /// RAPL, but the model itself is public for ground-truth comparisons).
    pub fn power_model(&self) -> &PowerModel {
        self.power
    }

    /// Run seed (selects node jitter draws).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Activity ledger (read-only use; the context itself records).
    pub fn ledger(&self) -> &Ledger {
        self.ledger
    }

    /// Rank placement for the run.
    pub fn placement(&self) -> &Placement {
        self.placement
    }

    // ----- observer stream -------------------------------------------------------

    /// Report `ev` at the current virtual time to the machine's trace and
    /// check sinks. One branch and no work when neither is attached.
    #[inline(always)]
    pub fn emit(&mut self, ev: RankEvent<'_>) {
        let t = self.clock;
        self.observer.emit(t, ev);
    }

    // ----- fault injection -------------------------------------------------------

    /// Is fault injection active for this run?
    pub fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// This rank's fault handle (plan queries and recovery accounting for
    /// higher layers — the monitor protocol and checksum-protected
    /// solvers).
    pub fn faults_mut(&mut self) -> &mut RankFaults {
        &mut self.faults
    }

    /// Shorthand for the mid-protocol checks higher layers make.
    pub fn faults(&self) -> &RankFaults {
        &self.faults
    }

    /// This rank's node downgraded itself to "unmeasured" after a
    /// monitoring fault: count it and mark it in the stream.
    pub fn note_degraded(&mut self) {
        self.faults.note_degraded();
        self.emit(RankEvent::Fault("fault:monitor_degraded"));
    }

    /// An injection point: every compute and send entry passes through
    /// here, advancing the per-rank call counter and firing a planned
    /// crash when due. The rank dies by panic; the machine poisons the
    /// run so every peer unblocks with a stable diagnostic instead of
    /// hanging.
    fn fault_point(&mut self) {
        if !self.faults.enabled() {
            return;
        }
        if let Some(msg) = self.faults.crash_due(self.clock) {
            self.emit(RankEvent::Fault("fault:crash"));
            panic!("{msg}");
        }
    }

    // ----- virtual-time charging -------------------------------------------------

    /// Record a busy interval of `dt` seconds starting at the current clock
    /// and advance the clock.
    fn busy(&mut self, dt: f64, kind: ActivityKind, flops: u64) {
        debug_assert!(dt >= 0.0, "negative busy time {dt}");
        if dt <= 0.0 && flops == 0 {
            return;
        }
        let start = self.clock;
        let end = start + dt;
        self.ledger.record(
            self.core,
            Interval {
                start,
                end,
                kind,
                flops,
            },
        );
        self.clock = end;
    }

    /// Advance to an absolute time `t`, recording the elapsed span as busy
    /// communication (spin-waiting, as blocking MPI calls do).
    fn busy_until(&mut self, t: f64, kind: ActivityKind) {
        if t > self.clock {
            let start = self.clock;
            self.ledger.record(
                self.core,
                Interval {
                    start,
                    end: t,
                    kind,
                    flops: 0,
                },
            );
            self.clock = t;
        }
    }

    /// Charge `flops` floating-point operations touching `dram_bytes` bytes
    /// of memory. Virtual time advances by the larger of the flop time (at
    /// the node's jittered sustained rate) and the memory time (at this
    /// core's share of socket DRAM bandwidth).
    pub fn compute(&mut self, flops: u64, dram_bytes: u64) {
        self.fault_point();
        let rate = self.spec.node.cpu.sustained_flops_per_core * self.perf_mult;
        let t_flops = flops as f64 / rate;
        let per_core_bw =
            self.spec.node.dram_bw_bytes_per_s / self.spec.node.cpu.cores_per_socket as f64;
        let t_mem = dram_bytes as f64 / per_core_bw;
        if dram_bytes > 0 {
            self.ledger
                .record_dram(self.core.node, self.core.socket, self.clock, dram_bytes);
        }
        let t0 = self.clock;
        self.busy(t_flops.max(t_mem), ActivityKind::Compute, flops);
        self.emit(RankEvent::Compute {
            t0,
            flops,
            dram_bytes,
        });
    }

    /// Charge a pure memory operation (allocation, initialisation, copies)
    /// with no arithmetic — the paper monitors the allocation phase
    /// separately from the computation phase.
    pub fn touch_memory(&mut self, dram_bytes: u64) {
        self.compute(0, dram_bytes);
    }

    /// Advance virtual time without recording activity (idle sleep).
    pub fn sleep(&mut self, dt: f64) {
        assert!(dt >= 0.0);
        self.clock += dt;
    }

    // ----- point-to-point --------------------------------------------------------

    pub(crate) fn send_payload(
        &mut self,
        comm: &Comm,
        dst_index: usize,
        tag: u64,
        payload: Payload,
    ) {
        self.fault_point();
        let fault = if self.faults.enabled() {
            self.faults.next_send_fault()
        } else {
            None
        };
        let dst = comm.global_rank(dst_index);
        assert!(dst != self.rank, "self-send on comm {}", comm.id());
        let bytes = payload.size_bytes();
        let same_node = self.placement.node_of(dst) == self.core.node;
        let o = self.spec.net.per_message_overhead_s;
        self.emit(RankEvent::SendBegin { dst, bytes });
        self.busy(o, ActivityKind::Comm, 0);
        if let Some(MsgFaultKind::Drop { count }) = fault {
            // Sender-side retry with exponential virtual backoff: each
            // dropped attempt costs busy time, so faults leave a visible,
            // deterministic footprint in the timeline.
            self.faults.record_drop_injected(count as u64);
            self.emit(RankEvent::Fault("fault:drop"));
            for attempt in 0..count.min(MAX_SEND_RETRIES + 1) {
                self.busy(retry_backoff_s(o, attempt), ActivityKind::Comm, 0);
            }
            if count > MAX_SEND_RETRIES {
                self.emit(RankEvent::SpanEnd("comm", "send"));
                panic!(
                    "injected fault: rank {} lost message to rank {dst} after \
                     {MAX_SEND_RETRIES} retries (comm {}, tag {tag})",
                    self.rank,
                    comm.id()
                );
            }
            self.faults.record_drop_recovered(count as u64);
        }
        let mut arrival = self.clock + self.spec.net.message_time(bytes, same_node);
        let mut delayed = false;
        if let Some(MsgFaultKind::Delay { extra_s }) = fault {
            arrival += extra_s;
            delayed = true;
            self.faults.record_delay_injected();
            self.emit(RankEvent::Fault("fault:delay"));
        }
        let duplicate = matches!(fault, Some(MsgFaultKind::Duplicate));
        self.traffic.record(bytes, same_node);
        if duplicate {
            // The phantom copy crosses the wire too; the receiver discards
            // it on sight.
            self.faults.record_dup_injected();
            self.emit(RankEvent::Fault("fault:dup"));
            self.traffic.record(bytes, same_node);
            self.mailboxes.post(
                dst,
                Envelope {
                    src: self.rank,
                    comm_id: comm.id(),
                    tag,
                    arrival,
                    payload: payload.clone(),
                    dup: true,
                    delayed: false,
                },
            );
        }
        self.mailboxes.post(
            dst,
            Envelope {
                src: self.rank,
                comm_id: comm.id(),
                tag,
                arrival,
                payload,
                dup: false,
                delayed,
            },
        );
        self.emit(RankEvent::SendEnd);
    }

    /// Move the next wire envelope into the pending queue, blocking until
    /// one arrives. Blocking yields the worker; a post, poison broadcast,
    /// or the engine's quiescence/orphan signal wakes the task. Nothing
    /// polls, checked or not, and the virtual clocks never see the wait.
    fn pump_mailbox(&mut self, src: usize, tag: u64) {
        let env = loop {
            if let Some(env) = self.mailboxes.try_pop(self.rank) {
                break env;
            }
            if self.registry.is_poisoned() {
                self.registry.abort();
            }
            let engine = self.mailboxes.engine();
            if engine.orphaned() {
                self.registry.report_orphaned(self.rank, src, tag);
            }
            match engine.block_current() {
                WakeReason::Woken => {}
                WakeReason::Quiescent => self.registry.report_quiescent_deadlock(),
            }
        };
        self.accept(env);
    }

    /// File one wire envelope: an abort control message ends the rank; an
    /// injected duplicate is discarded on sight, so neither matching nor
    /// the observers ever see it; anything else joins the pending queue.
    fn accept(&mut self, env: Envelope) {
        if env.is_control() {
            self.registry.abort();
        }
        if env.dup {
            self.faults.record_dup_discarded();
            self.emit(RankEvent::Fault("fault:dup_discarded"));
            return;
        }
        self.pending.push(env);
    }

    /// Charge the receive of a message that arrived at `arrival`: the
    /// rank spins until it has both waited out the arrival and paid the
    /// per-message overhead.
    fn charge_recv(&mut self, arrival: f64) {
        let o = self.spec.net.per_message_overhead_s;
        let done = (self.clock + o).max(arrival + o);
        self.busy_until(done, ActivityKind::Comm);
    }

    /// Blocking receive of the message `(src, comm, tag)` (`src` a global
    /// rank). A [`RecvOp::Idle`] wait is not recorded as busy time: the
    /// clock jumps to the arrival and only the wake-up/copy overhead is
    /// charged.
    fn recv_envelope(&mut self, op: RecvOp, comm: &Comm, src: usize, tag: u64) -> Envelope {
        assert!(src != self.rank, "self-receive on comm {}", comm.id());
        let cid = comm.id();
        self.emit(RankEvent::RecvBegin {
            op,
            src,
            comm: cid,
            tag,
        });
        let env = loop {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|e| e.src == src && e.comm_id == cid && e.tag == tag)
            {
                break self.pending.remove(pos);
            }
            self.pump_mailbox(src, tag);
        };
        if env.delayed {
            self.faults.record_delay_observed();
        }
        if op == RecvOp::Idle {
            if env.arrival > self.clock {
                self.clock = env.arrival;
            }
            self.busy(self.spec.net.per_message_overhead_s, ActivityKind::Comm, 0);
        } else {
            self.charge_recv(env.arrival);
        }
        let arrival = env.arrival;
        self.emit(RankEvent::RecvEnd { op, arrival });
        env
    }

    pub(crate) fn recv_payload(&mut self, comm: &Comm, src_index: usize, tag: u64) -> Payload {
        let src = comm.global_rank(src_index);
        self.recv_envelope(RecvOp::Recv, comm, src, tag).payload
    }

    /// Receive one message with `tag` from *every* rank in `srcs`
    /// (communicator indices), in completion order rather than list order.
    /// The caller gets payloads back aligned with `srcs`, but the receive
    /// cost is charged as the messages complete, not in rank order — a
    /// gather root no longer head-of-line blocks on rank 1 while ranks
    /// 2..p sit fully arrived in the queue.
    ///
    /// Determinism: envelopes are first *collected* (wall-clock order,
    /// which may differ run to run) and only then *charged* in sorted
    /// `(arrival, src)` order, so the virtual timeline depends only on the
    /// virtual arrival times, never on OS scheduling.
    pub(crate) fn recv_payload_set(
        &mut self,
        comm: &Comm,
        srcs: &[usize],
        tag: u64,
    ) -> Vec<Payload> {
        let cid = comm.id();
        let srcs_g: Vec<usize> = srcs.iter().map(|&s| comm.global_rank(s)).collect();
        debug_assert!(
            srcs_g.iter().all(|&s| s != self.rank),
            "self-receive in set"
        );
        if srcs_g.is_empty() {
            return Vec::new();
        }
        // One wait-for edge toward a representative source keeps the
        // deadlock probe sound: if this rank can never be satisfied, the
        // whole system is still blocked and the probe fires.
        let op = RecvOp::Set {
            count: srcs_g.len(),
        };
        self.emit(RankEvent::RecvBegin {
            op,
            src: srcs_g[0],
            comm: cid,
            tag,
        });
        let mut got: Vec<Envelope> = Vec::with_capacity(srcs_g.len());
        while got.len() < srcs_g.len() {
            while let Some(pos) = self
                .pending
                .iter()
                .position(|e| e.comm_id == cid && e.tag == tag && srcs_g.contains(&e.src))
            {
                got.push(self.pending.remove(pos));
            }
            if got.len() < srcs_g.len() {
                self.pump_mailbox(srcs_g[0], tag);
            }
        }
        // Charge deterministically: earliest virtual arrival first, ties
        // broken by source rank.
        got.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .expect("finite arrivals")
                .then(a.src.cmp(&b.src))
        });
        let mut max_arrival: f64 = 0.0;
        for env in &got {
            if env.delayed {
                self.faults.record_delay_observed();
            }
            let t0 = self.clock;
            self.charge_recv(env.arrival);
            self.emit(RankEvent::RecvPart { src: env.src, t0 });
            max_arrival = max_arrival.max(env.arrival);
        }
        self.emit(RankEvent::RecvEnd {
            op,
            arrival: max_arrival,
        });
        // Hand payloads back aligned with the caller's source list.
        let mut out: Vec<Option<Payload>> = (0..srcs_g.len()).map(|_| None).collect();
        for env in got {
            let slot = srcs_g
                .iter()
                .position(|&s| s == env.src)
                .expect("envelope matched the set");
            assert!(
                out[slot].is_none(),
                "duplicate message from rank {} (comm {cid}, tag {tag})",
                env.src
            );
            out[slot] = Some(env.payload);
        }
        out.into_iter()
            .map(|p| p.expect("all slots filled"))
            .collect()
    }

    /// Non-blocking probe (`MPI_Iprobe`): has a message from `src` with
    /// `tag` on `comm` *arrived by this rank's current virtual time*?
    /// Drains the wire into the pending queue without blocking. A message
    /// whose arrival timestamp lies in this rank's future is not yet
    /// visible — exactly the semantics a causally-correct simulation needs.
    pub fn iprobe(&mut self, comm: &Comm, src_index: usize, tag: u64) -> bool {
        let src = comm.global_rank(src_index);
        let cid = comm.id();
        while let Some(env) = self.mailboxes.try_pop(self.rank) {
            self.accept(env);
        }
        self.pending
            .iter()
            .any(|e| e.src == src && e.comm_id == cid && e.tag == tag && e.arrival <= self.clock)
    }

    /// Blocking receive that waits *idle* instead of spinning: the waiting
    /// span is not recorded as busy time (models a process sleeping in an
    /// OS-blocking receive — e.g. a monitoring daemon between events — as
    /// opposed to an MPI busy-poll). The clock still advances to the
    /// message's arrival.
    pub fn recv_f64_idle(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        assert!(tag < COLL_TAG, "user tag too large");
        let src = comm.global_rank(src);
        self.recv_envelope(RecvOp::Idle, comm, src, tag)
            .payload
            .expect_f64()
    }

    /// Send a slice of doubles to `dst` (communicator index) with `tag`.
    pub fn send_f64(&mut self, comm: &Comm, dst: usize, tag: u64, data: &[f64]) {
        assert!(tag < COLL_TAG, "user tag too large");
        self.send_payload(comm, dst, tag, Payload::f64(data.to_vec()));
    }

    /// Receive doubles from `src` (communicator index) with `tag`.
    pub fn recv_f64(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        assert!(tag < COLL_TAG, "user tag too large");
        self.recv_payload(comm, src, tag).expect_f64()
    }

    /// Send unsigned 64-bit values.
    pub fn send_u64(&mut self, comm: &Comm, dst: usize, tag: u64, data: &[u64]) {
        assert!(tag < COLL_TAG, "user tag too large");
        self.send_payload(comm, dst, tag, Payload::u64(data.to_vec()));
    }

    /// Receive unsigned 64-bit values.
    pub fn recv_u64(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<u64> {
        assert!(tag < COLL_TAG, "user tag too large");
        self.recv_payload(comm, src, tag).expect_u64()
    }

    // ----- synchronising collectives (registry-based) ----------------------------

    pub(crate) fn next_seq(&mut self, comm_id: u64) -> u64 {
        let seq = self.seqs.entry(comm_id).or_insert(0);
        let out = *seq;
        *seq += 1;
        out
    }

    /// Latency parameter for a collective over this communicator: network
    /// latency if it spans nodes, shared-memory latency otherwise.
    pub(crate) fn coll_alpha(&self, comm: &Comm) -> f64 {
        let first_node = self.placement.node_of(comm.global_rank(0));
        let spans = comm
            .members()
            .iter()
            .any(|&g| self.placement.node_of(g) != first_node);
        if spans {
            self.spec.net.latency_s
        } else {
            self.spec.net.intra_latency_s
        }
    }

    /// Allocate the next sequence number on `comm` for a collective of
    /// `kind` and announce its lockstep signature to the stream.
    pub(crate) fn coll_site(
        &mut self,
        comm: &Comm,
        kind: CollKind,
        root: Option<usize>,
        elems: u64,
    ) -> u64 {
        let seq = self.next_seq(comm.id());
        let ev = CollEvent {
            comm: comm.id(),
            seq,
            kind,
            root,
            elems,
        };
        let members = comm.members();
        self.emit(RankEvent::CollEnter { ev, members });
        seq
    }

    /// `MPI_Barrier`: blocks until every member arrives; all leave at
    /// `max(arrival) + α·⌈log₂ P⌉`.
    pub fn barrier(&mut self, comm: &Comm) {
        self.emit(RankEvent::SpanBegin("coll", "barrier"));
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Barrier, None, 0);
        if p > 1 {
            let cost = self.coll_alpha(comm) * (p as f64).log2().ceil()
                + self.spec.net.per_message_overhead_s;
            let release = self.registry.barrier(comm.id(), seq, p, self.clock, cost);
            self.busy_until(release, ActivityKind::Comm);
        }
        self.emit(RankEvent::CollDone);
        self.emit(RankEvent::SpanEnd("coll", "barrier"));
    }

    /// `MPI_Comm_split`: partition `comm` by `color`, ordering each new
    /// communicator by `(key, global rank)`.
    pub fn split(&mut self, comm: &Comm, color: u64, key: u64) -> Comm {
        self.emit(RankEvent::SpanBegin("coll", "comm_split"));
        let p = comm.size();
        let cost = self.coll_alpha(comm) * (p as f64).log2().ceil().max(1.0)
            + self.spec.net.per_message_overhead_s;
        let seq = self.coll_site(comm, CollKind::Split, None, 0);
        let out = self.registry.split(SplitEntry {
            parent_id: comm.id(),
            seq,
            expected: p,
            grank: self.rank,
            color,
            key,
            t: self.clock,
            cost,
        });
        self.busy_until(out.release_t, ActivityKind::Comm);
        self.emit(RankEvent::CollDone);
        self.emit(RankEvent::SpanEnd("coll", "comm_split"));
        Comm::new(out.comm_id, out.members, out.my_index)
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: one communicator per
    /// node, members ordered by global rank — so the "highest rank on the
    /// node" designation used by the monitoring framework is well defined.
    pub fn split_shared(&mut self, comm: &Comm) -> Comm {
        self.split(comm, self.core.node as u64, self.rank as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::COLL_TAG;

    #[test]
    fn coll_tag_bit_matches_checker_tagspace() {
        // The checker describes tags and audits overflow against its own
        // copy of the bit layout; the two must agree.
        assert_eq!(COLL_TAG, greenla_check::tagspace::COLL_TAG_BIT);
    }
}
