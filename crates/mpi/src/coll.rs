//! Data-moving collectives built over the point-to-point layer so their
//! timing and traffic emerge from the same α + β·size model as everything
//! else.
//!
//! Two algorithm families coexist, selected by payload size exactly as
//! production MPI does:
//!
//! * **Trees** (binomial broadcast/reduce, linear gather) for small
//!   payloads, where latency dominates and `α·log P` depth wins. A tree
//!   broadcast over `P` ranks performs `P − 1` sends — the count the
//!   paper's closed-form message formulas assume.
//! * **Recursive doubling** (allreduce) and a **ring** (allgather) for
//!   larger payloads, replacing the old reduce-to-0-then-broadcast and
//!   gather-then-broadcast compositions: the critical path drops from
//!   `O((α + β·s)·log P + root serialization)` to the standard
//!   `α·log P + β·s` (allreduce) and `(P−1)·(α + β·s/P)` (allgather)
//!   bandwidth-optimal bounds.
//!
//! The switch point is [`COLL_SMALL_BYTES`]. The scalar max/maxloc
//! allreduces carry fixed 8–16 byte payloads, permanently below the
//! threshold, so for them the selection rule resolves to the trees at
//! compile time — which also keeps the paper's closed-form per-column
//! message counts (one reduce tree + one broadcast tree per pivot)
//! intact. Payload fan-out everywhere shares one `Arc` allocation per
//! buffer — see [`crate::envelope::Payload`].

use crate::comm::Comm;
use crate::context::{RankCtx, COLL_TAG};
use crate::envelope::Payload;
use crate::error::CollContractError;
use crate::observe::RankEvent;
use greenla_check::tagspace;
use greenla_check::CollKind;
use std::sync::Arc;

/// Marker chunk id for unchunked collective messages (keeps plain and
/// pipelined tags disjoint under one sequence number).
const PLAIN_CHUNK: u64 = 0xfffff;
/// Chunk id of the pipelined-broadcast header message.
const HEADER_CHUNK: u64 = 0xffffe;

/// Payloads at or below this many bytes take the latency-optimized tree
/// algorithms; larger ones take recursive doubling / the ring. 512 B is
/// where the α and β terms cross for the simulated network (α ≈ 1.8 µs,
/// β ≈ 1/12.5 GB/s: β·512 ≈ 41 ns ≪ α, so halving byte volume cannot pay
/// for even one extra latency on the critical path below this size).
/// `model::comm` mirrors this constant for its closed-form predictions.
pub const COLL_SMALL_BYTES: u64 = 512;

/// Pack a collective message tag: the `COLL_TAG` bit, a 43-bit
/// per-communicator sequence number, and a 20-bit chunk id. The fields
/// must not overflow into each other — a campaign long enough to exhaust
/// 2^43 collectives per communicator, or a pipelined payload cut into
/// more than 2^20 − 2 chunks, would silently alias unrelated messages.
pub(crate) fn compose_coll_tag(seq: u64, chunk: u64) -> u64 {
    debug_assert!(
        tagspace::chunk_fits(chunk),
        "collective chunk id {chunk} overflows its {}-bit field",
        tagspace::CHUNK_BITS
    );
    debug_assert!(
        tagspace::seq_fits(seq),
        "collective sequence number {seq} overflows into the COLL_TAG bit"
    );
    COLL_TAG | (seq << tagspace::CHUNK_BITS) | chunk
}

/// Largest power of two not exceeding `p`.
fn prev_pow2(p: usize) -> usize {
    debug_assert!(p >= 1);
    if p.is_power_of_two() {
        p
    } else {
        p.next_power_of_two() / 2
    }
}

/// Map a recursive-doubling participant id back to its communicator rank
/// (inverse of the non-power-of-two fold: the first `2r` ranks fold into
/// `r` odd survivors, ranks `≥ 2r` keep their position shifted by `r`).
fn rd_participant_rank(newrank: usize, r: usize) -> usize {
    if newrank < r {
        2 * newrank + 1
    } else {
        newrank + r
    }
}

fn sum_op(a: &mut [f64], b: &[f64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

impl<'m> RankCtx<'m> {
    /// Abort the run with the stable collective-contract diagnostic when a
    /// peer's reduction buffer does not match ours.
    fn check_reduce_len(&self, comm: &Comm, got: usize, expected: usize) {
        if got != expected {
            panic!(
                "{}",
                CollContractError::ReduceLengthMismatch {
                    comm: comm.id(),
                    rank: self.rank(),
                    got,
                    expected,
                }
            );
        }
    }

    /// Binomial-tree broadcast of an arbitrary payload from `root`. Every
    /// hop forwards the same shared buffer (an `Arc` bump, never a copy).
    fn bcast_payload(&mut self, comm: &Comm, root: usize, payload: Option<Payload>) -> Payload {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Bcast, Some(root), 0);
        let tag = compose_coll_tag(seq, PLAIN_CHUNK);
        if p == 1 {
            return payload.expect("root must supply the broadcast payload");
        }
        let me = comm.rank();
        let rel = (me + p - root) % p;
        let mut data: Option<Payload> = if rel == 0 {
            Some(payload.expect("root must supply the broadcast payload"))
        } else {
            None
        };
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src_index = (rel - mask + root) % p;
                data = Some(self.recv_payload(comm, src_index, tag));
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                let dst_index = (rel + mask + root) % p;
                let d = data
                    .as_ref()
                    .expect("broadcast data must exist before fan-out");
                self.send_payload(comm, dst_index, tag, d.clone());
            }
            mask >>= 1;
        }
        data.expect("broadcast produced no data")
    }

    /// `MPI_Bcast` of doubles: `buf` is the payload at the root and is
    /// overwritten (and resized) everywhere else. Receivers that only read
    /// the result should prefer [`RankCtx::bcast_shared_f64`], which skips
    /// the copy-on-unwrap of a buffer still shared with in-flight sends.
    pub fn bcast_f64(&mut self, comm: &Comm, root: usize, buf: &mut Vec<f64>) {
        self.emit(RankEvent::SpanBegin("coll", "bcast"));
        let payload = if comm.rank() == root {
            Some(Payload::f64(std::mem::take(buf)))
        } else {
            None
        };
        *buf = self.bcast_payload(comm, root, payload).expect_f64();
        self.emit(RankEvent::SpanEnd("coll", "bcast"));
    }

    /// Zero-copy `MPI_Bcast` of doubles for read-only consumers: the root
    /// passes `Some(data)`, everyone gets back a handle to one shared
    /// allocation per delivery chain — no per-hop clone, no unwrap copy.
    pub fn bcast_shared_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Vec<f64>>,
    ) -> Arc<Vec<f64>> {
        self.emit(RankEvent::SpanBegin("coll", "bcast"));
        let payload = if comm.rank() == root {
            Some(Payload::f64(data.expect("root must supply the payload")))
        } else {
            None
        };
        let out = self.bcast_payload(comm, root, payload).into_shared_f64();
        self.emit(RankEvent::SpanEnd("coll", "bcast"));
        out
    }

    /// Zero-copy `MPI_Bcast` of u64 values for read-only consumers.
    pub fn bcast_shared_u64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Vec<u64>>,
    ) -> Arc<Vec<u64>> {
        self.emit(RankEvent::SpanBegin("coll", "bcast"));
        let payload = if comm.rank() == root {
            Some(Payload::u64(data.expect("root must supply the payload")))
        } else {
            None
        };
        let out = self.bcast_payload(comm, root, payload).into_shared_u64();
        self.emit(RankEvent::SpanEnd("coll", "bcast"));
        out
    }

    /// Pipelined large-message broadcast: a binary tree over the
    /// communicator with the payload cut into `chunk_elems`-sized pieces
    /// that stream down the tree, so the critical path is
    /// `O(α·log P + β·size)` instead of the binomial tree's
    /// `O((α + β·size)·log P)` — what production MPI switches to above a
    /// few kilobytes. Falls back to the binomial tree for payloads of at
    /// most one chunk. Interior ranks forward each chunk to both subtrees
    /// as the same shared buffer.
    pub fn bcast_pipelined_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        buf: &mut Vec<f64>,
        chunk_elems: usize,
    ) {
        assert!(chunk_elems > 0, "chunk size must be positive");
        self.emit(RankEvent::SpanBegin("coll", "bcast_pipelined"));
        let p = comm.size();
        let me = comm.rank();
        let seq = self.coll_site(
            comm,
            CollKind::BcastPipelined,
            Some(root),
            chunk_elems as u64,
        );
        if p == 1 {
            self.emit(RankEvent::SpanEnd("coll", "bcast_pipelined"));
            return;
        }
        let tag = |chunk: u64| compose_coll_tag(seq, chunk);
        let rel = (me + p - root) % p;
        let parent = if rel == 0 {
            None
        } else {
            Some(((rel - 1) / 2 + root) % p)
        };
        let kids: Vec<usize> = [2 * rel + 1, 2 * rel + 2]
            .into_iter()
            .filter(|&c| c < p)
            .map(|c| (c + root) % p)
            .collect();
        // Header: total length (receivers cannot know it otherwise).
        let mut header = if rel == 0 {
            vec![buf.len() as u64]
        } else {
            Vec::new()
        };
        if let Some(par) = parent {
            header = self.recv_payload_u64(comm, par, tag(HEADER_CHUNK));
        }
        for &k in &kids {
            self.send_payload_u64(comm, k, tag(HEADER_CHUNK), &header);
        }
        let total = header[0] as usize;
        let nchunks = total.div_ceil(chunk_elems).max(1);
        self.emit(RankEvent::CollTagSpace {
            seq,
            chunks: nchunks as u64,
        });
        let mut out: Vec<f64> = if rel == 0 {
            std::mem::take(buf)
        } else {
            Vec::with_capacity(total)
        };
        for c in 0..nchunks {
            let lo = c * chunk_elems;
            let hi = total.min(lo + chunk_elems);
            // The root materialises each chunk once; everyone downstream
            // appends from a borrow and forwards the same allocation.
            let piece: Payload = if rel == 0 {
                Payload::f64(out[lo..hi].to_vec())
            } else {
                let got =
                    self.recv_payload(comm, parent.expect("non-root has parent"), tag(c as u64));
                out.extend_from_slice(got.as_f64());
                got
            };
            for &k in &kids {
                self.send_payload(comm, k, tag(c as u64), piece.clone());
            }
        }
        *buf = out;
        self.emit(RankEvent::SpanEnd("coll", "bcast_pipelined"));
    }

    fn recv_payload_u64(&mut self, comm: &Comm, src_index: usize, tag: u64) -> Vec<u64> {
        self.recv_payload(comm, src_index, tag).expect_u64()
    }

    fn send_payload_u64(&mut self, comm: &Comm, dst_index: usize, tag: u64, data: &[u64]) {
        self.send_payload(comm, dst_index, tag, Payload::u64(data.to_vec()));
    }

    /// `MPI_Bcast` of u64 values.
    pub fn bcast_u64(&mut self, comm: &Comm, root: usize, buf: &mut Vec<u64>) {
        self.emit(RankEvent::SpanBegin("coll", "bcast"));
        let payload = if comm.rank() == root {
            Some(Payload::u64(std::mem::take(buf)))
        } else {
            None
        };
        *buf = self.bcast_payload(comm, root, payload).expect_u64();
        self.emit(RankEvent::SpanEnd("coll", "bcast"));
    }

    /// Binomial-tree reduction of f64 vectors toward `root` with a custom
    /// element-wise combiner. Returns `Some(result)` at the root, `None`
    /// elsewhere.
    pub fn reduce_f64_with(
        &mut self,
        comm: &Comm,
        root: usize,
        acc: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Option<Vec<f64>> {
        self.emit(RankEvent::SpanBegin("coll", "reduce"));
        let out = self.reduce_f64_with_impl(comm, root, acc, op);
        self.emit(RankEvent::SpanEnd("coll", "reduce"));
        out
    }

    fn reduce_f64_with_impl(
        &mut self,
        comm: &Comm,
        root: usize,
        mut acc: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Option<Vec<f64>> {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Reduce, Some(root), acc.len() as u64);
        let tag = compose_coll_tag(seq, PLAIN_CHUNK);
        if p == 1 {
            return Some(acc);
        }
        let me = comm.rank();
        let rel = (me + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < p {
                    let src_index = (src_rel + root) % p;
                    let other = self.recv_payload(comm, src_index, tag);
                    self.check_reduce_len(comm, other.as_f64().len(), acc.len());
                    op(&mut acc, other.as_f64());
                }
            } else {
                let dst_index = (rel - mask + root) % p;
                self.send_payload(comm, dst_index, tag, Payload::f64(acc));
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// `MPI_Reduce(MPI_SUM)` of f64 vectors.
    pub fn reduce_sum_f64(&mut self, comm: &Comm, root: usize, data: &[f64]) -> Option<Vec<f64>> {
        self.reduce_sum_owned_f64(comm, root, data.to_vec())
    }

    /// `MPI_Reduce(MPI_SUM)` taking ownership of the contribution: callers
    /// that already own the buffer skip the `to_vec` the slice API pays.
    pub fn reduce_sum_owned_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
    ) -> Option<Vec<f64>> {
        self.reduce_f64_with(comm, root, data, sum_op)
    }

    /// Recursive-doubling allreduce of an owned vector with a commutative
    /// element-wise combiner: `⌈log₂ P⌉` exchange rounds, every rank busy
    /// every round, no root bottleneck. Non-power-of-two sizes fold the
    /// first `2r` ranks (where `r = P − 2^⌊log₂P⌋`) into `r` survivors
    /// before the butterfly and unfold after, per the standard MPICH
    /// scheme.
    ///
    /// Every rank applies the combiner over the same pairing tree (only
    /// operand order differs), so for a *commutative* op — IEEE addition
    /// and max/maxloc selection both qualify — all ranks produce
    /// bit-identical results.
    fn allreduce_rd(
        &mut self,
        comm: &Comm,
        mut acc: Vec<f64>,
        op: impl Fn(&mut [f64], &[f64]),
    ) -> Vec<f64> {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Allreduce, None, acc.len() as u64);
        if p == 1 {
            return acc;
        }
        let me = comm.rank();
        let p2 = prev_pow2(p);
        let r = p - p2;
        let steps = p2.trailing_zeros() as u64;
        // Tag chunks: 0 = fold, 1..=steps = butterfly rounds, steps+1 =
        // unfold.
        self.emit(RankEvent::CollTagSpace {
            seq,
            chunks: steps + 2,
        });
        let tag = |chunk: u64| compose_coll_tag(seq, chunk);
        // Fold phase: even ranks below 2r contribute to their odd
        // neighbour and sit out the butterfly.
        let newrank: Option<usize> = if me < 2 * r {
            if me & 1 == 0 {
                let contrib = std::mem::take(&mut acc);
                self.send_payload(comm, me + 1, tag(0), Payload::f64(contrib));
                None
            } else {
                let other = self.recv_payload(comm, me - 1, tag(0));
                self.check_reduce_len(comm, other.as_f64().len(), acc.len());
                op(&mut acc, other.as_f64());
                Some(me / 2)
            }
        } else {
            Some(me - r)
        };
        if let Some(nr) = newrank {
            for s in 0..steps {
                let partner_nr = nr ^ (1usize << s);
                let partner = rd_participant_rank(partner_nr, r);
                self.send_payload(comm, partner, tag(1 + s), Payload::f64(acc.clone()));
                let other = self.recv_payload(comm, partner, tag(1 + s));
                self.check_reduce_len(comm, other.as_f64().len(), acc.len());
                op(&mut acc, other.as_f64());
            }
        }
        // Unfold phase: odd survivors hand the result back to their even
        // neighbour.
        if me < 2 * r {
            if me & 1 == 0 {
                acc = self.recv_payload(comm, me + 1, tag(1 + steps)).expect_f64();
            } else {
                self.send_payload(comm, me - 1, tag(1 + steps), Payload::f64(acc.clone()));
            }
        }
        acc
    }

    /// `MPI_Allreduce(MPI_SUM)` of f64 vectors: recursive doubling above
    /// [`COLL_SMALL_BYTES`], the legacy reduce-then-broadcast tree pair at
    /// or below it (latency dominates tiny payloads, and the tree pair is
    /// what the paper's per-block formulas count).
    pub fn allreduce_sum_f64(&mut self, comm: &Comm, data: &[f64]) -> Vec<f64> {
        self.allreduce_sum_owned_f64(comm, data.to_vec())
    }

    /// Owned-input [`RankCtx::allreduce_sum_f64`]: callers that already own
    /// the contribution skip the copy.
    pub fn allreduce_sum_owned_f64(&mut self, comm: &Comm, data: Vec<f64>) -> Vec<f64> {
        if 8 * data.len() as u64 <= COLL_SMALL_BYTES {
            self.emit(RankEvent::SpanBegin("coll", "allreduce"));
            let reduced = self.reduce_f64_with(comm, 0, data, sum_op);
            let mut buf = reduced.unwrap_or_default();
            self.bcast_f64(comm, 0, &mut buf);
            self.emit(RankEvent::SpanEnd("coll", "allreduce"));
            buf
        } else {
            self.emit(RankEvent::SpanBegin("coll", "allreduce_rd"));
            let out = self.allreduce_rd(comm, data, sum_op);
            self.emit(RankEvent::SpanEnd("coll", "allreduce_rd"));
            out
        }
    }

    /// `MPI_Allreduce(MPI_MAX)` of a scalar. An 8-byte payload is always
    /// below [`COLL_SMALL_BYTES`], so the size rule resolves statically to
    /// the reduce-then-broadcast tree pair.
    pub fn allreduce_max_f64(&mut self, comm: &Comm, v: f64) -> f64 {
        self.emit(RankEvent::SpanBegin("coll", "allreduce"));
        let reduced = self.reduce_f64_with(comm, 0, vec![v], |a, b| {
            if b[0] > a[0] {
                a[0] = b[0];
            }
        });
        let mut buf = reduced.unwrap_or_default();
        self.bcast_f64(comm, 0, &mut buf);
        self.emit(RankEvent::SpanEnd("coll", "allreduce"));
        buf[0]
    }

    /// `MPI_Allreduce(MPI_MAXLOC)`: the maximum of `|v|` ties broken by the
    /// smaller `loc`; returns `(winning value, winning loc)`. The pivot
    /// search of distributed LU is built on this. Its fixed 16-byte
    /// payload is always below [`COLL_SMALL_BYTES`], so the size rule
    /// resolves statically to the tree pair — which is also what the
    /// paper's per-column message formulas count.
    pub fn allreduce_maxloc_abs(&mut self, comm: &Comm, v: f64, loc: u64) -> (f64, u64) {
        self.emit(RankEvent::SpanBegin("coll", "allreduce_maxloc"));
        let reduced = self.reduce_f64_with(comm, 0, vec![v, loc as f64], |a, b| {
            let better = b[0].abs() > a[0].abs() || (b[0].abs() == a[0].abs() && b[1] < a[1]);
            if better {
                a[0] = b[0];
                a[1] = b[1];
            }
        });
        let mut buf = reduced.unwrap_or_default();
        self.bcast_f64(comm, 0, &mut buf);
        self.emit(RankEvent::SpanEnd("coll", "allreduce_maxloc"));
        (buf[0], buf[1] as u64)
    }

    /// Gather every member's payload at the root, receiving in completion
    /// order (earliest virtual arrival first) and slotting by source —
    /// never head-of-line blocking on a slow low rank while faster high
    /// ranks sit fully arrived.
    fn gather_payloads(&mut self, comm: &Comm, root: usize, own: Payload) -> Option<Vec<Payload>> {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Gather, Some(root), 0);
        let tag = compose_coll_tag(seq, PLAIN_CHUNK);
        let me = comm.rank();
        if me == root {
            let srcs: Vec<usize> = (0..p).filter(|&i| i != me).collect();
            let mut payloads = self.recv_payload_set(comm, &srcs, tag).into_iter();
            let mut out: Vec<Payload> = Vec::with_capacity(p);
            for i in 0..p {
                if i == me {
                    out.push(own.clone());
                } else {
                    out.push(payloads.next().expect("one payload per source"));
                }
            }
            Some(out)
        } else {
            self.send_payload(comm, root, tag, own);
            None
        }
    }

    /// `MPI_Gather` of variable-length f64 chunks: the root receives every
    /// member's chunk (its own included), ordered by communicator rank.
    pub fn gather_f64(&mut self, comm: &Comm, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        self.emit(RankEvent::SpanBegin("coll", "gather"));
        let result = self
            .gather_payloads(comm, root, Payload::f64(data.to_vec()))
            .map(|chunks| chunks.into_iter().map(Payload::expect_f64).collect());
        self.emit(RankEvent::SpanEnd("coll", "gather"));
        result
    }

    /// Zero-copy `MPI_Gather` for read-only roots: each received chunk is
    /// handed over as the sender's own allocation.
    pub fn gather_shared_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[f64],
    ) -> Option<Vec<Arc<Vec<f64>>>> {
        self.emit(RankEvent::SpanBegin("coll", "gather"));
        let result = self
            .gather_payloads(comm, root, Payload::f64(data.to_vec()))
            .map(|chunks| chunks.into_iter().map(Payload::into_shared_f64).collect());
        self.emit(RankEvent::SpanEnd("coll", "gather"));
        result
    }

    /// Ring allgather core: step `s` sends chunk `(me − s) mod p` to the
    /// right neighbour and receives chunk `(me − 1 − s) mod p` from the
    /// left, so after `p − 1` steps everyone holds every chunk. Forwarded
    /// chunks travel as the originator's shared allocation (an `Arc` bump
    /// per hop). Handles variable-length (including empty) chunks
    /// natively, which the old gather-then-broadcast needed a counts
    /// round-trip for.
    fn allgather_ring(&mut self, comm: &Comm, data: &[f64]) -> Vec<Payload> {
        let p = comm.size();
        let seq = self.coll_site(comm, CollKind::Allgather, None, 0);
        let me = comm.rank();
        let mut chunks: Vec<Option<Payload>> = (0..p).map(|_| None).collect();
        chunks[me] = Some(Payload::f64(data.to_vec()));
        if p > 1 {
            self.emit(RankEvent::CollTagSpace {
                seq,
                chunks: (p - 1) as u64,
            });
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            for s in 0..p - 1 {
                let send_idx = (me + p - s) % p;
                let recv_idx = (me + p - 1 - s) % p;
                let tag = compose_coll_tag(seq, s as u64);
                let outgoing = chunks[send_idx]
                    .as_ref()
                    .expect("ring invariant: chunk present before step")
                    .clone();
                self.send_payload(comm, right, tag, outgoing);
                chunks[recv_idx] = Some(self.recv_payload(comm, left, tag));
            }
        }
        chunks
            .into_iter()
            .map(|c| c.expect("ring complete"))
            .collect()
    }

    /// `MPI_Allgather` of variable-length f64 chunks via the ring
    /// algorithm. Read-only consumers should prefer
    /// [`RankCtx::allgather_shared_f64`], which skips materialising owned
    /// copies of chunks still shared with in-flight forwards.
    pub fn allgather_f64(&mut self, comm: &Comm, data: &[f64]) -> Vec<Vec<f64>> {
        self.emit(RankEvent::SpanBegin("coll", "allgather_ring"));
        let out = self
            .allgather_ring(comm, data)
            .into_iter()
            .map(Payload::expect_f64)
            .collect();
        self.emit(RankEvent::SpanEnd("coll", "allgather_ring"));
        out
    }

    /// Zero-copy ring allgather: every chunk comes back as its
    /// originator's shared allocation.
    pub fn allgather_shared_f64(&mut self, comm: &Comm, data: &[f64]) -> Vec<Arc<Vec<f64>>> {
        self.emit(RankEvent::SpanBegin("coll", "allgather_ring"));
        let out = self
            .allgather_ring(comm, data)
            .into_iter()
            .map(Payload::into_shared_f64)
            .collect();
        self.emit(RankEvent::SpanEnd("coll", "allgather_ring"));
        out
    }

    /// Size-adaptive allgather for callers that know the combined element
    /// count up front (the hint must be communicator-uniform, like
    /// `expected_len` in `pdgetrf::bcast_sized` — ranks switching
    /// algorithms independently would deadlock, since per-rank chunk sizes
    /// legitimately differ, including empty chunks on non-contributing
    /// ranks). At or below [`COLL_SMALL_BYTES`] total, the latency-bound
    /// tree composition wins; above it, the ring.
    pub fn allgather_sized_f64(
        &mut self,
        comm: &Comm,
        data: &[f64],
        total_elems: usize,
    ) -> Vec<Vec<f64>> {
        if 8 * total_elems as u64 <= COLL_SMALL_BYTES {
            self.allgather_f64_tree(comm, data)
        } else {
            self.allgather_f64(comm, data)
        }
    }

    /// The legacy allgather composition — gather to rank 0, then broadcast
    /// counts and the flattened payload. Kept as the small-payload
    /// fallback of [`RankCtx::allgather_sized_f64`] and as the reference
    /// algorithm the bench suite measures the ring against.
    pub fn allgather_f64_tree(&mut self, comm: &Comm, data: &[f64]) -> Vec<Vec<f64>> {
        self.emit(RankEvent::SpanBegin("coll", "allgather_tree"));
        let gathered = self.gather_f64(comm, 0, data);
        let (mut counts, mut flat) = match gathered {
            Some(chunks) => {
                let counts: Vec<u64> = chunks.iter().map(|c| c.len() as u64).collect();
                let flat: Vec<f64> = chunks.into_iter().flatten().collect();
                (counts, flat)
            }
            None => (Vec::new(), Vec::new()),
        };
        self.bcast_u64(comm, 0, &mut counts);
        self.bcast_f64(comm, 0, &mut flat);
        let mut out = Vec::with_capacity(counts.len());
        let mut off = 0usize;
        for c in counts {
            let c = c as usize;
            out.push(flat[off..off + c].to_vec());
            off += c;
        }
        self.emit(RankEvent::SpanEnd("coll", "allgather_tree"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_tag_fields_are_disjoint() {
        // Neighbouring (seq, chunk) pairs must never alias: each field lives
        // in its own bit range below the COLL_TAG marker.
        let a = compose_coll_tag(1, 0);
        let b = compose_coll_tag(0, 1);
        let c = compose_coll_tag(1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a & COLL_TAG, COLL_TAG);
        // seq and chunk decode back out of the packed tag.
        assert_eq!((a >> tagspace::CHUNK_BITS) & tagspace::MAX_SEQ, 1);
        assert_eq!(c & tagspace::MAX_CHUNK, 1);
    }

    #[test]
    fn coll_tag_saturates_exactly_at_the_field_boundaries() {
        // The largest legal (seq, chunk) fills every bit without carrying
        // into a neighbouring field.
        assert_eq!(
            compose_coll_tag(tagspace::MAX_SEQ, tagspace::MAX_CHUNK),
            u64::MAX
        );
        // The reserved marker chunks sit inside the chunk field.
        assert!(tagspace::chunk_fits(PLAIN_CHUNK));
        assert!(tagspace::chunk_fits(HEADER_CHUNK));
        assert_eq!(tagspace::MAX_PIPELINE_CHUNKS, HEADER_CHUNK);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows into the COLL_TAG bit")]
    fn coll_tag_rejects_seq_overflow() {
        compose_coll_tag(tagspace::MAX_SEQ + 1, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows its 20-bit field")]
    fn coll_tag_rejects_chunk_overflow() {
        compose_coll_tag(0, tagspace::MAX_CHUNK + 1);
    }

    #[test]
    fn rd_fold_mapping_is_a_bijection_onto_participants() {
        // For every communicator size, the newrank → rank mapping must hit
        // each butterfly participant exactly once, and the fold must pair
        // every even sitter-out with an odd survivor.
        for p in 1..=40usize {
            let p2 = prev_pow2(p);
            let r = p - p2;
            let mut seen = vec![false; p];
            for nr in 0..p2 {
                let rank = rd_participant_rank(nr, r);
                assert!(rank < p, "p={p}: participant {nr} maps to {rank}");
                assert!(!seen[rank], "p={p}: rank {rank} mapped twice");
                seen[rank] = true;
            }
            for (rank, active) in seen.iter().enumerate() {
                let folded_out = rank < 2 * r && rank % 2 == 0;
                assert_eq!(
                    *active, !folded_out,
                    "p={p}: rank {rank} participation is wrong"
                );
            }
        }
    }

    #[test]
    fn small_threshold_matches_the_model_crate_contract() {
        // 64 f64 elements sit exactly on the switch boundary: the last
        // payload served by the trees.
        assert_eq!(COLL_SMALL_BYTES, 512);
        assert_eq!(8 * 64, COLL_SMALL_BYTES);
    }
}
