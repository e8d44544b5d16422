//! The machine: runs a program with one rank per placement slot, each
//! rank a fiber of the M:N engine (see [`crate::sched`]).

use crate::context::RankCtx;
use crate::envelope::Envelope;
use crate::error::MachineError;
use crate::mailbox::EventMailboxes;
use crate::observe::{Observer, RankEvent};
use crate::registry::Registry;
use crate::sched::{Engine, SchedulerKind};
use crate::traffic::{Traffic, TrafficSnapshot};
use greenla_check::CheckSink;
use greenla_cluster::ledger::Ledger;
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_faults::FaultSink;
use greenla_trace::TraceSink;
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A configured simulated machine, ready to run MPI programs.
pub struct Machine {
    spec: ClusterSpec,
    placement: Placement,
    power: PowerModel,
    seed: u64,
    ledger: Arc<Ledger>,
    traffic: Arc<Traffic>,
    trace: TraceSink,
    check: CheckSink,
    faults: FaultSink,
    sched_workers: Option<usize>,
}

/// Worker-pool size when the machine doesn't pin one: the host's
/// parallelism, clamped to a small pool (the workers mostly shuffle
/// fibers, and past a handful they just contend on the queues).
fn default_sched_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Per-fiber stack size. Rank closures in this codebase are shallow
/// (solver frames plus the runtime), so the default 512 KiB is generous;
/// pages are only committed on touch, so 10k ranks cost virtual address
/// space, not resident memory. Override with the `GREENLA_STACK_KB`
/// environment variable (floor 64 KiB).
fn sched_stack_bytes() -> usize {
    let kb = std::env::var("GREENLA_STACK_KB")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(512);
    kb.max(64) * 1024
}

/// What a completed run produced.
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by global rank.
    pub results: Vec<R>,
    /// Final virtual clock of each rank.
    pub final_clocks: Vec<f64>,
    /// Virtual makespan: the latest final clock.
    pub makespan: f64,
    /// Total traffic of the run.
    pub traffic: TrafficSnapshot,
}

impl Machine {
    /// Build a machine. The placement must have been generated for the same
    /// node shape and must fit within the cluster's node count.
    pub fn new(
        spec: ClusterSpec,
        placement: Placement,
        power: PowerModel,
        seed: u64,
    ) -> Result<Self, MachineError> {
        if placement.node_spec() != &spec.node {
            return Err(MachineError::NodeShapeMismatch);
        }
        if placement.nodes_used() > spec.nodes {
            return Err(MachineError::PlacementTooLarge {
                needed: placement.nodes_used(),
                available: spec.nodes,
            });
        }
        let ledger = Arc::new(Ledger::new(spec.node.clone(), placement.nodes_used()));
        Ok(Self {
            spec,
            placement,
            power,
            seed,
            ledger,
            traffic: Arc::new(Traffic::new()),
            trace: TraceSink::disabled(),
            check: CheckSink::disabled(),
            faults: FaultSink::disabled(),
            sched_workers: None,
        })
    }

    /// Select the rank-scheduling engine. The machine has a single
    /// engine ([`SchedulerKind`] has one variant), so there is nothing to
    /// record; the setter stays so configs that name the engine keep
    /// compiling.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        let SchedulerKind::EventDriven = kind;
    }

    /// Builder-style [`Machine::set_scheduler`].
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.set_scheduler(kind);
        self
    }

    /// Pin the engine's worker-pool size instead of deriving it from the
    /// host's parallelism. Benchmarks pin this so wall-clock numbers are
    /// comparable across machines; virtual-time results never depend on
    /// it.
    pub fn set_sched_workers(&mut self, workers: usize) {
        assert!(workers >= 1, "need at least one worker");
        self.sched_workers = Some(workers);
    }

    /// Builder-style [`Machine::set_sched_workers`].
    pub fn with_sched_workers(mut self, workers: usize) -> Self {
        self.set_sched_workers(workers);
        self
    }

    /// Attach an event-trace sink. Tracing only observes the virtual
    /// clocks — it never advances them — so a traced run produces
    /// bit-identical timings to an untraced one.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Builder-style [`Machine::set_trace`].
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The attached trace sink (disabled by default).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Attach a correctness-checking sink. Like tracing, checking only
    /// observes the virtual clocks — it never advances them — so a checked
    /// run produces bit-identical timings to an unchecked one.
    pub fn set_check(&mut self, sink: CheckSink) {
        self.check = sink;
    }

    /// Builder-style [`Machine::set_check`].
    pub fn with_check(mut self, sink: CheckSink) -> Self {
        self.check = sink;
        self
    }

    /// The attached checking sink (disabled by default).
    pub fn check(&self) -> &CheckSink {
        &self.check
    }

    /// Attach a fault-injection sink. Unlike tracing and checking, an
    /// *active* plan perturbs virtual time on purpose; a disabled sink
    /// (the default) costs one branch per injection point and leaves the
    /// timeline bit-identical to a build without the fault layer.
    pub fn set_faults(&mut self, sink: FaultSink) {
        self.faults = sink;
    }

    /// Builder-style [`Machine::set_faults`].
    pub fn with_faults(mut self, sink: FaultSink) -> Self {
        self.faults = sink;
        self
    }

    /// The attached fault sink (disabled by default).
    pub fn faults(&self) -> &FaultSink {
        &self.faults
    }

    /// The activity ledger (shared; energy layers read it during and after
    /// the run).
    pub fn ledger(&self) -> Arc<Ledger> {
        Arc::clone(&self.ledger)
    }

    /// Traffic counters.
    pub fn traffic(&self) -> Arc<Traffic> {
        Arc::clone(&self.traffic)
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Run `f` on every rank and collect results.
    ///
    /// Every rank is a fiber multiplexed over a small worker pool (see
    /// [`crate::sched`]). This call blocks until every rank has finished,
    /// and all virtual-time outputs are bit-identical whatever the worker
    /// count.
    ///
    /// Panics if any rank panics (after poisoning the run so the remaining
    /// ranks unblock), propagating the first rank's panic payload.
    ///
    /// # Example
    ///
    /// ```
    /// use greenla_cluster::placement::{LoadLayout, Placement};
    /// use greenla_cluster::spec::ClusterSpec;
    /// use greenla_cluster::PowerModel;
    /// use greenla_mpi::Machine;
    ///
    /// let spec = ClusterSpec::test_cluster(1, 4); // one node, 2×4 cores
    /// let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
    /// let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1).unwrap();
    ///
    /// let out = machine.run(|ctx| {
    ///     let world = ctx.world();
    ///     ctx.compute(1_000_000, 0); // charge virtual time for 1 Mflop
    ///     ctx.allreduce_sum_f64(&world, &[1.0])[0]
    /// });
    ///
    /// assert!(out.results.iter().all(|&r| r == 8.0));
    /// assert!(out.makespan > 0.0); // virtual seconds, not wall time
    /// ```
    pub fn run<R, F>(&self, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let n = self.placement.ntasks();
        self.check
            .begin_run((0..n).map(|r| self.placement.core_of(r).node).collect());
        let workers = self.sched_workers.unwrap_or_else(default_sched_workers);
        let engine = Arc::new(Engine::new(n, workers, sched_stack_bytes()));
        let mailboxes = Arc::new(EventMailboxes::new(n, Arc::clone(&engine)));
        let registry = Registry::new(Arc::clone(&mailboxes), self.check.clone());
        let world_members: Arc<Vec<usize>> = Arc::new((0..n).collect());
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let clocks: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        // Each finished rank parks its pending queue here so the
        // message-hygiene audit can run after *every* rank has stopped
        // sending — draining inside the rank body would race a slower
        // peer's late send.
        let pendings: Vec<Mutex<Option<Vec<Envelope>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        // One rank's whole life on its fiber: build the context, run the
        // closure, bank the outputs.
        let run_rank = |rank: usize| {
            let core = self.placement.core_of(rank);
            let perf_mult = self.power.perf_multiplier(self.seed, core.node);
            let mut ctx = RankCtx {
                rank,
                nranks: n,
                core,
                clock: 0.0,
                spec: &self.spec,
                power: &self.power,
                seed: self.seed,
                perf_mult,
                ledger: &self.ledger,
                traffic: &self.traffic,
                registry: &registry,
                placement: &self.placement,
                mailboxes: Arc::clone(&mailboxes),
                pending: Vec::new(),
                seqs: Default::default(),
                world_members: Arc::clone(&world_members),
                observer: Observer::new(&self.trace, &self.check, rank, core.node),
                faults: self.faults.handle(rank, core.node),
            };
            match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                Ok(r) => {
                    *results[rank].lock() = Some(r);
                    *clocks[rank].lock() = ctx.clock;
                    ctx.emit(RankEvent::Finished);
                    *pendings[rank].lock() = Some(std::mem::take(&mut ctx.pending));
                }
                Err(payload) => {
                    // Record the payload BEFORE poisoning: cascade
                    // panics ("a peer rank failed") only start once
                    // the registry is poisoned, so this order
                    // guarantees the run aborts with the root
                    // cause's diagnostic, not a casualty's.
                    {
                        let mut slot = first_panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    registry.poison();
                }
            }
        };
        let run_rank = &run_rank;
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
            .map(|rank| Box::new(move || run_rank(rank)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        engine.run(bodies);

        if let Some(payload) = first_panic.into_inner() {
            resume_unwind(payload);
        }
        if self.check.is_enabled() || self.faults.is_enabled() {
            // Message hygiene: anything still sitting in a mailbox at
            // finalize was sent but never received (MSG001). Injected
            // duplicates a receiver finished before pumping are accounted
            // here instead — whether a duplicate is discarded mid-run or at
            // finalize is a wall-clock accident, but the total observed
            // count is deterministic.
            for (rank, slot) in pendings.iter().enumerate() {
                if let Some(pending) = slot.lock().take() {
                    // Abort control messages are runtime plumbing, not rank
                    // traffic — never report them as leaks.
                    let mut leaked: Vec<(usize, u64, u64, f64)> = Vec::new();
                    let mut audit = |e: &Envelope| {
                        if e.is_control() {
                            return;
                        }
                        if e.dup {
                            self.faults.note_dup_discarded();
                        } else {
                            leaked.push((e.src, e.comm_id, e.tag, e.arrival));
                        }
                    };
                    pending.iter().for_each(&mut audit);
                    while let Some(e) = mailboxes.try_pop(rank) {
                        audit(&e);
                    }
                    if !leaked.is_empty() && self.check.is_enabled() {
                        self.check.report_residue(rank, &leaked);
                    }
                }
            }
        }
        let results: Vec<R> = results
            .into_iter()
            .map(|m| m.into_inner().expect("rank produced no result"))
            .collect();
        let final_clocks: Vec<f64> = clocks.into_iter().map(|m| m.into_inner()).collect();
        let makespan = final_clocks.iter().fold(0.0f64, |a, &b| a.max(b));
        RunOutput {
            results,
            final_clocks,
            makespan,
            traffic: self.traffic.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenla_cluster::placement::LoadLayout;

    fn machine(ranks: usize) -> Machine {
        let spec = ClusterSpec::test_cluster(8, 4); // 8 nodes × 2×4 cores
        let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
        Machine::new(spec, placement, PowerModel::deterministic(), 42).unwrap()
    }

    #[test]
    fn ranks_see_identity() {
        let m = machine(8);
        let out = m.run(|ctx| (ctx.rank(), ctx.size(), ctx.node()));
        for (r, &(rank, size, node)) in out.results.iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 8);
            assert_eq!(node, r / 8); // 8 ranks per full-load test node
        }
    }

    #[test]
    fn compute_advances_clock_deterministically() {
        let m = machine(8);
        let out = m.run(|ctx| {
            ctx.compute(1_000_000, 0);
            ctx.now()
        });
        for &t in &out.results {
            assert!(t > 0.0);
        }
        // Same node → same jitter → same time; all ranks did identical work.
        assert_eq!(out.results[0], out.results[1]);
        // Two runs are bit-identical.
        let m2 = machine(8);
        let out2 = m2.run(|ctx| {
            ctx.compute(1_000_000, 0);
            ctx.now()
        });
        assert_eq!(out.results, out2.results);
    }

    #[test]
    fn send_recv_pair_respects_causality() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.compute(50_000_000, 0); // delay the sender
                ctx.send_f64(&world, 1, 7, &[1.5, 2.5]);
                ctx.now()
            } else if ctx.rank() == 1 {
                let data = ctx.recv_f64(&world, 0, 7);
                assert_eq!(data, vec![1.5, 2.5]);
                ctx.now()
            } else {
                0.0
            }
        });
        // Receiver finishes after sender started the message.
        assert!(
            out.results[1] > out.results[0] * 0.9,
            "{:?}",
            &out.results[..2]
        );
        assert!(out.results[1] > 0.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let m = machine(8);
        let out = m.run(|ctx| {
            // Rank-dependent work before the barrier.
            ctx.compute(1_000_000 * (ctx.rank() as u64 + 1), 0);
            let world = ctx.world();
            ctx.barrier(&world);
            ctx.now()
        });
        let t0 = out.results[0];
        for &t in &out.results {
            assert!((t - t0).abs() < 1e-12, "clocks diverged: {:?}", out.results);
        }
        // Barrier time ≥ slowest rank's work.
        assert!(t0 >= out.results[7] * 0.999);
    }

    #[test]
    fn split_shared_groups_by_node() {
        let m = machine(16); // 2 nodes × 8
        let out = m.run(|ctx| {
            let world = ctx.world();
            let node_comm = ctx.split_shared(&world);
            (node_comm.size(), node_comm.rank(), node_comm.is_highest())
        });
        for (r, &(size, idx, highest)) in out.results.iter().enumerate() {
            assert_eq!(size, 8);
            assert_eq!(idx, r % 8);
            assert_eq!(highest, r % 8 == 7, "rank {r}");
        }
    }

    #[test]
    fn bcast_delivers_to_all() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mut buf = if ctx.rank() == 3 {
                vec![9.0, 8.0, 7.0]
            } else {
                Vec::new()
            };
            ctx.bcast_f64(&world, 3, &mut buf);
            buf
        });
        for r in out.results {
            assert_eq!(r, vec![9.0, 8.0, 7.0]);
        }
    }

    #[test]
    fn bcast_traffic_is_p_minus_1_messages() {
        let m = machine(8);
        let before = m.traffic().snapshot();
        m.run(|ctx| {
            let world = ctx.world();
            let mut buf = if ctx.rank() == 0 {
                vec![0.0; 100]
            } else {
                Vec::new()
            };
            ctx.bcast_f64(&world, 0, &mut buf);
        });
        let diff = m.traffic().snapshot().since(&before);
        assert_eq!(diff.msgs, 7, "binomial bcast must send P-1 messages");
        assert_eq!(diff.volume_elems(), 700);
    }

    #[test]
    fn pipelined_bcast_delivers_identically() {
        let m = machine(16);
        let payload: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let expected = payload.clone();
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mut buf = if ctx.rank() == 2 {
                payload.clone()
            } else {
                Vec::new()
            };
            ctx.bcast_pipelined_f64(&world, 2, &mut buf, 128);
            buf
        });
        for r in out.results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn pipelined_bcast_beats_binomial_on_large_payloads() {
        // Critical path O(α·logP + β·n) vs O((α + β·n)·logP).
        let payload = vec![1.0f64; 2_000_000];
        let run = |pipelined: bool| {
            let m = machine(16);
            let p2 = payload.clone();
            let out = m.run(move |ctx| {
                let world = ctx.world();
                let mut buf = if ctx.rank() == 0 {
                    p2.clone()
                } else {
                    Vec::new()
                };
                if pipelined {
                    ctx.bcast_pipelined_f64(&world, 0, &mut buf, 64 * 1024);
                } else {
                    ctx.bcast_f64(&world, 0, &mut buf);
                }
                ctx.now()
            });
            out.results.iter().fold(0.0f64, |a, &b| a.max(b))
        };
        let t_pipe = run(true);
        let t_tree = run(false);
        assert!(
            t_pipe < t_tree * 0.7,
            "pipelined {t_pipe} should clearly beat binomial {t_tree}"
        );
    }

    #[test]
    fn pipelined_bcast_empty_and_tiny_payloads() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mut small = if ctx.rank() == 0 {
                vec![42.0]
            } else {
                Vec::new()
            };
            ctx.bcast_pipelined_f64(&world, 0, &mut small, 1000);
            let mut empty = if ctx.rank() == 0 {
                Vec::new()
            } else {
                vec![9.9]
            };
            ctx.bcast_pipelined_f64(&world, 0, &mut empty, 4);
            (small, empty)
        });
        for (small, empty) in out.results {
            assert_eq!(small, vec![42.0]);
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mine = vec![ctx.rank() as f64, 1.0];
            let root_sum = ctx.reduce_sum_f64(&world, 2, &mine);
            let all_sum = ctx.allreduce_sum_f64(&world, &mine);
            (root_sum, all_sum)
        });
        for (r, (root_sum, all_sum)) in out.results.into_iter().enumerate() {
            assert_eq!(all_sum, vec![28.0, 8.0]);
            if r == 2 {
                assert_eq!(root_sum.unwrap(), vec![28.0, 8.0]);
            } else {
                assert!(root_sum.is_none());
            }
        }
    }

    #[test]
    fn maxloc_finds_global_pivot() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            // Rank 5 holds the largest |value|.
            let v = if ctx.rank() == 5 {
                -100.0
            } else {
                ctx.rank() as f64
            };
            ctx.allreduce_maxloc_abs(&world, v, ctx.rank() as u64)
        });
        for (v, loc) in out.results {
            assert_eq!(v, -100.0);
            assert_eq!(loc, 5);
        }
    }

    #[test]
    fn gather_preserves_order_and_lengths() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mine: Vec<f64> = (0..=ctx.rank()).map(|i| i as f64).collect();
            ctx.gather_f64(&world, 0, &mine)
        });
        let chunks = out.results[0].clone().unwrap();
        assert_eq!(chunks.len(), 8);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.len(), i + 1);
        }
        assert!(out.results[1].is_none());
    }

    #[test]
    fn mismatched_reduce_lengths_abort_with_the_stable_diagnostic() {
        // A malformed collective must surface as the documented
        // `CollContractError` message (the chaos battery's abort-set
        // depends on the prefix), not as a bare slice-length assert.
        let m = machine(8);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.run(|ctx| {
                let world = ctx.world();
                let len = if ctx.rank() == 5 { 3 } else { 2 };
                ctx.reduce_sum_f64(&world, 0, &vec![1.0; len]);
            })
        }));
        let payload = match r {
            Err(p) => p,
            Ok(_) => panic!("mismatched lengths must abort"),
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("collective contract violated: reduce length mismatch"),
            "diagnostic drifted: {msg}"
        );
    }

    #[test]
    fn gather_charges_receives_in_completion_order() {
        // All 8 ranks sit on one node, so permuting the senders'
        // pre-gather compute times permutes the arrival times without
        // changing their multiset. A root that receives in completion
        // order finishes at the same virtual time either way; the old
        // rank-ordered receive loop stalled on slow low ranks while
        // arrived high ranks waited (head-of-line blocking), making the
        // end time permutation-dependent.
        let run = |weights: [u64; 8]| {
            let out = machine(8).run(move |ctx| {
                let world = ctx.world();
                ctx.compute(weights[ctx.rank()] * 1_000_000, 0);
                ctx.gather_f64(&world, 0, &[ctx.rank() as f64])
            });
            let chunks = out.results[0].clone().unwrap();
            let flat: Vec<f64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..8).map(f64::from).collect::<Vec<_>>());
            out.final_clocks[0]
        };
        // The root (rank 0) keeps the same weight in both runs; the other
        // seven are reversed.
        let ascending = run([0, 1, 2, 3, 4, 5, 6, 7]);
        let descending = run([0, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(
            ascending.to_bits(),
            descending.to_bits(),
            "completion-order gather must be invariant to arrival permutation"
        );
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            ctx.allgather_f64(&world, &[ctx.rank() as f64 * 10.0])
        });
        let expected: Vec<Vec<f64>> = (0..8).map(|r| vec![r as f64 * 10.0]).collect();
        for r in out.results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn iprobe_respects_virtual_causality() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.compute(100_000_000, 0); // send late in virtual time
                    ctx.send_f64(&world, 1, 5, &[1.0]);
                    true
                }
                1 => {
                    // Synchronise so the message is physically in flight…
                    let t_sent = {
                        // wait until clock surpasses sender's send time via
                        // a second message on another tag
                        ctx.recv_f64(&world, 2, 6);
                        ctx.now()
                    };
                    let _ = t_sent;
                    // …then probe: at our *early* virtual time the rank-0
                    // message may not have virtually arrived yet.
                    let early = ctx.iprobe(&world, 0, 5);
                    // Advance past the arrival and probe again.
                    ctx.compute(200_000_000, 0);
                    // Give the OS a moment so the envelope is physically
                    // queued (spin on the probe; terminates because the
                    // payload was sent before rank 0 exited).
                    let mut late = ctx.iprobe(&world, 0, 5);
                    while !late {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        late = ctx.iprobe(&world, 0, 5);
                    }
                    // Consume it so nothing dangles.
                    ctx.recv_f64(&world, 0, 5);
                    !early && late
                }
                2 => {
                    ctx.send_f64(&world, 1, 6, &[0.0]);
                    true
                }
                _ => true,
            }
        });
        assert!(
            out.results[1],
            "iprobe must observe messages only after their virtual arrival"
        );
    }

    #[test]
    fn recv_idle_advances_clock_without_busy_time() {
        let m = machine(8);
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.compute(100_000_000, 0);
                    ctx.send_f64(&world, 1, 9, &[3.0]);
                    0.0
                }
                1 => {
                    let v = ctx.recv_f64_idle(&world, 0, 9);
                    assert_eq!(v, vec![3.0]);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        // Receiver's clock advanced past the sender's work…
        assert!(out.results[1] > 0.04);
        // …but its core shows (almost) no busy time: only the wake-up o.
        let busy = m.ledger().core_busy_until(
            m.placement().core_of(1),
            greenla_cluster::ledger::ActivityKind::Comm,
            f64::INFINITY,
        );
        assert!(
            busy < 1e-6,
            "idle wait must not record busy time, got {busy}"
        );
    }

    #[test]
    fn rank_panic_propagates_without_deadlock() {
        let m = machine(8);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 3 {
                    panic!("injected fault");
                }
                // Everyone else blocks in a barrier rank 3 never joins.
                ctx.barrier(&world);
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn rank_panic_unblocks_blocking_receivers() {
        // Ranks 1..7 park in a blocking receive on a message rank 0 never
        // sends; the abort control message posted by poison() must wake
        // them (no timeout polling exists).
        let m = machine(8);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    panic!("injected fault");
                }
                ctx.recv_f64(&world, 0, 1);
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn rank_panic_unblocks_checked_receivers() {
        // Same shape with the checker attached: the checked wait must
        // also observe the poison and fail the run rather than hang.
        let m = machine(8).with_check(greenla_check::CheckSink::enabled());
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    panic!("injected fault");
                }
                ctx.recv_f64(&world, 0, 1);
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn dropped_send_recovers_with_backoff_and_is_reported() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Drop { count: 2 },
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let m = machine(8).with_faults(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[1.0]);
                    ctx.now()
                }
                1 => {
                    assert_eq!(ctx.recv_f64(&world, 0, 7), vec![1.0]);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        // The two dropped attempts cost the sender backoff busy time.
        let clean = machine(8).run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[1.0]);
                    ctx.now()
                }
                1 => {
                    ctx.recv_f64(&world, 0, 7);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        assert!(
            out.results[0] > clean.results[0],
            "retries must be visible in virtual time"
        );
        let rep = sink.report();
        assert_eq!(rep.injected.msg_drop, 2);
        assert_eq!(rep.recovered.msg_drop, 2);
    }

    #[test]
    fn drop_burst_past_retry_budget_aborts_with_diagnostic() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind, MAX_SEND_RETRIES};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Drop {
                    count: MAX_SEND_RETRIES + 1,
                },
            }],
            ..Default::default()
        };
        let m = machine(8).with_faults(FaultSink::with_plan(plan));
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.run(|ctx| {
                let world = ctx.world();
                if ctx.rank() == 0 {
                    ctx.send_f64(&world, 1, 7, &[1.0]);
                } else if ctx.rank() == 1 {
                    ctx.recv_f64(&world, 0, 7);
                }
            })
        }));
        let payload = match r {
            Err(p) => p,
            Ok(_) => panic!("lost message must abort the run"),
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.starts_with("injected fault:")
                || msg.contains("simulated MPI run aborted")
                || msg.contains("all peers gone"),
            "unstable diagnostic: {msg}"
        );
    }

    #[test]
    fn duplicate_envelope_is_discarded_and_counted() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let m = machine(8).with_faults(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[2.0]);
                    Vec::new()
                }
                1 => ctx.recv_f64(&world, 0, 7),
                _ => Vec::new(),
            }
        });
        assert_eq!(out.results[1], vec![2.0], "payload delivered exactly once");
        let rep = sink.report();
        assert_eq!(rep.injected.msg_dup, 1);
        assert_eq!(
            rep.observed.msg_dup, 1,
            "duplicate accounted whether pumped or audited at finalize"
        );
    }

    #[test]
    fn delayed_envelope_shifts_arrival_and_is_observed() {
        use greenla_faults::{FaultPlan, FaultSink, MsgFault, MsgFaultKind};
        let extra = 0.5;
        let plan = FaultPlan {
            messages: vec![MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Delay { extra_s: extra },
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let m = machine(8).with_faults(sink.clone());
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 7, &[3.0]);
                    0.0
                }
                1 => {
                    ctx.recv_f64(&world, 0, 7);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        assert!(
            out.results[1] >= extra,
            "receiver must wait out the injected delay, got {}",
            out.results[1]
        );
        let rep = sink.report();
        assert_eq!(rep.injected.msg_delay, 1);
        assert_eq!(rep.observed.msg_delay, 1);
    }

    #[test]
    fn planned_crash_aborts_checked_and_unchecked_runs() {
        use greenla_faults::{CrashFault, CrashWhen, FaultPlan, FaultSink};
        for checked in [false, true] {
            let plan = FaultPlan {
                crashes: vec![CrashFault {
                    rank: 3,
                    when: CrashWhen::AtCall { calls: 2 },
                }],
                ..Default::default()
            };
            let sink = FaultSink::with_plan(plan);
            let mut m = machine(8).with_faults(sink.clone());
            if checked {
                m = m.with_check(greenla_check::CheckSink::enabled());
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                m.run(|ctx| {
                    let world = ctx.world();
                    ctx.compute(1_000, 0);
                    ctx.compute(1_000, 0);
                    ctx.barrier(&world);
                })
            }));
            let payload = match r {
                Err(p) => p,
                Ok(_) => panic!("planned crash must abort (checked={checked})"),
            };
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.starts_with("injected fault: rank 3 crashed")
                    || msg.contains("simulated MPI run aborted"),
                "checked={checked}: unstable diagnostic: {msg}"
            );
            let rep = sink.report();
            assert_eq!(rep.injected.rank_crash, 1, "checked={checked}");
        }
    }

    #[test]
    fn disabled_faults_leave_virtual_time_untouched() {
        use greenla_faults::FaultSink;
        let base = machine(8).run(|ctx| {
            let world = ctx.world();
            ctx.compute(1_000_000, 64);
            ctx.barrier(&world);
            ctx.now()
        });
        let with_sink = machine(8).with_faults(FaultSink::disabled()).run(|ctx| {
            let world = ctx.world();
            ctx.compute(1_000_000, 64);
            ctx.barrier(&world);
            ctx.now()
        });
        for (a, b) in base.results.iter().zip(&with_sink.results) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn placement_bigger_than_cluster_rejected() {
        let spec = ClusterSpec::test_cluster(1, 4);
        let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
        assert!(matches!(
            Machine::new(spec, placement, PowerModel::deterministic(), 0),
            Err(MachineError::PlacementTooLarge { .. })
        ));
    }

    #[test]
    fn ledger_records_compute_activity() {
        let m = machine(8);
        m.run(|ctx| ctx.compute(1000, 512));
        assert_eq!(m.ledger().total_flops(), 8 * 1000);
        assert!(m.ledger().dram_bytes_until(0, 0, f64::INFINITY) > 0);
    }

    #[test]
    fn intra_vs_inter_node_message_cost() {
        let m = machine(16); // ranks 0..8 node 0, 8..16 node 1
        let out = m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send_f64(&world, 1, 1, &vec![0.0; 10000]); // same node
                    0.0
                }
                1 => {
                    ctx.recv_f64(&world, 0, 1);
                    ctx.now()
                }
                2 => {
                    ctx.send_f64(&world, 8, 2, &vec![0.0; 10000]); // cross node
                    0.0
                }
                8 => {
                    ctx.recv_f64(&world, 2, 2);
                    ctx.now()
                }
                _ => 0.0,
            }
        });
        assert!(
            out.results[8] > out.results[1],
            "cross-node message should be slower: {} vs {}",
            out.results[8],
            out.results[1]
        );
    }
}
