//! Rendezvous machinery for synchronising collectives.
//!
//! Barriers and communicator splits need *exact* max-of-clocks semantics
//! (every participant leaves at the same virtual instant), which a
//! tree-of-messages implementation only approximates. The registry gives
//! each collective call site a rendezvous cell keyed by
//! `(communicator id, per-communicator sequence number)`; the last arrival
//! computes the outcome and wakes the rest. Sequence numbers stay consistent
//! because MPI programs must issue collectives in the same order on every
//! member — the same invariant real MPI relies on.
//!
//! The registry is also the abort channel: when any rank panics, the machine
//! poisons it so blocked peers fail fast instead of deadlocking.

use crate::mailbox::EventMailboxes;
use crate::sched::{self, WakeReason};
use greenla_check::CheckSink;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of a communicator split for one rank.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    pub comm_id: u64,
    pub members: Arc<Vec<usize>>,
    pub my_index: usize,
    /// Virtual time at which the collective completes.
    pub release_t: f64,
}

/// One rank's entry into a communicator split: which call site it joins
/// (`parent_id`, `seq`), its identity and ordering inputs, and its timing
/// contribution.
#[derive(Clone, Copy, Debug)]
pub struct SplitEntry {
    /// Communicator being split.
    pub parent_id: u64,
    /// Per-communicator sequence number of the call site.
    pub seq: u64,
    /// Number of members expected at this call site.
    pub expected: usize,
    /// This rank's global rank.
    pub grank: usize,
    /// Partition this rank chose.
    pub color: u64,
    /// Ordering key within the partition (ties broken by global rank).
    pub key: u64,
    /// This rank's arrival time (virtual seconds).
    pub t: f64,
    /// This rank's estimate of the collective's cost; the largest entry
    /// wins.
    pub cost: f64,
}

struct BarrierState {
    expected: usize,
    arrived: usize,
    max_t: f64,
    cost: f64,
    release_t: Option<f64>,
    left: usize,
    /// Task ids parked on this cell; the completing arrival wakes them
    /// (poison wakes every task).
    waiters: Vec<usize>,
}

struct SplitState {
    expected: usize,
    /// (global rank, color, key, arrival time)
    entries: Vec<(usize, u64, u64, f64)>,
    cost: f64,
    outcome: Option<HashMap<usize, SplitOutcome>>,
    left: usize,
    /// See [`BarrierState::waiters`].
    waiters: Vec<usize>,
}

/// Shared rendezvous state for one machine run.
pub struct Registry {
    next_comm_id: AtomicU64,
    poisoned: AtomicBool,
    barriers: Mutex<HashMap<(u64, u64), BarrierState>>,
    splits: Mutex<HashMap<(u64, u64), SplitState>>,
    /// Checking sink of the owning machine (disabled by default). Waiters
    /// never poll it: the engine's quiescence signal runs its deadlock
    /// probe exactly once, the instant the machine stalls.
    check: CheckSink,
    /// The run's inboxes: [`Registry::poison`] broadcasts abort control
    /// messages through them, and collective completions wake parked
    /// waiters through their engine handle.
    mailboxes: Arc<EventMailboxes>,
}

impl Registry {
    pub(crate) fn new(mailboxes: Arc<EventMailboxes>, check: CheckSink) -> Self {
        Self {
            next_comm_id: AtomicU64::new(1), // 0 is the world
            poisoned: AtomicBool::new(false),
            barriers: Mutex::new(HashMap::new()),
            splits: Mutex::new(HashMap::new()),
            check,
            mailboxes,
        }
    }

    /// Mark the run as failed; every blocked rank will panic out. Every
    /// task is woken, and every inbox gets an abort control message so a
    /// rank parked in a blocking receive sees it too.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.mailboxes.poison_broadcast();
    }

    /// Has the run been poisoned by a peer's failure?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    fn check_poison(&self) {
        if self.is_poisoned() {
            self.abort();
        }
    }

    /// Die with the run's abort message: the deadlock diagnostic when the
    /// check sink declared one, the generic peer-failure message otherwise.
    pub(crate) fn abort(&self) -> ! {
        panic!("{}", self.check.abort_message());
    }

    /// The engine found every other task finished while `rank` waits for
    /// `(src, tag)`: nobody can wake it. With checking on, the deadlock
    /// probe names the wait-for cycle.
    pub(crate) fn report_orphaned(&self, rank: usize, src: usize, tag: u64) -> ! {
        if self.check.is_enabled() {
            self.report_quiescent_deadlock();
        }
        panic!("all peers gone while rank {rank} waits for ({src}, {tag})");
    }

    /// The engine detected machine-wide quiescence while this rank
    /// waited on something that can never complete. Report it (with the
    /// probe's wait-for diagnostic when checking is on), poison the run,
    /// and die. Must not hold a state-map guard.
    pub(crate) fn report_quiescent_deadlock(&self) -> ! {
        let msg = self.check.probe_deadlock_quiescent().unwrap_or_else(|| {
            "deadlock: every rank is blocked and none can be woken; run with \
             greenla-check attached for the wait-for cycle"
                .to_string()
        });
        self.poison();
        panic!("{msg}");
    }

    /// Wake every task parked on a rendezvous cell that just completed.
    fn wake_waiters(&self, waiters: &mut Vec<usize>) {
        for tid in waiters.drain(..) {
            self.mailboxes.engine().wake(tid);
        }
    }

    /// Yield the calling rank's worker until a completion or poison wakes
    /// it; the caller has already registered its task id on the cell and
    /// must not hold a state-map guard. Poison wakes every task (not just
    /// registered waiters), so the poison check after a wake cannot be
    /// missed.
    fn park_waiter(&self) {
        self.check_poison();
        match self.mailboxes.engine().block_current() {
            WakeReason::Woken => {}
            WakeReason::Quiescent => self.report_quiescent_deadlock(),
        }
        self.check_poison();
    }

    /// Enter a barrier on `(comm_id, seq)` with `expected` participants at
    /// virtual time `t`; returns the common release time `max(t_i) + cost`.
    pub fn barrier(&self, comm_id: u64, seq: u64, expected: usize, t: f64, cost: f64) -> f64 {
        let key = (comm_id, seq);
        let mut map = self.barriers.lock();
        let st = map.entry(key).or_insert(BarrierState {
            expected,
            arrived: 0,
            max_t: f64::NEG_INFINITY,
            cost,
            release_t: None,
            left: 0,
            waiters: Vec::new(),
        });
        assert_eq!(
            st.expected, expected,
            "barrier participant mismatch on {key:?}"
        );
        st.arrived += 1;
        st.max_t = st.max_t.max(t);
        st.cost = st.cost.max(cost);
        if st.arrived == st.expected {
            st.release_t = Some(st.max_t + st.cost);
            self.wake_waiters(&mut st.waiters);
        }
        loop {
            let st = map.get_mut(&key).expect("barrier state vanished");
            if let Some(rt) = st.release_t {
                st.left += 1;
                if st.left == st.expected {
                    map.remove(&key);
                }
                return rt;
            }
            st.waiters.push(current_rank_task());
            drop(map);
            self.park_waiter();
            map = self.barriers.lock();
        }
    }

    /// Enter a split call site with this rank's [`SplitEntry`]; blocks
    /// until all expected members arrive and returns this rank's new
    /// communicator.
    pub fn split(&self, entry: SplitEntry) -> SplitOutcome {
        let SplitEntry {
            parent_id,
            seq,
            expected,
            grank,
            color,
            key,
            t,
            cost,
        } = entry;
        let map_key = (parent_id, seq);
        let mut map = self.splits.lock();
        let st = map.entry(map_key).or_insert(SplitState {
            expected,
            entries: Vec::new(),
            cost,
            outcome: None,
            left: 0,
            waiters: Vec::new(),
        });
        assert_eq!(
            st.expected, expected,
            "split participant mismatch on {map_key:?}"
        );
        st.entries.push((grank, color, key, t));
        st.cost = st.cost.max(cost);
        if st.entries.len() == st.expected {
            let release_t = st
                .entries
                .iter()
                .map(|e| e.3)
                .fold(f64::NEG_INFINITY, f64::max)
                + st.cost;
            // Group by color, order by (key, global rank).
            let mut by_color: HashMap<u64, Vec<(u64, usize)>> = HashMap::new();
            for &(g, c, k, _) in &st.entries {
                by_color.entry(c).or_default().push((k, g));
            }
            let mut outcome = HashMap::with_capacity(st.expected);
            // Deterministic comm-id assignment: colors in ascending order.
            let mut colors: Vec<u64> = by_color.keys().copied().collect();
            colors.sort_unstable();
            for color in colors {
                let mut group = by_color.remove(&color).unwrap();
                group.sort_unstable();
                let members: Arc<Vec<usize>> = Arc::new(group.iter().map(|&(_, g)| g).collect());
                let comm_id = self.next_comm_id.fetch_add(1, Ordering::Relaxed);
                for (idx, &(_, g)) in group.iter().enumerate() {
                    outcome.insert(
                        g,
                        SplitOutcome {
                            comm_id,
                            members: Arc::clone(&members),
                            my_index: idx,
                            release_t,
                        },
                    );
                }
            }
            st.outcome = Some(outcome);
            self.wake_waiters(&mut st.waiters);
        }
        loop {
            let st = map.get_mut(&map_key).expect("split state vanished");
            if let Some(out) = &st.outcome {
                let mine = out
                    .get(&grank)
                    .expect("rank missing from split outcome")
                    .clone();
                st.left += 1;
                if st.left == st.expected {
                    map.remove(&map_key);
                }
                return mine;
            }
            st.waiters.push(current_rank_task());
            drop(map);
            self.park_waiter();
            map = self.splits.lock();
        }
    }

    /// Allocate a fresh communicator id (used by dup-style operations).
    pub fn fresh_comm_id(&self) -> u64 {
        self.next_comm_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Task id of the calling rank's fiber.
fn current_rank_task() -> usize {
    sched::current_task().expect("rank code outside an engine task")
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::sched::Engine;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Run `f(task, registry)` on `n` fibers of a fresh engine with
    /// `workers` workers; returns the per-task results and the registry.
    fn on_engine<R: Send>(
        n: usize,
        workers: usize,
        f: impl Fn(usize, &Registry) -> R + Sync,
    ) -> (Vec<R>, Registry) {
        let engine = Arc::new(Engine::new(n, workers, 64 * 1024));
        let mailboxes = Arc::new(EventMailboxes::new(n, Arc::clone(&engine)));
        let reg = Registry::new(mailboxes, CheckSink::disabled());
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
            .map(|i| {
                let (f, reg, slot) = (&f, &reg, &slots[i]);
                Box::new(move || *slot.lock() = Some(f(i, reg))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        engine.run(bodies);
        let results = slots
            .into_iter()
            .map(|m| m.into_inner().expect("task produced no result"))
            .collect();
        (results, reg)
    }

    #[test]
    fn barrier_releases_at_max_plus_cost() {
        let times = [1.0, 5.0, 3.0];
        let (out, _) = on_engine(3, 2, |i, reg| reg.barrier(0, 0, 3, times[i], 0.5));
        assert_eq!(out, vec![5.5; 3]);
    }

    #[test]
    fn barrier_state_cleaned_up_for_reuse() {
        let (out, reg) = on_engine(2, 2, |i, reg| {
            (0..3)
                .map(|seq| reg.barrier(7, seq, 2, i as f64, 0.0))
                .collect::<Vec<_>>()
        });
        assert_eq!(out, vec![vec![1.0; 3]; 2]);
        assert!(reg.barriers.lock().is_empty());
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        // 4 ranks: colors 0,0,1,1; keys reversed within color 0.
        let plan = [(0u64, 9u64), (0, 1), (1, 0), (1, 5)];
        let (results, _) = on_engine(4, 2, |g, reg| {
            let (color, key) = plan[g];
            reg.split(SplitEntry {
                parent_id: 0,
                seq: 0,
                expected: 4,
                grank: g,
                color,
                key,
                t: 0.0,
                cost: 0.1,
            })
        });
        // color 0: keys 9 (rank0), 1 (rank1) → order [1, 0]
        assert_eq!(*results[0].members, vec![1, 0]);
        assert_eq!(results[0].my_index, 1);
        assert_eq!(results[1].my_index, 0);
        // color 1: order [2, 3]
        assert_eq!(*results[2].members, vec![2, 3]);
        // distinct communicators, shared release time.
        assert_ne!(results[0].comm_id, results[2].comm_id);
        assert_eq!(results[0].release_t, results[2].release_t);
        assert_eq!(results[0].release_t, 0.1);
    }

    #[test]
    fn poison_unblocks_waiters() {
        // One worker runs the tasks in id order: task 0 parks in a barrier
        // task 1 never joins, then task 1 poisons the run.
        let (out, reg) = on_engine(2, 1, |i, reg| {
            if i == 0 {
                catch_unwind(AssertUnwindSafe(|| reg.barrier(0, 0, 2, 0.0, 0.0))).is_err()
            } else {
                reg.poison();
                true
            }
        });
        assert!(out[0], "waiter should have panicked out");
        assert!(reg.is_poisoned());
    }
}
