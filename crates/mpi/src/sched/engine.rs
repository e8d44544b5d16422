//! The M:N engine: rank fibers multiplexed over a fixed worker pool.
//!
//! Shape (after the dytor runtime): every task has a *home worker*; wakes
//! push the task onto its home worker's run queue and only that worker
//! ever resumes it. Task state lives in a slab indexed by task id (== the
//! MPI rank), stacks come from one pooled allocation, and workers are
//! `thread::scope` threads that park (`std::thread::park`) when their
//! queue drains. A wake that queues a task unparks the home worker;
//! park/unpark carries a token, so an unpark that lands before the
//! worker parks is not lost.
//!
//! Home pinning is the memory-safety linchpin: a task mid-way through
//! switching *out* (state already `Ready` again after a racing wake, but
//! registers not yet parked) can only be resumed by the worker it is
//! switching out *on*, which by construction pops the queue only after
//! the switch completes. It also keeps worker-thread-locals (the linalg
//! pack scratch) coherent for any given rank.
//!
//! ## Quiescence is exact
//!
//! `active` counts tasks that are runnable (`Ready`/`Running`/
//! `Notified`). Every wake originates from a running task — senders,
//! registry completions, and poison broadcasts all execute on some rank's
//! fiber — so when a blocking task decrements `active` to zero there is
//! provably no wake in flight: the whole machine is deadlocked *now*.
//! [`Engine::block_current`] reports that as [`WakeReason::Quiescent`]
//! instead of parking forever, which is what lets checked runs probe the
//! wait-for graph with no grace timer and unchecked runs abort instead of
//! hanging. The dual case — the last runnable task *finishing* while
//! blocked peers remain — sets the orphan flag and wakes everyone so
//! receivers can fail fast with the peers-gone diagnostic.

use super::fiber::{self, Context};
use parking_lot::Mutex;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

/// Why `Engine::block_current` (the crate-internal yield point every
/// blocking wait funnels through) returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// A peer woke this task (message posted, collective completed,
    /// poison broadcast). Re-check the condition and block again if it
    /// still does not hold.
    Woken,
    /// No other task is runnable and none can become runnable: the task
    /// did *not* yield, and the caller owns reporting the deadlock.
    Quiescent,
}

/// Value written at the low end of every fiber stack; checked on each
/// block and at completion as a (best-effort) overflow tripwire — fiber
/// stacks have no OS guard page.
const CANARY: u64 = 0x6e65_6572_6c61_6721; // "greenla!" minus a vowel

enum TaskState {
    /// Queued (or about to be queued) on the home worker.
    Ready,
    /// Executing on its home worker.
    Running,
    /// Running, and a wake arrived meanwhile; the next block consumes the
    /// notification instead of yielding (no lost wakeups).
    Notified,
    /// Parked; registers live in `ctx`, waiting for a wake.
    Blocked,
    /// Finished; never scheduled again.
    Done,
}

/// One task's slab entry: scheduling state plus the two execution
/// contexts (its own, and the home worker's while the task runs).
struct TaskSlot {
    id: usize,
    home: usize,
    state: Mutex<TaskState>,
    /// The task's parked context (valid while `Ready`/`Blocked`).
    ctx: UnsafeCell<Context>,
    /// The home worker's context while the task runs (valid while
    /// `Running`/`Notified`).
    ret: UnsafeCell<Context>,
    body: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    engine: Cell<*const Engine>,
    canary: Cell<*mut u64>,
}

// SAFETY: `ctx`/`ret` are only touched by the home worker (resume/yield
// are strictly alternating on one thread thanks to home pinning); `body`
// and `state` are mutex-guarded; `engine`/`canary` are written once
// before workers start.
unsafe impl Send for TaskSlot {}
// SAFETY: shared access is sound for the same reasons as `Send` above —
// home pinning serialises the unsynchronised cells, mutexes guard the
// rest.
unsafe impl Sync for TaskSlot {}

/// All fiber stacks in one allocation: 10k ranks × 512 KiB is ~5 GiB of
/// *virtual* address space in a single mapping (the untouched pages cost
/// nothing resident, and one mapping sidesteps `vm.max_map_count`).
struct StackPool {
    /// Owns the allocation; only ever read through `base`-derived raw
    /// pointers.
    _mem: Vec<u8>,
    base: usize,
    stack_bytes: usize,
}

impl StackPool {
    fn new(ntasks: usize, stack_bytes: usize) -> Self {
        let stack_bytes = (stack_bytes + 15) & !15;
        let mut mem = Vec::with_capacity(ntasks * stack_bytes + 16);
        let base = ((mem.as_mut_ptr() as usize) + 15) & !15;
        StackPool {
            _mem: mem,
            base,
            stack_bytes,
        }
    }

    fn top(&self, i: usize) -> *mut u8 {
        (self.base + (i + 1) * self.stack_bytes) as *mut u8
    }

    fn bottom(&self, i: usize) -> *mut u64 {
        (self.base + i * self.stack_bytes) as *mut u64
    }
}

/// One worker's run queue, plus its thread handle once the worker has
/// started (set under the same lock a waker pushes under, so a waker
/// either sees the handle or the worker sees the pushed task).
#[derive(Default)]
struct WorkerQueue {
    tasks: VecDeque<usize>,
    thread: Option<Thread>,
}

/// The rank scheduler for one machine run. Public so runtime
/// internals (mailboxes, the registry) can wake tasks; rank code never
/// touches it directly.
pub struct Engine {
    tasks: Vec<TaskSlot>,
    workers: Vec<Mutex<WorkerQueue>>,
    /// Tasks in `Ready`/`Running`/`Notified` (see module docs).
    active: AtomicUsize,
    done: AtomicUsize,
    orphaned: AtomicBool,
    pool: StackPool,
}

// SAFETY: raw pointers inside are derived from owned, pinned-by-Arc
// storage; all cross-thread access is synchronised as described on
// `TaskSlot`.
unsafe impl Send for Engine {}
// SAFETY: as for `Send` — the stack pool is only carved into disjoint
// per-task regions, and every `TaskSlot` synchronises its own state.
unsafe impl Sync for Engine {}

thread_local! {
    /// (engine, task id) of the fiber executing on this worker thread.
    static CURRENT: Cell<Option<(*const Engine, usize)>> = const { Cell::new(None) };
}

/// Task id of the fiber running on the current thread, if any. `None`
/// when called from an ordinary thread, outside every engine.
pub(crate) fn current_task() -> Option<usize> {
    CURRENT.with(|c| c.get().map(|(_, t)| t))
}

impl Engine {
    /// Build an engine for `ntasks` tasks on `workers` worker threads
    /// with `stack_bytes` of stack per task.
    pub(crate) fn new(ntasks: usize, workers: usize, stack_bytes: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(
            fiber::supported(),
            "the rank engine requires x86_64: the fiber switch is hand-written \
             assembly and no other architecture has one"
        );
        let workers = workers.min(ntasks.max(1));
        let tasks = (0..ntasks)
            .map(|id| TaskSlot {
                id,
                home: id % workers,
                state: Mutex::new(TaskState::Ready),
                ctx: UnsafeCell::new(Context::empty()),
                ret: UnsafeCell::new(Context::empty()),
                body: Mutex::new(None),
                engine: Cell::new(std::ptr::null()),
                canary: Cell::new(std::ptr::null_mut()),
            })
            .collect();
        Engine {
            tasks,
            workers: (0..workers).map(|_| Mutex::default()).collect(),
            active: AtomicUsize::new(ntasks),
            done: AtomicUsize::new(0),
            orphaned: AtomicBool::new(false),
            pool: StackPool::new(ntasks, stack_bytes),
        }
    }

    pub(crate) fn ntasks(&self) -> usize {
        self.tasks.len()
    }

    /// Did the last runnable task finish while blocked peers remained?
    /// Woken receivers consult this to die with the peers-gone diagnostic
    /// instead of re-blocking.
    pub(crate) fn orphaned(&self) -> bool {
        self.orphaned.load(Ordering::SeqCst)
    }

    /// Run every task to completion on the worker pool. Blocks the
    /// calling thread until all tasks are `Done`.
    pub(crate) fn run<'scope>(self: &Arc<Self>, bodies: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        assert_eq!(bodies.len(), self.tasks.len(), "one body per task");
        if self.tasks.is_empty() {
            return;
        }
        for (i, body) in bodies.into_iter().enumerate() {
            // SAFETY: lifetime erasure to 'static, sound for the same
            // reason scoped threads are: `run` does not return until every
            // task is `Done`, so no body (or anything it borrows) outlives
            // this call.
            let body: Box<dyn FnOnce() + Send> = unsafe { std::mem::transmute(body) };
            let slot = &self.tasks[i];
            *slot.body.lock() = Some(body);
            slot.engine.set(Arc::as_ptr(self));
            let canary = self.pool.bottom(i);
            // SAFETY: slot `i` of the pool is exclusively this task's.
            unsafe {
                canary.write(CANARY);
                *slot.ctx.get() = fiber::prepare(
                    self.pool.top(i),
                    fiber_entry,
                    slot as *const TaskSlot as *mut u8,
                );
            }
            slot.canary.set(canary);
        }
        // Seed each task on its home worker in ascending id order.
        for slot in &self.tasks {
            self.workers[slot.home].lock().tasks.push_back(slot.id);
        }
        std::thread::scope(|scope| {
            for w in 0..self.workers.len() {
                let engine = Arc::clone(self);
                scope.spawn(move || engine.worker_loop(w));
            }
        });
        assert_eq!(
            self.done.load(Ordering::SeqCst),
            self.tasks.len(),
            "workers exited with unfinished tasks"
        );
    }

    fn worker_loop(self: Arc<Self>, me: usize) {
        let n = self.tasks.len();
        let queue = &self.workers[me];
        queue.lock().thread = Some(std::thread::current());
        loop {
            let next = queue.lock().tasks.pop_front();
            match next {
                Some(t) => self.resume(t),
                None if self.done.load(Ordering::SeqCst) == n => return,
                // Spurious returns just re-check the queue.
                None => std::thread::park(),
            }
        }
    }

    /// Queue task `tid` on worker `w` and unpark that worker.
    fn enqueue(&self, w: usize, tid: usize) {
        let thread = {
            let mut queue = self.workers[w].lock();
            queue.tasks.push_back(tid);
            queue.thread.clone()
        };
        if let Some(t) = thread {
            t.unpark();
        }
    }

    /// Switch the home worker into task `tid` until it yields or
    /// finishes.
    fn resume(self: &Arc<Self>, tid: usize) {
        let slot = &self.tasks[tid];
        {
            let mut s = slot.state.lock();
            match *s {
                TaskState::Ready => *s = TaskState::Running,
                // Stale queue entry (task already resumed and progressed);
                // skip.
                _ => return,
            }
        }
        CURRENT.with(|c| c.set(Some((Arc::as_ptr(self), tid))));
        // SAFETY: `ctx` holds a prepared or parked context; home pinning
        // guarantees no other worker touches this slot concurrently.
        unsafe { fiber::switch(slot.ret.get(), slot.ctx.get()) };
        CURRENT.with(|c| c.set(None));
    }

    /// Park the calling task until a wake arrives. Must be called from a
    /// fiber of this engine. Returns [`WakeReason::Quiescent`] — *without*
    /// yielding — when no wake can ever arrive; the caller then owns
    /// diagnosing and aborting the run.
    pub(crate) fn block_current(&self) -> WakeReason {
        let (eng, tid) = CURRENT
            .with(|c| c.get())
            .expect("block_current called outside an engine task");
        debug_assert!(std::ptr::eq(eng, self), "task blocked on a foreign engine");
        let slot = &self.tasks[tid];
        self.check_canary(slot);
        {
            let mut s = slot.state.lock();
            match *s {
                // A wake raced in while we were running: consume it
                // instead of yielding.
                TaskState::Notified => {
                    *s = TaskState::Running;
                    return WakeReason::Woken;
                }
                TaskState::Running => *s = TaskState::Blocked,
                _ => unreachable!("blocking task not in Running state"),
            }
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1
            && self.done.load(Ordering::SeqCst) < self.tasks.len()
        {
            // We were the only runnable task, so no wake targeting us can
            // be in flight (wakes originate from runnable tasks) and none
            // ever will: true quiescence. Un-block and report instead of
            // parking forever.
            self.active.fetch_add(1, Ordering::SeqCst);
            *slot.state.lock() = TaskState::Running;
            return WakeReason::Quiescent;
        }
        // SAFETY: home pinning — the worker under us is the only thread
        // that can resume this slot, and it only pops its queue after this
        // switch lands back in `worker_loop`.
        unsafe { fiber::switch(slot.ctx.get(), slot.ret.get()) };
        WakeReason::Woken
    }

    /// Make task `tid` runnable if it is blocked. Running tasks are
    /// flagged `Notified` so the wake cannot be lost; `Ready`/`Done`
    /// tasks are left alone.
    pub fn wake(&self, tid: usize) {
        let slot = &self.tasks[tid];
        let mut s = slot.state.lock();
        match *s {
            TaskState::Blocked => {
                *s = TaskState::Ready;
                drop(s);
                // Count the task runnable *before* it becomes poppable so
                // a racing blocker can never observe a spurious zero.
                self.active.fetch_add(1, Ordering::SeqCst);
                self.enqueue(slot.home, tid);
            }
            TaskState::Running => *s = TaskState::Notified,
            TaskState::Ready | TaskState::Notified | TaskState::Done => {}
        }
    }

    /// Wake every blocked task (poison/orphan broadcast).
    pub fn wake_all(&self) {
        for tid in 0..self.tasks.len() {
            self.wake(tid);
        }
    }

    fn check_canary(&self, slot: &TaskSlot) {
        let canary = slot.canary.get();
        if !canary.is_null() {
            // SAFETY: points at the low word of this task's pool slot.
            let v = unsafe { canary.read() };
            assert!(
                v == CANARY,
                "fiber stack overflow on task {} (canary clobbered); raise \
                 GREENLA_STACK_KB",
                slot.id
            );
        }
    }

    /// Completion path, running on the finished task's fiber. Never
    /// returns: switches back to the home worker for good.
    fn finish(&self, slot: &TaskSlot) -> ! {
        self.check_canary(slot);
        *slot.state.lock() = TaskState::Done;
        let n = self.tasks.len();
        let all_done = self.done.fetch_add(1, Ordering::SeqCst) + 1 == n;
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 && self.done.load(Ordering::SeqCst) < n {
            // Last runnable task gone while blocked peers remain: they
            // wait for messages nobody will send. Wake them all so they
            // abort with the peers-gone diagnostic instead of hanging.
            self.orphaned.store(true, Ordering::SeqCst);
            self.wake_all();
        }
        if all_done {
            for queue in &self.workers {
                if let Some(t) = queue.lock().thread.clone() {
                    t.unpark();
                }
            }
        }
        // SAFETY: final switch out; the slot is `Done` and never resumed.
        unsafe { fiber::switch(slot.ctx.get(), slot.ret.get()) };
        unreachable!("finished fiber was resumed");
    }
}

/// First (and only) frame of every task fiber.
extern "C" fn fiber_entry(arg: *mut u8) -> ! {
    // SAFETY: `arg` is the `TaskSlot` this fiber was prepared with; the
    // engine outlives all fibers (workers join before `run` returns).
    let slot = unsafe { &*(arg as *const TaskSlot) };
    // SAFETY: `engine` was set to the owning `Arc`'s pointer in `run`
    // before any fiber started, and `run` keeps that Arc alive until
    // every task is Done.
    let engine = unsafe { &*slot.engine.get() };
    let body = slot
        .body
        .lock()
        .take()
        .expect("fiber entered without a body");
    // Backstop only: rank bodies wrap user code in their own
    // catch_unwind and record the panic with the machine. Letting a panic
    // cross the fiber boot frame (which has no unwind info) would abort
    // the process.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    engine.finish(slot);
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    fn run_engine(n: usize, workers: usize, f: impl Fn(usize, &Arc<Engine>) + Sync) {
        let engine = Arc::new(Engine::new(n, workers, 64 * 1024));
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let f = &f;
                Box::new(move || f(i, &engine)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        engine.run(bodies);
    }

    #[test]
    fn all_tasks_run_to_completion() {
        let hits = (0..100).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        run_engine(100, 3, |i, _| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn block_and_wake_ping_pong() {
        // Task 0 blocks until task 1 wakes it; flag proves ordering.
        let flag = AtomicBool::new(false);
        run_engine(2, 2, |i, engine| {
            if i == 0 {
                while !flag.load(Ordering::SeqCst) {
                    assert_eq!(engine.block_current(), WakeReason::Woken);
                }
            } else {
                flag.store(true, Ordering::SeqCst);
                engine.wake(0);
            }
        });
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn notified_state_absorbs_racing_wakes() {
        // A wake delivered while the target runs must be consumed by the
        // target's *next* block, not lost. Task 0 is provably Running
        // when the wake lands (it signals `started` and spins), so the
        // wake takes the Notified path; were the notification lost, task
        // 0 would park with nobody left to wake it and see Quiescent.
        let started = AtomicBool::new(false);
        let flag = AtomicBool::new(false);
        run_engine(2, 2, |i, engine| {
            if i == 0 {
                started.store(true, Ordering::SeqCst);
                while !flag.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                assert_eq!(engine.block_current(), WakeReason::Woken);
            } else {
                while !started.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                engine.wake(0);
                flag.store(true, Ordering::SeqCst);
            }
        });
    }

    #[test]
    fn sole_blocker_observes_quiescence() {
        // 4 tasks all block with nobody left to wake them; exactly the
        // last one to park must see Quiescent, and its wake_all releases
        // the rest.
        let quiescent = AtomicUsize::new(0);
        run_engine(4, 2, |_, engine| match engine.block_current() {
            WakeReason::Quiescent => {
                quiescent.fetch_add(1, Ordering::SeqCst);
                engine.wake_all();
            }
            WakeReason::Woken => {}
        });
        assert_eq!(quiescent.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn orphan_flag_raised_when_last_runnable_finishes() {
        // One worker serialises the interleaving: task 0 parks, task 1
        // wakes it and parks forever, task 0 finishes — the last runnable
        // task is gone while task 1 is still blocked, so the engine must
        // raise the orphan flag and wake task 1 to terminate the run.
        let saw_orphan = AtomicBool::new(false);
        run_engine(2, 1, |i, engine| {
            if i == 0 {
                assert_eq!(engine.block_current(), WakeReason::Woken);
            } else {
                engine.wake(0);
                assert_eq!(engine.block_current(), WakeReason::Woken);
                assert!(engine.orphaned(), "woken without a wake source");
                saw_orphan.store(true, Ordering::SeqCst);
            }
        });
        assert!(saw_orphan.load(Ordering::SeqCst));
    }

    #[test]
    fn ten_thousand_tasks_spin_up_and_finish() {
        let count = AtomicUsize::new(0);
        run_engine(10_000, 4, |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10_000);
    }
}
