//! Per-rank mailboxes.
//!
//! A mailbox is an engine-owned `VecDeque` guarded by a mutex, and a post
//! *wakes* the destination task — blocking is the scheduler's job
//! ([`crate::sched::Engine::block_current`]), not the queue's. Keeping
//! the queues engine-owned (rather than inside each fiber) lets the
//! machine drain every inbox after the run for the MSG001 leak audit and
//! the duplicate accounting.

use crate::envelope::Envelope;
use crate::sched::Engine;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// All ranks' inboxes, plus the engine handle a post needs to wake the
/// destination.
pub(crate) struct EventMailboxes {
    inboxes: Vec<Mutex<VecDeque<Envelope>>>,
    engine: Arc<Engine>,
}

impl EventMailboxes {
    pub(crate) fn new(n: usize, engine: Arc<Engine>) -> Self {
        assert_eq!(engine.ntasks(), n, "one inbox per task");
        EventMailboxes {
            inboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            engine,
        }
    }

    pub(crate) fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Deliver `env` to rank `dst` and wake it.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        self.inboxes[dst].lock().push_back(env);
        self.engine.wake(dst);
    }

    /// Pop the next queued envelope for `rank`, if any.
    pub(crate) fn try_pop(&self, rank: usize) -> Option<Envelope> {
        self.inboxes[rank].lock().pop_front()
    }

    /// Post the abort control message to every inbox and wake everyone:
    /// the delivery half of [`crate::registry::Registry::poison`].
    pub(crate) fn poison_broadcast(&self) {
        for inbox in &self.inboxes {
            inbox.lock().push_back(Envelope::control_abort());
        }
        self.engine.wake_all();
    }
}
