//! Rank scheduling: the M:N fiber engine.
//!
//! The machine has a single engine. Every rank is a stackful fiber
//! multiplexed onto a fixed worker pool ([`Engine`]). A rank blocking in
//! `recv`/`barrier`/a collective yields its worker instead of parking a
//! thread, and every notification (message posts, registry completions,
//! poison/abort control envelopes, fault-injected wakeups) is a task
//! wake. This is what makes 10k–100k-rank simulations tractable — and it
//! makes deadlock detection *exact*: the engine knows the precise moment
//! every task is blocked (see [`engine::WakeReason::Quiescent`]), so
//! checked runs need no grace timer and unchecked runs abort instead of
//! hanging.
//!
//! The fiber switch is hand-written x86_64 assembly. On any other target
//! the engine refuses to start with a loud panic rather than falling back
//! to a different execution model.
//!
//! # The invariance contract
//!
//! Virtual-time outcomes must be **bit-identical** whatever the worker
//! count and from one run to the next: traces, per-rank final clocks,
//! violations, and fault reports. This holds by construction because
//! every timing decision is a function of virtual clocks carried in
//! envelopes and registry cells, never of wall-clock scheduling — e.g.
//! multi-source receives charge in sorted `(arrival, src)` order
//! regardless of delivery order, and fault delays shift virtual arrival
//! times rather than sleeping. The `scheduler_invariance` harness test
//! suite enforces the contract, including under active fault plans and
//! checked runs.

pub(crate) mod engine;
pub(crate) mod fiber;

pub(crate) use engine::current_task;
pub use engine::{Engine, WakeReason};

/// Which engine [`crate::Machine::run`] uses to execute ranks.
///
/// The machine has a single engine, so this enum has a single variant.
/// It stays a type because saved harness run configs carry it: datasets
/// written when a thread-per-rank engine still existed name
/// `"ThreadPerRank"`, and those parse to [`SchedulerKind::EventDriven`] —
/// the engine never changed virtual-time results, so nothing recorded is
/// lost.
///
/// ```
/// use greenla_cluster::placement::{LoadLayout, Placement};
/// use greenla_cluster::spec::ClusterSpec;
/// use greenla_cluster::PowerModel;
/// use greenla_mpi::{Machine, SchedulerKind};
///
/// let spec = ClusterSpec::test_cluster(1, 4);
/// let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
/// let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1)
///     .unwrap()
///     .with_scheduler(SchedulerKind::EventDriven);
///
/// let out = machine.run(|ctx| {
///     let world = ctx.world();
///     ctx.barrier(&world);
///     ctx.allreduce_sum_f64(&world, &[1.0])[0]
/// });
/// assert!(out.results.iter().all(|&r| r == 8.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub enum SchedulerKind {
    /// Green-task M:N engine: fibers over a small worker pool, exact
    /// event-driven deadlock detection, world sizes of 10k+ ranks.
    /// Requires x86_64 (the fiber switch is hand-written assembly).
    #[default]
    EventDriven,
}

/// Hand-written because the vendored derive has no `alias`: legacy
/// datasets name the removed `"ThreadPerRank"` engine.
impl serde::Deserialize for SchedulerKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("EventDriven" | "ThreadPerRank") => Ok(SchedulerKind::EventDriven),
            _ => Err(serde::Error::custom(format!(
                "unknown scheduler {v:?} (expected \"EventDriven\")"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_names_are_stable() {
        // RunConfig serialises the scheduler; renaming the variant would
        // silently invalidate saved campaign configs, and the retired
        // engine's name must keep parsing.
        let j = serde_json::to_string(&SchedulerKind::EventDriven).unwrap();
        assert_eq!(j, "\"EventDriven\"");
        for legacy in ["\"ThreadPerRank\"", "\"EventDriven\""] {
            let k: SchedulerKind = serde_json::from_str(legacy).unwrap();
            assert_eq!(k, SchedulerKind::EventDriven);
        }
        assert!(serde_json::from_str::<SchedulerKind>("\"Fifo\"").is_err());
    }
}
