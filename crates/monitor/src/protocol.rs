//! The Figure-2 choreography: rank grouping, monitoring-rank designation,
//! and the barrier protocol around the measured region.
//!
//! ```text
//! MPI_Comm_split_type(SHARED)            → one communicator per node
//! monitoring rank = highest rank of node comm
//! MPI_Barrier(node comm)                 → align the node
//! monitoring rank: start_monitoring()
//! MPI_Barrier(COMM_WORLD)                → align the job
//! every rank: its share of the solver
//! MPI_Barrier(node comm)                 → wait for the node's ranks
//! monitoring rank: end_monitoring()
//! MPI_Barrier(COMM_WORLD)                → final alignment
//! ```
//!
//! The node barrier before `end_monitoring` is what makes the measurement
//! *correct*: the counters are read only after every rank of the node has
//! finished its share, so the window covers all of the node's work (the
//! property `tests/monitor_correctness.rs` checks, including the failure
//! of a barrier-less variant).

use crate::error::MonitorError;
use crate::files;
use crate::monitoring::{end_monitoring, start_monitoring, MonitorConfig, Session};
use crate::report::NodeReport;
use greenla_mpi::{Comm, RankCtx, RankEvent};
use greenla_rapl::RaplSim;
use std::sync::Arc;

/// In-band status word broadcast over the node communicator after PAPI
/// bring-up so a monitoring-rank failure aborts the whole node coherently.
/// Zero means success; failures carry the (negative) PAPI code
/// sign-extended to u64.
const STATUS_OK: u64 = 0;

/// Status word for a node that downgraded itself to "unmeasured" after a
/// monitoring fault (only sent when [`MonitorConfig::degrade_on_fault`] is
/// set). Distinct from every sign-extended negative PAPI code and from
/// [`STATUS_OK`].
const STATUS_DEGRADED: u64 = 0xDE67_ADED;

/// Live monitoring state carried through the measured region.
pub struct MonitorHandle {
    node_comm: Comm,
    session: Option<Session>,
    monitor_rank_world: usize,
    /// The node runs unmeasured: monitoring failed and
    /// [`MonitorConfig::degrade_on_fault`] turned that into a downgrade
    /// instead of an abort.
    degraded: bool,
    degrade_on_fault: bool,
}

/// Result of a monitored run on one rank.
pub struct MonitorOutput<R> {
    /// The workload's return value.
    pub result: R,
    /// The node report — `Some` only on monitoring ranks.
    pub report: Option<NodeReport>,
}

impl MonitorHandle {
    /// Rank grouping + designation + measurement start (first half of the
    /// Figure-2 flow). Collective over the world communicator.
    pub fn begin(
        ctx: &mut RankCtx,
        rapl: &Arc<RaplSim>,
        cfg: &MonitorConfig,
    ) -> Result<MonitorHandle, MonitorError> {
        ctx.emit(RankEvent::SpanBegin("monitor", "monitor_begin"));
        let world = ctx.world();
        let node_comm = ctx.split_shared(&world);
        ctx.emit(RankEvent::MonitorNodeComm(node_comm.id()));
        let is_monitor = node_comm.is_highest();
        let monitor_rank_world = node_comm.global_rank(node_comm.size() - 1);
        // Node synchronisation before measurements begin.
        ctx.barrier(&node_comm);
        let mut status = vec![STATUS_OK];
        let mut session = None;
        if is_monitor {
            // A planned monitoring-rank death fires here, mid-protocol:
            // with degradation enabled the node downgrades itself to
            // "unmeasured"; without it the rank really dies and the machine
            // aborts the run with a stable diagnostic.
            let death = ctx.faults_enabled() && ctx.faults_mut().monitor_death_due();
            if death {
                ctx.emit(RankEvent::Fault("fault:monitor_death"));
                if !cfg.degrade_on_fault {
                    panic!(
                        "injected fault: monitoring rank {} of node {} died during \
                         protocol bring-up",
                        ctx.rank(),
                        ctx.node()
                    );
                }
                ctx.note_degraded();
                status = vec![STATUS_DEGRADED];
            } else {
                match start_monitoring(rapl, ctx.node(), cfg, ctx.now()) {
                    Ok(s) => {
                        ctx.emit(RankEvent::Instant("start_monitoring"));
                        ctx.emit(RankEvent::MonitorStart);
                        session = Some(s);
                    }
                    Err(MonitorError::Papi(code)) => {
                        if cfg.degrade_on_fault {
                            ctx.note_degraded();
                            status = vec![STATUS_DEGRADED];
                        } else {
                            status = vec![code as i64 as u64];
                        }
                    }
                    Err(MonitorError::Io(_)) => unreachable!("start does no file i/o"),
                }
            }
        }
        // The monitoring rank shares its bring-up status with its node;
        // everyone only reads it, so it travels as one shared word.
        let root = node_comm.size() - 1;
        let status = ctx.bcast_shared_u64(&node_comm, root, is_monitor.then_some(status));
        let degraded = status[0] == STATUS_DEGRADED;
        if status[0] != STATUS_OK && !degraded {
            ctx.emit(RankEvent::SpanEnd("monitor", "monitor_begin"));
            return Err(MonitorError::Papi(status[0] as i64 as i32));
        }
        // General execution synchronisation. A degraded node still joins:
        // the rest of the job must not notice the downgrade.
        ctx.barrier(&world);
        ctx.emit(RankEvent::SpanEnd("monitor", "monitor_begin"));
        ctx.emit(RankEvent::SpanBegin("monitor", "measured_region"));
        Ok(MonitorHandle {
            node_comm,
            session,
            monitor_rank_world,
            degraded,
            degrade_on_fault: cfg.degrade_on_fault,
        })
    }

    /// Mark a phase boundary (e.g. between matrix allocation and solver
    /// execution). Collective over the node communicator: all ranks of the
    /// node synchronise so the boundary is well defined.
    pub fn phase(&mut self, ctx: &mut RankCtx, label: &str) -> Result<(), MonitorError> {
        ctx.barrier(&self.node_comm);
        ctx.emit(RankEvent::Phase(label));
        if let Some(mut s) = self.session.take() {
            match s.mark_phase(label, ctx.now()) {
                Ok(()) => self.session = Some(s),
                Err(e) => {
                    // Mid-run measurement loss (e.g. a glitched powercap
                    // read): degrade the node rather than fail the job.
                    if !self.degrade_on_fault {
                        return Err(e);
                    }
                    ctx.note_degraded();
                    self.degraded = true;
                }
            }
        }
        Ok(())
    }

    /// Measurement stop + teardown (second half of the Figure-2 flow).
    pub fn finish(
        self,
        ctx: &mut RankCtx,
        cfg: &MonitorConfig,
    ) -> Result<Option<NodeReport>, MonitorError> {
        ctx.emit(RankEvent::SpanEnd("monitor", "measured_region"));
        ctx.emit(RankEvent::SpanBegin("monitor", "monitor_finish"));
        // Ranks of the node synchronise so the monitoring rank stops only
        // after all of them completed their share.
        ctx.barrier(&self.node_comm);
        let mut report = None;
        if let Some(session) = self.session {
            ctx.emit(RankEvent::MonitorEnd);
            match end_monitoring(session, ctx.node(), self.monitor_rank_world, ctx.now()) {
                Ok(r) => {
                    ctx.emit(RankEvent::Instant("end_monitoring"));
                    if let Some(dir) = &cfg.output_dir {
                        files::write_node_report(dir, &r)
                            .map_err(|e| MonitorError::Io(e.to_string()))?;
                    }
                    report = Some(r);
                }
                Err(e) => {
                    // The counters died between the last read and the stop:
                    // with degradation enabled the node forfeits its report
                    // instead of failing the job.
                    if !self.degrade_on_fault {
                        return Err(e);
                    }
                    ctx.note_degraded();
                }
            }
        }
        // Final job-wide alignment (then MPI_Finalize in the C framework).
        let world = ctx.world();
        ctx.barrier(&world);
        ctx.emit(RankEvent::SpanEnd("monitor", "monitor_finish"));
        Ok(report)
    }

    /// The node communicator (for tests and phase-aware workloads).
    pub fn node_comm(&self) -> &Comm {
        &self.node_comm
    }

    /// Is this rank its node's monitoring rank?
    pub fn is_monitor(&self) -> bool {
        self.session.is_some()
    }

    /// Is this rank's node running unmeasured after a monitoring fault?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

/// Run `workload` under monitoring: the complete Figure-2 flow in one call.
/// The workload receives the rank context and the handle (to mark phase
/// boundaries).
///
/// # Example
///
/// ```
/// use greenla_cluster::placement::{LoadLayout, Placement};
/// use greenla_cluster::spec::ClusterSpec;
/// use greenla_cluster::PowerModel;
/// use greenla_monitor::{monitored_run, MonitorConfig};
/// use greenla_mpi::Machine;
/// use greenla_rapl::RaplSim;
/// use std::sync::Arc;
///
/// let spec = ClusterSpec::test_cluster(1, 4); // one node, 2×4 cores
/// let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).unwrap();
/// let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1).unwrap();
/// let rapl = Arc::new(RaplSim::new(machine.ledger(), machine.power().clone(), 1));
/// let cfg = MonitorConfig::default();
///
/// let out = machine.run(|ctx| {
///     monitored_run(ctx, &rapl, &cfg, |ctx, _handle| {
///         ctx.compute(1_000_000, 0); // the measured workload
///     })
///     .expect("monitoring protocol")
/// });
///
/// // Exactly one rank per node (here: one node) produced a report.
/// let reports: Vec<_> = out.results.into_iter().filter_map(|m| m.report).collect();
/// assert_eq!(reports.len(), 1);
/// assert!(reports[0].total_energy_j() > 0.0);
/// ```
pub fn monitored_run<R>(
    ctx: &mut RankCtx,
    rapl: &Arc<RaplSim>,
    cfg: &MonitorConfig,
    workload: impl FnOnce(&mut RankCtx, &mut MonitorHandle) -> R,
) -> Result<MonitorOutput<R>, MonitorError> {
    let mut handle = MonitorHandle::begin(ctx, rapl, cfg)?;
    let result = workload(ctx, &mut handle);
    let report = handle.finish(ctx, cfg)?;
    Ok(MonitorOutput { result, report })
}
