//! # greenla-mpi
//!
//! A simulated MPI runtime with **virtual time**. Each MPI rank is a green
//! task (a stackful fiber) multiplexed onto a small worker pool — the
//! single engine in [`sched`], which makes 10k–100k-rank worlds tractable
//! and requires x86_64. Every rank is pinned (logically) to one core of
//! the simulated cluster, and every
//! rank carries its own virtual clock which advances when the rank computes
//! (`compute`), sends or receives messages, or synchronises in collectives.
//! Message timing follows a LogGP-style α + β·size model with distinct
//! intra-node and inter-node parameters; collectives are implemented as
//! binomial trees over point-to-point messages, so their cost emerges from
//! the same model. Clock causality is conservative: a receive completes no
//! earlier than the message's arrival time, and barriers align every
//! participant to the latest arrival — the same guarantees real MPI gives,
//! minus wall-clock nondeterminism.
//!
//! While ranks run, the engine records every busy interval into the
//! [`greenla_cluster::Ledger`], which the simulated RAPL layer integrates
//! into energy counters. Message counts and volumes are tallied in
//! [`traffic::Traffic`] so the paper's closed-form communication formulas
//! can be checked against actual runs.
//!
//! The API mirrors the MPI subset the paper's framework uses:
//! `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)` → [`RankCtx::split_shared`],
//! `MPI_Barrier` → [`RankCtx::barrier`], plus broadcast/reduce/gather and
//! matched-pair send/recv.
//!
//! Every instrumented site — compute, each send and receive, every
//! collective, and the spans, phase marks, fault marks and monitoring
//! milestones the layers above report through [`RankCtx::emit`] — emits
//! one [`RankEvent`] into the rank's observer stream (the [`observe`]
//! module). One fan-out feeds two consumers:
//!
//! * [`greenla_trace`]: attach a sink with [`Machine::with_trace`] and the
//!   events become spans and instant markers (see the harness's Chrome
//!   trace export);
//! * [`greenla_check`], a MUST-style dynamic correctness checker: attach a
//!   sink with [`Machine::with_check`] and the runtime reports deadlocks
//!   (with the wait-for cycle, instead of hanging), collective lockstep
//!   mismatches, leaked messages at finalize, monitor protocol breaches,
//!   and clock-causality bugs as structured [`Violation`]s.
//!
//! Consumers only *observe* the virtual clocks, so a run with either, both
//! or neither attached has identical timings. With neither attached an
//! emit costs one branch and builds no event. Fault injection
//! ([`FaultSink`]) is not a consumer: active faults perturb time, so they
//! stay a separate per-rank handle and only their `fault:*` marks travel
//! through the stream.

pub mod coll;
pub mod comm;
pub mod context;
pub mod envelope;
pub mod error;
pub mod machine;
pub(crate) mod mailbox;
pub mod observe;
pub mod registry;
pub mod sched;
pub mod traffic;

pub use comm::Comm;
pub use context::RankCtx;
pub use envelope::{copy_audit, Payload};
pub use error::{CollContractError, MachineError};
pub use greenla_check::{CheckSink, CollEvent, CollKind, Rule, Violation};
pub use greenla_faults::{
    ColumnLoss, CounterFault, CounterFaultKind, CrashFault, CrashWhen, FaultPlan, FaultReport,
    FaultSink, MsgFault, MsgFaultKind, PlanShape, RankFaults,
};
pub use greenla_trace::{EventKind, TraceEvent, TraceSink};
pub use machine::{Machine, RunOutput};
pub use observe::{RankEvent, RecvOp};
pub use sched::SchedulerKind;
pub use traffic::{Traffic, TrafficSnapshot};
