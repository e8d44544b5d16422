//! Monitor-protocol conformance under the greenla-check sink: the real
//! Figure-2 choreography must be violation-free, and intentionally broken
//! variants must trip exactly the monitor rules (MON001/MON003/MON004).

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_monitor::monitoring::MonitorConfig;
use greenla_monitor::protocol::monitored_run;
use greenla_mpi::{CheckSink, Machine, RankEvent, Rule};
use greenla_rapl::RaplSim;
use std::sync::Arc;

fn checked_machine(nodes: usize, ranks: usize) -> Machine {
    let spec = ClusterSpec::test_cluster(nodes, 4);
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 21)
        .unwrap()
        .with_check(CheckSink::enabled())
}

#[test]
fn figure_2_protocol_is_violation_free() {
    let m = checked_machine(2, 16);
    let rapl = Arc::new(RaplSim::new(m.ledger(), m.power().clone(), m.seed()));
    m.run(|ctx| {
        monitored_run(ctx, &rapl, &MonitorConfig::default(), |ctx, handle| {
            ctx.compute(5_000_000 * (1 + ctx.rank() as u64), 256);
            handle.phase(ctx, "execution").unwrap();
        })
        .unwrap()
    });
    let violations = m.check().violations();
    assert!(
        violations.is_empty(),
        "clean monitored run must produce no diagnostics: {violations:#?}"
    );
}

#[test]
fn wrong_designation_trips_mon001() {
    let m = checked_machine(1, 8);
    m.run(|ctx| {
        let world = ctx.world();
        let node_comm = ctx.split_shared(&world);
        ctx.emit(RankEvent::MonitorNodeComm(node_comm.id()));
        ctx.barrier(&node_comm);
        // Broken program: the LOWEST rank starts the counters instead of
        // the node's highest rank.
        if ctx.rank() == 0 {
            ctx.emit(RankEvent::MonitorStart);
        }
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    let mon001: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::MonitorDesignation)
        .collect();
    assert_eq!(mon001.len(), 1, "exactly one MON001: {violations:#?}");
    assert_eq!(mon001[0].ranks, vec![0]);
    assert_eq!(mon001[0].rule.id(), "MON001");
    assert!(
        mon001[0].message.contains("highest rank 7"),
        "diagnostic must name the designated rank: {}",
        mon001[0].message
    );
}

#[test]
fn barrierless_finish_trips_mon003_and_mon004() {
    let m = checked_machine(1, 8);
    m.run(|ctx| {
        let world = ctx.world();
        let node_comm = ctx.split_shared(&world);
        ctx.emit(RankEvent::MonitorNodeComm(node_comm.id()));
        ctx.barrier(&node_comm);
        if node_comm.is_highest() {
            ctx.emit(RankEvent::MonitorStart);
        }
        ctx.barrier(&world);
        // Rank 0 works far longer than the monitoring rank.
        let flops = if ctx.rank() == 0 {
            200_000_000u64
        } else {
            1_000_000
        };
        ctx.compute(flops, 0);
        // Broken program: the monitoring rank stops the counters at its OWN
        // finish time, without the node barrier Figure 2 requires.
        if node_comm.is_highest() {
            ctx.emit(RankEvent::MonitorEnd);
        }
        ctx.barrier(&world);
    });
    let violations = m.check().violations();
    let mon003: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::MonitorBarrierBeforeEnd)
        .collect();
    assert_eq!(mon003.len(), 1, "exactly one MON003: {violations:#?}");
    assert_eq!(mon003[0].ranks, vec![7]);
    assert!(
        mon003[0].message.contains("node barrier"),
        "diagnostic must explain the missing barrier: {}",
        mon003[0].message
    );
    // The under-covered window is also caught: rank 0's work straddles the
    // premature measurement end.
    let mon004: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::MonitorWindowStraddle)
        .collect();
    assert_eq!(mon004.len(), 1, "exactly one MON004: {violations:#?}");
    assert_eq!(mon004[0].ranks, vec![0]);
    assert!(
        mon004[0].message.contains("missed"),
        "diagnostic must quantify the missed work: {}",
        mon004[0].message
    );
}
