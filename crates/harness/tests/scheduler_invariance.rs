//! The rank engine must be invisible in virtual time.
//!
//! Every rank is a fiber multiplexed over a worker pool, so wall-clock
//! scheduling varies along three axes: run to run, with the worker count
//! (one worker serialises every fiber, several interleave them), and with
//! checking (a checked run does extra bookkeeping at every hook). None of
//! that may leak into the simulation: fixed-seed campaigns must produce
//! byte-identical [`Measurement`]s run over run, checked and unchecked
//! runs must agree bit for bit, one worker and many must agree bit for
//! bit — including under active fault plans — and the observers must see
//! the exact same event stream. This file is the executable form of the
//! invariance contract documented in ARCHITECTURE.md §10.

use greenla_cluster::placement::LoadLayout;
use greenla_harness::chrome_trace::traced_solve;
use greenla_harness::run::{run_once, run_once_with_workers, Measurement, RunConfig};
use greenla_harness::SolverChoice;
use greenla_linalg::generate::SystemKind;
use greenla_mpi::SchedulerKind;

fn cfg(solver: SolverChoice, check: bool) -> RunConfig {
    // CG needs a symmetric positive definite operator; the dense solvers
    // keep the unsymmetric diagonally-dominant draw they have always used.
    let system = match solver {
        SolverChoice::Cg { .. } => SystemKind::Spd,
        _ => SystemKind::DiagDominant,
    };
    RunConfig {
        n: 96,
        ranks: 16,
        layout: LoadLayout::FullLoad,
        solver,
        system,
        cores_per_socket: 4,
        seed: 11,
        check,
        faults: None,
        scheduler: SchedulerKind::EventDriven,
        batch: 1,
        cg_overlap: true,
    }
}

/// Bit-level equality of everything a campaign records.
fn assert_bit_identical(a: &Measurement, b: &Measurement, what: &str) {
    let bits = |m: &Measurement| {
        let mut v = vec![
            m.duration_s.to_bits(),
            m.total_energy_j.to_bits(),
            m.pkg_energy_j.to_bits(),
            m.dram_energy_j.to_bits(),
            m.mean_power_w.to_bits(),
            m.residual.to_bits(),
            m.msgs,
            m.volume_elems,
            m.nodes as u64,
        ];
        v.extend(m.pkg_by_socket_j.iter().map(|x| x.to_bits()));
        v.extend(m.dram_by_socket_j.iter().map(|x| x.to_bits()));
        // Iterative-solver counters (None on direct solves): CG iteration
        // and refresh counts are part of the determinism contract too.
        v.push(m.iterations.unwrap_or(u64::MAX));
        v.push(m.refreshes.unwrap_or(u64::MAX));
        v
    };
    assert_eq!(
        bits(a),
        bits(b),
        "{what}: measurements must be bit-identical"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    for solver in [
        SolverChoice::ime_optimized(),
        SolverChoice::scalapack(),
        SolverChoice::cg(),
        SolverChoice::cg_jacobi(),
    ] {
        let first = run_once(&cfg(solver, false));
        let second = run_once(&cfg(solver, false));
        assert_bit_identical(&first, &second, "repeat, unchecked");
    }
}

#[test]
fn checked_and_unchecked_runs_agree() {
    // A checked run takes the checker's lock at every hook, which shifts
    // when each fiber blocks and wakes; the virtual timeline must not
    // move. CG rides along: its halo exchange is point-to-point-heavy
    // where the dense solvers are broadcast-heavy, so it stresses a
    // different wait pattern.
    for solver in [SolverChoice::ime_optimized(), SolverChoice::cg()] {
        let checked = run_once(&cfg(solver, true));
        let unchecked = run_once(&cfg(solver, false));
        assert!(checked.violations.is_empty(), "{:#?}", checked.violations);
        assert_bit_identical(&checked, &unchecked, "checked vs unchecked");
    }
}

#[test]
fn overlapped_and_blocking_cg_agree_on_everything_but_the_clock() {
    // Halo/compute overlap is a *virtual-time* optimisation: it reorders
    // wall work but never arithmetic, so the solution, the iteration and
    // refresh counts, and the traffic ledger must be bit-identical to the
    // blocking exchange — only durations (and hence energies) may move,
    // and only downward.
    for solver in [SolverChoice::cg(), SolverChoice::cg_jacobi()] {
        let over = run_once(&cfg(solver, false));
        let block = run_once(&RunConfig {
            cg_overlap: false,
            ..cfg(solver, false)
        });
        assert_eq!(over.residual.to_bits(), block.residual.to_bits());
        assert_eq!(over.iterations, block.iterations, "iteration counts");
        assert_eq!(over.refreshes, block.refreshes, "refresh counts");
        assert_eq!(over.msgs, block.msgs, "message counts");
        assert_eq!(over.volume_elems, block.volume_elems, "traffic volume");
        assert!(
            over.duration_s <= block.duration_s,
            "overlap may only shrink the virtual window: {} vs {}",
            over.duration_s,
            block.duration_s
        );
        // And the overlapped path repeats bit-identically like every run.
        assert_bit_identical(&over, &run_once(&cfg(solver, false)), "overlapped repeat");
    }
}

#[test]
fn trace_event_stream_is_identical_across_runs() {
    let run = |_: u32| traced_solve(SolverChoice::ime_optimized(), 96, 16, 11);
    let first = run(0);
    let second = run(1);
    assert_eq!(first.event_count, second.event_count);
    assert!(first.event_count > 0, "traced run must record events");
    assert_eq!(
        first.makespan_s.to_bits(),
        second.makespan_s.to_bits(),
        "virtual makespan must not depend on wall-clock scheduling"
    );
    let text = |r: &greenla_harness::chrome_trace::TracedSolve| {
        serde_json::to_string(&r.trace).expect("serialise trace")
    };
    assert_eq!(
        text(&first),
        text(&second),
        "observers must see an unchanged event stream"
    );
}

#[test]
fn tracing_and_checking_together_match_each_alone() {
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_harness::chrome_trace::{traced_checked_solve, untraced_makespan};
    use greenla_mpi::{CheckSink, Machine, TraceSink};

    // Clean solves: with both consumers on, virtual time matches the plain
    // run, the trace matches the trace-only run, and nothing is flagged.
    let text = |doc: &serde_json::Value| serde_json::to_string(doc).expect("serialise trace");
    for solver in [
        SolverChoice::ime_optimized(),
        SolverChoice::scalapack(),
        SolverChoice::cg(),
    ] {
        let (both, violations) = traced_checked_solve(solver, 64, 4, 11);
        assert!(violations.is_empty(), "{solver:?}: {violations:#?}");
        assert_eq!(
            both.makespan_s.to_bits(),
            untraced_makespan(solver, 64, 4, 11).to_bits(),
            "{solver:?}: observing must not move the virtual clock"
        );
        assert_eq!(
            text(&both.trace),
            text(&traced_solve(solver, 64, 4, 11).trace),
            "{solver:?}: checking must not change the trace"
        );
    }

    // A broken program (crossed broadcast roots, as in the mpi crate's
    // check battery): tracing must not change the verdict.
    let violations = |trace: bool| {
        let spec = ClusterSpec::test_cluster(1, 1);
        let placement = Placement::layout(&spec.node, 2, LoadLayout::FullLoad).unwrap();
        let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 7)
            .unwrap()
            .with_check(CheckSink::enabled());
        if trace {
            m = m.with_trace(TraceSink::enabled());
        }
        m.run(|ctx| {
            let world = ctx.world();
            let mut buf = vec![ctx.rank() as f64];
            ctx.bcast_f64(&world, ctx.rank(), &mut buf);
        });
        assert_eq!(m.trace().drain().is_empty(), !trace);
        m.check().violations()
    };
    let checked_only = violations(false);
    assert!(!checked_only.is_empty(), "the broken program is flagged");
    assert_eq!(violations(true), checked_only);
}

/// A recoverable plan exercising every fault family that completes: message
/// drop (within the retry budget), duplicate, delay, a counter glitch and a
/// monitoring-rank death (degrading one node), plus an IMe column loss.
fn recoverable_plan() -> greenla_mpi::FaultPlan {
    use greenla_mpi::{
        ColumnLoss, CounterFault, CounterFaultKind, FaultPlan, MsgFault, MsgFaultKind,
    };
    FaultPlan {
        seed: 7,
        messages: vec![
            MsgFault {
                src: 1,
                nth_send: 2,
                kind: MsgFaultKind::Drop { count: 2 },
            },
            MsgFault {
                src: 3,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
            MsgFault {
                src: 5,
                nth_send: 4,
                kind: MsgFaultKind::Delay { extra_s: 2.5e-4 },
            },
        ],
        crashes: vec![],
        // On the degraded node: its session never starts, so the glitch
        // stays unobserved — the disabled-read path must stay deterministic.
        counters: vec![CounterFault {
            node: 1,
            socket: 0,
            from_s: 1e-5,
            kind: CounterFaultKind::Glitch,
        }],
        monitor_deaths: vec![1],
        column_loss: Some(ColumnLoss {
            level: 9,
            column: 30,
        }),
    }
}

#[test]
fn faulted_runs_are_bit_identical_checked_and_unchecked() {
    // Identical seed + plan ⇒ bit-identical virtual timings and identical
    // FaultReports whether the run is checked or not.
    let faulted = |check: bool| RunConfig {
        faults: Some(recoverable_plan()),
        ..cfg(SolverChoice::ime_optimized(), check)
    };
    let checked = run_once(&faulted(true));
    let unchecked = run_once(&faulted(false));
    assert_bit_identical(&checked, &unchecked, "faulted checked vs unchecked");
    let (pr, kr) = (
        checked.fault_report.clone().expect("faulted run reports"),
        unchecked.fault_report.clone().expect("faulted run reports"),
    );
    assert_eq!(pr, kr, "fault accounting must not depend on checking");
    assert!(pr.injected.total() > 0, "the plan actually fired: {pr:?}");
    assert_eq!(pr.injected.msg_drop, 2);
    assert_eq!(pr.recovered.msg_drop, 2, "drops within budget recover");
    assert_eq!(pr.injected.monitor, 1);
    assert_eq!(pr.degraded_nodes, vec![1], "node 1 runs unmeasured");
    assert_eq!(pr.injected.column_loss, 1);
    assert_eq!(pr.recovered.column_loss, 1);
    // And the repeat is bit-identical too.
    let again = run_once(&faulted(false));
    assert_bit_identical(&unchecked, &again, "faulted repeat");
    assert_eq!(again.fault_report.unwrap(), kr);
}

#[test]
fn collectives_straddling_the_size_switch_are_scheduler_invariant() {
    // The allreduce/allgather families switch algorithms at 512 B
    // (64 f64 elements). Drive both sides of the switch — one element
    // below, at, and above — under an active fault plan, checked and
    // unchecked: virtual clocks, traffic and every
    // rank's numerical results must be bit-identical, and the lockstep
    // checker must see matching collective signatures on both paths.
    use greenla_cluster::placement::Placement;
    use greenla_cluster::spec::ClusterSpec;
    use greenla_cluster::PowerModel;
    use greenla_mpi::{CheckSink, FaultPlan, FaultSink, Machine, MsgFault, MsgFaultKind};

    let plan = || FaultPlan {
        seed: 3,
        messages: vec![
            MsgFault {
                src: 2,
                nth_send: 1,
                kind: MsgFaultKind::Drop { count: 1 },
            },
            MsgFault {
                src: 7,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
            MsgFault {
                src: 4,
                nth_send: 2,
                kind: MsgFaultKind::Delay { extra_s: 1.0e-4 },
            },
        ],
        ..FaultPlan::default()
    };
    let run = |check: bool| {
        let spec = ClusterSpec::test_cluster(2, 4);
        let placement = Placement::layout(&spec.node, 16, LoadLayout::FullLoad).unwrap();
        let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 23)
            .unwrap()
            .with_faults(FaultSink::with_plan(plan()));
        if check {
            m = m.with_check(CheckSink::enabled());
        }
        let out = m.run(|ctx| {
            let world = ctx.world();
            let mut acc: Vec<Vec<f64>> = Vec::new();
            // 63/64 elems take the tree pair, 65 recursive doubling.
            for elems in [63usize, 64, 65] {
                let mine = vec![ctx.rank() as f64 + elems as f64; elems];
                acc.push(ctx.allreduce_sum_f64(&world, &mine));
            }
            // 16 × 4 = 64 elems total rides the tree composition,
            // 16 × 5 = 80 the ring.
            for per in [4usize, 5] {
                let mine = vec![ctx.rank() as f64; per];
                let all = ctx.allgather_sized_f64(&world, &mine, 16 * per);
                acc.push(all.into_iter().flatten().collect());
            }
            acc
        });
        let violations = m.check().violations();
        assert!(violations.is_empty(), "checked={check}: {violations:#?}");
        out
    };
    let checked = run(true);
    let unchecked = run(false);
    assert_eq!(
        checked.makespan.to_bits(),
        unchecked.makespan.to_bits(),
        "virtual makespan must not depend on checking"
    );
    for (r, (a, b)) in checked
        .final_clocks
        .iter()
        .zip(&unchecked.final_clocks)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "rank {r} final clock");
    }
    assert_eq!(checked.traffic, unchecked.traffic, "traffic tallies");
    // Results are equal checked or not AND across ranks: recursive
    // doubling applies the commutative combiner over one shared pairing
    // tree, so every rank must produce the same bits.
    assert_eq!(checked.results, unchecked.results, "numerical results");
    for (r, res) in unchecked.results.iter().enumerate() {
        assert_eq!(res, &unchecked.results[0], "rank {r} result divergence");
    }
    // And the faulted run repeats bit-identically.
    let again = run(false);
    assert_eq!(unchecked.makespan.to_bits(), again.makespan.to_bits());
    assert_eq!(unchecked.results, again.results);
}

#[test]
fn faulted_trace_streams_are_identical_and_carry_fault_instants() {
    use greenla_harness::chrome_trace::traced_faulted_solve;
    let run = || {
        traced_faulted_solve(
            SolverChoice::ime_optimized(),
            96,
            16,
            11,
            &recoverable_plan(),
        )
    };
    let (first, rep_a) = run();
    let (second, rep_b) = run();
    assert_eq!(rep_a, rep_b, "identical FaultReports run over run");
    assert_eq!(
        first.makespan_s.to_bits(),
        second.makespan_s.to_bits(),
        "faulted virtual makespan is deterministic"
    );
    let text = serde_json::to_string(&first.trace).expect("serialise trace");
    assert_eq!(
        text,
        serde_json::to_string(&second.trace).expect("serialise trace"),
        "faulted event streams must be identical"
    );
    assert!(
        text.contains("fault:"),
        "the trace records the injection instants"
    );
}

// ---------------------------------------------------------------------------
// Worker-count invariance: one worker serialises every fiber, several
// interleave them in wall time. Virtual time must not see the difference.
// ---------------------------------------------------------------------------

mod worker_counts {
    use super::*;

    /// Enough workers to interleave every rank pattern on any host.
    const POOL: usize = 4;

    #[test]
    fn worker_counts_agree_bit_for_bit_on_plain_runs() {
        for solver in [
            SolverChoice::ime_optimized(),
            SolverChoice::scalapack(),
            SolverChoice::cg(),
            SolverChoice::cg_jacobi(),
        ] {
            let serial = run_once_with_workers(&cfg(solver, false), Some(1));
            let pooled = run_once_with_workers(&cfg(solver, false), Some(POOL));
            assert_bit_identical(&serial, &pooled, "1 vs 4 workers");
        }
    }

    #[test]
    fn worker_counts_agree_under_checking_with_zero_violations() {
        // The exact quiescence probe must find nothing on a correct solver
        // whether the fibers run one at a time or interleaved.
        let c = cfg(SolverChoice::ime_optimized(), true);
        let serial = run_once_with_workers(&c, Some(1));
        let pooled = run_once_with_workers(&c, Some(POOL));
        assert!(serial.violations.is_empty(), "{:#?}", serial.violations);
        assert!(pooled.violations.is_empty(), "{:#?}", pooled.violations);
        assert_bit_identical(&serial, &pooled, "checked, 1 vs 4 workers");
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_worker_counts() {
        // Fault injection shifts *virtual* arrival times and send counts,
        // never wall-clock waits, so the full plan must replay identically
        // at any worker count: same measurements, same FaultReport,
        // checked or not.
        for check in [false, true] {
            let c = RunConfig {
                faults: Some(recoverable_plan()),
                ..cfg(SolverChoice::ime_optimized(), check)
            };
            let serial = run_once_with_workers(&c, Some(1));
            let pooled = run_once_with_workers(&c, Some(POOL));
            assert_bit_identical(
                &serial,
                &pooled,
                &format!("faulted (check={check}), 1 vs 4 workers"),
            );
            let (sr, pr) = (
                serial.fault_report.expect("faulted run reports"),
                pooled.fault_report.expect("faulted run reports"),
            );
            assert_eq!(sr, pr, "fault accounting must not depend on workers");
            assert!(sr.injected.total() > 0, "the plan actually fired: {sr:?}");
        }
    }

    #[test]
    fn campaign_runs_survive_a_worker_count_sweep() {
        // The worker count is pure wall-clock capacity; sweep it through
        // the raw Machine, including the host-derived default.
        use greenla_cluster::placement::Placement;
        use greenla_cluster::spec::ClusterSpec;
        use greenla_cluster::PowerModel;
        use greenla_mpi::Machine;

        let run = |workers: usize| {
            let spec = ClusterSpec::test_cluster(4, 4);
            let placement = Placement::layout(&spec.node, 32, LoadLayout::FullLoad).unwrap();
            let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 9).unwrap();
            if workers > 0 {
                m = m.with_sched_workers(workers);
            }
            m.run(|ctx| {
                let world = ctx.world();
                let r = ctx.allreduce_sum_f64(&world, &[ctx.rank() as f64]);
                ctx.barrier(&world);
                r[0].to_bits()
            })
        };
        let auto = run(0);
        for workers in [1usize, 3, 8] {
            let out = run(workers);
            assert_eq!(
                auto.makespan.to_bits(),
                out.makespan.to_bits(),
                "worker count {workers} leaked into virtual time"
            );
            assert_eq!(auto.results, out.results, "workers={workers}");
        }
    }
}
