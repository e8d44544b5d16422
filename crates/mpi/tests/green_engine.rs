//! The rank engine, end to end: worker-count invariance on real programs,
//! exact deadlock detection without timed polls, and abort/orphan
//! behaviour at world sizes one OS thread per rank could not reach.
//!
//! The fiber switch is hand-written x86_64 assembly, so the whole file is
//! gated on that architecture (the engine refuses to start elsewhere).
#![cfg(target_arch = "x86_64")]

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_mpi::{
    CheckSink, CrashFault, CrashWhen, FaultPlan, FaultSink, Machine, MsgFault, MsgFaultKind, Rule,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn machine(ranks: usize) -> Machine {
    let nodes = ranks.div_ceil(8).max(1);
    let spec = ClusterSpec::test_cluster(nodes, 4); // 2×4 cores per node
    let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad).unwrap();
    Machine::new(spec, placement, PowerModel::deterministic(), 42).unwrap()
}

/// A rank program that exercises every blocking path: compute, matched
/// sends/receives around a ring, barriers, and the registry split, plus
/// reductions that take the tree or ring path depending on size.
fn workout(ctx: &mut greenla_mpi::RankCtx) -> (f64, Vec<f64>) {
    let world = ctx.world();
    let r = ctx.rank();
    let p = ctx.size();
    ctx.compute(1_000_000 * (r as u64 % 7 + 1), 4096);
    ctx.barrier(&world);
    // Ring shift: send to the right, receive from the left.
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    if r % 2 == 0 {
        ctx.send_f64(&world, right, 5, &[r as f64]);
        let got = ctx.recv_f64(&world, left, 5);
        assert_eq!(got, vec![left as f64]);
    } else {
        let got = ctx.recv_f64(&world, left, 5);
        assert_eq!(got, vec![left as f64]);
        ctx.send_f64(&world, right, 5, &[r as f64]);
    }
    let node_comm = ctx.split_shared(&world);
    ctx.barrier(&node_comm);
    let sums = ctx.allreduce_sum_f64(&world, &[1.0, r as f64]);
    ctx.barrier(&world);
    (ctx.now(), sums)
}

#[test]
fn worker_counts_agree_bit_for_bit_on_a_full_workout() {
    // One worker serialises every fiber; four interleave them in wall
    // time. Virtual time must not see the difference.
    let p = 64;
    let serial = machine(p).with_sched_workers(1).run(workout);
    let pooled = machine(p).with_sched_workers(4).run(workout);
    assert_eq!(serial.makespan.to_bits(), pooled.makespan.to_bits());
    for r in 0..p {
        assert_eq!(
            serial.final_clocks[r].to_bits(),
            pooled.final_clocks[r].to_bits(),
            "rank {r} clock diverged"
        );
        assert_eq!(serial.results[r].1, pooled.results[r].1, "rank {r} sums");
    }
    assert_eq!(serial.traffic.msgs, pooled.traffic.msgs);
    assert_eq!(serial.traffic.bytes, pooled.traffic.bytes);
}

#[test]
fn checked_thousand_rank_run_is_clean() {
    let sink = CheckSink::enabled();
    let m = machine(1000).with_check(sink.clone());
    let out = m.run(|ctx| {
        let world = ctx.world();
        ctx.compute(100_000, 0);
        ctx.barrier(&world);
        let s = ctx.allreduce_sum_f64(&world, &[1.0]);
        ctx.barrier(&world);
        s[0]
    });
    assert!(out.results.iter().all(|&s| s == 1000.0));
    assert!(
        sink.violations().is_empty(),
        "clean program must check clean: {:?}",
        sink.violations()
    );
}

#[test]
fn recv_deadlock_aborts_exactly_with_the_cycle_named() {
    // Ranks 0 and 1 wait on each other; everyone else blocks in a world
    // barrier the pair never joins. No poll, no grace timer: the
    // scheduler's quiescence signal runs the probe the moment the last
    // task blocks.
    let sink = CheckSink::enabled();
    let m = machine(1000).with_check(sink.clone());
    let r = catch_unwind(AssertUnwindSafe(|| {
        m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.recv_f64(&world, 1, 7);
                }
                1 => {
                    ctx.recv_f64(&world, 0, 9);
                }
                _ => ctx.barrier(&world),
            }
        })
    }));
    let payload = match r {
        Err(p) => p,
        Ok(_) => panic!("deadlocked run must abort"),
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("deadlock") || msg.contains("simulated MPI run aborted"),
        "unstable diagnostic: {msg}"
    );
    let v = sink.violations();
    let dl: Vec<_> = v.iter().filter(|v| v.rule == Rule::Deadlock).collect();
    assert_eq!(dl.len(), 1, "exactly one DL001: {v:?}");
    assert!(
        dl[0].message.contains("cycle: 0 -> 1 -> 0")
            || dl[0].message.contains("cycle: 1 -> 0 -> 1"),
        "cycle must be named: {}",
        dl[0].message
    );
}

#[test]
fn unchecked_deadlock_aborts_instead_of_hanging() {
    // Same shape without the checker: nothing polls, but quiescence is
    // exact, so the run aborts with a generic diagnostic instead of
    // hanging.
    let m = machine(64);
    let r = catch_unwind(AssertUnwindSafe(|| {
        m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.recv_f64(&world, 1, 7);
                }
                1 => {
                    ctx.recv_f64(&world, 0, 9);
                }
                _ => ctx.barrier(&world),
            }
        })
    }));
    let payload = match r {
        Err(p) => p,
        Ok(_) => panic!("deadlocked run must abort"),
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("deadlock") || msg.contains("simulated MPI run aborted"),
        "unstable diagnostic: {msg}"
    );
}

#[test]
fn rank_panic_unblocks_fibers_in_recv_and_barrier() {
    let m = machine(64);
    let r = catch_unwind(AssertUnwindSafe(|| {
        m.run(|ctx| {
            let world = ctx.world();
            match ctx.rank() {
                0 => panic!("injected fault"),
                1 => {
                    ctx.recv_f64(&world, 0, 1);
                }
                _ => ctx.barrier(&world),
            }
        })
    }));
    let payload = match r {
        Err(p) => p,
        Ok(_) => panic!("peer failure must abort the run"),
    };
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("injected fault"),
        "root cause must win over casualties: {msg}"
    );
}

#[test]
fn orphaned_receiver_aborts_with_all_peers_gone() {
    // Rank 1 waits on a message nobody will ever send while everyone
    // else returns: the scheduler's orphan signal wakes it to abort.
    let m = machine(64);
    let r = catch_unwind(AssertUnwindSafe(|| {
        m.run(|ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                ctx.recv_f64(&world, 0, 1);
            }
        })
    }));
    let payload = match r {
        Err(p) => p,
        Ok(_) => panic!("orphaned receiver must abort"),
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("all peers gone") || msg.contains("simulated MPI run aborted"),
        "unstable diagnostic: {msg}"
    );
}

#[test]
fn iprobe_respects_virtual_causality_on_fibers() {
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
                // A second message on another tag orders the wall clock
                // so rank 0's payload may already be physically in
                // flight; at our *early* virtual clock it must still be
                // invisible.
                ctx.recv_f64(&world, 2, 6);
                let early = ctx.iprobe(&world, 0, 5);
                ctx.compute(200_000_000, 0); // advance past the arrival
                let mut late = ctx.iprobe(&world, 0, 5);
                while !late {
                    // Spinning holds this fiber's worker, but rank 0
                    // lives on the other worker of the (≥2) pool, so it
                    // still reaches its send.
                    std::thread::yield_now();
                    late = ctx.iprobe(&world, 0, 5);
                }
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
    assert!(out.results[1], "iprobe must see the message after arrival");
}

#[test]
fn fault_reports_and_clocks_match_across_worker_counts() {
    let plan = || FaultPlan {
        messages: vec![
            MsgFault {
                src: 0,
                nth_send: 0,
                kind: MsgFaultKind::Drop { count: 2 },
            },
            MsgFault {
                src: 2,
                nth_send: 0,
                kind: MsgFaultKind::Delay { extra_s: 0.25 },
            },
            MsgFault {
                src: 3,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
        ],
        ..Default::default()
    };
    let program = |ctx: &mut greenla_mpi::RankCtx| {
        let world = ctx.world();
        let r = ctx.rank();
        let p = ctx.size();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        if r % 2 == 0 {
            ctx.send_f64(&world, right, 3, &[r as f64]);
            ctx.recv_f64(&world, left, 3);
        } else {
            ctx.recv_f64(&world, left, 3);
            ctx.send_f64(&world, right, 3, &[r as f64]);
        }
        ctx.barrier(&world);
        ctx.now()
    };
    let run = |workers: usize| {
        let sink = FaultSink::with_plan(plan());
        let m = machine(16)
            .with_sched_workers(workers)
            .with_faults(sink.clone());
        let out = m.run(program);
        (out.results.clone(), sink.report())
    };
    let (clocks_1, rep_1) = run(1);
    let (clocks_4, rep_4) = run(4);
    for (a, b) in clocks_1.iter().zip(&clocks_4) {
        assert_eq!(a.to_bits(), b.to_bits(), "faulted clocks diverged");
    }
    assert_eq!(rep_1.injected, rep_4.injected);
    assert_eq!(rep_1.recovered, rep_4.recovered);
    assert_eq!(rep_1.observed, rep_4.observed);
}

#[test]
fn planned_crash_aborts_checked_event_runs() {
    for checked in [false, true] {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                rank: 3,
                when: CrashWhen::AtCall { calls: 2 },
            }],
            ..Default::default()
        };
        let sink = FaultSink::with_plan(plan);
        let mut m = machine(64).with_faults(sink.clone());
        if checked {
            m = m.with_check(CheckSink::enabled());
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
        assert_eq!(sink.report().injected.rank_crash, 1, "checked={checked}");
    }
}

#[test]
fn ten_thousand_rank_smoke_spins_up_and_synchronises() {
    // The engine's reason to exist: a world size one OS thread per rank
    // cannot reach (10k threads would exhaust default process limits).
    // Spin-up, a barrier storm, one bcast, and an allreduce — then
    // verify everyone agrees.
    let p = 10_000;
    let m = machine(p).with_sched_workers(4);
    let out = m.run(|ctx| {
        let world = ctx.world();
        for _ in 0..3 {
            ctx.barrier(&world);
        }
        let mut root_word = if ctx.rank() == 0 {
            vec![42.0]
        } else {
            Vec::new()
        };
        ctx.bcast_f64(&world, 0, &mut root_word);
        let total = ctx.allreduce_sum_f64(&world, &[1.0]);
        ctx.barrier(&world); // aligns every clock to the same release time
        (root_word[0], total[0])
    });
    assert_eq!(out.results.len(), p);
    assert!(out.results.iter().all(|&(w, t)| w == 42.0 && t == p as f64));
    let clock0 = out.final_clocks[0];
    assert!(out.final_clocks.iter().all(|&c| (c - clock0).abs() < 1e-9));
}
