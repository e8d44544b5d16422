//! 10k-rank scale smoke: the rank engine must spin up, synchronise
//! and tear down a five-digit rank count in seconds, not minutes.
//!
//! This is the harness-level twin of the `green_engine` 10k test in
//! `greenla-mpi`: it goes through `ClusterSpec`/`Placement`/`Machine`
//! exactly like a campaign run would, so a regression anywhere on that
//! path (per-rank allocation blow-up, a stray O(P²) loop, a wake storm)
//! shows up as a CI timeout here. CI runs it as the dedicated `scale`
//! step (see .github/workflows/ci.yml) with its own `timeout-minutes`.
//!
//! Fibers only exist on x86_64 (the engine refuses to start elsewhere),
//! so the whole file is gated.
#![cfg(target_arch = "x86_64")]

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_mpi::Machine;

const RANKS: usize = 10_000;

#[test]
fn ten_thousand_ranks_barrier_and_bcast() {
    let spec = ClusterSpec::test_cluster(RANKS.div_ceil(8), 4);
    let placement = Placement::layout(&spec.node, RANKS, LoadLayout::FullLoad).unwrap();
    let mut m = Machine::new(spec, placement, PowerModel::deterministic(), 42).unwrap();
    m.set_sched_workers(4);
    let out = m.run(|ctx| {
        let world = ctx.world();
        ctx.barrier(&world);
        let data = (ctx.rank() == 0).then(|| vec![1.25f64; 256]);
        let payload = ctx.bcast_shared_f64(&world, 0, data);
        let sum = ctx.allreduce_sum_f64(&world, &[1.0])[0];
        ctx.barrier(&world);
        (payload[255].to_bits(), sum.to_bits())
    });
    assert_eq!(out.results.len(), RANKS);
    let expect = (1.25f64.to_bits(), (RANKS as f64).to_bits());
    for (rank, r) in out.results.iter().enumerate() {
        assert_eq!(*r, expect, "rank {rank} saw a wrong payload or sum");
    }
    // The final barrier aligns every virtual clock to one release instant.
    let t0 = out.final_clocks[0];
    for (rank, t) in out.final_clocks.iter().enumerate() {
        assert!(
            (t - t0).abs() < 1e-9,
            "rank {rank} clock {t} drifted from {t0}"
        );
    }
    assert!(out.makespan > 0.0 && out.makespan.is_finite());
}
