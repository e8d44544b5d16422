//! Layer probes for the traced run: each times one module's public
//! functions on a shape the workload's operations use.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_harness::RunConfig;
use greenla_linalg::blas3::{dgemm, dtrsm_left_lower_unit};
use greenla_linalg::generate::SystemKind;
use greenla_linalg::sparse::CsrMatrix;
use greenla_linalg::{flops, BlockMut, BlockRef};
use greenla_mpi::{Machine, SchedulerKind};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::traced;
use crate::workload::system_seed;

/// Median host seconds of `reps` calls of `f`.
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Event-engine workers at their default count: OS threads alive inside a
/// run minus those alive just before it.
pub fn sched_workers() -> usize {
    let spec = ClusterSpec::test_cluster(1, 4);
    let placement = Placement::layout(&spec.node, 8, LoadLayout::FullLoad).expect("placement");
    let machine = Machine::new(spec, placement, PowerModel::deterministic(), 1)
        .expect("machine")
        .with_scheduler(SchedulerKind::EventDriven);
    let before = crate::host::threads();
    let out = machine.run(|_| crate::host::threads());
    out.results
        .into_iter()
        .max()
        .unwrap_or(before)
        .saturating_sub(before)
}

/// Empty-body spin-up seconds and host µs per barrier at `p` ranks, each
/// the median of five runs on a fresh machine.
pub fn sched(p: usize, seed: u64) -> (f64, f64) {
    const BARRIERS: usize = 20;
    let machine = || {
        let spec = ClusterSpec::test_cluster(p.div_ceil(8), 4);
        let placement =
            Placement::layout(&spec.node, p, LoadLayout::FullLoad).expect("full-load placement");
        Machine::new(spec, placement, PowerModel::deterministic(), seed)
            .expect("machine")
            .with_scheduler(SchedulerKind::EventDriven)
    };
    let timed = |barriers: usize| {
        let walls: Vec<f64> = (0..5)
            .map(|_| {
                let m = machine();
                let t = Instant::now();
                m.run(|ctx| {
                    let world = ctx.world();
                    for _ in 0..barriers {
                        ctx.barrier(&world);
                    }
                });
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&walls)
    };
    let spinup = timed(0);
    let storm = timed(BARRIERS);
    (spinup, (storm - spinup).max(0.0) / BARRIERS as f64 * 1e6)
}

/// Plain single-threaded `ime::solve_seq` and `gesv` seconds on the
/// system of the workload's largest dense point.
pub fn serial_solvers(cfg: &RunConfig) -> (f64, f64) {
    let sys = cfg.system.generate(cfg.n, system_seed(cfg));
    let ime = median_s(3, || {
        black_box(greenla_ime::solve_seq(&sys).expect("serial IMe"));
    });
    let lu = median_s(3, || {
        black_box(greenla_scalapack::getrs::gesv(&sys.a, &sys.b, 32).expect("serial LU"));
    });
    (ime, lu)
}

/// GFLOP/s of the trailing-update `dgemm` (m × n × nb) and the panel
/// `dtrsm` (nb × n) that one ScaLAPACK rank runs on its local block.
pub fn lu_kernels(local: usize, nb: usize) -> (f64, f64) {
    let a: Vec<f64> = (0..local * nb).map(|i| (i % 17) as f64 - 8.0).collect();
    let b: Vec<f64> = (0..nb * local).map(|i| (i % 13) as f64 - 6.0).collect();
    let mut c = vec![0.0; local * local];
    let reps = 64;
    let dgemm_s = median_s(7, || {
        for _ in 0..reps {
            dgemm(
                -1.0,
                BlockRef::new(&a, local, nb, local),
                BlockRef::new(&b, nb, local, nb),
                1.0,
                BlockMut::new(&mut c, local, local, local),
            );
        }
        black_box(&mut c);
    }) / reps as f64;
    let mut l = vec![0.0; nb * nb];
    for j in 0..nb {
        for i in j..nb {
            l[i + j * nb] = if i == j {
                1.0
            } else {
                1e-3 * ((i + j) % 5) as f64
            };
        }
    }
    let b0: Vec<f64> = (0..nb * local).map(|i| (i % 23) as f64 - 11.0).collect();
    let mut x = b0.clone();
    let reps = 256;
    let dtrsm_s = median_s(7, || {
        for _ in 0..reps {
            x.copy_from_slice(&b0);
            dtrsm_left_lower_unit(nb, local, &l, nb, &mut x, nb);
        }
        black_box(&mut x);
    }) / reps as f64;
    (
        flops::dgemm(local, local, nb) as f64 / dgemm_s / 1e9,
        flops::dtrsm(nb, local) as f64 / dtrsm_s / 1e9,
    )
}

/// GB/s of `CsrMatrix::spmv_block` on rank 0's row block of a CG point,
/// over the closed-form CSR byte count (computed, not measured, bytes).
pub fn spmv_block(cfg: &RunConfig) -> f64 {
    let sys = SystemKind::Poisson2d.generate(cfg.n, system_seed(cfg));
    let a = CsrMatrix::from_dense(&sys.a);
    let rows = greenla_cg::RowBlocks::new(cfg.n, cfg.ranks);
    let block = a.row_block(rows.lo(0), rows.hi(0));
    let x = vec![1.0; cfg.n];
    let mut y = vec![0.0; block.local_rows()];
    let reps = 4096;
    let s = median_s(7, || {
        for _ in 0..reps {
            block.spmv_block(black_box(&x), &mut y);
        }
        black_box(&mut y);
    }) / reps as f64;
    flops::spmv_csr_bytes(block.local_rows(), block.nnz()) as f64 / s / 1e9
}

/// Host seconds and messages of every solve point run once without the
/// monitor: `Machine::run` over the solver's batch alone.
pub fn unmonitored(solves: &[&RunConfig]) -> (f64, u64) {
    let (mut wall, mut msgs) = (0.0, 0);
    for cfg in solves {
        let (sys, sparse) = traced::solve_inputs(cfg);
        let (machine, _, _) = traced::solve_machine(cfg);
        let t = Instant::now();
        let out = machine.run(|ctx| {
            traced::solve_batch(ctx, cfg, &sys, sparse.as_ref());
        });
        wall += t.elapsed().as_secs_f64();
        msgs += out.traffic.msgs;
    }
    (wall, msgs)
}
