//! The three workloads, their operations and the checks every operation's
//! output must pass.
//!
//! An operation is one `run_once` solve (`dense_paper_grid`,
//! `sparse_cg`) or one `Machine::run` (`rank_collectives`). The untraced
//! path calls the program's own entry points; the traced path in
//! [`crate::traced`] rebuilds the same operations from their public parts.

use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_harness::{run_once, RunConfig, SolverChoice};
use greenla_linalg::generate::SystemKind;
use greenla_mpi::{Machine, RankCtx, RunOutput, SchedulerKind};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::spans::{Recorder, SpanId};

/// Largest accepted scaled residual `‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`
/// (`LinearSystem::residual`) for every solve. CG stops at a relative
/// residual of 1e-12; the direct solvers land near machine epsilon.
pub const RESIDUAL_TOL: f64 = 1e-10;

/// Largest accepted relative drift of one point's Joules across repeats:
/// the ledger/RAPL read race moves the sixth significant digit.
pub const ENERGY_REL_TOL: f64 = 1e-4;

/// Minimum virtual window of a batched CG operation; the simulated RAPL
/// refreshes once per millisecond, so the sparse campaign batches solves
/// until the monitored window spans this long.
const TARGET_WINDOW_S: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DensePaperGrid,
    SparseCg,
    RankCollectives,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dense_paper_grid" => Some(Workload::DensePaperGrid),
            "sparse_cg" => Some(Workload::SparseCg),
            "rank_collectives" => Some(Workload::RankCollectives),
            _ => None,
        }
    }

    /// Fewest timed passes per run, whatever `--seconds` says: enough that
    /// ten operations of the slowest kind lie beyond the tail percentile
    /// (operation walls mix kinds; see README).
    pub fn min_passes(self) -> usize {
        match self {
            // 6 IMe n = 960 solves per pass.
            Workload::DensePaperGrid => 3,
            // Batching makes the four operations about equally long.
            Workload::SparseCg => 3,
            // 1 8 MiB operation per pass.
            Workload::RankCollectives => 11,
        }
    }
}

/// Payload elements of the 8 MiB collectives.
pub const BIG_ELEMS: usize = 1 << 20;
/// Back-to-back scalar allreduces of the small-collective operation.
pub const SMALL_ALLREDUCES: usize = 200;
/// Elements of the `--exp scale` body's broadcast.
const SCALE_BCAST_ELEMS: usize = 256;

#[derive(Clone, Debug)]
pub enum Point {
    /// One monitored `run_once` solve.
    Solve(RunConfig),
    /// Spin-up plus the `repro --exp scale` barrier/bcast/allreduce body.
    Scale { p: usize },
    /// `SMALL_ALLREDUCES` scalar allreduces.
    SmallAllreduce { p: usize },
    /// 8 MiB `bcast_shared_f64`, `allreduce_sum_owned_f64`, `allgather_f64`.
    Big { p: usize },
}

impl Point {
    pub fn label(&self) -> String {
        match self {
            Point::Solve(c) => format!(
                "{} n={} P={} {} batch={}",
                c.solver.label(),
                c.n,
                c.ranks,
                c.layout,
                c.batch
            ),
            Point::Scale { p } => format!("scale body P={p}"),
            Point::SmallAllreduce { p } => format!("{SMALL_ALLREDUCES} scalar allreduces P={p}"),
            Point::Big { p } => format!("8 MiB bcast/allreduce/allgather P={p}"),
        }
    }
}

fn solve_cfg(
    n: usize,
    ranks: usize,
    layout: LoadLayout,
    solver: SolverChoice,
    system: SystemKind,
    cores_per_socket: usize,
    seed: u64,
) -> RunConfig {
    RunConfig {
        n,
        ranks,
        layout,
        solver,
        system,
        cores_per_socket,
        seed,
        check: false,
        faults: None,
        scheduler: SchedulerKind::EventDriven,
        batch: 1,
        cg_overlap: true,
    }
}

/// The workload's points in operation order. Sparse points still carry
/// `batch = 1`; [`size_batches`] sets their batch during set-up.
pub fn points(w: Workload, seed: u64) -> Vec<Point> {
    match w {
        Workload::DensePaperGrid => {
            let mut v = Vec::new();
            for n in [240, 960] {
                for p in [16, 64] {
                    for layout in LoadLayout::all() {
                        for solver in [SolverChoice::ime_optimized(), SolverChoice::scalapack()] {
                            v.push(Point::Solve(solve_cfg(
                                n,
                                p,
                                layout,
                                solver,
                                SystemKind::DiagDominant,
                                4,
                                seed,
                            )));
                        }
                    }
                }
            }
            v
        }
        Workload::SparseCg => {
            let mut v = Vec::new();
            for n in [400, 1296] {
                for solver in [SolverChoice::cg(), SolverChoice::cg_jacobi()] {
                    v.push(Point::Solve(solve_cfg(
                        n,
                        16,
                        LoadLayout::FullLoad,
                        solver,
                        SystemKind::Poisson2d,
                        8,
                        seed,
                    )));
                }
            }
            v
        }
        Workload::RankCollectives => vec![
            Point::Scale { p: 4096 },
            Point::SmallAllreduce { p: 1024 },
            Point::Big { p: 64 },
        ],
    }
}

/// Size each CG point's batch from a single-solve probe so its virtual
/// window reaches `TARGET_WINDOW_S`, the rule the sparse campaign uses.
pub fn size_batches(points: &mut [Point]) {
    for p in points {
        if let Point::Solve(cfg) = p {
            if matches!(cfg.solver, SolverChoice::Cg { .. }) {
                let probe = run_once(cfg).duration_s;
                cfg.batch = if probe >= TARGET_WINDOW_S {
                    1
                } else {
                    ((TARGET_WINDOW_S / probe).ceil() as usize).clamp(1, 1024)
                };
            }
        }
    }
}

/// Input-system seed `run_once` derives from a configuration (the same
/// system for every repetition and every workload seed).
pub fn system_seed(cfg: &RunConfig) -> u64 {
    (cfg.n as u64) << 32 | cfg.ranks as u64
}

/// The virtual outcome of one operation: what must repeat bit for bit.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Monitored duration (solves) or makespan (collectives), virtual s.
    pub duration_s: f64,
    pub msgs: u64,
    pub volume_elems: u64,
    pub iterations: Option<u64>,
    /// Monitored Joules; 0 for the unmonitored collectives.
    pub energy_j: f64,
    /// Scaled residual; 0 for the collectives.
    pub residual: f64,
}

/// Run one untraced operation through the program's own entry points.
/// A panic inside the program is reported as an error, not propagated.
pub fn run_op(point: &Point, seed: u64, inputs: &CollInputs) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| match point {
        Point::Solve(cfg) => {
            let m = run_once(cfg);
            Ok(Outcome {
                duration_s: m.duration_s,
                msgs: m.msgs,
                volume_elems: m.volume_elems,
                iterations: m.iterations,
                energy_j: m.total_energy_j,
                residual: m.residual,
            })
        }
        _ => {
            let machine = coll_machine(point, seed);
            let out = run_coll(&machine, point, seed, inputs, &Tracer::off());
            coll_outcome(&out)
        }
    }))
    .unwrap_or_else(|e| Err(format!("panicked: {}", panic_text(&e))))
}

pub fn panic_text(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// The machine a collective operation runs on: full-load 2×4-core nodes,
/// noise-free power, the event engine at its default worker count.
pub fn coll_machine(point: &Point, seed: u64) -> Machine {
    let p = ranks(point);
    let spec = ClusterSpec::test_cluster(p.div_ceil(8), 4);
    let placement =
        Placement::layout(&spec.node, p, LoadLayout::FullLoad).expect("full-load placement");
    Machine::new(spec, placement, PowerModel::deterministic(), seed)
        .expect("valid machine")
        .with_scheduler(SchedulerKind::EventDriven)
}

/// Simulated ranks of a point's run.
pub fn ranks(point: &Point) -> usize {
    match point {
        Point::Scale { p } | Point::SmallAllreduce { p } | Point::Big { p } => *p,
        Point::Solve(cfg) => cfg.ranks,
    }
}

/// Seed-derived collective payloads and their exact expected results,
/// built once during set-up. Every value is a small integer, so every sum
/// is exact in any reduction order.
pub struct CollInputs {
    /// `allreduce` expected sum per element for the 8 MiB operation.
    big_sum: Vec<f64>,
    /// Expected sum of each scalar allreduce.
    small_sums: Vec<f64>,
}

fn big_value(rank: usize, j: usize, seed: u64) -> f64 {
    ((rank * 7 + j * 3 + (seed % 16) as usize) % 16) as f64
}

fn bcast_value(j: usize, seed: u64) -> f64 {
    ((j * 5 + (seed % 32) as usize) % 32) as f64
}

fn small_value(rank: usize, i: usize, seed: u64) -> f64 {
    ((rank * 31 + i * 7 + (seed % 17) as usize) % 17) as f64
}

impl CollInputs {
    pub fn new(points: &[Point], seed: u64) -> CollInputs {
        let mut inputs = CollInputs {
            big_sum: Vec::new(),
            small_sums: Vec::new(),
        };
        for point in points {
            match *point {
                Point::Big { p } => {
                    inputs.big_sum = (0..BIG_ELEMS)
                        .map(|j| (0..p).map(|r| big_value(r, j, seed)).sum())
                        .collect();
                }
                Point::SmallAllreduce { p } => {
                    inputs.small_sums = (0..SMALL_ALLREDUCES)
                        .map(|i| (0..p).map(|r| small_value(r, i, seed)).sum())
                        .collect();
                }
                _ => {}
            }
        }
        inputs
    }
}

/// Optional span recording inside rank bodies.
pub struct Tracer<'a> {
    pub rec: Option<&'a Recorder>,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl<'a> Tracer<'a> {
    pub fn off() -> Tracer<'static> {
        Tracer {
            rec: None,
            parent: None,
            op: 0,
        }
    }

    pub fn time<R>(&self, name: &'static str, rank: usize, f: impl FnOnce() -> R) -> R {
        match self.rec {
            Some(rec) => rec.time(name, self.parent, self.op, Some(rank), f),
            None => f(),
        }
    }
}

/// One collective operation's `Machine::run`. Each rank checks its own
/// results exactly and returns the first mismatch it finds.
pub fn run_coll(
    machine: &Machine,
    point: &Point,
    seed: u64,
    inputs: &CollInputs,
    tr: &Tracer,
) -> RunOutput<Option<String>> {
    match *point {
        Point::Scale { p } => machine.run(|ctx: &mut RankCtx| {
            let world = ctx.world();
            ctx.barrier(&world);
            let data = (ctx.rank() == 0).then(|| {
                (0..SCALE_BCAST_ELEMS)
                    .map(|j| bcast_value(j, seed))
                    .collect()
            });
            let got = ctx.bcast_shared_f64(&world, 0, data);
            let sum = ctx.allreduce_sum_f64(&world, &[1.0])[0];
            ctx.barrier(&world);
            if sum != p as f64 {
                return Some(format!("rank {}: allreduce sum {sum} != {p}", ctx.rank()));
            }
            mismatch(
                &got,
                SCALE_BCAST_ELEMS,
                |j| bcast_value(j, seed),
                "bcast",
                ctx.rank(),
            )
        }),
        Point::SmallAllreduce { .. } => machine.run(|ctx: &mut RankCtx| {
            let world = ctx.world();
            let me = ctx.rank();
            // Each timed collective starts from a barrier, so its span
            // (first rank in to last rank out) holds no spin-up skew.
            ctx.barrier(&world);
            let sums: Vec<f64> = tr.time("coll.allreduce_small", me, || {
                (0..SMALL_ALLREDUCES)
                    .map(|i| ctx.allreduce_sum_f64(&world, &[small_value(me, i, seed)])[0])
                    .collect()
            });
            mismatch(
                &sums,
                SMALL_ALLREDUCES,
                |i| inputs.small_sums[i],
                "small allreduce",
                me,
            )
        }),
        Point::Big { p } => machine.run(|ctx: &mut RankCtx| {
            let world = ctx.world();
            let me = ctx.rank();
            let data = (me == 0).then(|| (0..BIG_ELEMS).map(|j| bcast_value(j, seed)).collect());
            let mine: Vec<f64> = (0..BIG_ELEMS).map(|j| big_value(me, j, seed)).collect();
            let per = BIG_ELEMS / p;
            let piece: Vec<f64> = (0..per).map(|j| big_value(me, j, seed)).collect();
            ctx.barrier(&world);
            let got = tr.time("coll.bcast_8mib", me, || {
                ctx.bcast_shared_f64(&world, 0, data)
            });
            ctx.barrier(&world);
            let sum = tr.time("coll.allreduce_8mib", me, || {
                ctx.allreduce_sum_owned_f64(&world, mine)
            });
            ctx.barrier(&world);
            let all = tr.time("coll.allgather_8mib", me, || {
                ctx.allgather_f64(&world, &piece)
            });
            mismatch(&got, BIG_ELEMS, |j| bcast_value(j, seed), "bcast", me)
                .or_else(|| mismatch(&sum, BIG_ELEMS, |j| inputs.big_sum[j], "allreduce", me))
                .or_else(|| {
                    (all.len() != p)
                        .then(|| format!("rank {me}: allgather returned {} pieces", all.len()))
                })
                .or_else(|| {
                    all.iter().enumerate().find_map(|(q, v)| {
                        mismatch(v, per, |j| big_value(q, j, seed), "allgather", me)
                    })
                })
        }),
        Point::Solve(_) => unreachable!("solves run through run_once"),
    }
}

fn mismatch(
    got: &[f64],
    len: usize,
    want: impl Fn(usize) -> f64,
    what: &str,
    rank: usize,
) -> Option<String> {
    if got.len() != len {
        return Some(format!("rank {rank}: {what} length {} != {len}", got.len()));
    }
    got.iter()
        .enumerate()
        .find(|&(j, &v)| v != want(j))
        .map(|(j, v)| format!("rank {rank}: {what}[{j}] = {v}, want {}", want(j)))
}

pub fn coll_outcome(out: &RunOutput<Option<String>>) -> Result<Outcome, String> {
    if let Some(e) = out.results.iter().flatten().next() {
        return Err(e.clone());
    }
    Ok(Outcome {
        duration_s: out.makespan,
        msgs: out.traffic.msgs,
        volume_elems: out.traffic.volume_elems(),
        iterations: None,
        energy_j: 0.0,
        residual: 0.0,
    })
}

/// Per-point reference outcomes: the first repeat of a point is the
/// reference every later repeat (traced or not) must reproduce.
#[derive(Default)]
pub struct Checker {
    refs: HashMap<usize, Outcome>,
    /// Every Joules reading per point, for the spread report.
    energies: HashMap<usize, Vec<f64>>,
}

impl Checker {
    /// Check one operation's outcome; `Err` names the first broken rule.
    pub fn check(&mut self, point: usize, is_solve: bool, o: &Outcome) -> Result<(), String> {
        if is_solve && !(o.residual.is_finite() && o.residual <= RESIDUAL_TOL) {
            return Err(format!("residual {:e} above {RESIDUAL_TOL:e}", o.residual));
        }
        if !(o.duration_s.is_finite() && o.duration_s > 0.0) {
            return Err(format!("virtual duration {} is not positive", o.duration_s));
        }
        if is_solve {
            self.energies.entry(point).or_default().push(o.energy_j);
        }
        let r = self.refs.entry(point).or_insert_with(|| o.clone());
        if r.duration_s.to_bits() != o.duration_s.to_bits() {
            return Err(format!(
                "duration {} != first repeat {}",
                o.duration_s, r.duration_s
            ));
        }
        if (r.msgs, r.volume_elems, r.iterations) != (o.msgs, o.volume_elems, o.iterations) {
            return Err(format!(
                "msgs/volume/iterations {:?} != first repeat {:?}",
                (o.msgs, o.volume_elems, o.iterations),
                (r.msgs, r.volume_elems, r.iterations)
            ));
        }
        let drift = rel_diff(o.energy_j, r.energy_j);
        if drift.is_nan() || drift > ENERGY_REL_TOL {
            return Err(format!(
                "Joules {} drift {drift:e} from {}",
                o.energy_j, r.energy_j
            ));
        }
        Ok(())
    }

    /// Largest relative spread `(max − min) / min` of one point's Joules
    /// across its repeats.
    pub fn energy_rel_spread(&self) -> f64 {
        self.energies
            .values()
            .map(|v| {
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if lo > 0.0 {
                    (hi - lo) / lo
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            duration_s: 1.5e-3,
            msgs: 1000,
            volume_elems: 5000,
            iterations: Some(40),
            energy_j: 0.762369,
            residual: 1e-15,
        }
    }

    #[test]
    fn repeats_must_match_bit_for_bit() {
        let mut c = Checker::default();
        assert_eq!(c.check(0, true, &outcome()), Ok(()));
        assert_eq!(c.check(0, true, &outcome()), Ok(()));
        let mut o = outcome();
        o.duration_s = f64::from_bits(o.duration_s.to_bits() + 1);
        assert!(c.check(0, true, &o).is_err());
        let mut o = outcome();
        o.iterations = Some(41);
        assert!(c.check(0, true, &o).is_err());
    }

    #[test]
    fn joules_may_drift_only_within_the_tolerance() {
        let mut c = Checker::default();
        c.check(0, true, &outcome()).unwrap();
        let mut o = outcome();
        o.energy_j = 0.762367; // the drift the ledger/RAPL race produces
        assert_eq!(c.check(0, true, &o), Ok(()));
        assert!((c.energy_rel_spread() - 2.0 / 762367.0).abs() < 1e-9);
        o.energy_j = 0.77;
        assert!(c.check(0, true, &o).is_err());
    }

    #[test]
    fn corrupted_outputs_count_as_failures_not_panics() {
        let mut c = Checker::default();
        let mut o = outcome();
        o.residual = f64::NAN;
        assert!(c.check(0, true, &o).is_err());
        o.residual = 1e-3;
        assert!(c.check(0, true, &o).is_err());
        let mut o = outcome();
        o.duration_s = 0.0;
        assert!(c.check(1, false, &o).is_err());
        o.duration_s = f64::NAN;
        assert!(c.check(1, false, &o).is_err());
        // A rank that reports a wrong collective result fails the op.
        let out = RunOutput {
            results: vec![None, Some("rank 1: allreduce[3] = 2, want 3".to_string())],
            final_clocks: vec![1.0, 1.0],
            makespan: 1.0,
            traffic: greenla_mpi::TrafficSnapshot {
                msgs: 0,
                bytes: 0,
                intra_node_msgs: 0,
                intra_node_bytes: 0,
            },
        };
        assert!(coll_outcome(&out).is_err());
    }

    #[test]
    fn a_panicking_operation_is_an_error() {
        let inputs = CollInputs::new(&[], 1);
        // A 3-rank full-load placement on 8-core nodes is refused, and the
        // resulting panic surfaces as an Err.
        let r = run_op(&Point::Big { p: 3 }, 1, &inputs);
        assert!(r.is_err());
    }

    #[test]
    fn grids_have_the_documented_shapes() {
        assert_eq!(points(Workload::DensePaperGrid, 1).len(), 24);
        assert_eq!(points(Workload::SparseCg, 1).len(), 4);
        assert_eq!(points(Workload::RankCollectives, 1).len(), 3);
    }

    #[test]
    fn collectives_check_exact_results() {
        let pts = [Point::SmallAllreduce { p: 8 }];
        let inputs = CollInputs::new(&pts, 5);
        let o = run_op(&pts[0], 5, &inputs).expect("exact sums");
        assert!(o.msgs > 0);
        let wrong = CollInputs {
            big_sum: Vec::new(),
            small_sums: vec![-1.0; SMALL_ALLREDUCES],
        };
        assert!(run_op(&pts[0], 5, &wrong).is_err());
    }
}
