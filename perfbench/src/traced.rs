//! The traced operations: `run_once` rebuilt from its public parts
//! (`SystemKind::generate` / `CsrMatrix::from_dense`, `Machine::new`,
//! `RaplSim::new`, and inside `Machine::run` the calls
//! `MonitorHandle::begin` → solver → `MonitorHandle::finish`, then
//! `JobSummary::aggregate`), with a host-time span around each call.
//! `monitored_run` is exactly begin + body + finish, so this composition
//! runs the same program; the benchmark checks that it reproduces
//! `run_once`'s outcome bit for bit.

use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::Placement;
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::{Interconnect, PowerModel};
use greenla_harness::{RunConfig, SolverChoice};
use greenla_ime::solve_imep;
use greenla_linalg::flops;
use greenla_linalg::sparse::{CsrMatrix, SparseSystem};
use greenla_monitor::{JobSummary, MonitorConfig, MonitorHandle, NodeReport};
use greenla_mpi::{copy_audit, Machine, RankCtx};
use greenla_rapl::{Domain, RaplSim};
use greenla_scalapack::pdgesv::pdgesv;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use crate::host;
use crate::spans::{Recorder, SpanId};
use crate::workload::{
    coll_machine, coll_outcome, panic_text, run_coll, system_seed, CollInputs, Outcome, Point,
    Tracer,
};

/// Rounds of RAPL reads per operation: every (node, socket, domain) is
/// read this many times at the operation's end time.
const RAPL_ROUNDS: usize = 4;

/// What a traced operation measured besides its spans.
pub struct OpLayers {
    pub outcome: Result<Outcome, String>,
    /// Host seconds of the whole operation.
    pub wall_s: f64,
    /// Host wall and process CPU inside `Machine::run`.
    pub run_wall_s: f64,
    pub run_cpu_s: f64,
    pub msgs: u64,
    pub bytes: u64,
    /// Deep payload copies (`copy_audit`) during the operation.
    pub copies: u64,
    /// `Ledger::total_flops` of the run.
    pub flops: u64,
    /// CG iterations over the whole batch (0 for the direct solvers).
    pub cg_iters: u64,
    /// Host seconds and calls of the post-operation RAPL reads.
    pub rapl_read_s: f64,
    pub rapl_reads: u64,
}

impl Default for OpLayers {
    fn default() -> Self {
        OpLayers {
            outcome: Err("not run".into()),
            wall_s: 0.0,
            run_wall_s: 0.0,
            run_cpu_s: 0.0,
            msgs: 0,
            bytes: 0,
            copies: 0,
            flops: 0,
            cg_iters: 0,
            rapl_read_s: 0.0,
            rapl_reads: 0,
        }
    }
}

/// Span name of a solver's share of the measured region.
pub fn solver_span(solver: SolverChoice) -> &'static str {
    match solver {
        SolverChoice::Ime { .. } => "ime.solve",
        SolverChoice::ScaLapack { .. } => "scalapack.solve",
        SolverChoice::Cg { .. } => "cg.solve",
    }
}

/// Run one traced operation; `op` tags every span it records.
pub fn traced_op(
    point: &Point,
    seed: u64,
    inputs: &CollInputs,
    rec: &Recorder,
    op: u64,
) -> OpLayers {
    let root = rec.begin("op", None, op, None);
    let t = Instant::now();
    let copies0 = copy_audit::count();
    let result = catch_unwind(AssertUnwindSafe(|| match point {
        Point::Solve(cfg) => traced_solve(cfg, rec, root, op),
        _ => (traced_coll(point, seed, inputs, rec, root, op), None),
    }));
    let wall_s = t.elapsed().as_secs_f64();
    rec.end(root);
    let (mut layers, probe) = result.unwrap_or_else(|e| {
        (
            OpLayers {
                outcome: Err(format!("panicked: {}", panic_text(&e))),
                ..OpLayers::default()
            },
            None,
        )
    });
    layers.wall_s = wall_s;
    layers.copies = copy_audit::count() - copies0;
    if let Some(probe) = probe {
        // Outside the operation's span and wall: read the counters at the
        // operation's end time, on the ledger it left behind.
        let (s, n) = rec.time("rapl.read", None, op, None, || probe.read());
        layers.rapl_read_s = s;
        layers.rapl_reads = n;
    }
    layers
}

/// A finished solve's RAPL simulator (holding the run's ledger) and end time.
struct RaplProbe {
    rapl: Arc<RaplSim>,
    nodes: usize,
    t_end: f64,
}

impl RaplProbe {
    /// Host seconds and count of `RaplSim::energy_uj` calls: every
    /// (node, socket, domain), `RAPL_ROUNDS` times.
    fn read(&self) -> (f64, u64) {
        let sockets = self.rapl.sockets_per_node();
        let t = Instant::now();
        let mut calls = 0u64;
        for _ in 0..RAPL_ROUNDS {
            for node in 0..self.nodes {
                for socket in 0..sockets {
                    for d in [Domain::Package, Domain::Dram] {
                        std::hint::black_box(self.rapl.energy_uj(node, socket, d, self.t_end).ok());
                        calls += 1;
                    }
                }
            }
        }
        (t.elapsed().as_secs_f64(), calls)
    }
}

/// `Machine` + `RaplSim` for a solve, built exactly as `run_once` builds
/// them.
pub(crate) fn solve_machine(cfg: &RunConfig) -> (Machine, Arc<RaplSim>, usize) {
    let node = NodeSpec::test_node(cfg.cores_per_socket);
    let placement =
        Placement::layout(&node, cfg.ranks, cfg.layout).expect("grid guarantees divisibility");
    let nodes = placement.nodes_used();
    let spec = ClusterSpec {
        node: node.clone(),
        nodes,
        net: Interconnect::omni_path(),
    };
    let power = PowerModel::scaled_for(&node);
    let mut machine = Machine::new(spec, placement, power, cfg.seed).expect("valid machine");
    machine.set_scheduler(cfg.scheduler);
    let rapl = Arc::new(RaplSim::new(
        machine.ledger(),
        machine.power().clone(),
        cfg.seed,
    ));
    (machine, rapl, nodes)
}

/// The dense input and, for CG, its CSR image (built outside the
/// measured region, as `run_once` does).
pub(crate) fn solve_inputs(
    cfg: &RunConfig,
) -> (greenla_linalg::LinearSystem, Option<SparseSystem>) {
    let sys = cfg.system.generate(cfg.n, system_seed(cfg));
    let sparse = matches!(cfg.solver, SolverChoice::Cg { .. }).then(|| SparseSystem {
        a: CsrMatrix::from_dense(&sys.a),
        b: sys.b.clone(),
        x_ref: sys.x_ref.clone().unwrap_or_default(),
    });
    (sys, sparse)
}

/// The solver's share of one rank: `cfg.batch` back-to-back solves,
/// keeping the last solution and CG's (iterations, refreshes).
pub(crate) fn solve_batch(
    ctx: &mut RankCtx,
    cfg: &RunConfig,
    sys: &greenla_linalg::LinearSystem,
    sparse: Option<&SparseSystem>,
) -> (Vec<f64>, Option<(u64, u64)>) {
    let world = ctx.world();
    let mut last = None;
    for _ in 0..cfg.batch.max(1) {
        last = Some(match cfg.solver {
            SolverChoice::Ime { .. } => (
                solve_imep(
                    ctx,
                    &world,
                    sys,
                    cfg.solver.imep_options().expect("IMe options"),
                )
                .expect("IMe solve"),
                None,
            ),
            SolverChoice::ScaLapack { nb } => {
                (pdgesv(ctx, &world, sys, nb).expect("pdgesv solve"), None)
            }
            SolverChoice::Cg { jacobi } => {
                let cg_cfg = CgConfig {
                    jacobi,
                    overlap: cfg.cg_overlap,
                    ..CgConfig::default()
                };
                let s = pcg(ctx, &world, sparse.expect("CG input"), &cg_cfg)
                    .unwrap_or_else(|e| panic!("{e}"));
                (s.x, Some((s.iterations as u64, s.refreshes as u64)))
            }
        });
    }
    last.expect("batch >= 1")
}

fn traced_solve(
    cfg: &RunConfig,
    rec: &Recorder,
    root: SpanId,
    op: u64,
) -> (OpLayers, Option<RaplProbe>) {
    let (sys, sparse) = rec.time("harness.input_gen", Some(root), op, None, || {
        solve_inputs(cfg)
    });
    let (machine, rapl, nodes) = rec.time("harness.machine_new", Some(root), op, None, || {
        solve_machine(cfg)
    });
    let mon_cfg = MonitorConfig::default();
    let sparse = sparse.as_ref();
    let cpu0 = host::cpu_s();
    let run = rec.begin("mpi.run", Some(root), op, None);
    let t = Instant::now();
    let out = machine.run(|ctx| {
        let me = Some(ctx.rank());
        let mut handle = rec
            .time("monitor.begin", Some(run), op, me, || {
                MonitorHandle::begin(ctx, &rapl, &mon_cfg)
            })
            .expect("monitoring protocol");
        let local_share = match sparse {
            Some(s) => flops::spmv_csr_bytes(s.n(), s.a.nnz()) / ctx.size() as u64,
            None => 8 * (cfg.n * cfg.n) as u64 / ctx.size() as u64,
        };
        ctx.touch_memory(local_share);
        handle.phase(ctx, "allocation").expect("phase mark");
        let result = rec.time(solver_span(cfg.solver), Some(run), op, me, || {
            solve_batch(ctx, cfg, &sys, sparse)
        });
        handle.phase(ctx, "execution").expect("phase mark");
        let report = rec
            .time("monitor.finish", Some(run), op, me, || {
                handle.finish(ctx, &mon_cfg)
            })
            .expect("monitoring protocol");
        (result, report)
    });
    let run_wall_s = t.elapsed().as_secs_f64();
    rec.end(run);
    let run_cpu_s = host::cpu_s() - cpu0;
    let reports: Vec<NodeReport> = out.results.iter().filter_map(|(_, r)| r.clone()).collect();
    let summary = rec.time("monitor.aggregate", Some(root), op, None, || {
        JobSummary::aggregate(&reports)
    });
    let (x, cg_counts) = &out.results[0].0;
    let residual = rec.time("harness.residual", Some(root), op, None, || sys.residual(x));
    let iterations = cg_counts.map(|(i, _)| i);
    let layers = OpLayers {
        outcome: Ok(Outcome {
            duration_s: summary.duration_s,
            msgs: out.traffic.msgs,
            volume_elems: out.traffic.volume_elems(),
            iterations,
            energy_j: summary.total_energy_j,
            residual,
        }),
        run_wall_s,
        run_cpu_s,
        msgs: out.traffic.msgs,
        bytes: out.traffic.bytes,
        flops: machine.ledger().total_flops(),
        cg_iters: iterations.unwrap_or(0) * cfg.batch.max(1) as u64,
        ..OpLayers::default()
    };
    let probe = RaplProbe {
        rapl,
        nodes,
        t_end: out.makespan,
    };
    (layers, Some(probe))
}

fn traced_coll(
    point: &Point,
    seed: u64,
    inputs: &CollInputs,
    rec: &Recorder,
    root: SpanId,
    op: u64,
) -> OpLayers {
    let machine = rec.time("harness.machine_new", Some(root), op, None, || {
        coll_machine(point, seed)
    });
    let cpu0 = host::cpu_s();
    let run = rec.begin("mpi.run", Some(root), op, None);
    let t = Instant::now();
    let tracer = Tracer {
        rec: Some(rec),
        parent: Some(run),
        op,
    };
    let out = run_coll(&machine, point, seed, inputs, &tracer);
    let run_wall_s = t.elapsed().as_secs_f64();
    rec.end(run);
    OpLayers {
        outcome: coll_outcome(&out),
        run_wall_s,
        run_cpu_s: host::cpu_s() - cpu0,
        msgs: out.traffic.msgs,
        bytes: out.traffic.bytes,
        flops: machine.ledger().total_flops(),
        ..OpLayers::default()
    }
}
