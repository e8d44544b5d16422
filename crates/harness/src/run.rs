//! The measurement runner: one fully monitored solver execution per call,
//! repeated and aggregated the way the paper runs its jobs (ten
//! repetitions per configuration; we default to fewer but keep the knob).

use crate::config::{default_false, default_true, one_batch, FunctionalGrid, SolverChoice};
use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_ime::ft::solve_imep_ft;
use greenla_ime::solve_imep;
use greenla_linalg::flops;
use greenla_linalg::generate::{LinearSystem, SystemKind};
use greenla_linalg::sparse::{CsrMatrix, SparseSystem};
use greenla_monitor::monitoring::MonitorConfig;
use greenla_monitor::protocol::monitored_run;
use greenla_monitor::report::{JobSummary, NodeReport};
use greenla_mpi::{
    CheckSink, FaultPlan, FaultReport, FaultSink, Machine, SchedulerKind, Violation,
};
use greenla_rapl::RaplSim;
use greenla_scalapack::pdgesv::pdgesv;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One run's configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    pub n: usize,
    pub ranks: usize,
    pub layout: LoadLayout,
    pub solver: SolverChoice,
    pub system: SystemKind,
    pub cores_per_socket: usize,
    pub seed: u64,
    /// Attach the greenla-check correctness sink to the run.
    #[serde(default = "default_false")]
    pub check: bool,
    /// Deterministic fault plan injected into the run; `None` (the default
    /// for every pre-existing dataset) leaves all fault hooks disabled.
    #[serde(default = "Default::default")]
    pub faults: Option<FaultPlan>,
    /// Which rank-scheduling engine executes the run. The machine has a
    /// single engine, and no engine ever changed measured (virtual-time)
    /// results, so older datasets — with the field missing or naming the
    /// retired `ThreadPerRank` engine — deserialize losslessly.
    #[serde(default = "Default::default")]
    pub scheduler: SchedulerKind,
    /// Back-to-back solves inside the measured region. The simulated RAPL
    /// refreshes its counters once per millisecond like the real thing, so
    /// a sub-millisecond solve cannot be measured on its own; batching
    /// stretches the monitored window across many counter updates and the
    /// caller divides the measured figures by `batch` (the sparse campaign
    /// does). `1` — the default every pre-existing dataset deserializes
    /// to — measures a single solve.
    #[serde(default = "one_batch")]
    pub batch: usize,
    /// Overlap the CG halo exchange with the interior SpMV (the solver's
    /// default; see `greenla_cg::solver::CgConfig::overlap`). `false`
    /// forces the blocking exchange — numerics are bit-identical either
    /// way, only the virtual clock moves. Ignored by the direct solvers.
    #[serde(default = "default_true")]
    pub cg_overlap: bool,
}

/// Serde default for the violations carried by older datasets.
fn no_violations() -> Vec<Violation> {
    Vec::new()
}

/// What one monitored run measured (the union of the figures' axes).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    pub duration_s: f64,
    pub total_energy_j: f64,
    pub pkg_energy_j: f64,
    pub dram_energy_j: f64,
    pub pkg_by_socket_j: [f64; 2],
    pub dram_by_socket_j: [f64; 2],
    pub mean_power_w: f64,
    pub residual: f64,
    pub msgs: u64,
    pub volume_elems: u64,
    pub nodes: usize,
    /// Checker diagnostics (empty unless the run was checked — and for a
    /// correct solver, empty even then).
    #[serde(default = "no_violations")]
    pub violations: Vec<Violation>,
    /// Injected / observed / recovered fault accounting — `None` unless the
    /// run carried a fault plan.
    #[serde(default = "Default::default")]
    pub fault_report: Option<FaultReport>,
    /// CG iteration count (`None` for the direct solvers) — what the
    /// sparse campaign's per-iteration model predictions divide by.
    #[serde(default = "Default::default")]
    pub iterations: Option<u64>,
    /// CG true-residual refresh count (`None` for the direct solvers).
    #[serde(default = "Default::default")]
    pub refreshes: Option<u64>,
}

/// Execute one configuration end to end: build the scaled cluster, run the
/// solver under the white-box monitoring framework, aggregate the per-node
/// reports.
pub fn run_once(cfg: &RunConfig) -> Measurement {
    run_once_with_workers(cfg, None)
}

/// [`run_once`] with the rank engine pinned to `workers` worker threads
/// (`None`: the machine's default). Virtual-time results never depend on
/// the worker count; the invariance tests pin it to prove that.
pub fn run_once_with_workers(cfg: &RunConfig, workers: Option<usize>) -> Measurement {
    let node = greenla_cluster::spec::NodeSpec::test_node(cfg.cores_per_socket);
    let placement =
        Placement::layout(&node, cfg.ranks, cfg.layout).expect("grid guarantees divisibility");
    let nodes = placement.nodes_used();
    let spec = ClusterSpec {
        node: node.clone(),
        nodes,
        net: greenla_cluster::Interconnect::omni_path(),
    };
    let power = PowerModel::scaled_for(&node);
    let mut machine = Machine::new(spec, placement, power, cfg.seed).expect("valid machine");
    machine.set_scheduler(cfg.scheduler);
    if let Some(w) = workers {
        machine.set_sched_workers(w);
    }
    if cfg.check {
        machine.set_check(CheckSink::enabled());
    }
    // A non-empty fault plan arms the sink shared by the machine (message
    // and crash faults) and the RAPL simulator (counter faults); an absent
    // or empty plan leaves the zero-overhead disabled path in place.
    let fault_sink = cfg
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| FaultSink::with_plan(p.clone()));
    if let Some(sink) = &fault_sink {
        machine.set_faults(sink.clone());
    }
    let mut rapl = RaplSim::new(machine.ledger(), machine.power().clone(), cfg.seed);
    if let Some(sink) = &fault_sink {
        rapl = rapl.with_faults(sink.clone());
    }
    let rapl = Arc::new(rapl);
    let sys: LinearSystem = cfg.system.generate(cfg.n, system_seed(cfg));
    // CG runs sparsify the dense input once, outside the measured region
    // (the paper's jobs load their input from a file the same way).
    let sparse: Option<SparseSystem> =
        matches!(cfg.solver, SolverChoice::Cg { .. }).then(|| SparseSystem {
            a: CsrMatrix::from_dense(&sys.a),
            b: sys.b.clone(),
            x_ref: sys.x_ref.clone().unwrap_or_default(),
        });
    // Faulted runs monitor in degraded mode: a dead monitoring rank costs
    // its node's report, not the job.
    let mon_cfg = MonitorConfig {
        degrade_on_fault: fault_sink.is_some(),
        ..MonitorConfig::default()
    };
    let faulted = fault_sink.is_some();
    let solver = cfg.solver;
    let sparse = &sparse;
    let out = machine.run(|ctx| {
        let world = ctx.world();
        let monitored = monitored_run(ctx, &rapl, &mon_cfg, |ctx, handle| {
            // Allocation phase: the input system is materialised in each
            // rank's memory (the paper loads it from a file). A sparse run
            // materialises the CSR image, not the dense square.
            let local_share = match sparse {
                Some(s) => flops::spmv_csr_bytes(s.n(), s.a.nnz()) / ctx.size() as u64,
                None => 8 * (cfg.n * cfg.n) as u64 / ctx.size() as u64,
            };
            ctx.touch_memory(local_share);
            handle.phase(ctx, "allocation").expect("phase mark");
            // `batch` back-to-back solves of the same system; every solve is
            // deterministic so only the last result needs keeping. See
            // [`RunConfig::batch`] for why short kernels need this.
            let mut last = None;
            for _ in 0..cfg.batch.max(1) {
                last = Some(match solver {
                    // A faulted IMe run goes through the checksum-protected
                    // solver so a planned column loss is recoverable in-band.
                    SolverChoice::Ime { .. } if faulted => (
                        solve_imep_ft(ctx, &world, &sys, None).expect("IMe FT solve"),
                        None,
                    ),
                    SolverChoice::Ime { .. } => (
                        solve_imep(ctx, &world, &sys, solver.imep_options().unwrap())
                            .expect("IMe solve"),
                        None,
                    ),
                    SolverChoice::ScaLapack { nb } => {
                        (pdgesv(ctx, &world, &sys, nb).expect("pdgesv solve"), None)
                    }
                    SolverChoice::Cg { jacobi } => {
                        let cg_cfg = CgConfig {
                            jacobi,
                            overlap: cfg.cg_overlap,
                            ..CgConfig::default()
                        };
                        // Panic with the Display form so an abort surfaces the
                        // stable "cg aborted:" diagnostic the chaos battery and
                        // GL004 key on.
                        let s = pcg(ctx, &world, sparse.as_ref().unwrap(), &cg_cfg)
                            .unwrap_or_else(|e| panic!("{e}"));
                        (s.x, Some((s.iterations as u64, s.refreshes as u64)))
                    }
                });
            }
            let (x, cg_counts) = last.expect("batch >= 1");
            handle.phase(ctx, "execution").expect("phase mark");
            (x, cg_counts)
        })
        .expect("monitoring protocol");
        (monitored.result, monitored.report)
    });
    let reports: Vec<NodeReport> = out.results.iter().filter_map(|(_, r)| r.clone()).collect();
    let fault_report = fault_sink.as_ref().map(|s| s.report());
    let degraded = fault_report.as_ref().map_or(0, |r| r.degraded_nodes.len());
    assert_eq!(
        reports.len() + degraded,
        nodes,
        "one report per non-degraded node"
    );
    let summary = if reports.is_empty() {
        // Every node degraded to unmeasured: energy figures are zero, the
        // run's virtual makespan stands in for the monitored duration.
        JobSummary {
            nodes: 0,
            duration_s: out.makespan,
            total_energy_j: 0.0,
            pkg_energy_j: 0.0,
            dram_energy_j: 0.0,
            pkg_by_socket_j: [0.0; 2],
            dram_by_socket_j: [0.0; 2],
            mean_power_w: 0.0,
        }
    } else {
        JobSummary::aggregate(&reports)
    };
    let (x, cg_counts) = &out.results[0].0;
    Measurement {
        duration_s: summary.duration_s,
        total_energy_j: summary.total_energy_j,
        pkg_energy_j: summary.pkg_energy_j,
        dram_energy_j: summary.dram_energy_j,
        pkg_by_socket_j: summary.pkg_by_socket_j,
        dram_by_socket_j: summary.dram_by_socket_j,
        mean_power_w: summary.mean_power_w,
        residual: sys.residual(x),
        msgs: out.traffic.msgs,
        volume_elems: out.traffic.volume_elems(),
        nodes,
        violations: machine.check().violations(),
        fault_report,
        iterations: cg_counts.map(|(i, _)| i),
        refreshes: cg_counts.map(|(_, r)| r),
    }
}

/// Input-system seed derived from the configuration (the same system for
/// every repetition, as the paper's file-based inputs guarantee).
pub(crate) fn system_seed(cfg: &RunConfig) -> u64 {
    (cfg.n as u64) << 32 | cfg.ranks as u64
}

/// Normalise a batched measurement to a single solve. Energies and the
/// window divide exactly (every solve in the batch is identical); traffic
/// divides approximately — the monitoring protocol's own messages ride
/// along once per window, not once per solve. Identity at `batch = 1`.
pub fn per_solve(mut m: Measurement, batch: usize) -> Measurement {
    let b = batch as f64;
    m.duration_s /= b;
    m.total_energy_j /= b;
    m.pkg_energy_j /= b;
    m.dram_energy_j /= b;
    for v in &mut m.pkg_by_socket_j {
        *v /= b;
    }
    for v in &mut m.dram_by_socket_j {
        *v /= b;
    }
    m.msgs /= batch as u64;
    m.volume_elems /= batch as u64;
    m
}

/// Simple per-metric statistics over repetitions.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Stats {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    pub fn from(values: &[f64]) -> Stats {
        assert!(!values.is_empty());
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Stats {
            mean,
            std: var.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Repetition-aggregated measurement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Aggregated {
    pub duration_s: Stats,
    pub total_energy_j: Stats,
    pub pkg_energy_j: Stats,
    pub dram_energy_j: Stats,
    pub mean_power_w: Stats,
    pub pkg0_j: Stats,
    pub pkg1_j: Stats,
    pub dram0_j: Stats,
    pub dram1_j: Stats,
    pub worst_residual: f64,
    pub reps: usize,
}

impl Aggregated {
    pub fn from_runs(runs: &[Measurement]) -> Aggregated {
        let pick =
            |f: &dyn Fn(&Measurement) -> f64| Stats::from(&runs.iter().map(f).collect::<Vec<_>>());
        Aggregated {
            duration_s: pick(&|m| m.duration_s),
            total_energy_j: pick(&|m| m.total_energy_j),
            pkg_energy_j: pick(&|m| m.pkg_energy_j),
            dram_energy_j: pick(&|m| m.dram_energy_j),
            mean_power_w: pick(&|m| m.mean_power_w),
            pkg0_j: pick(&|m| m.pkg_by_socket_j[0]),
            pkg1_j: pick(&|m| m.pkg_by_socket_j[1]),
            dram0_j: pick(&|m| m.dram_by_socket_j[0]),
            dram1_j: pick(&|m| m.dram_by_socket_j[1]),
            worst_residual: runs.iter().map(|m| m.residual).fold(0.0, f64::max),
            reps: runs.len(),
        }
    }
}

/// One aggregated grid point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataPoint {
    pub solver: String,
    pub n: usize,
    pub ranks: usize,
    pub layout: LoadLayout,
    pub agg: Aggregated,
    /// Checker diagnostics across all repetitions of this point.
    #[serde(default = "no_violations")]
    pub violations: Vec<Violation>,
    /// Per-repetition fault accounting (empty unless the campaign ran
    /// under a fault plan).
    #[serde(default = "Default::default")]
    pub fault_reports: Vec<FaultReport>,
}

/// The full functional-tier dataset all figures slice.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Dataset {
    pub points: Vec<DataPoint>,
}

impl Dataset {
    /// Run the whole measurement campaign for a grid (both solvers, every
    /// dim × ranks × layout, `reps` repetitions each). Independent
    /// configurations run in parallel on a scoped thread pool; each
    /// simulation is deterministic, so the dataset is identical regardless
    /// of scheduling.
    pub fn campaign(grid: &FunctionalGrid, progress: impl Fn(&str) + Sync) -> Dataset {
        let solvers = [SolverChoice::ime_optimized(), SolverChoice::scalapack()];
        let mut configs = Vec::new();
        for &n in &grid.dims {
            for &ranks in &grid.ranks {
                for &layout in &grid.layouts {
                    for solver in solvers {
                        configs.push((n, ranks, layout, solver));
                    }
                }
            }
        }
        let points: Vec<DataPoint> = parallel_map(&configs, |&(n, ranks, layout, solver)| {
            progress(&format!(
                "n={n} ranks={ranks} layout={layout} solver={}",
                solver.label()
            ));
            let runs: Vec<Measurement> = (0..grid.reps)
                .map(|rep| {
                    per_solve(
                        run_once(&RunConfig {
                            n,
                            ranks,
                            layout,
                            solver,
                            system: SystemKind::DiagDominant,
                            cores_per_socket: grid.cores_per_socket,
                            seed: grid.base_seed + rep as u64,
                            check: grid.check,
                            faults: grid.faults.clone(),
                            scheduler: SchedulerKind::EventDriven,
                            batch: grid.batch,
                            cg_overlap: true,
                        }),
                        grid.batch.max(1),
                    )
                })
                .collect();
            DataPoint {
                solver: solver.label().to_string(),
                n,
                ranks,
                layout,
                agg: Aggregated::from_runs(&runs),
                violations: runs.iter().flat_map(|m| m.violations.clone()).collect(),
                fault_reports: runs.iter().filter_map(|m| m.fault_report.clone()).collect(),
            }
        });
        Dataset { points }
    }

    /// Look up one point.
    pub fn get(
        &self,
        solver: &str,
        n: usize,
        ranks: usize,
        layout: LoadLayout,
    ) -> Option<&DataPoint> {
        self.points
            .iter()
            .find(|p| p.solver == solver && p.n == n && p.ranks == ranks && p.layout == layout)
    }

    /// Every checker diagnostic in the dataset, paired with the grid point
    /// that produced it.
    pub fn violations(&self) -> impl Iterator<Item = (&DataPoint, &Violation)> {
        self.points
            .iter()
            .flat_map(|p| p.violations.iter().map(move |v| (p, v)))
    }

    /// Every per-repetition fault report in the dataset, paired with the
    /// grid point that produced it.
    pub fn fault_reports(&self) -> impl Iterator<Item = (&DataPoint, &FaultReport)> {
        self.points
            .iter()
            .flat_map(|p| p.fault_reports.iter().map(move |r| (p, r)))
    }
}

/// Order-preserving parallel map over a slice on scoped worker threads.
/// Workers pull indices from a shared atomic counter, so long-running
/// configurations don't serialise behind a fixed chunking.
fn parallel_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        produced.push((i, f(&items[i])));
                    }
                    produced
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_scheduler_names_still_parse() {
        let cfg = RunConfig {
            n: 96,
            ranks: 16,
            layout: LoadLayout::FullLoad,
            solver: SolverChoice::ime_optimized(),
            system: SystemKind::DiagDominant,
            cores_per_socket: 4,
            seed: 11,
            check: false,
            faults: None,
            scheduler: SchedulerKind::EventDriven,
            batch: 1,
            cg_overlap: true,
        };
        let current = serde_json::to_string(&cfg).unwrap();
        let field = "\"scheduler\":\"EventDriven\"";
        assert!(current.contains(field), "{current}");
        for text in [
            current.replace(&format!("{field},"), ""),
            current.replace("EventDriven", "ThreadPerRank"),
            current.clone(),
        ] {
            let parsed: RunConfig = serde_json::from_str(&text).unwrap();
            assert_eq!(parsed.scheduler, SchedulerKind::EventDriven, "{text}");
            assert_eq!(serde_json::to_string(&parsed).unwrap(), current);
        }
    }
}
