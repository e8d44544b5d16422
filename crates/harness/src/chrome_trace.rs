//! Chrome Trace Event exporter for the virtual-time runtime traces.
//!
//! Converts the events a [`greenla_mpi::TraceSink`] collected during a run
//! into the Chrome Trace Event JSON format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!
//! * one **process** per simulated node (`pid` = node index, named
//!   `node0`, `node1`, …);
//! * one **thread track** per MPI rank (`tid` = global rank), so nested
//!   `B`/`E` span pairs show the call structure — compute blocks,
//!   point-to-point sends/receives, collectives, and the monitoring
//!   protocol's measured region;
//! * one **counter track** per node sampling the simulated RAPL ground
//!   truth (package and DRAM Joules) over a uniform virtual-time grid,
//!   plus a cumulative transmitted-bytes counter rebuilt from the `send`
//!   spans' byte arguments.
//!
//! Timestamps are microseconds of *virtual* time — the clocks the
//! simulated ranks advanced, not wall time. All output ordering is
//! deterministic (events are drained rank-ordered, JSON objects preserve
//! insertion order), so exporting the same run twice yields byte-identical
//! JSON — the property the golden-file test pins down.

use crate::config::SolverChoice;
use greenla_cg::solver::{pcg, CgConfig};
use greenla_cluster::placement::{LoadLayout, Placement};
use greenla_cluster::spec::ClusterSpec;
use greenla_cluster::PowerModel;
use greenla_ime::ft::solve_imep_ft;
use greenla_ime::solve_imep;
use greenla_linalg::generate;
use greenla_linalg::generate::SystemKind;
use greenla_linalg::sparse::{CsrMatrix, SparseSystem};
use greenla_monitor::monitoring::MonitorConfig;
use greenla_monitor::protocol::monitored_run;
use greenla_mpi::{
    CheckSink, EventKind, FaultPlan, FaultReport, FaultSink, Machine, TraceEvent, TraceSink,
    Violation,
};
use greenla_rapl::{Domain, RaplSim};
use greenla_scalapack::pdgesv::pdgesv;
use serde_json::Value;
use std::sync::Arc;

/// Number of counter samples per node in the exported grid.
pub const COUNTER_SAMPLES: usize = 64;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn args_obj(args: &[(&'static str, f64)]) -> Value {
    Value::Object(
        args.iter()
            .map(|(k, v)| (k.to_string(), Value::F64(*v)))
            .collect(),
    )
}

/// Convert drained trace events plus the run's RAPL simulator into a
/// Chrome Trace JSON document (`{"traceEvents": [...]}`).
///
/// `makespan_s` bounds the counter-sampling grid; `rapl` supplies the
/// energy ground truth at each grid point.
pub fn chrome_trace_json(
    events: &[TraceEvent],
    rapl: &RaplSim,
    makespan_s: f64,
    counter_samples: usize,
) -> Value {
    let mut out: Vec<Value> = Vec::new();

    // Track metadata: name the node processes and the rank threads.
    // Nodes and (node, rank) pairs are taken from the events themselves so
    // empty tracks never appear.
    let mut nodes: Vec<usize> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut rank_tracks: Vec<(usize, usize)> = events.iter().map(|e| (e.node, e.rank)).collect();
    rank_tracks.sort_unstable();
    rank_tracks.dedup();
    for &node in &nodes {
        out.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(node as u64)),
            ("tid", Value::U64(0)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("node{node}")))]),
            ),
        ]));
    }
    for &(node, rank) in &rank_tracks {
        out.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(node as u64)),
            ("tid", Value::U64(rank as u64)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("rank {rank}")))]),
            ),
        ]));
    }

    // Energy counter track: sample the continuous ground truth on a
    // uniform grid so Perfetto draws package/DRAM Joules per node.
    let samples = counter_samples.max(2);
    for &node in &nodes {
        for i in 0..samples {
            let t = makespan_s * i as f64 / (samples - 1) as f64;
            let mut pkg = 0.0;
            let mut dram = 0.0;
            for socket in 0..rapl.sockets_per_node() {
                pkg += rapl
                    .ground_truth_j(node, socket, Domain::Package, t)
                    .unwrap_or(0.0);
                dram += rapl
                    .ground_truth_j(node, socket, Domain::Dram, t)
                    .unwrap_or(0.0);
            }
            out.push(obj(vec![
                ("name", Value::Str("energy (J)".into())),
                ("ph", Value::Str("C".into())),
                ("ts", Value::F64(t * 1e6)),
                ("pid", Value::U64(node as u64)),
                (
                    "args",
                    obj(vec![
                        ("pkg_j", Value::F64(pkg)),
                        ("dram_j", Value::F64(dram)),
                    ]),
                ),
            ]));
        }
    }

    // Cumulative transmitted bytes per node, rebuilt from the byte
    // arguments the send spans carry.
    let mut sends: Vec<(usize, f64, f64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "send")
        .filter_map(|e| {
            e.args
                .iter()
                .find(|(k, _)| *k == "bytes")
                .map(|(_, bytes)| (e.node, e.t_s, *bytes))
        })
        .collect();
    sends.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite virtual times"));
    let mut cumulative: Vec<f64> = vec![0.0; nodes.iter().max().map_or(0, |&m| m + 1)];
    for (node, t, bytes) in sends {
        cumulative[node] += bytes;
        out.push(obj(vec![
            ("name", Value::Str("tx (bytes)".into())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::F64(t * 1e6)),
            ("pid", Value::U64(node as u64)),
            (
                "args",
                obj(vec![("cumulative", Value::F64(cumulative[node]))]),
            ),
        ]));
    }

    // The spans and instants themselves, in drain order (rank-major,
    // record order within a rank — which is virtual-time order).
    for e in events {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        let mut fields = vec![
            ("name", Value::Str(e.name.clone())),
            ("cat", Value::Str(e.cat.to_string())),
            ("ph", Value::Str(ph.into())),
            ("ts", Value::F64(e.t_s * 1e6)),
            ("pid", Value::U64(e.node as u64)),
            ("tid", Value::U64(e.rank as u64)),
        ];
        if e.kind == EventKind::Instant {
            fields.push(("s", Value::Str("t".into())));
        }
        if !e.args.is_empty() {
            fields.push(("args", args_obj(&e.args)));
        }
        out.push(obj(fields));
    }

    obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

/// Result of [`traced_solve`]: the exported trace document plus the run's
/// virtual makespan (for overhead/invariance checks).
pub struct TracedSolve {
    pub trace: Value,
    pub makespan_s: f64,
    pub event_count: usize,
}

fn build_machine(ranks: usize, seed: u64) -> Machine {
    // A small node (4 cores over 2 sockets) so even a 4-rank trace fills a
    // node exactly and 16 ranks exercise the multi-node track layout.
    let node = greenla_cluster::spec::NodeSpec::test_node(2);
    let placement = Placement::layout(&node, ranks, LoadLayout::FullLoad).expect("rank count");
    let spec = ClusterSpec {
        node: node.clone(),
        nodes: placement.nodes_used(),
        net: greenla_cluster::Interconnect::omni_path(),
    };
    let power = PowerModel::scaled_for(&node);
    Machine::new(spec, placement, power, seed).expect("valid machine")
}

fn run_solve(machine: &Machine, solver: SolverChoice, n: usize, seed: u64) -> f64 {
    // The machine's fault sink (disabled by default) is shared with the
    // RAPL simulator so counter faults land in the same report; a faulted
    // run monitors in degraded mode and routes IMe through the
    // checksum-protected solver, exactly like the measurement runner.
    let faulted = machine.faults().is_enabled();
    let rapl = Arc::new(
        RaplSim::new(machine.ledger(), machine.power().clone(), seed)
            .with_faults(machine.faults().clone()),
    );
    // CG needs a symmetric positive definite operator (sparsified on
    // entry, like the measurement runner); the dense solvers keep the
    // diagonally dominant draw the golden trace was pinned on.
    let sys = match solver {
        SolverChoice::Cg { .. } => SystemKind::Spd.generate(n, 3131),
        _ => generate::diag_dominant(n, 3131),
    };
    let sparse: Option<SparseSystem> =
        matches!(solver, SolverChoice::Cg { .. }).then(|| SparseSystem {
            a: CsrMatrix::from_dense(&sys.a),
            b: sys.b.clone(),
            x_ref: sys.x_ref.clone().unwrap_or_default(),
        });
    let sparse = &sparse;
    let mon_cfg = MonitorConfig {
        degrade_on_fault: faulted,
        ..MonitorConfig::default()
    };
    let out = machine.run(|ctx| {
        let world = ctx.world();
        monitored_run(ctx, &rapl, &mon_cfg, |ctx, handle| {
            let local_share = 8 * (n * n) as u64 / ctx.size() as u64;
            ctx.touch_memory(local_share);
            handle.phase(ctx, "allocation").expect("phase mark");
            match solver {
                SolverChoice::Ime { .. } if faulted => {
                    solve_imep_ft(ctx, &world, &sys, None).expect("IMe FT solve");
                }
                SolverChoice::Ime { .. } => {
                    solve_imep(ctx, &world, &sys, solver.imep_options().unwrap())
                        .expect("IMe solve");
                }
                SolverChoice::ScaLapack { nb } => {
                    pdgesv(ctx, &world, &sys, nb).expect("pdgesv solve");
                }
                SolverChoice::Cg { jacobi } => {
                    let cfg = CgConfig {
                        jacobi,
                        ..CgConfig::default()
                    };
                    pcg(ctx, &world, sparse.as_ref().unwrap(), &cfg)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
            }
            handle.phase(ctx, "execution").expect("phase mark");
        })
        .expect("monitoring protocol")
    });
    out.makespan
}

/// Run the solve on a traced `machine` and export its Chrome Trace
/// document.
fn traced_run(machine: &Machine, solver: SolverChoice, n: usize, seed: u64) -> TracedSolve {
    let makespan_s = run_solve(machine, solver, n, seed);
    let events = machine.trace().drain();
    let rapl = RaplSim::new(machine.ledger(), machine.power().clone(), seed);
    TracedSolve {
        trace: chrome_trace_json(&events, &rapl, makespan_s, COUNTER_SAMPLES),
        makespan_s,
        event_count: events.len(),
    }
}

/// Run one monitored solve with tracing enabled and export the Chrome
/// Trace document. Fully deterministic in `(solver, n, ranks, seed)`.
pub fn traced_solve(solver: SolverChoice, n: usize, ranks: usize, seed: u64) -> TracedSolve {
    let machine = build_machine(ranks, seed).with_trace(TraceSink::enabled());
    traced_run(&machine, solver, n, seed)
}

/// [`traced_solve`] with the correctness checker attached too, so both
/// consumers of the runtime's event stream watch one run. The checker's
/// verdict rides along.
pub fn traced_checked_solve(
    solver: SolverChoice,
    n: usize,
    ranks: usize,
    seed: u64,
) -> (TracedSolve, Vec<Violation>) {
    let machine = build_machine(ranks, seed)
        .with_trace(TraceSink::enabled())
        .with_check(CheckSink::enabled());
    let traced = traced_run(&machine, solver, n, seed);
    (traced, machine.check().violations())
}

/// The same solve without tracing — the baseline for the invariance test
/// (tracing observes the virtual clocks, it must never move them).
pub fn untraced_makespan(solver: SolverChoice, n: usize, ranks: usize, seed: u64) -> f64 {
    let machine = build_machine(ranks, seed);
    run_solve(&machine, solver, n, seed)
}

/// [`traced_solve`] under a (recoverable) fault plan: the exported trace
/// carries the `fault:*` instants the injection points emitted, and the
/// sink's consolidated [`FaultReport`] rides along. Fully deterministic in
/// `(solver, n, ranks, seed, plan)`.
pub fn traced_faulted_solve(
    solver: SolverChoice,
    n: usize,
    ranks: usize,
    seed: u64,
    plan: &FaultPlan,
) -> (TracedSolve, FaultReport) {
    let sink = FaultSink::with_plan(plan.clone());
    let machine = build_machine(ranks, seed)
        .with_trace(TraceSink::enabled())
        .with_faults(sink.clone());
    let traced = traced_run(&machine, solver, n, seed);
    (traced, sink.report())
}
