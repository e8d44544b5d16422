//! The greenla benchmark: one workload per process, timed end to end
//! (`--trace 0`) or split per layer by host-time spans (`--trace 1`).
//! See README.md for the workloads, the metrics and why each was chosen.
//!
//! ```text
//! perfbench --workload dense_paper_grid|sparse_cg|rank_collectives
//!           --seed N --seconds S --trace 0|1 [--setup-only]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod probes;
mod spans;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use greenla_harness::RunConfig;
use spans::{self_time, Recorder, Span};
use stats::{median, quartiles, tail, Digest};
use traced::{traced_op, OpLayers};
use workload::{run_op, Checker, CollInputs, Outcome, Point, Workload};

/// Metric name → (value, unit).
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Printed once set-up is over; the set-up timer stops when it appears.
const SETUP_DONE: &str = "perfbench: setup done";
/// Set-up samples per run: child processes that only set up.
const SETUP_SAMPLES: usize = 5;
/// Fewest untraced and traced passes in a traced run.
const MIN_TRACE_PASSES: usize = 2;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// Everything a run needs before its first timed operation.
struct Setup {
    points: Vec<Point>,
    inputs: CollInputs,
}

/// Set-up: kernel dispatch, CG batch sizing, collective payloads, and an
/// untimed warm-up so lazy initialisation and allocator growth are paid
/// before timing starts.
fn set_up(args: &Args) -> Setup {
    greenla_linalg::simd::resolved();
    let mut points = workload::points(args.workload, args.seed);
    // The batch-sizing probes double as the sparse workload's warm-up.
    workload::size_batches(&mut points);
    let inputs = CollInputs::new(&points, args.seed);
    let warm_up: Vec<&Point> = match args.workload {
        // The first point of each solver (n = 240, P = 16, full load).
        Workload::DensePaperGrid => points.iter().take(2).collect(),
        Workload::SparseCg => Vec::new(),
        // The P = 4096 spin-up fills the fiber stack pool.
        Workload::RankCollectives => points.iter().take(1).collect(),
    };
    for p in warm_up {
        if let Err(e) = run_op(p, args.seed, &inputs) {
            eprintln!("warm-up {}: {e}", p.label());
        }
    }
    Setup { points, inputs }
}

/// Median seconds from spawning a set-up-only copy of this process to its
/// set-up marker, over `SETUP_SAMPLES` copies.
fn setup_samples(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", &args.workload_name, "--seed"])
            .arg(args.seed.to_string())
            .args(["--seconds", "1", "--trace", "0", "--setup-only"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up sample: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        // Read to the end (a read error ends the loop) so the child never
        // blocks on a full pipe, then always reap it.
        let mut seen = None;
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if seen.is_none() && line == SETUP_DONE {
                seen = Some(t.elapsed().as_secs_f64());
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up sample: {e}"))?;
        match (status.success(), seen) {
            (true, Some(s)) => samples.push(s),
            _ => return Err(format!("set-up sample failed: {status}")),
        }
    }
    Ok(median(&samples))
}

fn is_solve(p: &Point) -> bool {
    matches!(p, Point::Solve(_))
}

/// Per-run tallies shared by the untraced and traced loops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checker: Checker,
}

impl Tally {
    /// Count and check one operation; failures are reported, not fatal.
    fn record(
        &mut self,
        i: usize,
        point: &Point,
        outcome: Result<Outcome, String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        match outcome.and_then(|o| self.checker.check(i, is_solve(point), &o).map(|()| o)) {
            Ok(o) => Some(o),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAIL {}: {e}", point.label());
                None
            }
        }
    }
}

/// The digest and Joules of one pass, in operation order.
#[derive(Default)]
struct PassDigest {
    digest: Digest,
    joules: f64,
}

impl PassDigest {
    fn push(&mut self, o: Option<&Outcome>) {
        match o {
            Some(o) => {
                self.digest.push(o.duration_s.to_bits());
                self.digest.push(o.msgs);
                self.digest.push(o.volume_elems);
                self.digest.push(o.iterations.unwrap_or(u64::MAX));
                self.joules += o.energy_j;
            }
            // A failed operation leaves a mark, so the digest cannot match
            // a clean run's.
            None => self.digest.push(u64::MAX),
        }
    }

    fn print(&self, label: &str) {
        println!(
            "{label} digest {}  joules {}",
            self.digest.hex(),
            stats::sig_digits(self.joules, 6)
        );
    }
}

/// `true` once another pass of `last` seconds would overrun the budget.
fn out_of_time(start: &Instant, budget: f64, last: f64, passes: usize, min: usize) -> bool {
    passes >= min && start.elapsed().as_secs_f64() + last > budget
}

fn metric(out: &mut Metrics, name: &str, v: f64, unit: &'static str) {
    out.insert(name.to_string(), (v, unit));
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".into()
    }
}

/// `--trace 0`: whole passes over the workload until `--seconds` is
/// spent; end-to-end metrics.
fn untraced_run(args: &Args, setup: &Setup, setup_s: f64) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let (mut pass_walls, mut pass_cpus, mut op_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = PassDigest::default();
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while !out_of_time(
        &start,
        args.seconds,
        pass_walls.last().copied().unwrap_or(0.0),
        pass_walls.len(),
        args.workload.min_passes(),
    ) {
        let (t, cpu0) = (Instant::now(), host::cpu_s());
        for (i, p) in setup.points.iter().enumerate() {
            let t_op = Instant::now();
            let r = run_op(p, args.seed, &setup.inputs);
            op_walls.push(t_op.elapsed().as_secs_f64());
            let o = tally.record(i, p, r);
            if pass_walls.is_empty() {
                first.push(o.as_ref());
            }
        }
        pass_walls.push(t.elapsed().as_secs_f64());
        pass_cpus.push(host::cpu_s() - cpu0);
        if pass_walls.len() == 1 {
            // The peak after one pass: later passes only add allocator
            // retention that varies run to run (see README).
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    first.print("untraced");
    let (pct, tail_s) =
        tail(&op_walls).unwrap_or((100, op_walls.iter().copied().fold(0.0, f64::max)));
    let (q1, q3) = quartiles(&pass_walls);
    println!(
        "passes {}  pass wall quartiles {q1:.4} .. {q3:.4} s  wall_tail_s = p{pct} of {} operation walls",
        pass_walls.len(),
        op_walls.len()
    );
    let mut m = Metrics::new();
    metric(&mut m, "wall_s", median(&pass_walls), "s");
    metric(&mut m, "wall_tail_s", tail_s, "s");
    metric(&mut m, "cpu_s", median(&pass_cpus), "s");
    metric(&mut m, "peak_rss_mb", peak_rss_mb, "MiB");
    metric(&mut m, "setup_s", setup_s, "s");
    metric(
        &mut m,
        "ok_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    (tally, m)
}

/// Per-pass sums of the traced operations' layer figures.
#[derive(Default)]
struct PassLayers {
    pass_wall_s: f64,
    input_gen_s: f64,
    machine_new_s: f64,
    run_wall_s: f64,
    run_cpu_s: f64,
    msgs: u64,
    bytes: u64,
    copies: u64,
    flops: u64,
    rapl_read_s: f64,
    rapl_reads: u64,
    monitor_begin_s: f64,
    monitor_finish_s: f64,
    ops_wall_s: f64,
    ime_s: f64,
    scalapack_s: f64,
    cg_s: f64,
    cg_iterations: u64,
    cg_batch_iters: u64,
    coll_allreduce_8mib_s: f64,
    coll_bcast_8mib_s: f64,
    coll_allgather_8mib_s: f64,
    coll_allreduce_small_s: f64,
}

/// Longest per-rank span of `name` in `op` (the slowest rank sets the
/// phase's time).
fn max_over_ranks(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration())
        .fold(0.0, f64::max)
}

/// Host time a collective took across all ranks: first entry to last exit.
fn across_ranks(spans: &[&Span], name: &str) -> f64 {
    let (lo, hi) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(s.start), hi.max(s.end))
        });
    if hi > lo {
        hi - lo
    } else {
        0.0
    }
}

impl PassLayers {
    fn add(&mut self, spans: &[&Span], l: &OpLayers) {
        let sum = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration())
                .sum::<f64>()
        };
        self.input_gen_s += sum("harness.input_gen");
        self.machine_new_s += sum("harness.machine_new");
        self.ops_wall_s += l.wall_s;
        self.run_wall_s += l.run_wall_s;
        self.run_cpu_s += l.run_cpu_s;
        self.msgs += l.msgs;
        self.bytes += l.bytes;
        self.copies += l.copies;
        self.flops += l.flops;
        self.rapl_read_s += l.rapl_read_s;
        self.rapl_reads += l.rapl_reads;
        self.monitor_begin_s += max_over_ranks(spans, "monitor.begin");
        self.monitor_finish_s += max_over_ranks(spans, "monitor.finish");
        self.ime_s += max_over_ranks(spans, "ime.solve");
        self.scalapack_s += max_over_ranks(spans, "scalapack.solve");
        self.cg_s += max_over_ranks(spans, "cg.solve");
        if let Ok(o) = &l.outcome {
            self.cg_iterations += o.iterations.unwrap_or(0);
        }
        self.cg_batch_iters += l.cg_iters;
        self.coll_allreduce_8mib_s += across_ranks(spans, "coll.allreduce_8mib");
        self.coll_bcast_8mib_s += across_ranks(spans, "coll.bcast_8mib");
        self.coll_allgather_8mib_s += across_ranks(spans, "coll.allgather_8mib");
        self.coll_allreduce_small_s += across_ranks(spans, "coll.allreduce_small");
    }
}

/// `--trace 1`: untraced passes, then traced passes, then the layer
/// probes; per-layer metrics.
fn traced_run(args: &Args, setup: &Setup) -> (Tally, Metrics, Recorder) {
    let mut tally = Tally::default();
    let rec = Recorder::default();
    let start = Instant::now();

    // Untraced passes: the references every traced operation must match,
    // and the base of the tracing overhead. Both sides sum operation walls
    // only, so the post-operation RAPL reads do not count as overhead.
    let mut untraced = Vec::new();
    let mut first_untraced = PassDigest::default();
    while !out_of_time(
        &start,
        0.25 * args.seconds,
        untraced.last().copied().unwrap_or(0.0),
        untraced.len(),
        MIN_TRACE_PASSES,
    ) {
        let mut ops_wall_s = 0.0;
        for (i, p) in setup.points.iter().enumerate() {
            let t = Instant::now();
            let r = run_op(p, args.seed, &setup.inputs);
            ops_wall_s += t.elapsed().as_secs_f64();
            let o = tally.record(i, p, r);
            if untraced.is_empty() {
                first_untraced.push(o.as_ref());
            }
        }
        untraced.push(ops_wall_s);
    }

    let mut passes: Vec<PassLayers> = Vec::new();
    let mut first_traced = PassDigest::default();
    let mut op_id = 0u64;
    while !out_of_time(
        &start,
        0.7 * args.seconds,
        passes.last().map_or(0.0, |p| p.pass_wall_s),
        passes.len(),
        MIN_TRACE_PASSES,
    ) {
        let t = Instant::now();
        let mut layers = Vec::new();
        for (i, p) in setup.points.iter().enumerate() {
            let l = traced_op(p, args.seed, &setup.inputs, &rec, op_id);
            let o = tally.record(i, p, l.outcome.clone());
            if passes.is_empty() {
                first_traced.push(o.as_ref());
            }
            layers.push((op_id, l));
            op_id += 1;
        }
        let pass_wall_s = t.elapsed().as_secs_f64();
        let all = rec.snapshot();
        let mut pass = PassLayers {
            pass_wall_s,
            ..PassLayers::default()
        };
        for (id, l) in &layers {
            let mine: Vec<&Span> = all.iter().filter(|s| s.op == *id).collect();
            pass.add(&mine, l);
        }
        passes.push(pass);
    }
    first_untraced.print("untraced");
    first_traced.print("traced");
    if first_untraced.digest != first_traced.digest {
        println!("traced digest differs from the untraced digest");
    }

    // Layer probes, outside any operation.
    const PROBE: u64 = u64::MAX;
    let w = args.workload;
    let probe_start = Instant::now();
    // The scheduler probes run at the workload's largest rank count.
    let p_max = setup
        .points
        .iter()
        .map(workload::ranks)
        .max()
        .expect("points");
    let (spinup_s, barrier_us) = rec.time("probe.sched", None, PROBE, None, || {
        probes::sched(p_max, args.seed)
    });
    let solves: Vec<&RunConfig> = setup
        .points
        .iter()
        .filter_map(|p| match p {
            Point::Solve(c) => Some(c),
            _ => None,
        })
        .collect();
    let (mut serial_ime, mut serial_lu, mut dgemm_gf, mut dtrsm_gf, mut spmv_gbps) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    match w {
        Workload::DensePaperGrid => {
            let big = solves
                .iter()
                .max_by_key(|c| (c.n, c.ranks))
                .expect("dense points");
            (serial_ime, serial_lu) = rec.time("probe.serial", None, PROBE, None, || {
                probes::serial_solvers(big)
            });
            // The largest local block: the largest n on the grid of the
            // smallest P (√P × √P ranks).
            let small_p = solves.iter().map(|c| c.ranks).min().expect("dense points");
            let local = big.n / (small_p as f64).sqrt().round() as usize;
            (dgemm_gf, dtrsm_gf) = rec.time("probe.lu_kernels", None, PROBE, None, || {
                probes::lu_kernels(local, 32)
            });
        }
        Workload::SparseCg => {
            let big = solves.iter().max_by_key(|c| c.n).expect("sparse points");
            spmv_gbps = rec.time("probe.spmv", None, PROBE, None, || probes::spmv_block(big));
        }
        Workload::RankCollectives => {}
    }
    let med = |f: &dyn Fn(&PassLayers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Host µs per message of the solver alone: unmonitored runs of every
    // solve point. The collectives are unmonitored operations already.
    let host_us_per_msg = if solves.is_empty() {
        med(&|p| p.run_wall_s / p.msgs.max(1) as f64 * 1e6)
    } else {
        let (wall, msgs) = rec.time("probe.unmonitored", None, PROBE, None, || {
            probes::unmonitored(&solves)
        });
        wall / msgs.max(1) as f64 * 1e6
    };
    println!("probes took {:.2} s", probe_start.elapsed().as_secs_f64());
    print_span_summary(&rec.snapshot());

    let mut m = Metrics::new();
    let per = |num: f64, den: f64, scale: f64| if den > 0.0 { num / den * scale } else { 0.0 };
    metric(&mut m, "harness.input_gen_s", med(&|p| p.input_gen_s), "s");
    metric(
        &mut m,
        "harness.machine_new_s",
        med(&|p| p.machine_new_s),
        "s",
    );
    metric(&mut m, "sched.spinup_s", spinup_s, "s");
    metric(&mut m, "sched.barrier_us", barrier_us, "us");
    metric(
        &mut m,
        "sched.parallelism",
        med(&|p| per(p.run_cpu_s, p.run_wall_s, 1.0)),
        "ratio",
    );
    metric(&mut m, "mpi.msgs", med(&|p| p.msgs as f64), "count");
    metric(&mut m, "mpi.bytes", med(&|p| p.bytes as f64), "bytes");
    metric(&mut m, "mpi.copies", med(&|p| p.copies as f64), "count");
    metric(&mut m, "mpi.host_us_per_msg", host_us_per_msg, "us");
    metric(
        &mut m,
        "coll.allreduce_8mib_s",
        med(&|p| p.coll_allreduce_8mib_s),
        "s",
    );
    metric(
        &mut m,
        "coll.bcast_8mib_s",
        med(&|p| p.coll_bcast_8mib_s),
        "s",
    );
    metric(
        &mut m,
        "coll.allgather_8mib_s",
        med(&|p| p.coll_allgather_8mib_s),
        "s",
    );
    let small = workload::SMALL_ALLREDUCES as f64;
    metric(
        &mut m,
        "coll.allreduce_small_us",
        med(&|p| per(p.coll_allreduce_small_s, small, 1e6)),
        "us",
    );
    metric(&mut m, "linalg.serial_ime_s", serial_ime, "s");
    metric(&mut m, "linalg.serial_lu_s", serial_lu, "s");
    metric(&mut m, "linalg.dgemm_gflops", dgemm_gf, "GFLOP/s");
    metric(&mut m, "linalg.dtrsm_gflops", dtrsm_gf, "GFLOP/s");
    metric(&mut m, "linalg.spmv_gbps", spmv_gbps, "GB/s");
    metric(&mut m, "linalg.flops", med(&|p| p.flops as f64), "flop");
    metric(
        &mut m,
        "rapl.read_us",
        med(&|p| per(p.rapl_read_s, p.rapl_reads as f64, 1e6)),
        "us",
    );
    metric(
        &mut m,
        "rapl.energy_rel_spread",
        tally.checker.energy_rel_spread(),
        "ratio",
    );
    metric(&mut m, "monitor.begin_s", med(&|p| p.monitor_begin_s), "s");
    metric(
        &mut m,
        "monitor.finish_s",
        med(&|p| p.monitor_finish_s),
        "s",
    );
    metric(
        &mut m,
        "monitor.share",
        med(&|p| per(p.monitor_begin_s + p.monitor_finish_s, p.ops_wall_s, 1.0)),
        "ratio",
    );
    metric(&mut m, "ime.solve_s", med(&|p| p.ime_s), "s");
    metric(&mut m, "scalapack.solve_s", med(&|p| p.scalapack_s), "s");
    metric(&mut m, "cg.solve_s", med(&|p| p.cg_s), "s");
    metric(
        &mut m,
        "cg.iterations",
        med(&|p| p.cg_iterations as f64),
        "count",
    );
    metric(
        &mut m,
        "cg.us_per_iter",
        med(&|p| per(p.cg_s, p.cg_batch_iters as f64, 1e6)),
        "us",
    );
    metric(
        &mut m,
        "trace.overhead_ratio",
        med(&|p| p.ops_wall_s) / median(&untraced),
        "ratio",
    );
    (tally, m, rec)
}

/// Count, total and self host seconds per span name.
fn print_span_summary(spans: &[Span]) {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += self_time(s, kids);
    }
    println!("span                      count    total_s     self_s");
    for (name, (n, total, own)) in by_name {
        println!("{name:24} {n:6} {total:10.4} {own:10.4}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let main_start = Instant::now();
    let setup = set_up(&args);
    println!("{SETUP_DONE}");
    std::io::stdout().flush().expect("flush stdout");
    if args.setup_only {
        return;
    }
    println!(
        "host: nproc {}  kernel {:?}  sched workers {}  {}",
        host::nproc(),
        greenla_linalg::simd::resolved(),
        probes::sched_workers(),
        env!("PERFBENCH_RUSTC_VERSION")
    );
    println!(
        "workload {} seed {}: {} operations per pass (own set-up {:.3} s)",
        args.workload_name,
        args.seed,
        setup.points.len(),
        main_start.elapsed().as_secs_f64()
    );
    for p in &setup.points {
        println!("  {}", p.label());
    }
    if args.trace {
        let (tally, metrics, rec) = traced_run(&args, &setup);
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload_name, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_json())) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        print_result(&tally, &metrics);
    } else {
        let setup_s = match setup_samples(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        };
        let (tally, metrics) = untraced_run(&args, &setup, setup_s);
        print_result(&tally, &metrics);
    }
}
