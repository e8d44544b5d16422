#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--exp all|table1|fig3|fig4|fig5|fig6|fig7|summary|overhead|powercap|trace|scale|sparse]
//!       [--tier functional|model|both]   (default: both)
//!       [--reps N]                       (default: 3)
//!       [--smoke]                        (tiny grid for CI)
//!       [--out DIR]                      (default: results)
//!       [--trace-out PATH]               (Chrome Trace JSON of one traced solve)
//!       [--check]                        (run the campaign under the MPI
//!                                         correctness checker; nonzero exit
//!                                         on any diagnostic)
//!       [--faults PLAN.json]             (inject the deterministic fault
//!                                         plan into every campaign run and
//!                                         report injected vs. observed vs.
//!                                         recovered faults)
//!       [--ranks P1,P2,...]              (override the campaign's rank
//!                                         counts; ranks are fibers, so
//!                                         counts far past 1296 are fine)
//! ```
//!
//! `--exp scale` is the large-P smoke: it skips the solver campaign and
//! drives one barrier + broadcast + allreduce workout at the largest
//! `--ranks` value (default 10000), writing a
//! `scale_smoke.json` artifact with wall/virtual timings.
//!
//! Functional-tier figures come from real monitored solves on the scaled
//! simulated cluster; model-tier figures evaluate the calibrated analytic
//! model at the paper's exact configurations (8640…34560 × 144/576/1296).

use greenla_harness::charts;
use greenla_harness::config::FunctionalGrid;
use greenla_harness::experiments as exp;
use greenla_harness::output::{write_artifact, write_json, Figure};
use greenla_harness::run::Dataset;
use greenla_harness::summary;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    exp: String,
    tier: String,
    reps: usize,
    smoke: bool,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    check: bool,
    faults: Option<PathBuf>,
    ranks: Option<Vec<usize>>,
    bench_out: Option<PathBuf>,
    bench_campaign: Option<PathBuf>,
    bench_coll: Option<PathBuf>,
    bench_sched: Option<PathBuf>,
    bench_baseline: Option<PathBuf>,
    bench_quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: "all".into(),
        tier: "both".into(),
        reps: 3,
        smoke: false,
        out: PathBuf::from("results"),
        trace_out: None,
        check: false,
        faults: None,
        ranks: None,
        bench_out: None,
        bench_campaign: None,
        bench_coll: None,
        bench_sched: None,
        bench_baseline: None,
        bench_quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => args.exp = it.next().expect("--exp needs a value"),
            "--tier" => args.tier = it.next().expect("--tier needs a value"),
            "--reps" => {
                args.reps = it
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("reps")
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--faults" => {
                args.faults = Some(PathBuf::from(it.next().expect("--faults needs a value")))
            }
            "--ranks" => {
                let v = it.next().expect("--ranks needs a value");
                let parsed: Vec<usize> = v
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|e| {
                            eprintln!("--ranks wants comma-separated counts, got {v:?}: {e}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                assert!(!parsed.is_empty(), "--ranks needs at least one count");
                args.ranks = Some(parsed);
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a value")))
            }
            "--bench-out" => {
                args.bench_out = Some(PathBuf::from(it.next().expect("--bench-out needs a value")))
            }
            "--bench-campaign" => {
                args.bench_campaign = Some(PathBuf::from(
                    it.next().expect("--bench-campaign needs a value"),
                ))
            }
            "--bench-coll" => {
                args.bench_coll = Some(PathBuf::from(
                    it.next().expect("--bench-coll needs a value"),
                ))
            }
            "--bench-sched" => {
                args.bench_sched = Some(PathBuf::from(
                    it.next().expect("--bench-sched needs a value"),
                ))
            }
            "--bench-baseline" => {
                args.bench_baseline = Some(PathBuf::from(
                    it.next().expect("--bench-baseline needs a value"),
                ))
            }
            "--bench-quick" => args.bench_quick = true,
            "--help" | "-h" => {
                println!("usage: repro [--exp all|table1|fig3..fig7|summary|overhead|powercap|trace|scale|sparse] [--tier functional|model|both] [--reps N] [--smoke] [--out DIR] [--trace-out PATH] [--check] [--faults PLAN.json] [--ranks P1,P2,...] [--bench-out PATH] [--bench-campaign PATH] [--bench-coll PATH] [--bench-sched PATH] [--bench-baseline PATH] [--bench-quick]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn emit(out: &std::path::Path, fig: &Figure) {
    let name = format!("{}.csv", fig.id);
    write_artifact(out, &name, &fig.to_csv()).expect("write csv");
    write_json(out, &format!("{}.json", fig.id), fig).expect("write json");
    println!("{}", charts::ascii(fig));
}

fn main() {
    let args = parse_args();
    let functional = args.tier == "functional" || args.tier == "both";
    let model = args.tier == "model" || args.tier == "both";
    let wants = |e: &str| args.exp == "all" || args.exp == e;
    let t0 = Instant::now();

    // Bench mode runs only the pinned suites and exits: CI's bench job (and
    // local baseline regeneration) wants the timing artefacts without the
    // figure campaign behind them.
    if args.bench_out.is_some()
        || args.bench_campaign.is_some()
        || args.bench_coll.is_some()
        || args.bench_sched.is_some()
        || args.bench_baseline.is_some()
    {
        use greenla_harness::bench::{
            campaign_suite, coll_suite, kernel_suite, sched_suite, BenchReport,
        };
        // Every report records this, but log it up front too: CI greps the
        // job output for the resolved path.
        eprintln!(
            "kernel dispatch: {} (GREENLA_KERNEL={})",
            greenla_linalg::simd::resolved(),
            std::env::var("GREENLA_KERNEL").unwrap_or_else(|_| "auto".into()),
        );
        let write = |path: &PathBuf, report: &BenchReport| {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create bench dir");
                }
            }
            let text = serde_json::to_string_pretty(report).expect("serialise bench report");
            std::fs::write(path, text + "\n").expect("write bench report");
            eprintln!("wrote {}", path.display());
        };
        let quick = if args.bench_quick { " [quick]" } else { "" };
        if let Some(path) = &args.bench_out {
            eprintln!("running kernel bench suite{quick}");
            let report = BenchReport::new(vec![kernel_suite(args.bench_quick)]);
            if let Some(sp) = report.speedup("kernels", "dgemm_packed_512", "dgemm_scalar_512") {
                eprintln!("dgemm 512³ packed vs scalar reference: {sp:.2}x");
            }
            write(path, &report);
        }
        if let Some(path) = &args.bench_campaign {
            eprintln!("running campaign bench suite{quick}");
            let report = BenchReport::new(vec![campaign_suite(args.bench_quick)]);
            write(path, &report);
        }
        if let Some(path) = &args.bench_coll {
            eprintln!("running collectives bench suite{quick}");
            let report = BenchReport::new(vec![coll_suite(args.bench_quick)]);
            if let Some(sp) = report.speedup(
                "collectives",
                "allgather_8mib_p64",
                "allgather_tree_8mib_p64",
            ) {
                eprintln!("8 MiB allgather at P=64, ring vs tree: {sp:.2}x");
            }
            write(path, &report);
        }
        if let Some(path) = &args.bench_sched {
            eprintln!("running scheduler bench suite{quick}");
            let report = BenchReport::new(vec![sched_suite(args.bench_quick)]);
            write(path, &report);
        }
        // All suites in one file — the shape `bench_gate --baseline` expects.
        if let Some(path) = &args.bench_baseline {
            eprintln!(
                "running kernel + campaign + collectives + sched suites for a fresh baseline{quick}"
            );
            let report = BenchReport::new(vec![
                kernel_suite(args.bench_quick),
                campaign_suite(args.bench_quick),
                coll_suite(args.bench_quick),
                sched_suite(args.bench_quick),
            ]);
            write(path, &report);
        }
        eprintln!("bench done in {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }

    // The large-P smoke: no solver, no campaign — prove the rank engine
    // spins up, synchronises and tears down five-digit rank counts inside
    // a CI step timeout, and leave a machine-readable artifact behind.
    if args.exp == "scale" {
        use greenla_cluster::placement::{LoadLayout, Placement};
        use greenla_cluster::spec::ClusterSpec;
        use greenla_cluster::PowerModel;
        use greenla_mpi::Machine;

        let ranks = args
            .ranks
            .as_ref()
            .and_then(|r| r.iter().copied().max())
            .unwrap_or(10_000);
        eprintln!("scale smoke: {ranks} ranks");
        let spec = ClusterSpec::test_cluster(ranks.div_ceil(8), 4);
        let placement = Placement::layout(&spec.node, ranks, LoadLayout::FullLoad)
            .expect("placement for scale smoke");
        let machine = Machine::new(spec, placement, PowerModel::deterministic(), 42)
            .expect("machine for scale smoke");
        let wall = Instant::now();
        let out = machine.run(|ctx| {
            let world = ctx.world();
            ctx.barrier(&world);
            let data = (ctx.rank() == 0).then(|| vec![1.0f64; 256]);
            ctx.bcast_shared_f64(&world, 0, data);
            let sum = ctx.allreduce_sum_f64(&world, &[1.0])[0];
            ctx.barrier(&world);
            sum
        });
        let wall_s = wall.elapsed().as_secs_f64();
        for (rank, &sum) in out.results.iter().enumerate() {
            assert_eq!(sum, ranks as f64, "rank {rank} disagreed on the allreduce");
        }
        #[derive(serde::Serialize)]
        struct ScaleSmoke {
            ranks: usize,
            wall_s: f64,
            virtual_makespan_s: f64,
            msgs: u64,
            volume_elems: u64,
        }
        let artifact = ScaleSmoke {
            ranks,
            wall_s,
            virtual_makespan_s: out.makespan,
            msgs: out.traffic.msgs,
            volume_elems: out.traffic.volume_elems(),
        };
        write_json(&args.out, "scale_smoke.json", &artifact).expect("write scale smoke");
        eprintln!(
            "scale smoke ok: {ranks} ranks, wall {wall_s:.2} s, virtual {:.6} s",
            out.makespan
        );
        return;
    }

    // A fault plan turns the campaign into a chaos run: parse it up front
    // so a malformed plan fails before any work happens.
    let fault_plan = args.faults.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read fault plan {}: {e}", path.display()));
        serde_json::from_str::<greenla_mpi::FaultPlan>(&text)
            .unwrap_or_else(|e| panic!("parse fault plan {}: {e}", path.display()))
    });

    // Experiments that need the measurement campaign (--check or --faults
    // alone also run it: the campaign is what gets checked/faulted).
    let needs_data = functional
        && (args.check
            || fault_plan.is_some()
            || ["fig3", "fig4", "fig5", "fig6", "fig7", "summary"]
                .iter()
                .any(|e| wants(e)));
    let dataset: Option<Dataset> = needs_data.then(|| {
        let mut grid = if args.smoke {
            FunctionalGrid::smoke()
        } else {
            FunctionalGrid::default()
        };
        grid.reps = args.reps;
        grid.check = args.check;
        grid.faults = fault_plan.clone();
        if let Some(ranks) = &args.ranks {
            grid.ranks = ranks.clone();
        }
        eprintln!(
            "running functional campaign: dims {:?} × ranks {:?} × 3 layouts × 2 solvers × {} reps{}",
            grid.dims,
            grid.ranks,
            grid.reps,
            match (grid.check, grid.faults.is_some()) {
                (true, true) => " [checked, faulted]",
                (true, false) => " [checked]",
                (false, true) => " [faulted]",
                (false, false) => "",
            }
        );
        let ds = Dataset::campaign(&grid, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f64())
        });
        write_json(&args.out, "dataset.json", &ds).expect("write dataset");
        ds
    });

    if args.check {
        let ds = dataset.as_ref().expect("--check implies a campaign");
        let diags: Vec<String> = ds
            .violations()
            .map(|(p, v)| {
                format!(
                    "{} n={} ranks={} layout={}: {v}",
                    p.solver, p.n, p.ranks, p.layout
                )
            })
            .collect();
        for d in &diags {
            eprintln!("VIOLATION {d}");
        }
        eprintln!(
            "checker: {} violation(s) across {} grid point(s)",
            diags.len(),
            ds.points.len()
        );
        if !diags.is_empty() {
            std::process::exit(1);
        }
    }

    if fault_plan.is_some() {
        use greenla_mpi::FaultReport;
        let ds = dataset.as_ref().expect("--faults implies a campaign");
        let mut agg = FaultReport::default();
        let mut runs = 0usize;
        for (_, r) in ds.fault_reports() {
            agg.merge(r);
            runs += 1;
        }
        write_json(&args.out, "fault_reports.json", &agg).expect("write fault reports");
        eprintln!(
            "faults over {runs} run(s): injected {} observed {} recovered {}{}",
            agg.injected.total(),
            agg.observed.total(),
            agg.recovered.total(),
            if agg.degraded_nodes.is_empty() {
                String::new()
            } else {
                format!(" (degraded nodes: {:?})", agg.degraded_nodes)
            }
        );
    }

    if wants("table1") {
        let t = exp::table1();
        write_artifact(&args.out, "table1.csv", &t.to_csv()).expect("write");
        println!("{}", t.to_text());
    }

    if wants("fig3") {
        if let Some(ds) = &dataset {
            let ranks = ds.points.iter().map(|p| p.ranks).min().unwrap_or(16);
            emit(&args.out, &exp::fig3_functional(ds, ranks));
        }
        if model {
            emit(&args.out, &exp::fig3_model(144));
        }
    }

    if wants("fig4") {
        if let Some(ds) = &dataset {
            let (fe, ft) = exp::fig4_functional(ds);
            emit(&args.out, &fe);
            emit(&args.out, &ft);
        }
        if model {
            let (fe, ft) = exp::fig4_model();
            emit(&args.out, &fe);
            emit(&args.out, &ft);
        }
    }

    if wants("fig5") {
        if let Some(ds) = &dataset {
            let (fe, ft) = exp::fig5_functional(ds);
            emit(&args.out, &fe);
            emit(&args.out, &ft);
        }
        if model {
            let (fe, ft) = exp::fig5_model();
            emit(&args.out, &fe);
            emit(&args.out, &ft);
        }
    }

    if wants("fig6") {
        if let Some(ds) = &dataset {
            let ranks = ds.points.iter().map(|p| p.ranks).min().unwrap_or(16);
            let (fe, fp) = exp::fig6_functional(ds, ranks);
            emit(&args.out, &fe);
            emit(&args.out, &fp);
        }
        if model {
            let (fe, fp) = exp::fig6_model(144);
            emit(&args.out, &fe);
            emit(&args.out, &fp);
        }
    }

    if wants("fig7") {
        if let Some(ds) = &dataset {
            let n = ds.points.iter().map(|p| p.n).max().unwrap_or(960);
            let (fe, fp) = exp::fig7_functional(ds, n);
            emit(&args.out, &fe);
            emit(&args.out, &fp);
        }
        if model {
            let (fe, fp) = exp::fig7_model(17280);
            emit(&args.out, &fe);
            emit(&args.out, &fp);
        }
    }

    if wants("summary") {
        if let Some(ds) = &dataset {
            let checks = summary::check_dataset(ds);
            let t = summary::claims_table(
                "summary-functional",
                "Paper claims vs functional tier",
                &checks,
            );
            write_artifact(&args.out, "summary_functional.csv", &t.to_csv()).expect("write");
            write_json(&args.out, "summary_functional.json", &checks).expect("write");
            println!("{}", t.to_text());
        }
        if model {
            let checks = summary::check_model();
            let t = summary::claims_table(
                "summary-model",
                "Paper claims vs model tier (paper scale)",
                &checks,
            );
            write_artifact(&args.out, "summary_model.csv", &t.to_csv()).expect("write");
            write_json(&args.out, "summary_model.json", &checks).expect("write");
            println!("{}", t.to_text());
        }
    }

    if wants("sparse") && functional {
        use greenla_harness::sparse::{self, SparseGrid};
        let mut grid = if args.smoke {
            SparseGrid::smoke()
        } else {
            SparseGrid::default()
        };
        grid.reps = args.reps;
        eprintln!(
            "running sparse campaign: dims {:?} × {} ranks × 4 solvers × {} reps",
            grid.dims, grid.ranks, grid.reps
        );
        let (ds, report) = sparse::campaign(&grid, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f64())
        });
        write_json(&args.out, "sparse_dataset.json", &ds).expect("write sparse dataset");
        write_json(&args.out, "sparse_campaign.json", &report).expect("write sparse report");
        let t = sparse::table(&report);
        write_artifact(&args.out, "sparse.csv", &t.to_csv()).expect("write");
        println!("{}", t.to_text());
        for c in &report.checks {
            println!(
                "  {} n={}: wall ratio {:.3}, energy ratio {:.3}, {} iters, {:.2} GB/s{}",
                c.solver,
                c.n,
                c.wall_ratio,
                c.energy_ratio,
                c.iterations,
                c.gbps,
                if c.within_band { "" } else { "  [OUT OF BAND]" }
            );
        }
        if !(report.all_within_band && report.all_memory_bound && report.inversion_holds) {
            eprintln!(
                "sparse campaign FAILED: within_band={} memory_bound={} inversion={}",
                report.all_within_band, report.all_memory_bound, report.inversion_holds
            );
            std::process::exit(1);
        }
        eprintln!("sparse campaign ok: CG memory-bound, model within ±30%, energy inversion holds");
    }

    if wants("powercap") && functional {
        let (n, ranks) = if args.smoke { (96, 8) } else { (360, 16) };
        let pts = greenla_harness::powercap::sweep(n, ranks, &[1.0, 0.85, 0.7, 0.55, 0.4], 7);
        let t = greenla_harness::powercap::table(&pts);
        write_artifact(&args.out, "powercap.csv", &t.to_csv()).expect("write");
        write_json(&args.out, "powercap.json", &pts).expect("write");
        println!("{}", t.to_text());
    }

    if wants("trace") && functional {
        let (n, ranks) = if args.smoke { (128, 8) } else { (480, 16) };
        let fig = greenla_harness::power_trace::figure(n, ranks, 1e-3, 7);
        emit(&args.out, &fig);
    }

    if let Some(path) = &args.trace_out {
        use greenla_harness::chrome_trace::traced_solve;
        use greenla_harness::config::SolverChoice;
        let (n, ranks) = if args.smoke { (96, 8) } else { (240, 16) };
        let run = traced_solve(SolverChoice::ime_optimized(), n, ranks, 7);
        let text = serde_json::to_string_pretty(&run.trace).expect("serialise trace");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create trace dir");
            }
        }
        std::fs::write(path, text).expect("write trace");
        eprintln!(
            "wrote {} ({} events, virtual makespan {:.6} s) — open in https://ui.perfetto.dev",
            path.display(),
            run.event_count,
            run.makespan_s
        );
    }

    if wants("overhead") && functional {
        use greenla_cluster::placement::Placement;
        use greenla_cluster::spec::ClusterSpec;
        use greenla_cluster::PowerModel;
        use greenla_ime::par::ImepOptions;
        use greenla_linalg::generate;
        use greenla_monitor::overhead::measure_overhead;
        use greenla_mpi::Machine;

        let sys = generate::diag_dominant(if args.smoke { 96 } else { 360 }, 1);
        let build = || {
            let spec = ClusterSpec::test_cluster(4, 4);
            let placement = Placement::packed(&spec.node, 16).unwrap();
            let power = PowerModel::scaled_deterministic(&spec.node);
            Machine::new(spec, placement, power, 99).unwrap()
        };
        let report = measure_overhead(build, |ctx| {
            let world = ctx.world();
            greenla_ime::solve_imep(ctx, &world, &sys, ImepOptions::optimized()).unwrap();
        });
        let text = format!(
            "monitored makespan: {:.6} s\nraw makespan:       {:.6} s\noverhead:           {:.2} %\n",
            report.monitored_s,
            report.raw_s,
            report.overhead_fraction() * 100.0
        );
        write_artifact(&args.out, "overhead.txt", &text).expect("write");
        println!("== E-O1 monitoring overhead ==\n{text}");
    }

    eprintln!(
        "done in {:.1}s — artefacts in {}",
        t0.elapsed().as_secs_f64(),
        args.out.display()
    );
}
