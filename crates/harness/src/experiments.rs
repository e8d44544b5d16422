//! Per-artefact experiment definitions: one function per paper table or
//! figure, for each tier.
//!
//! Functional-tier figures slice the measured [`Dataset`]; model-tier
//! figures evaluate the calibrated analytic model at the paper's exact
//! configurations. Figure numbering follows the paper (§5.2). The design
//! ablations A-1/A-2 report deterministic virtual time on a small packed
//! cluster.

use crate::config::paper;
use crate::output::{Figure, Series, Table};
use crate::run::Dataset;
use greenla_cluster::placement::{table1_rows, LoadLayout, Placement, PAPER_RANKS};
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_cluster::PowerModel;
use greenla_ime::{solve_imep, ImepOptions};
use greenla_linalg::generate;
use greenla_model::{predict, Prediction, Scenario, Solver};
use greenla_mpi::Machine;
use greenla_scalapack::pdgesv::pdgesv;

/// Table 1: the test configurations (nodes, ranks, sockets).
pub fn table1() -> Table {
    let rows = table1_rows(&NodeSpec::marconi_a3(), &PAPER_RANKS);
    Table {
        id: "table1".into(),
        title: "Table 1 — test configurations for nodes, ranks and sockets".into(),
        headers: [
            "Ranks",
            "Nodes",
            "Ranks/Node",
            "Sockets",
            "Ranks/Socket0",
            "Ranks/Socket1",
        ]
        .map(String::from)
        .to_vec(),
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.ranks.to_string(),
                    r.nodes.to_string(),
                    r.ranks_per_node.to_string(),
                    r.sockets.to_string(),
                    r.ranks_per_socket.0.to_string(),
                    r.ranks_per_socket.1.to_string(),
                ]
            })
            .collect(),
    }
}

const SOLVERS: [&str; 2] = ["IMe", "ScaLAPACK"];

/// Evaluate the model at a paper-scale scenario.
fn model_point(solver: &str, n: usize, ranks: usize, layout: LoadLayout) -> Prediction {
    let spec = ClusterSpec::marconi_a3(64);
    let power = PowerModel::marconi_a3();
    let s = match solver {
        "IMe" => Solver::ImeOptimized,
        _ => Solver::ScaLapack { nb: paper::NB },
    };
    predict(s, Scenario { n, ranks, layout }, &spec, &power)
}

/// Figure 3: total energy for full-loaded vs half-loaded processors, per
/// solver, energy vs matrix dimension at a fixed rank count.
pub fn fig3_functional(ds: &Dataset, ranks: usize) -> Figure {
    let mut fig = Figure::new(
        "fig3",
        format!("Fig.3 — full vs half-loaded processors (ranks={ranks})"),
        "matrix dimension",
        "total energy [J]",
    );
    for solver in SOLVERS {
        for layout in LoadLayout::all() {
            let mut s = Series::new(format!("{solver} {layout}"));
            for p in &ds.points {
                if p.solver == solver && p.ranks == ranks && p.layout == layout {
                    s.push(p.n as f64, p.agg.total_energy_j.mean);
                }
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Figure 3 at paper scale (model tier).
pub fn fig3_model(ranks: usize) -> Figure {
    let mut fig = Figure::new(
        "fig3-model",
        format!("Fig.3 (paper scale, model) — load levels (ranks={ranks})"),
        "matrix dimension",
        "total energy [J]",
    );
    for solver in SOLVERS {
        for layout in LoadLayout::all() {
            let mut s = Series::new(format!("{solver} {layout}"));
            for &n in &paper::PAPER_DIMS {
                s.push(
                    n as f64,
                    model_point(solver, n, ranks, layout).energy.total_j,
                );
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Figure 4: energy and time vs matrix dimension at fixed rank counts
/// (full-load deployments). Returns `(energy figure, time figure)`.
pub fn fig4_functional(ds: &Dataset) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig4-energy",
        "Fig.4 — energy vs matrix dimension at fixed ranks (full load)",
        "matrix dimension",
        "total energy [J]",
    );
    let mut ft = Figure::new(
        "fig4-time",
        "Fig.4 — duration vs matrix dimension at fixed ranks (full load)",
        "matrix dimension",
        "duration [s]",
    );
    let ranks_list: Vec<usize> = {
        let mut r: Vec<usize> = ds
            .points
            .iter()
            .filter(|p| p.layout == LoadLayout::FullLoad)
            .map(|p| p.ranks)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    for solver in SOLVERS {
        for &ranks in &ranks_list {
            let mut se = Series::new(format!("{solver} {ranks} ranks"));
            let mut st = Series::new(format!("{solver} {ranks} ranks"));
            for p in &ds.points {
                if p.solver == solver && p.ranks == ranks && p.layout == LoadLayout::FullLoad {
                    se.push(p.n as f64, p.agg.total_energy_j.mean);
                    st.push(p.n as f64, p.agg.duration_s.mean);
                }
            }
            fe.series.push(se);
            ft.series.push(st);
        }
    }
    (fe, ft)
}

/// Figure 4 at paper scale.
pub fn fig4_model() -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig4-energy-model",
        "Fig.4 (paper scale, model) — energy vs dimension at fixed ranks",
        "matrix dimension",
        "total energy [J]",
    );
    let mut ft = Figure::new(
        "fig4-time-model",
        "Fig.4 (paper scale, model) — duration vs dimension at fixed ranks",
        "matrix dimension",
        "duration [s]",
    );
    for solver in SOLVERS {
        for &ranks in &paper::PAPER_RANKS {
            let mut se = Series::new(format!("{solver} {ranks} ranks"));
            let mut st = Series::new(format!("{solver} {ranks} ranks"));
            for &n in &paper::PAPER_DIMS {
                let p = model_point(solver, n, ranks, LoadLayout::FullLoad);
                se.push(n as f64, p.energy.total_j);
                st.push(n as f64, p.time_s);
            }
            fe.series.push(se);
            ft.series.push(st);
        }
    }
    (fe, ft)
}

/// Figure 5: energy and time vs rank count at fixed matrix dimensions
/// (strong scaling; the crossover figure).
pub fn fig5_functional(ds: &Dataset) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig5-energy",
        "Fig.5 — energy vs ranks at fixed matrix size (full load)",
        "ranks",
        "total energy [J]",
    );
    let mut ft = Figure::new(
        "fig5-time",
        "Fig.5 — duration vs ranks at fixed matrix size (full load)",
        "ranks",
        "duration [s]",
    );
    let dims: Vec<usize> = {
        let mut d: Vec<usize> = ds.points.iter().map(|p| p.n).collect();
        d.sort_unstable();
        d.dedup();
        d
    };
    for solver in SOLVERS {
        for &n in &dims {
            let mut se = Series::new(format!("{solver} n={n}"));
            let mut st = Series::new(format!("{solver} n={n}"));
            for p in &ds.points {
                if p.solver == solver && p.n == n && p.layout == LoadLayout::FullLoad {
                    se.push(p.ranks as f64, p.agg.total_energy_j.mean);
                    st.push(p.ranks as f64, p.agg.duration_s.mean);
                }
            }
            fe.series.push(se);
            ft.series.push(st);
        }
    }
    (fe, ft)
}

/// Figure 5 at paper scale.
pub fn fig5_model() -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig5-energy-model",
        "Fig.5 (paper scale, model) — energy vs ranks at fixed matrix size",
        "ranks",
        "total energy [J]",
    );
    let mut ft = Figure::new(
        "fig5-time-model",
        "Fig.5 (paper scale, model) — duration vs ranks at fixed matrix size",
        "ranks",
        "duration [s]",
    );
    for solver in SOLVERS {
        for &n in &paper::PAPER_DIMS {
            let mut se = Series::new(format!("{solver} n={n}"));
            let mut st = Series::new(format!("{solver} n={n}"));
            for &ranks in &paper::PAPER_RANKS {
                let p = model_point(solver, n, ranks, LoadLayout::FullLoad);
                se.push(ranks as f64, p.energy.total_j);
                st.push(ranks as f64, p.time_s);
            }
            fe.series.push(se);
            ft.series.push(st);
        }
    }
    (fe, ft)
}

/// Figure 6: energy and mean power vs matrix dimension at fixed ranks.
pub fn fig6_functional(ds: &Dataset, ranks: usize) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig6-energy",
        format!("Fig.6 — energy vs dimension (ranks={ranks}, full load)"),
        "matrix dimension",
        "total energy [J]",
    );
    let mut fp = Figure::new(
        "fig6-power",
        format!("Fig.6 — mean power vs dimension (ranks={ranks}, full load)"),
        "matrix dimension",
        "mean power [W]",
    );
    for solver in SOLVERS {
        let mut se = Series::new(solver);
        let mut sp = Series::new(solver);
        for p in &ds.points {
            if p.solver == solver && p.ranks == ranks && p.layout == LoadLayout::FullLoad {
                se.push(p.n as f64, p.agg.total_energy_j.mean);
                sp.push(p.n as f64, p.agg.mean_power_w.mean);
            }
        }
        fe.series.push(se);
        fp.series.push(sp);
    }
    (fe, fp)
}

/// Figure 6 at paper scale.
pub fn fig6_model(ranks: usize) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig6-energy-model",
        format!("Fig.6 (paper scale, model) — energy vs dimension (ranks={ranks})"),
        "matrix dimension",
        "total energy [J]",
    );
    let mut fp = Figure::new(
        "fig6-power-model",
        format!("Fig.6 (paper scale, model) — power vs dimension (ranks={ranks})"),
        "matrix dimension",
        "mean power [W]",
    );
    for solver in SOLVERS {
        let mut se = Series::new(solver);
        let mut sp = Series::new(solver);
        for &n in &paper::PAPER_DIMS {
            let p = model_point(solver, n, ranks, LoadLayout::FullLoad);
            se.push(n as f64, p.energy.total_j);
            sp.push(n as f64, p.energy.mean_power_w);
        }
        fe.series.push(se);
        fp.series.push(sp);
    }
    (fe, fp)
}

/// Figure 7: energy and mean power vs rank count at a fixed dimension.
pub fn fig7_functional(ds: &Dataset, n: usize) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig7-energy",
        format!("Fig.7 — energy vs ranks (n={n}, full load)"),
        "ranks",
        "total energy [J]",
    );
    let mut fp = Figure::new(
        "fig7-power",
        format!("Fig.7 — mean power vs ranks (n={n}, full load)"),
        "ranks",
        "mean power [W]",
    );
    for solver in SOLVERS {
        let mut se = Series::new(solver);
        let mut sp = Series::new(solver);
        for p in &ds.points {
            if p.solver == solver && p.n == n && p.layout == LoadLayout::FullLoad {
                se.push(p.ranks as f64, p.agg.total_energy_j.mean);
                sp.push(p.ranks as f64, p.agg.mean_power_w.mean);
            }
        }
        fe.series.push(se);
        fp.series.push(sp);
    }
    (fe, fp)
}

/// Figure 7 at paper scale.
pub fn fig7_model(n: usize) -> (Figure, Figure) {
    let mut fe = Figure::new(
        "fig7-energy-model",
        format!("Fig.7 (paper scale, model) — energy vs ranks (n={n})"),
        "ranks",
        "total energy [J]",
    );
    let mut fp = Figure::new(
        "fig7-power-model",
        format!("Fig.7 (paper scale, model) — power vs ranks (n={n})"),
        "ranks",
        "mean power [W]",
    );
    for solver in SOLVERS {
        let mut se = Series::new(solver);
        let mut sp = Series::new(solver);
        for &ranks in &paper::PAPER_RANKS {
            let p = model_point(solver, n, ranks, LoadLayout::FullLoad);
            se.push(ranks as f64, p.energy.total_j);
            sp.push(ranks as f64, p.energy.mean_power_w);
        }
        fe.series.push(se);
        fp.series.push(sp);
    }
    (fe, fp)
}

/// Sixteen ranks packed onto four 4-core test nodes with the
/// deterministic scaled power model: the fixed machine of the ablations
/// and the E-O1 overhead run.
pub fn packed_test_machine(seed: u64) -> Machine {
    let spec = ClusterSpec::test_cluster(4, 4);
    let placement = Placement::packed(&spec.node, 16).expect("16 ranks fit 4×4 cores");
    let power = PowerModel::scaled_deterministic(&spec.node);
    Machine::new(spec, placement, power, seed).expect("ablation machine")
}

fn delta_pct(x: f64, base: f64) -> String {
    format!("{:+.1}", (x / base - 1.0) * 100.0)
}

/// A-1: IMeP's communication protocol as the paper runs it (centralised
/// h, last-row returns to the master, binomial broadcasts) against each
/// optimisation alone and all three together, at n=192 on 16 ranks.
pub fn ablation_ime_protocol() -> Table {
    let sys = generate::diag_dominant(192, 77);
    let paper = ImepOptions::paper();
    let variants = [
        ("paper", paper),
        (
            "no-last-rows",
            ImepOptions {
                collect_last_rows: false,
                ..paper
            },
        ),
        (
            "local-h",
            ImepOptions {
                centralized_h: false,
                ..paper
            },
        ),
        (
            "pipelined-bcast",
            ImepOptions {
                pipelined_bcast: true,
                ..paper
            },
        ),
        ("optimized", ImepOptions::optimized()),
    ];
    let runs: Vec<(&str, f64, u64)> = variants
        .into_iter()
        .map(|(name, opts)| {
            let out = packed_test_machine(66).run(|ctx| {
                let world = ctx.world();
                solve_imep(ctx, &world, &sys, opts).expect("IMeP solve")
            });
            (name, out.makespan, out.traffic.msgs)
        })
        .collect();
    let (_, t_paper, m_paper) = runs[0];
    Table {
        id: "ablation_ime".into(),
        title: "A-1 — IMeP protocol ablation (n=192, 16 ranks, virtual time)".into(),
        headers: [
            "variant",
            "makespan [s]",
            "time vs paper [%]",
            "msgs",
            "msgs vs paper [%]",
        ]
        .map(String::from)
        .to_vec(),
        rows: runs
            .iter()
            .map(|&(name, t, m)| {
                vec![
                    name.to_string(),
                    format!("{t:.6}"),
                    delta_pct(t, t_paper),
                    m.to_string(),
                    delta_pct(m as f64, m_paper as f64),
                ]
            })
            .collect(),
    }
}

/// A-2: the ScaLAPACK block size `nb` — block-cyclic LU's latency vs
/// locality trade-off — swept at n=256 on 16 ranks.
pub fn ablation_nb_sweep() -> Table {
    let sys = generate::diag_dominant(256, 77);
    Table {
        id: "ablation_nb".into(),
        title: "A-2 — pdgesv block-size sweep (n=256, 16 ranks, virtual time)".into(),
        headers: ["nb", "makespan [s]", "msgs"].map(String::from).to_vec(),
        rows: [2usize, 4, 8, 16, 32, 64]
            .into_iter()
            .map(|nb| {
                let out = packed_test_machine(88).run(|ctx| {
                    let world = ctx.world();
                    pdgesv(ctx, &world, &sys, nb).expect("pdgesv")
                });
                vec![
                    nb.to_string(),
                    format!("{:.6}", out.makespan),
                    out.traffic.msgs.to_string(),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_rows() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.rows[0], vec!["144", "3", "48", "2", "24", "24"]);
        assert_eq!(t.rows[8], vec!["1296", "54", "24", "2", "12", "12"]);
    }

    /// Column `col` of the row whose first cell is `key`, as a number.
    fn cell(t: &Table, key: &str, col: usize) -> f64 {
        let row = t.rows.iter().find(|r| r[0] == key).expect(key);
        row[col].parse().expect("numeric cell")
    }

    #[test]
    fn ablation_ime_protocol_signs() {
        let t = ablation_ime_protocol();
        assert_eq!(t, ablation_ime_protocol(), "A-1 must be deterministic");
        let time = |variant: &str| cell(&t, variant, 1);
        let msgs = |variant: &str| cell(&t, variant, 3);
        assert!(time("optimized") < time("paper"), "{}", t.to_text());
        assert!(msgs("optimized") < msgs("paper"), "{}", t.to_text());
        assert_eq!(msgs("paper"), 8685.0);
        for variant in ["no-last-rows", "local-h"] {
            assert_eq!(msgs(variant), 5805.0, "{variant}");
        }
        // Pipelining alone pays chunk/header overhead that trees this
        // shallow cannot amortise: the documented small-scale sign.
        assert!(time("pipelined-bcast") > time("paper"), "{}", t.to_text());
    }

    #[test]
    fn ablation_nb_sweep_is_u_shaped() {
        let t = ablation_nb_sweep();
        assert_eq!(t, ablation_nb_sweep(), "A-2 must be deterministic");
        let time = |nb: &str| cell(&t, nb, 1);
        let best = t
            .rows
            .iter()
            .min_by(|a, b| time(&a[0]).total_cmp(&time(&b[0])))
            .map(|r| r[0].as_str())
            .unwrap();
        assert!(["8", "16", "32"].contains(&best), "{}", t.to_text());
        assert!(time("2") > time(best) && time("64") > time(best));
    }

    #[test]
    fn model_figures_have_expected_series() {
        let (fe, ft) = fig4_model();
        assert_eq!(fe.series.len(), 6); // 2 solvers × 3 rank counts
        assert_eq!(ft.series.len(), 6);
        for s in &fe.series {
            assert_eq!(s.x.len(), 4); // 4 matrix dims
                                      // Energy grows with dimension.
            assert!(
                s.y.windows(2).all(|w| w[1] > w[0]),
                "{}: {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn fig5_model_strong_scaling_time_decreases() {
        let (_, ft) = fig5_model();
        for s in &ft.series {
            // Duration decreases as ranks grow, except that the smallest
            // matrix may hit the latency floor at the largest rank count
            // (which is exactly why IMe overtakes ScaLAPACK there, §5.2);
            // tolerate a mild upturn for n=8640.
            let slack = if s.label.contains("8640") { 1.25 } else { 1.0 };
            assert!(
                *s.y.last().unwrap() <= s.y.first().unwrap() * slack,
                "{}: {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn fig6_model_power_flat_in_dimension() {
        let (_, fp) = fig6_model(144);
        for s in &fp.series {
            let min = s.y.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = s.y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                max / min < 1.6,
                "power should be near-constant in dimension: {} {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn fig7_model_power_grows_with_ranks() {
        let (_, fp) = fig7_model(17280);
        for s in &fp.series {
            assert!(
                s.y.last().unwrap() > s.y.first().unwrap(),
                "power must grow with ranks: {} {:?}",
                s.label,
                s.y
            );
        }
    }
}
