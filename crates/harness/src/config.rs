//! Experiment grids and solver selection.

use greenla_cluster::placement::LoadLayout;
use greenla_cluster::spec::{ClusterSpec, NodeSpec};
use greenla_ime::par::ImepOptions;
use greenla_mpi::FaultPlan;
use serde::{Deserialize, Serialize};

/// Which solver a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverChoice {
    /// IMeP with the given protocol options.
    Ime {
        collect_last_rows: bool,
        centralized_h: bool,
        pipelined_bcast: bool,
    },
    /// Block-cyclic LU with partial pivoting.
    ScaLapack { nb: usize },
    /// Distributed conjugate gradients over the sparse row-block SpMV
    /// (the system must be SPD; the dense input is sparsified on entry).
    Cg { jacobi: bool },
}

impl SolverChoice {
    pub fn ime_optimized() -> Self {
        let o = ImepOptions::optimized();
        SolverChoice::Ime {
            collect_last_rows: o.collect_last_rows,
            centralized_h: o.centralized_h,
            pipelined_bcast: o.pipelined_bcast,
        }
    }

    pub fn ime_paper() -> Self {
        let o = ImepOptions::paper();
        SolverChoice::Ime {
            collect_last_rows: o.collect_last_rows,
            centralized_h: o.centralized_h,
            pipelined_bcast: o.pipelined_bcast,
        }
    }

    pub fn scalapack() -> Self {
        SolverChoice::ScaLapack { nb: 32 }
    }

    pub fn cg() -> Self {
        SolverChoice::Cg { jacobi: false }
    }

    pub fn cg_jacobi() -> Self {
        SolverChoice::Cg { jacobi: true }
    }

    pub fn imep_options(&self) -> Option<ImepOptions> {
        match *self {
            SolverChoice::Ime {
                collect_last_rows,
                centralized_h,
                pipelined_bcast,
            } => Some(ImepOptions {
                collect_last_rows,
                centralized_h,
                pipelined_bcast,
            }),
            SolverChoice::ScaLapack { .. } | SolverChoice::Cg { .. } => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            SolverChoice::Ime { .. } => "IMe",
            SolverChoice::ScaLapack { .. } => "ScaLAPACK",
            SolverChoice::Cg { jacobi: false } => "CG",
            SolverChoice::Cg { jacobi: true } => "CG-Jacobi",
        }
    }
}

/// The functional tier's scaled-down analogue of the paper's Table 1 grid.
///
/// The node is a 2-socket, 4-cores-per-socket miniature of the Marconi A3
/// node (so `full = 8 ranks/node`, `half-1sock = 4 on socket 0`,
/// `half-2sock = 2 + 2`), rank counts are squares (the IMeP requirement the
/// paper states) divisible by every layout's ranks-per-node, and the four
/// dimensions keep a fixed ratio like 8640 : 17280 : 25920 : 34560. (Rank
/// counts are powers of two rather than the paper's squares — our IMeP's
/// cyclic column distribution has no square-count requirement, and every
/// layout's ranks-per-node must divide the count.)
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FunctionalGrid {
    pub dims: Vec<usize>,
    pub ranks: Vec<usize>,
    pub layouts: Vec<LoadLayout>,
    pub reps: usize,
    pub cores_per_socket: usize,
    pub base_seed: u64,
    /// Run every configuration under the greenla-check correctness sink
    /// and record its diagnostics in the dataset.
    #[serde(default = "default_false")]
    pub check: bool,
    /// Deterministic fault plan injected into every run of the campaign
    /// (`repro --faults plan.json`); `None` disables all fault hooks.
    #[serde(default = "Default::default")]
    pub faults: Option<FaultPlan>,
    /// Back-to-back solves per monitored window for every run of the
    /// campaign (see `RunConfig::batch`); the runner normalises the
    /// measured figures back to one solve. `1` — what every pre-existing
    /// grid deserializes to — measures single solves.
    #[serde(default = "one_batch")]
    pub batch: usize,
}

/// Serde default for opt-in boolean knobs.
pub(crate) fn default_false() -> bool {
    false
}

/// Serde default for opt-out boolean knobs.
pub(crate) fn default_true() -> bool {
    true
}

/// Serde default for batch knobs: one solve per monitored window.
pub(crate) fn one_batch() -> usize {
    1
}

impl Default for FunctionalGrid {
    fn default() -> Self {
        Self {
            dims: vec![240, 480, 720, 960, 1200],
            ranks: vec![16, 32, 64],
            layouts: LoadLayout::all().to_vec(),
            reps: 3,
            cores_per_socket: 4,
            base_seed: 2023,
            check: false,
            faults: None,
            batch: 1,
        }
    }
}

impl FunctionalGrid {
    /// A minimal grid for fast smoke tests and benches.
    pub fn smoke() -> Self {
        Self {
            dims: vec![96, 192],
            ranks: vec![16],
            layouts: LoadLayout::all().to_vec(),
            reps: 1,
            ..Self::default()
        }
    }

    /// Node spec of the scaled cluster.
    pub fn node(&self) -> NodeSpec {
        NodeSpec::test_node(self.cores_per_socket)
    }

    /// Cluster sized for the largest configuration in the grid.
    pub fn cluster(&self) -> ClusterSpec {
        let node = self.node();
        let max_nodes = self
            .ranks
            .iter()
            .map(|&r| r.div_ceil(self.cores_per_socket)) // half-load worst case
            .max()
            .unwrap_or(1);
        ClusterSpec {
            node,
            nodes: max_nodes.max(1),
            net: greenla_cluster::Interconnect::omni_path(),
        }
    }
}

/// The paper's exact evaluation grid (model tier).
pub mod paper {
    pub use greenla_cluster::placement::{PAPER_DIMS, PAPER_RANKS};
    /// ScaLAPACK block size assumed at paper scale.
    pub const NB: usize = 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_consistent() {
        let g = FunctionalGrid::default();
        let node = g.node();
        for layout in &g.layouts {
            let rpn = layout.ranks_per_node(&node);
            for &r in &g.ranks {
                assert_eq!(r % rpn, 0, "ranks {r} vs rpn {rpn} for {layout}");
            }
        }
        // Fixed dimension ratios like the paper (1:2:3:4, plus a fifth
        // point extending the compute-bound end).
        assert_eq!(
            g.dims.iter().map(|d| d / g.dims[0]).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn solver_labels() {
        assert_eq!(SolverChoice::ime_optimized().label(), "IMe");
        assert_eq!(SolverChoice::scalapack().label(), "ScaLAPACK");
        assert_eq!(SolverChoice::cg().label(), "CG");
        assert_eq!(SolverChoice::cg_jacobi().label(), "CG-Jacobi");
    }
}
