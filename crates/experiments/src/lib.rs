//! # laacad-experiments — the paper-reproduction harness
//!
//! One binary per table/figure of the ICDCS 2012 evaluation (Sec. V),
//! plus the ablations in the table's last rows. Each binary prints
//! paper-style rows to stdout and writes CSV/SVG artifacts into `out/`.
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `fig1_voronoi`    | Fig. 1 — order-k Voronoi partitions          |
//! | `fig2_ring_hops`  | Fig. 2 — hops needed to compute `V^k_i`      |
//! | `fig5_deployment` | Fig. 5 — corner start → k-coverage layouts   |
//! | `fig6_convergence`| Fig. 6 — max/min circumradius vs rounds      |
//! | `fig7_energy`     | Fig. 7 — max/total sensing load vs N         |
//! | `table1_minnode`  | Table I — 2-coverage vs Bai et al. \[3\]       |
//! | `table2_ammari`   | Table II — k-coverage vs Ammari–Das \[15\]     |
//! | `fig8_obstacles`  | Fig. 8 — irregular areas and obstacles       |
//! | `ablation_lloyd`  | Chebyshev vs centroid motion targets         |
//! | `ablation_alpha`  | step-size sweep                              |
//! | `ablation_ranging`| MDS/ranging-noise robustness                 |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod output;
pub mod runs;
pub mod scenarios;
pub mod sweep;
pub mod table;

pub use output::{out_dir, write_artifact, Csv};
pub use runs::{run_laacad, StandardRun};
pub use scenarios::load_campaign;
pub use table::markdown_table;
