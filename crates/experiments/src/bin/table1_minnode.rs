//! Table I — minimum number of sensor nodes to achieve 2-coverage:
//! LAACAD versus the Bai et al. \[3\] optimal-density bound.
//!
//! Protocol (paper Sec. V-C): run LAACAD with N ∈ {1000, …, 1600} nodes,
//! take the converged maximum sensing range `R*` as the common range, and
//! compute `N*₂ = 4|A| / (3√3 R*²)` — the boundary-effect-free optimum.
//! The paper finds LAACAD within ≈ 15% of `N*₂`, attributing the gap to
//! boundary effects. Units: |A| = 10⁴ m² (the paper's "1 km²" is
//! inconsistent with its own reported numbers).
//!
//! Driven by the declarative spec `scenarios/table1_minnode.toml`; the
//! campaign runner sweeps the N-grid across all cores.
//!
//! Scale knob: `--scale <f>` (default 1.0) multiplies the node counts by
//! `f` and shrinks the area to keep density constant (e.g. `--scale 0.1`
//! runs a 10× smaller but same-shaped experiment, used by CI).

use laacad_baselines::bai::bai_min_nodes;
use laacad_experiments::scenarios::{self, TABLE1_MINNODE};
use laacad_experiments::{markdown_table, output};
use laacad_scenario::{run_campaign, RegionSpec, ResultStore};

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let mut campaign = scenarios::load_campaign("table1_minnode", TABLE1_MINNODE)
        .expect("table1_minnode spec parses");
    if scale != 1.0 {
        // Shrink node counts and area together so density is unchanged.
        campaign.grid.n = campaign
            .grid
            .n
            .iter()
            .map(|&n| ((n as f64 * scale).round() as usize).max(8))
            .collect();
        if let RegionSpec::Square { side } = &mut campaign.scenario.region {
            *side *= scale.sqrt();
        }
    }
    let side = match &campaign.scenario.region {
        RegionSpec::Square { side } => *side,
        _ => panic!("table1 spec uses a square region"),
    };
    let area = side * side;

    let results = run_campaign(&campaign).expect("table1 grid expands");
    let store = ResultStore::new(output::out_dir());
    let (jsonl, csv_path) = store
        .write(&campaign.name, &results)
        .expect("result store writes");
    println!("wrote {}", output::rel(&jsonl));
    println!("wrote {}", output::rel(&csv_path));

    let mut rows = Vec::new();
    for cell in &results {
        let outcome = match &cell.outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cell {} (n={}) failed: {e}", cell.cell.index, cell.cell.n);
                continue;
            }
        };
        let n = cell.cell.n;
        let r_star = outcome.summary.max_sensing_radius;
        let n_star = bai_min_nodes(area, r_star);
        let ratio = n as f64 / n_star;
        rows.push(vec![
            n.to_string(),
            format!("{r_star:.3}"),
            format!("{n_star:.0}"),
            format!("{ratio:.3}"),
            format!("{:.1}%", outcome.coverage.covered_fraction * 100.0),
        ]);
    }
    println!(
        "\nTable I — minimum nodes for 2-coverage ({}×{} m area{})",
        side,
        side,
        if scale != 1.0 {
            format!(", scale {scale}")
        } else {
            String::new()
        }
    );
    println!(
        "{}",
        markdown_table(
            &[
                "N (LAACAD)",
                "R* (m)",
                "N*₂ = 4|A|/(3√3R*²)",
                "N / N*₂",
                "2-covered"
            ],
            &rows
        )
    );
    println!(
        "Paper's Table I (N, R*, N*): (1000, 3.035, 836) (1200, 2.712, 1047) \
         (1400, 2.523, 1210) (1600, 2.357, 1386) — N/N* ≈ 1.15, the gap being \
         the boundary effect Bai's bound ignores."
    );
}
