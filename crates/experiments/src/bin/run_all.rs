//! Runs the entire paper-reproduction suite in order and prints a final
//! manifest of artifacts. One command to regenerate everything:
//!
//! ```sh
//! cargo run --release -p laacad-experiments --bin run_all
//! ```
//!
//! Expect roughly 30–60 minutes on a single core at full scale (Tables
//! I–II dominate); pass `--skip-heavy` to regenerate only the fast
//! figures and ablations.

use std::process::Command;

fn main() {
    let skip_heavy = std::env::args().any(|a| a == "--skip-heavy");
    let fast = [
        "fig1_voronoi",
        "fig2_ring_hops",
        "fig5_deployment",
        "fig6_convergence",
        "ablation_alpha",
        "ablation_lloyd",
        "ablation_ranging",
        "ablation_schedule",
        "minnode_demo",
    ];
    let heavy = [
        "fig7_energy",
        "table1_minnode",
        "table2_ammari",
        "fig8_obstacles",
    ];
    let mut failed = Vec::new();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()));
    for name in fast
        .iter()
        .chain(if skip_heavy { [].iter() } else { heavy.iter() })
    {
        println!("==> {name}");
        let program = exe_dir
            .as_ref()
            .map(|d| d.join(name))
            .filter(|p| p.exists())
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| name.to_string());
        let status = Command::new(&program).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("    FAILED: {other:?}");
                failed.push(*name);
            }
        }
    }
    println!("\nartifacts in ./out");
    if failed.is_empty() {
        println!("all experiments completed");
    } else {
        eprintln!("failures: {failed:?}");
        std::process::exit(1);
    }
}
