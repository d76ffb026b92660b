//! Seeded input generators.
//!
//! Every input a workload feeds the program is derived here from the
//! `--seed` argument: the campaign and scenario TOML texts and the
//! serve command stream. The same seed yields byte-identical inputs;
//! the program under test only ever sees the generated text and
//! commands, never the seed itself.

use laacad_region::sampling::SplitMix64;

/// `converge`: nodes per campaign cell.
pub const CONVERGE_N: usize = 1000;
/// `converge`: placement seeds per coverage degree.
pub const CONVERGE_SEEDS: usize = 12;
/// `converge`: the coverage degrees crossed with the seeds. `k = 1`
/// cells are ring-search bound, `k = 3` cells geometry bound and about
/// three times slower; they come first so that the two workers finish
/// on short cells instead of one idling behind a long one.
pub const CONVERGE_KS: [usize; 2] = [3, 1];
/// `converge`: ε as a share of the expected `k = 1` sensing range.
const CONVERGE_EPSILON_SHARE: f64 = 0.35;

/// `serve`: hosted sessions, one closed-loop client each.
pub const SERVE_SESSIONS: usize = 4;
/// `serve`: nodes per session.
pub const SERVE_N: usize = 1000;
/// `serve`: host ticks in one timed pass.
pub const SERVE_TICKS: usize = 400;
/// `serve`: a session migrates (snapshot, retire, restore, admit)
/// every this many ticks.
pub const SERVE_MIGRATE_EVERY: usize = 50;
/// `serve`: ε as a share of the expected sensing range.
pub const SERVE_EPSILON_SHARE: f64 = 0.1;
/// `serve`: grid samples of a coverage query.
pub const SERVE_QUERY_SAMPLES: usize = 4000;
/// `serve`: share of the population a disturbance displaces.
pub const SERVE_DISPLACE_SHARE: f64 = 0.01;
/// `serve`: host fan-out workers of the timed passes. A tick spawns its
/// workers afresh and waits for the slowest, so with two workers a pass
/// times the scheduler as much as the sessions: with one core kept busy
/// by another process, a two-worker pass slowed by 56%, a one-worker
/// pass by 18%. The traced run still times the all-cores host
/// (`exec.speedup`, `serve.fanout_efficiency`).
pub const SERVE_THREADS: usize = 1;

/// `async`: nodes in the faulted scenario.
pub const ASYNC_N: usize = 200;
/// `async`: placements (scenario runs) in one timed pass.
pub const ASYNC_RUNS: usize = 24;
/// `async`: ε as a share of the expected sensing range.
const ASYNC_EPSILON_SHARE: f64 = 0.15;
/// `async`: engine workers of the timed runs. The executor fans each
/// event batch out over freshly spawned workers, so with two of them a
/// pass times the scheduler's wake-ups as much as the engine: with one
/// core kept busy by another process, a two-worker pass slowed by 37%,
/// a one-worker pass by 4%. The traced run still runs the all-cores
/// pass (`exec.speedup` and the bit-identity check against it).
pub const ASYNC_THREADS: usize = 1;

const SALT_CONVERGE: u64 = 0x636f_6e76_6572_6765;
const SALT_SERVE: u64 = 0x7365_7276_6500_0000;
const SALT_ASYNC: u64 = 0x6173_796e_6300_0000;

/// `count` derived seeds in `1..=10⁹` (small enough to read in a TOML
/// file), one stream per workload salt.
pub fn sub_seeds(seed: u64, salt: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ salt);
    (0..count)
        .map(|_| 1 + rng.next_u64() % 1_000_000_000)
        .collect()
}

/// Expected per-node sensing range `√(k·|A| / (π·N))` in the unit square.
pub fn expected_range(n: usize, k: usize) -> f64 {
    (k as f64 / (std::f64::consts::PI * n as f64)).sqrt()
}

/// The `converge` campaign: a uniform unit square swept over
/// [`CONVERGE_KS`] × [`CONVERGE_SEEDS`] placement seeds.
pub fn converge_toml(seed: u64) -> String {
    let seeds = sub_seeds(seed, SALT_CONVERGE, CONVERGE_SEEDS);
    let epsilon = CONVERGE_EPSILON_SHARE * expected_range(CONVERGE_N, 1);
    let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let ks: Vec<u64> = CONVERGE_KS.iter().map(|&k| k as u64).collect();
    format!(
        "name = \"bench-converge\"\n\
         \n\
         [scenario]\n\
         name = \"bench-converge\"\n\
         \n\
         [scenario.region]\n\
         kind = \"named\"\n\
         name = \"unit_square\"\n\
         \n\
         [scenario.placement]\n\
         kind = \"uniform\"\n\
         n = {CONVERGE_N}\n\
         \n\
         [scenario.laacad]\n\
         k = 1\n\
         alpha = 0.6\n\
         epsilon = {epsilon:.4e}\n\
         max_rounds = 300\n\
         \n\
         [scenario.evaluation]\n\
         coverage_samples = 4000\n\
         \n\
         [grid]\n\
         seeds = [{}]\n\
         k = [{}]\n",
        list(&seeds),
        list(&ks),
    )
}

/// The `async` scenario: loss, exponential delay, validated corruption
/// and a healing x-bipartition, on `threads` engine workers (`0` = all
/// cores).
pub fn async_toml(threads: usize) -> String {
    let epsilon = ASYNC_EPSILON_SHARE * expected_range(ASYNC_N, 1);
    format!(
        "name = \"bench-async\"\n\
         \n\
         [region]\n\
         kind = \"named\"\n\
         name = \"unit_square\"\n\
         \n\
         [placement]\n\
         kind = \"uniform\"\n\
         n = {ASYNC_N}\n\
         \n\
         [laacad]\n\
         k = 1\n\
         alpha = 0.6\n\
         epsilon = {epsilon:.4e}\n\
         max_rounds = 400\n\
         threads = {threads}\n\
         \n\
         [faults]\n\
         loss = 0.1\n\
         delay = \"exp\"\n\
         delay_mean = 1.0\n\
         corruption_rate = 0.1\n\
         corruption_validate = true\n\
         probe_every = 8\n\
         \n\
         [[faults.partition]]\n\
         kind = \"bipartition\"\n\
         axis = \"x\"\n\
         coord = 0.5\n\
         at = 10\n\
         heal_at = 150\n\
         \n\
         [evaluation]\n\
         coverage_samples = 4000\n"
    )
}

/// Placement seeds of the `async` runs.
pub fn async_seeds(seed: u64) -> Vec<u64> {
    sub_seeds(seed, SALT_ASYNC, ASYNC_RUNS)
}

/// Placement seeds of the `serve` sessions.
pub fn serve_session_seeds(seed: u64) -> Vec<u64> {
    sub_seeds(seed, SALT_SERVE, SERVE_SESSIONS)
}

/// One planned client request. Disturbances name only their centre:
/// the nodes they move depend on the session state at submit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Planned {
    /// One engine round.
    Step,
    /// A coverage verdict over [`SERVE_QUERY_SAMPLES`] grid points.
    Query,
    /// A session snapshot.
    Snapshot,
    /// Move the nodes nearest `(x, y)` toward the region centre.
    Displace {
        /// Disturbance centre, x.
        x: f64,
        /// Disturbance centre, y.
        y: f64,
    },
}

/// One block of the `serve` command mix: 75% step, 10% coverage
/// query, 10% snapshot, 5% disturbance.
const MIX_BLOCK: [(usize, Planned); 4] = [
    (15, Planned::Step),
    (2, Planned::Query),
    (2, Planned::Snapshot),
    (1, Planned::Displace { x: 0.0, y: 0.0 }),
];

/// The `serve` command stream: `ticks` rows of one planned request per
/// client. Each client's stream is a sequence of shuffled
/// [`MIX_BLOCK`]s, so every client issues the mix in exact proportions
/// and only the order and the disturbance centres vary with the seed.
pub fn serve_plan(seed: u64, ticks: usize, clients: usize) -> Vec<Vec<Planned>> {
    let mut rng = SplitMix64::new(seed ^ SALT_SERVE ^ 0x706c_616e);
    let block: Vec<Planned> = MIX_BLOCK
        .iter()
        .flat_map(|&(count, p)| std::iter::repeat_n(p, count))
        .collect();
    let streams: Vec<Vec<Planned>> = (0..clients)
        .map(|_| {
            let mut stream = Vec::with_capacity(ticks + block.len());
            while stream.len() < ticks {
                let mut b = block.clone();
                for i in (1..b.len()).rev() {
                    b.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                for p in &mut b {
                    if let Planned::Displace { x, y } = p {
                        *x = rng.range(0.05, 0.95);
                        *y = rng.range(0.05, 0.95);
                    }
                }
                stream.extend(b);
            }
            stream.truncate(ticks);
            stream
        })
        .collect();
    (0..ticks)
        .map(|t| streams.iter().map(|s| s[t]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_toml_bytes() {
        assert_eq!(converge_toml(7), converge_toml(7));
        assert_ne!(converge_toml(7), converge_toml(8));
        assert_eq!(async_seeds(7), async_seeds(7));
        assert_ne!(async_seeds(7), async_seeds(8));
    }

    #[test]
    fn same_seed_same_command_stream() {
        let a = serve_plan(3, 300, SERVE_SESSIONS);
        assert_eq!(a, serve_plan(3, 300, SERVE_SESSIONS));
        assert_ne!(a, serve_plan(4, 300, SERVE_SESSIONS));
        assert_eq!(serve_session_seeds(3), serve_session_seeds(3));
        let count = |f: fn(&Planned) -> bool| a.iter().flatten().filter(|p| f(p)).count();
        let total = 300 * SERVE_SESSIONS;
        assert_eq!(count(|p| matches!(p, Planned::Displace { .. })), total / 20);
        assert_eq!(count(|p| matches!(p, Planned::Step)), total * 15 / 20);
    }

    #[test]
    fn generated_specs_parse() {
        let campaign = laacad_scenario::CampaignSpec::from_toml(&converge_toml(1)).unwrap();
        assert_eq!(
            campaign.expand().unwrap().len(),
            CONVERGE_SEEDS * CONVERGE_KS.len()
        );
        let spec = laacad_scenario::ScenarioSpec::from_toml(&async_toml(1)).unwrap();
        assert!(spec.laacad.faults.is_some());
    }
}
