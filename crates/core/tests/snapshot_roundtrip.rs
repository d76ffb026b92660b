//! Property test: `laacad-snapshot/1` round-trips are invisible.
//!
//! For random schedules (synchronous vs sequential), 1 or 4 worker
//! threads, random populations and a random checkpoint offset, a session
//! snapshotted mid-run and restored must (a) re-serialize to the
//! identical bytes and (b) step forward bit-identically to the
//! uninterrupted original — positions, per-round reports, convergence
//! state.
//!
//! The view cache holds one entry per node, whichever worker computed
//! it, so (c) the final snapshots are byte-identical too, at either
//! thread count.

use laacad::{ExecutionMode, LaacadConfig, Session, SessionBuilder};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use proptest::prelude::*;

/// Unpacks a 2-bit mask into `(execution, threads)`, so one integer
/// strategy explores every combination.
fn knobs(mask: u8) -> (ExecutionMode, usize) {
    let execution = if mask & 1 != 0 {
        ExecutionMode::Sequential
    } else {
        ExecutionMode::Synchronous
    };
    (execution, if mask & 2 != 0 { 4 } else { 1 })
}

fn session(n: usize, k: usize, seed: u64, execution: ExecutionMode, threads: usize) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(60)
        .execution(execution)
        .threads(threads)
        .seed(seed)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, n, seed);
    Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap()
}

fn position_bits(sim: &Session) -> Vec<(u64, u64)> {
    sim.network()
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn restored_sessions_step_bit_identically(
        mask in 0u8..4,
        n in 10usize..28,
        k in 1usize..4,
        seed in 0u64..1_000_000,
        offset in 0usize..12,
        extra in 1usize..10,
    ) {
        let (execution, threads) = knobs(mask);
        let mut original = session(n, k, seed, execution, threads);
        for _ in 0..offset {
            if original.is_converged() {
                break;
            }
            original.step();
        }

        let snap = original.snapshot();
        let mut restored = SessionBuilder::restore(&snap).unwrap();
        prop_assert_eq!(
            &snap,
            &restored.snapshot(),
            "restore → snapshot must reproduce the buffer verbatim"
        );

        for _ in 0..extra {
            if original.is_converged() {
                break;
            }
            let da = original.step();
            let db = restored.step();
            prop_assert_eq!(&da.report, &db.report);
        }

        prop_assert_eq!(position_bits(&original), position_bits(&restored));
        prop_assert_eq!(original.rounds_executed(), restored.rounds_executed());
        prop_assert_eq!(original.is_converged(), restored.is_converged());
        prop_assert_eq!(original.history().rounds(), restored.history().rounds());
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }
}
