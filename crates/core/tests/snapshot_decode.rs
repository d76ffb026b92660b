//! Property test: decoding a damaged `laacad-snapshot/1` buffer never
//! panics. Every strict prefix of a snapshot is refused, and a snapshot
//! with one random bit flipped is either refused or restores to a
//! session that steps three rounds.

use laacad::{LaacadConfig, Session, SessionBuilder};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A 30-node k = 2 session five rounds in, with position history and a
/// pending displacement, so every section of the format is populated.
fn snapshot() -> &'static [u8] {
    static SNAPSHOT: OnceLock<Vec<u8>> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let region = Region::square(1.0).unwrap();
        let config = LaacadConfig::builder(2)
            .transmission_range(0.25)
            .alpha(0.6)
            .epsilon(1e-3)
            .max_rounds(120)
            .snapshot_every(2)
            .seed(7)
            .build()
            .unwrap();
        let mut sim = Session::builder(config)
            .positions(sample_uniform(&region, 30, 7))
            .region(region)
            .build()
            .unwrap();
        for _ in 0..5 {
            sim.step();
        }
        let p = sim.network().position(NodeId(4));
        sim.displace_nodes(&[(NodeId(4), Point::new(p.x * 0.9 + 0.05, p.y))])
            .unwrap();
        sim.snapshot()
    })
}

#[test]
fn every_strict_prefix_is_refused() {
    let bytes = snapshot();
    SessionBuilder::restore(bytes).expect("the intact snapshot restores");
    for len in 0..bytes.len() {
        assert!(
            SessionBuilder::restore(&bytes[..len]).is_err(),
            "prefix of {len} of {} bytes restored",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn a_flipped_bit_is_refused_or_restores_a_runnable_session(at in 0usize..usize::MAX) {
        let mut bytes = snapshot().to_vec();
        let bit = at % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(mut sim) = SessionBuilder::restore(&bytes) {
            for _ in 0..3 {
                sim.step();
            }
        }
    }
}
