//! The benchmark's own checks at tiny scale: runs repeat exactly on one
//! seed, and the timing wrappers change no result.

use oscar_core::{OscarBuilder, OscarConfig};
use oscar_degree::ConstantDegrees;
use oscar_keydist::GnutellaKeys;
use oscar_perfbench::{churn, grow, storm, stream, Outcome};
use oscar_sim::{FaultModel, GrowthConfig, GrowthDriver, Network};
use oscar_types::SeedTree;

const DETERMINISTIC: [&str; 3] = ["delivery", "query_cost_mean", "msgs_per_op"];

fn deterministic(o: &Outcome) -> Vec<f64> {
    DETERMINISTIC.iter().map(|k| o.e2e[k]).collect()
}

fn assert_sound(o: &Outcome) {
    assert!(o.correct(), "{}: failed checks {:?}", o.workload, o.checks);
    assert_eq!(o.failed, 0, "{}", o.workload);
    assert!(o.attempted > 0);
}

#[test]
fn grow_repeats_exactly_traced_or_not() {
    let a = grow::run(&grow::TINY, 7, 0.01, false);
    let b = grow::run(&grow::TINY, 7, 0.01, true);
    assert_sound(&a);
    assert_sound(&b);
    assert_eq!(deterministic(&a), deterministic(&b));
    let layers = b.layers.expect("traced run reports layers");
    assert!(layers.get("core.estimate_partitions_s") > 0.0);
    assert!(layers.get("coverage") > 0.9);
}

#[test]
fn storm_repeats_exactly_traced_or_not() {
    let a = storm::run(&storm::TINY, 7, 0.01, false, 2);
    let b = storm::run(&storm::TINY, 7, 0.01, true, 2);
    assert_sound(&a);
    assert_sound(&b);
    assert_eq!(deterministic(&a), deterministic(&b));
    assert_eq!(a.e2e["delivery"], 1.0);
    let layers = b.layers.expect("traced run reports layers");
    assert!(layers.get("protocol.handler_ns_per_msg") > 0.0);
    assert!(layers.get("runtime.busy_ns_per_msg") > 0.0);
}

#[test]
fn churn_repeats_exactly_traced_or_not() {
    let a = churn::run(&churn::TINY, 7, 0.01, false);
    let b = churn::run(&churn::TINY, 7, 0.01, true);
    assert_sound(&a);
    assert_sound(&b);
    assert_eq!(deterministic(&a), deterministic(&b));
    let layers = b.layers.expect("traced run reports layers");
    assert!(layers.get("protocol_des.settle_probe_s") > 0.0);
    assert!(layers.get("protocol.msgs_probe") > 0.0);
}

#[test]
fn timing_builder_changes_no_link() {
    let seed = 11;
    let wrapped = grow::rep(&grow::TINY, seed, false).books.links_digest;
    let traced = grow::rep(&grow::TINY, seed, true).books.links_digest;
    let mut net = Network::new(FaultModel::StabilizedRing);
    GrowthDriver::new(GrowthConfig {
        target_size: grow::TINY.peers,
        seed_size: 8,
        checkpoints: vec![grow::TINY.peers],
        rewire_at_checkpoints: true,
    })
    .run(
        &mut net,
        &OscarBuilder::new(OscarConfig::default()),
        &GnutellaKeys::default(),
        &ConstantDegrees::paper(),
        SeedTree::new(seed).child(stream::GROW),
        |_, _| Ok(()),
    )
    .unwrap();
    assert_eq!(wrapped, grow::links_digest(&net));
    assert_eq!(traced, wrapped);
}

#[test]
fn timing_driver_changes_no_window() {
    let seed = 11;
    let plain = churn::plain(&churn::TINY, seed);
    assert_eq!(churn::rep(&churn::TINY, seed, false).books.windows, plain);
    assert_eq!(churn::rep(&churn::TINY, seed, true).books.windows, plain);
}
