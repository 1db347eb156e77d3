//! `grow`: the snapshot simulator grows a Gnutella-keyed, constant-degree
//! Oscar overlay with the paper's protocol (`GrowthDriver::run`, a final
//! rewire-all checkpoint), then routes a fixed query batch on it.

use crate::stats::median;
use crate::timed::{SharedTracer, TimedBuilder};
use crate::trace::Tracer;
use crate::{cpu_ns, digest, peak_rss_mb, set_coverage, stream, Layers, Outcome, RepLoop};
use oscar_core::OscarConfig;
use oscar_degree::ConstantDegrees;
use oscar_keydist::GnutellaKeys;
use oscar_sim::{
    route_to_owner, FaultModel, GrowthConfig, GrowthDriver, MsgKind, Network, PeerIdx, RoutePolicy,
};
use oscar_types::SeedTree;
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct GrowSpec {
    /// Peers grown.
    pub peers: usize,
    /// Queries routed on the grown overlay.
    pub queries: usize,
}

pub const FULL: GrowSpec = GrowSpec {
    peers: 1_000,
    queries: 20_000,
};

pub const TINY: GrowSpec = GrowSpec {
    peers: 300,
    queries: 500,
};

/// The deterministic results of one rep: every one must equal the
/// first rep's, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct GrowBooks {
    pub links_digest: u64,
    pub msgs: Vec<u64>,
    pub queries: usize,
    pub delivered: usize,
    pub cost_sum: u64,
    pub misrouted: usize,
}

pub struct GrowRep {
    pub books: GrowBooks,
    /// Set-up, on the process CPU clock (median of several).
    pub setup_ns: u64,
    /// Growth wall time; `growth_cpu_ns` on the process CPU clock.
    pub growth_ns: u64,
    pub growth_cpu_ns: u64,
    pub query_ns: u64,
    /// `build_links` of each joiner after the seed cohort.
    pub join_ns: Vec<u64>,
    pub build_ns: u64,
    pub rewire_ns: u64,
    pub tracer: Option<Tracer>,
}

const SEED_COHORT: usize = 8;
const SETUPS_PER_REP: usize = 5;

/// The key corpus and the query inputs (live-rank pairs).
fn setup(spec: &GrowSpec, root: &SeedTree) -> (GnutellaKeys, Vec<(usize, usize)>) {
    let keys = GnutellaKeys::default();
    let mut qrng = root.child(stream::QUERIES).rng();
    let inputs = (0..spec.queries)
        .map(|_| (qrng.gen_range(0..spec.peers), qrng.gen_range(0..spec.peers)))
        .collect();
    (keys, inputs)
}

/// One rep: set-up (key corpus, query inputs), growth, queries.
pub fn rep(spec: &GrowSpec, seed: u64, trace: bool) -> GrowRep {
    let root = SeedTree::new(seed);
    // The set-up is a few milliseconds: time several and keep the median.
    let mut setups = Vec::with_capacity(SETUPS_PER_REP);
    let mut made = None;
    for _ in 0..SETUPS_PER_REP {
        let t = cpu_ns();
        let made_now = setup(spec, &root);
        setups.push((cpu_ns() - t) as f64);
        made = Some(made_now);
    }
    let (keys, inputs) = made.expect("at least one set-up");
    let setup_ns = median(&setups) as u64;
    let degrees = ConstantDegrees::paper();

    let t0 = Instant::now();
    let tracer: Option<SharedTracer> = trace.then(|| Rc::new(RefCell::new(Tracer::new(t0))));
    let builder = TimedBuilder::new(OscarConfig::default(), tracer.clone());
    let driver = GrowthDriver::new(GrowthConfig {
        target_size: spec.peers,
        seed_size: SEED_COHORT,
        checkpoints: vec![spec.peers],
        rewire_at_checkpoints: true,
    });
    let mut net = Network::new(FaultModel::StabilizedRing);
    let growth_span = tracer
        .as_ref()
        .map(|t| t.borrow_mut().open("sim.growth", 0));
    let t_grow = Instant::now();
    let c_grow = cpu_ns();
    driver
        .run(
            &mut net,
            &builder,
            &keys,
            &degrees,
            root.child(stream::GROW),
            |_, _| Ok(()),
        )
        .expect("growth runs on a valid schedule");
    let growth_cpu_ns = cpu_ns() - c_grow;
    let growth_ns = t_grow.elapsed().as_nanos() as u64;
    if let (Some(t), Some(s)) = (&tracer, growth_span) {
        t.borrow_mut().close(s);
    }
    let msgs = oscar_sim::metrics::ALL_MSG_KINDS
        .iter()
        .map(|&k| net.metrics.get(k))
        .collect();

    let query_span = tracer
        .as_ref()
        .map(|t| t.borrow_mut().open("sim.route_queries", 0));
    let t_q = Instant::now();
    let policy = RoutePolicy::default();
    let (mut delivered, mut misrouted, mut cost_sum) = (0usize, 0usize, 0u64);
    for &(src, dst) in &inputs {
        let src = net.live_peer_by_rank(src);
        let key = net.peer(net.live_peer_by_rank(dst)).id;
        let out = route_to_owner(&net, src, key, &policy);
        if out.success {
            delivered += 1;
            cost_sum += out.cost() as u64;
            if out.dest != net.live_owner_of(key) {
                misrouted += 1;
            }
        }
    }
    let query_ns = t_q.elapsed().as_nanos() as u64;
    if let (Some(t), Some(s)) = (&tracer, query_span) {
        t.borrow_mut().close(s);
    }

    let book = builder.into_book();
    GrowRep {
        books: GrowBooks {
            links_digest: links_digest(&net),
            msgs,
            queries: inputs.len(),
            delivered,
            cost_sum,
            misrouted,
        },
        setup_ns,
        growth_ns,
        growth_cpu_ns,
        query_ns,
        join_ns: book.build_ns[SEED_COHORT.min(book.build_ns.len())..].to_vec(),
        build_ns: book.build_ns.iter().sum(),
        rewire_ns: book.rewire_ns,
        tracer: tracer.map(|t| {
            Rc::try_unwrap(t)
                .ok()
                .expect("the builder is gone, so the tracer has one owner")
                .into_inner()
        }),
    }
}

/// Digest of every peer's id and long-range out-links, in index order.
pub fn links_digest(net: &Network) -> u64 {
    let mut words = Vec::with_capacity(net.len() * 28);
    for p in net.all_peers() {
        let peer = net.peer(p);
        words.push(peer.id.raw());
        words.push(peer.long_out.len() as u64);
        words.extend(peer.long_out.iter().map(|&PeerIdx(t)| t as u64));
    }
    digest(&words)
}

fn construction_msgs(msgs: &[u64]) -> u64 {
    [
        MsgKind::WalkStep,
        MsgKind::Probe,
        MsgKind::LinkRequest,
        MsgKind::LinkAccept,
        MsgKind::LinkRefuse,
        MsgKind::ConstructionHop,
    ]
    .iter()
    .map(|&k| msgs[k as usize])
    .sum()
}

/// Runs reps until `seconds` of measured time, checks them, and fills
/// the outcome; traced, one untraced and one traced rep.
pub fn run(spec: &GrowSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new("grow");
    out.context("peers", spec.peers);
    out.context("queries_per_rep", spec.queries);
    let mut reps = Vec::new();
    let mut clock = RepLoop::new(seconds, 1, trace);
    while clock.more() {
        let r = rep(spec, seed, clock.traced_turn());
        clock.done(r.growth_ns + r.query_ns);
        reps.push(r);
    }
    out.e2e("peak_rss_mb", peak_rss_mb());
    let first = reps[0].books.clone();
    for r in &reps {
        out.attempted += (r.books.queries + spec.peers) as u64;
        out.failed += (r.books.queries - r.books.delivered + r.books.misrouted) as u64;
    }
    out.check(
        "every query reaches its live owner, in every rep",
        out.failed == 0,
    );
    out.check(
        "every rep's link-table digest and books equal rep 0's (traced included)",
        reps.iter().all(|r| r.books == first),
    );
    out.context("links_digest", format!("{:016x}", first.links_digest));
    out.context("reps", reps.len());

    let delivery = first.delivered as f64 / first.queries as f64;
    let cost = first.cost_sum as f64 / first.delivered.max(1) as f64;
    let msgs_per_join = construction_msgs(&first.msgs) as f64 / spec.peers as f64;
    let untraced: Vec<&GrowRep> = reps.iter().filter(|r| r.tracer.is_none()).collect();
    let joins: Vec<Vec<f64>> = untraced
        .iter()
        .map(|r| r.join_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
        .collect();
    let rate = |ns: u64| spec.peers as f64 / (ns as f64 / 1e9);
    let cpu_per_s: Vec<f64> = untraced.iter().map(|r| rate(r.growth_cpu_ns)).collect();
    let wall_per_s: Vec<f64> = untraced.iter().map(|r| rate(r.growth_ns)).collect();
    let setups: Vec<f64> = untraced.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    out.e2e_timings(
        &setups,
        &cpu_per_s,
        &wall_per_s,
        "peers_per_s",
        &joins,
        "join_ms",
    );
    out.e2e("delivery", delivery);
    out.e2e("query_cost_mean", cost);
    out.e2e_named("msgs_per_op", "msgs_per_join", msgs_per_join);

    if let Some(traced) = reps.iter().find(|r| r.tracer.is_some()) {
        let tracer = traced.tracer.as_ref().expect("found by its tracer");
        let own = tracer.self_ns();
        let s = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e9;
        let mut l = Layers::default();
        let wall = (traced.growth_ns + traced.query_ns) as f64 / 1e9;
        let build_total = traced.build_ns as f64 / 1e9;
        let rewire_total = traced.rewire_ns as f64 / 1e9;
        l.set("core.build_links_s", build_total);
        l.set("core.rewire_s", rewire_total);
        l.set("core.estimate_partitions_s", s("core.estimate_partitions"));
        l.set("core.acquire_links_s", s("core.acquire_links"));
        l.set(
            "sim.walk_steps_per_join",
            first.msgs[MsgKind::WalkStep as usize] as f64 / spec.peers as f64,
        );
        l.set(
            "sim.link_accept_ratio",
            first.msgs[MsgKind::LinkAccept as usize] as f64
                / first.msgs[MsgKind::LinkRequest as usize].max(1) as f64,
        );
        l.set("sim.growth_other_s", s("sim.growth"));
        l.set("sim.route_queries_s", s("sim.route_queries"));
        // Named layers only: the growth loop's own time
        // (`sim.growth_other_s`) is what the layers leave unexplained.
        let layer_self: f64 = [
            "core.build_links",
            "core.rewire",
            "core.estimate_partitions",
            "core.acquire_links",
            "sim.route_queries",
        ]
        .iter()
        .map(|n| s(n))
        .sum();
        set_coverage(&mut l, layer_self, wall);
        let untraced_wall = untraced
            .first()
            .map_or(wall, |r| (r.growth_ns + r.query_ns) as f64 / 1e9);
        l.set("tracing_overhead_s", wall - untraced_wall);
        out.layers = Some(l);
        out.spans = Some(traced.tracer.as_ref().expect("traced").spans().to_vec());
    }
    out
}
