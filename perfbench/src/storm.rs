//! `storm`: a closed-loop, read-only query load on the threaded actor
//! runtime. The generator injects a batch of queries from random
//! sources to random peers' keys, parks in `quiesce()` until the batch
//! has drained, and only then sends the next batch.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{cpu_ns, digest, peak_rss_mb, set_coverage, stream, Layers, Outcome, RepLoop};
use oscar_keydist::{GnutellaKeys, KeyDistribution};
use oscar_protocol::{Command, PeerConfig, ProtocolDriver, ProtocolEvent, QueryReport};
use oscar_runtime::{Runtime, RuntimeConfig};
use oscar_sim::DesDriver;
use oscar_types::{Id, SeedTree};
use rand::Rng;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct StormSpec {
    /// Peers in the fleet.
    pub peers: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Batches per rep; every rep replays the same inputs.
    pub batches: usize,
    /// Fleet set-ups per run (`setup_s` is their median; the last fleet
    /// carries the load).
    pub setups: usize,
}

pub const FULL: StormSpec = StormSpec {
    peers: 10_000,
    batch: 256,
    batches: 128,
    setups: 3,
};

pub const TINY: StormSpec = StormSpec {
    peers: 150,
    batch: 16,
    batches: 4,
    setups: 2,
};

/// Timer-round budget for one settle, as the churn engine's.
const SETTLE_ROUNDS: u64 = 4096;

/// Sampling walks per link build, as the churn engine's default.
const BUILD_WALKS: u32 = 3;

/// Distinct fleet ids from the Gnutella key distribution.
pub fn fleet_ids(peers: usize, seed: u64) -> Vec<Id> {
    let keys = GnutellaKeys::default();
    let mut rng = SeedTree::new(seed).child(stream::FLEET).rng();
    let mut ids: Vec<Id> = Vec::with_capacity(peers);
    let mut seen = std::collections::BTreeSet::new();
    while ids.len() < peers {
        let id = keys.sample(&mut rng);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Builds the fleet one peer at a time, each join and each link build
/// run to silence before the next (as the churn engine's bootstrap), so
/// the link tables are a pure function of the inputs on either driver.
/// `drain` waits for the network to go quiet; on the reliable transport
/// nothing is lost, so no timer is left pending (the caller checks) and
/// the churn engine's timer rounds would have nothing to do.
pub fn bootstrap<D: ProtocolDriver>(driver: &mut D, ids: &[Id], mut drain: impl FnMut(&mut D)) {
    driver.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        driver.spawn_peer(id);
        driver.inject(id, Command::Join { contact: ids[0] });
        drain(driver);
    }
    for &id in ids {
        driver.inject(id, Command::BuildLinks { walks: BUILD_WALKS });
        drain(driver);
    }
    driver.drain_events();
}

/// Every batch's inputs, in order.
type Batches = Vec<Vec<(Id, Id)>>;

/// One batch's inputs: (source, key) per query.
pub fn batch_inputs(ids: &[Id], spec: &StormSpec, seed: u64, b: usize) -> Vec<(Id, Id)> {
    let mut rng = SeedTree::new(seed).child2(stream::QUERIES, b as u64).rng();
    (0..spec.batch)
        .map(|_| {
            (
                ids[rng.gen_range(0..ids.len())],
                ids[rng.gen_range(0..ids.len())],
            )
        })
        .collect()
}

fn qid(rep: usize, b: usize, i: usize, spec: &StormSpec) -> u64 {
    ((rep as u64) << 32) | (b * spec.batch + i) as u64
}

/// A report with its qid cleared, for comparing reps.
fn outcome_of(r: &QueryReport) -> QueryReport {
    QueryReport {
        qid: 0,
        ..r.clone()
    }
}

/// One rep's measurements on the runtime.
struct StormRep {
    wall_ns: u64,
    /// The rep on the process CPU clock: the generator's and the
    /// workers' time.
    cpu_ns: u64,
    batch_ns: Vec<u64>,
    inject_ns: u64,
    quiesce_ns: u64,
    drain_ns: u64,
    delivered: u64,
    sent: u64,
    busy_ns: Vec<u64>,
    worker_msgs: Vec<u64>,
    /// Per query, in input order, qid cleared.
    reports: Vec<Option<QueryReport>>,
    duplicates: usize,
    tracer: Option<Tracer>,
}

fn storm_rep(
    rt: &Runtime,
    inputs: &[Vec<(Id, Id)>],
    spec: &StormSpec,
    rep: usize,
    trace: bool,
) -> StormRep {
    let before = rt.stats();
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let mut tracer = trace.then(|| Tracer::new(t0));
    let now = |t: &Instant| t.elapsed().as_nanos() as u64;
    let mut reports: Vec<Option<QueryReport>> = vec![None; inputs.len() * spec.batch];
    let (mut inject_ns, mut quiesce_ns, mut drain_ns, mut duplicates) = (0u64, 0u64, 0u64, 0);
    let mut batch_ns = Vec::with_capacity(inputs.len());
    for (b, batch) in inputs.iter().enumerate() {
        let span = tracer.as_mut().map(|t| t.open("storm.batch", b as u64));
        let start = now(&t0);
        for (i, &(src, key)) in batch.iter().enumerate() {
            let s = now(&t0);
            rt.inject(
                src,
                Command::StartQuery {
                    qid: qid(rep, b, i, spec),
                    key,
                },
            );
            let e = now(&t0);
            inject_ns += e - s;
            if let Some(t) = tracer.as_mut() {
                t.add("runtime.inject", b as u64, s, e);
            }
        }
        let s = now(&t0);
        rt.quiesce();
        let e = now(&t0);
        quiesce_ns += e - s;
        batch_ns.push(e - start);
        if let Some(t) = tracer.as_mut() {
            t.add("runtime.quiesce", b as u64, s, e);
        }
        let s = now(&t0);
        let events = rt.drain_events();
        let e = now(&t0);
        drain_ns += e - s;
        if let Some(t) = tracer.as_mut() {
            t.add("runtime.drain_events", b as u64, s, e);
        }
        for ev in events {
            if let ProtocolEvent::QueryCompleted(r) = ev {
                let idx = (r.qid & 0xFFFF_FFFF) as usize;
                let last = reports.len() - 1;
                let slot = &mut reports[idx.min(last)];
                if slot.is_some() || r.qid >> 32 != rep as u64 {
                    duplicates += 1;
                } else {
                    *slot = Some(outcome_of(&r));
                }
            }
        }
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
    }
    let wall_ns = now(&t0);
    let rep_cpu_ns = cpu_ns() - cpu0;
    let after = rt.stats();
    let diff = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>();
    StormRep {
        wall_ns,
        cpu_ns: rep_cpu_ns,
        batch_ns,
        inject_ns,
        quiesce_ns,
        drain_ns,
        delivered: after.delivered - before.delivered,
        sent: after.sent - before.sent,
        busy_ns: diff(&after.busy_ns, &before.busy_ns),
        worker_msgs: diff(&after.per_worker_msgs, &before.per_worker_msgs),
        reports,
        duplicates,
        tracer,
    }
}

/// Link-table digest of a fleet, in id order.
fn fleet_digest(ids_sorted: &[Id], fp: impl Fn(Id) -> (Id, Vec<Id>, Vec<Id>, Vec<Id>)) -> u64 {
    let mut words = Vec::new();
    for &id in ids_sorted {
        let (pred, succs, out, inn) = fp(id);
        words.push(id.raw());
        words.push(pred.raw());
        for list in [succs, out, inn] {
            words.push(list.len() as u64);
            words.extend(list.iter().map(|i| i.raw()));
        }
    }
    digest(&words)
}

/// The DES replay of rep 0's inputs on an identical fleet: per-query
/// reports, settle time and messages delivered during the queries.
struct Replay {
    idle: bool,
    digest: u64,
    reports: Vec<Option<QueryReport>>,
    settle_ns: u64,
    delivered: u64,
    faults: u64,
}

fn des_replay(ids: &[Id], inputs: &[Vec<(Id, Id)>], spec: &StormSpec, rt_seed: u64) -> Replay {
    let mut des = DesDriver::new(rt_seed, PeerConfig::default());
    bootstrap(&mut des, ids, |d| {
        d.run_until_idle();
    });
    let idle = des.next_timer_round().is_none();
    let sorted = des.peer_ids();
    let digest = fleet_digest(&sorted, |id| des.peer(id).expect("live").fingerprint());
    let mut reports: Vec<Option<QueryReport>> = vec![None; inputs.len() * spec.batch];
    let (mut settle_ns, before) = (0u64, des.delivered());
    for (b, batch) in inputs.iter().enumerate() {
        for (i, &(src, key)) in batch.iter().enumerate() {
            des.inject(
                src,
                Command::StartQuery {
                    qid: qid(0, b, i, spec),
                    key,
                },
            );
        }
        let t = Instant::now();
        des.run_until_settled(SETTLE_ROUNDS);
        settle_ns += t.elapsed().as_nanos() as u64;
        for ev in des.drain_events() {
            if let ProtocolEvent::QueryCompleted(r) = ev {
                let idx = r.qid as usize;
                if idx < reports.len() {
                    reports[idx] = Some(outcome_of(&r));
                }
            }
        }
    }
    Replay {
        idle,
        digest,
        reports,
        settle_ns,
        delivered: des.delivered() - before,
        faults: des.fault_count(),
    }
}

pub fn run(spec: &StormSpec, seed: u64, seconds: f64, trace: bool, workers: usize) -> Outcome {
    let mut out = Outcome::new("storm");
    let rt_seed = SeedTree::new(seed).child(stream::RUNTIME).seed();
    out.context("peers", spec.peers);
    out.context("batch_queries", spec.batch);
    out.context("batches_per_rep", spec.batches);
    out.context("runtime_workers", workers);

    // Set-up, several times: input draws plus the fleet bootstrap.
    let mut setups = Vec::new();
    let mut fleet: Option<(Runtime, Vec<Id>, Batches)> = None;
    let mut digests = Vec::new();
    let mut idle = true;
    for _ in 0..spec.setups {
        drop(fleet.take());
        let t = cpu_ns();
        let ids = fleet_ids(spec.peers, seed);
        let inputs: Batches = (0..spec.batches)
            .map(|b| batch_inputs(&ids, spec, seed, b))
            .collect();
        let mut rt = Runtime::new(
            RuntimeConfig::new(rt_seed)
                .with_workers(workers)
                .with_peer_cfg(PeerConfig::default()),
        );
        bootstrap(&mut rt, &ids, |rt| rt.quiesce());
        setups.push((cpu_ns() - t) as f64 / 1e9);
        idle &= rt.next_timer_round().is_none();
        let sorted = rt.peer_ids();
        digests.push(fleet_digest(&sorted, |id| {
            rt.with_peer(id, |m| m.fingerprint()).expect("live")
        }));
        fleet = Some((rt, ids, inputs));
    }
    let (rt, ids, inputs) = fleet.expect("at least one set-up");
    out.check("no timer is pending after a fleet set-up", idle);
    out.check(
        "every fleet set-up builds the same link tables",
        digests.iter().all(|&d| d == digests[0]),
    );

    let queries_per_rep = spec.batch * spec.batches;
    let mut reps: Vec<StormRep> = Vec::new();
    let (mut complete, mut same) = (true, true);
    let mut clock = RepLoop::new(seconds, 1, trace);
    while clock.more() {
        let mut r = storm_rep(&rt, &inputs, spec, reps.len(), clock.traced_turn());
        clock.done(r.wall_ns);
        complete &= r.reports.iter().all(Option::is_some) && r.duplicates == 0;
        let bad = inputs
            .iter()
            .flatten()
            .zip(&r.reports)
            .filter(|((src, key), rep)| {
                !rep.as_ref().is_some_and(|q| {
                    q.success && q.dest == Some(*key) && q.origin == *src && q.key == *key
                })
            })
            .count();
        out.attempted += queries_per_rep as u64;
        out.failed += bad as u64 + r.duplicates as u64;
        // Later reps are compared with rep 0 and then dropped, so memory
        // does not grow with the number of reps.
        if let Some(first) = reps.first() {
            same &= r.reports == first.reports
                && r.delivered == first.delivered
                && r.sent == first.sent;
            r.reports = Vec::new();
        }
        reps.push(r);
    }
    // Before the DES replay fleet is built.
    out.e2e("peak_rss_mb", peak_rss_mb());
    let stats = rt.stats();
    drop(rt);

    let first = &reps[0];
    out.check("every query completes exactly once, in every rep", complete);
    out.check(
        "every query reaches the peer owning its key",
        out.failed == 0,
    );
    out.check("every rep's reports and message counts equal rep 0's", same);
    out.check(
        "sent == delivered + dropped + bounced",
        stats.sent == stats.delivered + stats.dropped + stats.bounced,
    );
    out.check("no protocol faults on the runtime", stats.faults == 0);

    let replay = des_replay(&ids, &inputs, spec, rt_seed);
    out.check(
        "the DES replay fleet has the runtime's link tables",
        replay.digest == digests[0],
    );
    out.check(
        "per-query reports equal the DES replay",
        replay.reports == first.reports,
    );
    out.check("no protocol faults in the DES replay", replay.faults == 0);
    out.check(
        "no timer is pending after the DES fleet set-up",
        replay.idle,
    );
    out.context("links_digest", format!("{:016x}", digests[0]));
    out.context("reps", reps.len());

    let ok: Vec<&QueryReport> = first
        .reports
        .iter()
        .flatten()
        .filter(|r| r.success)
        .collect();
    let delivery = ok.len() as f64 / queries_per_rep as f64;
    let cost = ok.iter().map(|r| r.cost() as f64).sum::<f64>() / ok.len().max(1) as f64;
    let untraced: Vec<&StormRep> = reps.iter().filter(|r| r.tracer.is_none()).collect();
    let rate = |ns: u64| queries_per_rep as f64 / (ns as f64 / 1e9);
    let cpu_per_s: Vec<f64> = untraced.iter().map(|r| rate(r.cpu_ns)).collect();
    let wall_per_s: Vec<f64> = untraced.iter().map(|r| rate(r.wall_ns)).collect();
    let batch_ms: Vec<Vec<f64>> = untraced
        .iter()
        .map(|r| r.batch_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
        .collect();
    out.e2e_timings(
        &setups,
        &cpu_per_s,
        &wall_per_s,
        "queries_per_s",
        &batch_ms,
        "query_batch_ms",
    );
    out.e2e("delivery", delivery);
    out.e2e("query_cost_mean", cost);
    out.e2e_named(
        "msgs_per_op",
        "msgs_per_query",
        first.delivered as f64 / queries_per_rep as f64,
    );

    let handler_ns = replay.settle_ns as f64 / replay.delivered.max(1) as f64;
    if let Some(traced) = reps.iter().find(|r| r.tracer.is_some()) {
        let mut l = Layers::default();
        let wall = traced.wall_ns as f64 / 1e9;
        let busy: u64 = traced.busy_ns.iter().sum();
        let msgs: u64 = traced.worker_msgs.iter().sum();
        let busy_per_msg = busy as f64 / msgs.max(1) as f64;
        let mean_msgs = msgs as f64 / traced.worker_msgs.len().max(1) as f64;
        let max_msgs = traced.worker_msgs.iter().copied().max().unwrap_or(0) as f64;
        l.set("protocol.handler_ns_per_msg", handler_ns);
        l.set(
            "runtime.inject_ns_per_query",
            traced.inject_ns as f64 / queries_per_rep as f64,
        );
        l.set("runtime.quiesce_wait_s", traced.quiesce_ns as f64 / 1e9);
        l.set("runtime.drain_events_s", traced.drain_ns as f64 / 1e9);
        l.set("runtime.busy_ns_per_msg", busy_per_msg);
        l.set("runtime.overhead_ns_per_msg", busy_per_msg - handler_ns);
        l.set(
            "runtime.idle_core_s",
            traced.busy_ns.len() as f64 * wall - busy as f64 / 1e9,
        );
        l.set(
            "runtime.worker_msg_imbalance",
            max_msgs / mean_msgs.max(1.0),
        );
        let tracer = traced.tracer.as_ref().expect("traced");
        let own = tracer.self_ns();
        let layer_self: u64 = ["runtime.inject", "runtime.quiesce", "runtime.drain_events"]
            .iter()
            .map(|n| own.get(n).copied().unwrap_or(0))
            .sum();
        set_coverage(&mut l, layer_self as f64 / 1e9, wall);
        let untraced_wall = median(
            &untraced
                .iter()
                .map(|r| r.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        );
        l.set("tracing_overhead_s", wall - untraced_wall);
        out.layers = Some(l);
        out.spans = Some(tracer.spans().to_vec());
    }
    out
}
