//! `churn`: `run_machine_churn` on the DES driver — Poisson join, crash
//! and depart at a fixed per-window turnover with reactive neighbour
//! repair, a measurement query batch closing every window.

use crate::timed::{DriverBook, Phase, TimedDriver};
use crate::trace::Tracer;
use crate::{cpu_ns, peak_rss_mb, set_coverage, stream, Layers, Outcome, RepLoop};
use oscar_bench::{churn_schedule_for, Scale};
use oscar_keydist::GnutellaKeys;
use oscar_protocol::PeerConfig;
use oscar_sim::{
    machine_repair_policy, run_machine_churn, ChurnSchedule, ChurnWindowStats, DesDriver,
    MachineChurnConfig, RepairPolicy,
};
use oscar_types::SeedTree;

#[derive(Clone, Debug)]
pub struct ChurnSpec {
    /// Peers bootstrapped before the schedule starts.
    pub peers: usize,
    /// Measurement windows per rep.
    pub windows: usize,
    /// Reps a run makes at least (enough joins for a p99).
    pub min_reps: usize,
}

pub const FULL: ChurnSpec = ChurnSpec {
    peers: 500,
    windows: 16,
    min_reps: 2,
};

pub const TINY: ChurnSpec = ChurnSpec {
    peers: 120,
    windows: 3,
    min_reps: 1,
};

/// Per-window turnover, as a share of the initial peers.
const TURNOVER: f64 = 0.02;

/// Bootstraps timed alone per run, beside each rep's own, so that
/// `setup_s` is a median of several set-ups although a run makes only
/// two or three reps.
const SETUP_ONLY_RUNS: usize = 3;

pub fn schedule(spec: &ChurnSpec) -> ChurnSchedule {
    let scale = Scale {
        target: spec.peers,
        step: spec.peers,
        seed: 0,
        threads: 1,
    };
    ChurnSchedule {
        repair: RepairPolicy::Reactive { neighbors_k: 2 },
        ..churn_schedule_for(TURNOVER, &scale)
    }
}

pub fn config(spec: &ChurnSpec, schedule: &ChurnSchedule) -> MachineChurnConfig {
    MachineChurnConfig {
        initial_peers: spec.peers,
        probe_every: (schedule.window_ticks / 10).max(1),
        ..MachineChurnConfig::default()
    }
}

fn des(seed: u64, schedule: &ChurnSchedule) -> DesDriver {
    let run_seed = SeedTree::new(seed).child(stream::CHURN).seed();
    DesDriver::new(
        run_seed,
        PeerConfig {
            repair: machine_repair_policy(&schedule.repair),
            ..PeerConfig::default()
        },
    )
}

/// The deterministic results of one rep.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnBooks {
    pub windows: Vec<ChurnWindowStats>,
    pub sent: [u64; 5],
    pub queries_issued: u64,
    pub queries_ok: u64,
    pub query_cost_sum: u64,
    pub repairs_fired: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub gave_up: u64,
    pub joins: usize,
    pub faults: u64,
    pub balanced: bool,
}

pub struct ChurnRep {
    pub books: ChurnBooks,
    /// Set-up (fleet bootstrap included) on the process CPU clock.
    pub setup_ns: u64,
    pub book: DriverBook,
    pub delivered: u64,
    pub tracer: Option<Tracer>,
}

/// Runs the schedule on an unwrapped DES driver: the reference the
/// timing driver must not perturb.
pub fn plain(spec: &ChurnSpec, seed: u64) -> Vec<ChurnWindowStats> {
    let schedule = schedule(spec);
    let mut driver = des(seed, &schedule);
    run_machine_churn(
        &mut driver,
        &GnutellaKeys::default(),
        &config(spec, &schedule),
        &schedule,
        spec.windows,
        SeedTree::new(seed).child(stream::CHURN),
    )
    .expect("valid churn schedule")
}

pub fn rep(spec: &ChurnSpec, seed: u64, trace: bool) -> ChurnRep {
    rep_of(spec, seed, trace, spec.windows)
}

/// A rep of `windows` windows; with none, only its set-up.
fn rep_of(spec: &ChurnSpec, seed: u64, trace: bool, windows: usize) -> ChurnRep {
    let t = cpu_ns();
    let keys = GnutellaKeys::default();
    let schedule = schedule(spec);
    let cfg = config(spec, &schedule);
    let pre_ns = cpu_ns() - t;
    let mut driver = TimedDriver::new(des(seed, &schedule), trace);
    let window_stats = run_machine_churn(
        &mut driver,
        &keys,
        &cfg,
        &schedule,
        windows,
        SeedTree::new(seed).child(stream::CHURN),
    )
    .expect("valid churn schedule");
    let (des, book, tracer) = driver.into_parts();
    ChurnRep {
        books: ChurnBooks {
            windows: window_stats,
            sent: book.sent,
            queries_issued: book.queries_issued,
            queries_ok: book.queries_ok,
            query_cost_sum: book.query_cost_sum,
            repairs_fired: book.repairs_fired,
            timeouts: book.timeouts,
            retries: book.retries,
            gave_up: book.gave_up,
            joins: book.join_ns.len(),
            faults: des.fault_count(),
            balanced: des.sent() == des.delivered() + des.dropped() + des.bounced(),
        },
        setup_ns: pre_ns + book.setup_cpu_ns,
        delivered: des.delivered(),
        book,
        tracer,
    }
}

pub fn run(spec: &ChurnSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new("churn");
    out.context("peers", spec.peers);
    out.context("windows_per_rep", spec.windows);
    out.context("turnover_per_window", TURNOVER);
    let mut reps: Vec<ChurnRep> = Vec::new();
    let mut clock = RepLoop::new(seconds, spec.min_reps, trace);
    while clock.more() {
        let r = rep(spec, seed, clock.traced_turn());
        clock.done(r.book.measured_ns);
        reps.push(r);
    }
    // Before the set-up-only bootstraps and the unwrapped reference run.
    out.e2e("peak_rss_mb", peak_rss_mb());
    let first = reps[0].books.clone();
    let mut mismatched = 0u64;
    for r in &reps {
        out.attempted += r.books.queries_issued + r.books.joins as u64;
        mismatched += u64::from(r.books != first || !r.books.balanced);
        out.failed += r.books.faults;
    }
    out.check(
        "no protocol faults, in every rep",
        reps.iter().all(|r| r.books.faults == 0),
    );
    out.check(
        "sent == delivered + dropped + bounced, in every rep",
        reps.iter().all(|r| r.books.balanced),
    );
    out.check(
        "every rep's window books equal rep 0's (traced included)",
        mismatched == 0,
    );
    out.failed += mismatched;
    if trace {
        let same = plain(spec, seed) == first.windows;
        out.check("window books equal an unwrapped DES driver's", same);
        out.failed += u64::from(!same);
    }
    let issued: usize = first.windows.iter().map(|w| w.queries.queries).sum();
    out.check(
        "the timing driver saw every issued query",
        issued as u64 == first.queries_issued,
    );
    out.context("reps", reps.len());
    out.context(
        "live_at_end",
        first.windows.last().map_or(0, |w| w.live_at_end),
    );

    let windows = spec.windows as f64;
    let maint: u64 = first.sent.iter().sum::<u64>() - first.sent[Phase::Query as usize];
    let untraced: Vec<&ChurnRep> = reps.iter().filter(|r| r.tracer.is_none()).collect();
    let setups: Vec<f64> = untraced
        .iter()
        .map(|r| r.setup_ns)
        .chain((0..SETUP_ONLY_RUNS).map(|_| rep_of(spec, seed, false, 0).setup_ns))
        .map(|ns| ns as f64 / 1e9)
        .collect();
    let rate = |ns: u64| windows / (ns as f64 / 1e9);
    let cpu_per_s: Vec<f64> = untraced
        .iter()
        .map(|r| rate(r.book.measured_cpu_ns))
        .collect();
    let wall_per_s: Vec<f64> = untraced.iter().map(|r| rate(r.book.measured_ns)).collect();
    let joins: Vec<Vec<f64>> = untraced
        .iter()
        .map(|r| r.book.join_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
        .collect();
    out.e2e_timings(
        &setups,
        &cpu_per_s,
        &wall_per_s,
        "windows_per_s",
        &joins,
        "join_ms",
    );
    out.e2e(
        "delivery",
        first.queries_ok as f64 / first.queries_issued.max(1) as f64,
    );
    out.e2e(
        "query_cost_mean",
        first.query_cost_sum as f64 / first.queries_ok.max(1) as f64,
    );
    out.e2e_named(
        "msgs_per_op",
        "maint_msgs_per_window",
        maint as f64 / windows,
    );

    if let Some(traced) = reps.iter().find(|r| r.tracer.is_some()) {
        let b = &traced.book;
        let s = |ns: u64| ns as f64 / 1e9;
        let mut l = Layers::default();
        l.set(
            "protocol_des.settle_probe_s",
            s(b.settle_ns[Phase::Probe as usize]),
        );
        l.set(
            "protocol_des.settle_join_s",
            s(b.settle_ns[Phase::Join as usize]),
        );
        l.set(
            "protocol_des.settle_depart_s",
            s(b.settle_ns[Phase::Depart as usize]),
        );
        l.set(
            "protocol_des.settle_query_s",
            s(b.settle_ns[Phase::Query as usize]),
        );
        l.set("protocol_des.inject_s", s(b.inject_ns));
        l.set("protocol_des.peer_ids_s", s(b.peer_ids_ns));
        l.set("protocol_des.remove_peer_s", s(b.remove_ns));
        l.set("protocol_des.spawn_peer_s", s(b.spawn_ns));
        l.set("protocol_des.drain_events_s", s(b.drain_ns));
        l.set(
            "protocol_des.settle_calls",
            b.settle_calls.iter().sum::<u64>() as f64,
        );
        let settle_total: u64 = b.settle_ns.iter().sum();
        let sent_total: u64 = b.sent.iter().sum();
        l.set(
            "protocol_des.ns_per_msg",
            settle_total as f64 / sent_total.max(1) as f64,
        );
        l.set("churn_machine.other_s", s(b.gap_ns));
        l.set("protocol.msgs_join", b.sent[Phase::Join as usize] as f64);
        l.set("protocol.msgs_probe", b.sent[Phase::Probe as usize] as f64);
        l.set(
            "protocol.msgs_depart",
            b.sent[Phase::Depart as usize] as f64,
        );
        l.set("protocol.msgs_query", b.sent[Phase::Query as usize] as f64);
        l.set("protocol.repairs_fired", b.repairs_fired as f64);
        l.set("protocol.timeouts", b.timeouts as f64);
        l.set("protocol.retries", b.retries as f64);
        l.set("protocol.gave_up", b.gave_up as f64);
        l.set(
            "protocol.handler_ns_per_msg",
            b.settle_ns[Phase::Query as usize] as f64 / b.sent[Phase::Query as usize].max(1) as f64,
        );
        // Named layers only: the engine's own time between driver calls
        // (`churn_machine.other_s`), `advance_to` and settles after other
        // commands are what the layers leave unexplained.
        let named_settles: u64 = [Phase::Probe, Phase::Join, Phase::Depart, Phase::Query]
            .iter()
            .map(|&p| b.settle_ns[p as usize])
            .sum();
        let layer_self =
            named_settles + b.inject_ns + b.peer_ids_ns + b.remove_ns + b.spawn_ns + b.drain_ns;
        let wall = s(b.measured_ns);
        set_coverage(&mut l, s(layer_self), wall);
        let untraced_wall = untraced.first().map_or(wall, |r| s(r.book.measured_ns));
        l.set("tracing_overhead_s", wall - untraced_wall);
        out.layers = Some(l);
        out.spans = Some(traced.tracer.as_ref().expect("traced").spans().to_vec());
    }
    out
}
