//! Timing wrappers around the two layer traits the workloads drive.
//!
//! [`TimedBuilder`] wraps oscar-core's [`OscarBuilder`] behind
//! [`OverlayBuilder`]; [`TimedDriver`] wraps any [`ProtocolDriver`].
//! Both always keep cheap per-call books (the end-to-end timings need
//! them) and, when given a [`Tracer`], also record spans.

use crate::cpu_ns;
use crate::trace::Tracer;
use oscar_core::links::acquire_links;
use oscar_core::{estimate_partitions, OscarBuilder, OscarConfig};
use oscar_protocol::{Command, ProtocolDriver, ProtocolEvent};
use oscar_sim::{Network, OverlayBuilder, PeerIdx};
use oscar_types::{Id, Result};
use rand::rngs::SmallRng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Mirrors oscar-core's private direct-wiring threshold. The traced
/// builder only splits `build_links` into its two phases above it; the
/// link-table digest check catches any drift from the real builder.
const DIRECT_WIRING_THRESHOLD: usize = 8;

#[derive(Default)]
pub struct BuilderBook {
    /// Wall time of each `build_links` call, in call order.
    pub build_ns: Vec<u64>,
    /// Summed wall time of `rewire` calls.
    pub rewire_ns: u64,
}

/// [`OscarBuilder`] with every `build_links` and `rewire` timed.
pub struct TimedBuilder {
    inner: OscarBuilder,
    tracer: Option<SharedTracer>,
    book: RefCell<BuilderBook>,
}

impl TimedBuilder {
    pub fn new(config: OscarConfig, tracer: Option<SharedTracer>) -> Self {
        TimedBuilder {
            inner: OscarBuilder::new(config),
            tracer,
            book: RefCell::new(BuilderBook::default()),
        }
    }

    /// The books, releasing the builder's hold on the tracer.
    pub fn into_book(self) -> BuilderBook {
        self.book.into_inner()
    }

    /// The real builder's link construction; traced, as its two public
    /// phases with a span each.
    fn links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        let Some(tracer) = &self.tracer else {
            return self.inner.build_links(net, p, rng);
        };
        if !net.is_alive(p) || net.live_count() <= DIRECT_WIRING_THRESHOLD {
            return self.inner.build_links(net, p, rng);
        }
        let cfg = self.inner.config();
        let group = p.0 as u64;
        let span = tracer.borrow_mut().open("core.estimate_partitions", group);
        let parts = estimate_partitions(net, p, cfg, rng);
        tracer.borrow_mut().close(span);
        let parts = parts?;
        let span = tracer.borrow_mut().open("core.acquire_links", group);
        let out = acquire_links(net, p, &parts, cfg, rng).map(|_| ());
        tracer.borrow_mut().close(span);
        out
    }

    fn timed<T>(&self, name: &'static str, p: PeerIdx, f: impl FnOnce() -> T) -> (T, u64) {
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.borrow_mut().open(name, p.0 as u64));
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(tracer), Some(span)) = (&self.tracer, span) {
            tracer.borrow_mut().close(span);
        }
        (out, ns)
    }
}

impl OverlayBuilder for TimedBuilder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        let (out, ns) = self.timed("core.build_links", p, || self.links(net, p, rng));
        self.book.borrow_mut().build_ns.push(ns);
        out
    }

    /// The trait's default rewire (drop long out-links, build again),
    /// timed as a whole.
    fn rewire(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        let (out, ns) = self.timed("core.rewire", p, || {
            net.unlink_long_out(p);
            self.links(net, p, rng)
        });
        self.book.borrow_mut().rewire_ns += ns;
        out
    }
}

/// Which command a settle is attributed to: the last one injected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    Join,
    Probe,
    Depart,
    Query,
    Other,
}

impl Phase {
    fn of(cmd: &Command) -> Phase {
        match cmd {
            Command::Join { .. } | Command::BuildLinks { .. } => Phase::Join,
            Command::ProbeRing => Phase::Probe,
            Command::Depart => Phase::Depart,
            Command::StartQuery { .. } => Phase::Query,
            _ => Phase::Other,
        }
    }

    fn settle_span(self) -> &'static str {
        match self {
            Phase::Join => "protocol_des.settle_join",
            Phase::Probe => "protocol_des.settle_probe",
            Phase::Depart => "protocol_des.settle_depart",
            Phase::Query => "protocol_des.settle_query",
            Phase::Other => "protocol_des.settle_other",
        }
    }
}

/// Per-call books of a [`TimedDriver`], all after the fleet bootstrap
/// (the engine's first `drain_events` marks its end).
#[derive(Clone, Debug, Default)]
pub struct DriverBook {
    /// Nanoseconds from driver creation to the end of the bootstrap.
    pub setup_ns: u64,
    /// Nanoseconds from the end of the bootstrap to the last call.
    pub measured_ns: u64,
    /// `setup_ns` and `measured_ns` on the process CPU clock.
    pub setup_cpu_ns: u64,
    pub measured_cpu_ns: u64,
    /// Each join after the bootstrap: its `Join` inject up to the end of
    /// the settle that follows its `BuildLinks`.
    pub join_ns: Vec<u64>,
    /// Settle wall time, calls and messages sent, per [`Phase`].
    pub settle_ns: [u64; 5],
    pub settle_calls: [u64; 5],
    pub sent: [u64; 5],
    pub inject_ns: u64,
    pub spawn_ns: u64,
    pub peer_ids_ns: u64,
    pub remove_ns: u64,
    pub drain_ns: u64,
    /// Time between driver calls: the engine's own work.
    pub gap_ns: u64,
    pub queries_issued: u64,
    pub queries_ok: u64,
    pub query_cost_sum: u64,
    pub repairs_fired: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub gave_up: u64,
}

#[derive(Copy, Clone)]
enum JoinState {
    Idle,
    Joining(u64),
    Building(u64),
}

/// The clock side of a [`TimedDriver`], kept apart from the wrapped
/// driver so a timed call can borrow both.
struct Meter {
    t0: Instant,
    cpu0: u64,
    bootstrapped: bool,
    window: u64,
    last_end_ns: Cell<u64>,
    gap_ns: Cell<u64>,
    tracer: Option<RefCell<Tracer>>,
}

impl Meter {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs one driver call; returns its result, start and end. Time
    /// since the previous call ended is the engine's own (gap) time.
    fn call<T>(&self, span: &'static str, f: impl FnOnce() -> T) -> (T, u64, u64) {
        let start = self.now();
        if self.bootstrapped {
            self.gap_ns
                .set(self.gap_ns.get() + start.saturating_sub(self.last_end_ns.get()));
        }
        let out = f();
        let end = self.now();
        self.last_end_ns.set(end);
        if let Some(t) = &self.tracer {
            let group = if self.bootstrapped {
                self.window
            } else {
                u64::MAX
            };
            t.borrow_mut().add(span, group, start, end);
        }
        (out, start, end)
    }
}

/// A [`ProtocolDriver`] that times every call into the wrapped driver.
/// Settles are attributed to the kind of the last injected command.
pub struct TimedDriver<D> {
    inner: D,
    meter: Meter,
    peer_ids_ns: Cell<u64>,
    phase: Phase,
    sent_mark: u64,
    join: JoinState,
    window_span: Option<u32>,
    book: DriverBook,
}

impl<D: ProtocolDriver> TimedDriver<D> {
    pub fn new(inner: D, trace: bool) -> Self {
        let t0 = Instant::now();
        TimedDriver {
            inner,
            meter: Meter {
                t0,
                cpu0: cpu_ns(),
                bootstrapped: false,
                window: 0,
                last_end_ns: Cell::new(0),
                gap_ns: Cell::new(0),
                tracer: trace.then(|| RefCell::new(Tracer::new(t0))),
            },
            peer_ids_ns: Cell::new(0),
            phase: Phase::Other,
            sent_mark: 0,
            join: JoinState::Idle,
            window_span: None,
            book: DriverBook::default(),
        }
    }

    /// The wrapped driver, the books and (traced) the spans.
    pub fn into_parts(mut self) -> (D, DriverBook, Option<Tracer>) {
        self.book.gap_ns = self.meter.gap_ns.get();
        self.book.peer_ids_ns = self.peer_ids_ns.get();
        let mut tracer = self.meter.tracer.map(RefCell::into_inner);
        if let (Some(t), Some(span)) = (tracer.as_mut(), self.window_span) {
            t.close(span);
        }
        (self.inner, self.book, tracer)
    }

    /// Closes the current window's span and opens the next one.
    fn open_window(&mut self) {
        if let Some(t) = &self.meter.tracer {
            let mut t = t.borrow_mut();
            if let Some(span) = self.window_span.take() {
                t.close(span);
            }
            self.window_span = Some(t.open("churn_machine.window", self.meter.window));
        }
    }
}

impl<D: ProtocolDriver> ProtocolDriver for TimedDriver<D> {
    fn spawn_peer(&mut self, id: Id) {
        let (_, s, e) = self
            .meter
            .call("protocol_des.spawn_peer", || self.inner.spawn_peer(id));
        self.book.spawn_ns += e - s;
    }

    fn remove_peer(&mut self, id: Id) {
        let (_, s, e) = self
            .meter
            .call("protocol_des.remove_peer", || self.inner.remove_peer(id));
        self.book.remove_ns += e - s;
    }

    fn inject(&mut self, id: Id, cmd: Command) {
        let phase = Phase::of(&cmd);
        let is_join = matches!(cmd, Command::Join { .. });
        let (_, s, e) = self
            .meter
            .call("protocol_des.inject", || self.inner.inject(id, cmd));
        self.book.inject_ns += e - s;
        self.phase = phase;
        if !self.meter.bootstrapped {
            return;
        }
        self.join = match self.join {
            _ if is_join => JoinState::Joining(s),
            JoinState::Joining(start) if phase == Phase::Join => JoinState::Building(start),
            state if phase == Phase::Join => state,
            _ => JoinState::Idle,
        };
        if phase == Phase::Query {
            self.book.queries_issued += 1;
        }
    }

    fn settle(&mut self, max_rounds: u64) -> u64 {
        let span = self.phase.settle_span();
        let (rounds, s, e) = self.meter.call(span, || self.inner.settle(max_rounds));
        if !self.meter.bootstrapped {
            return rounds;
        }
        let i = self.phase as usize;
        self.book.settle_ns[i] += e - s;
        self.book.settle_calls[i] += 1;
        let sent = self.inner.sent();
        self.book.sent[i] += sent - self.sent_mark;
        self.sent_mark = sent;
        if let JoinState::Building(start) = self.join {
            self.book.join_ns.push(e - start);
            self.join = JoinState::Idle;
        }
        if self.phase == Phase::Query {
            self.meter.window += 1;
            self.open_window();
        }
        rounds
    }

    fn advance_to(&mut self, round: u64) {
        self.meter
            .call("protocol_des.advance_to", || self.inner.advance_to(round));
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn peer_ids(&self) -> Vec<Id> {
        let (ids, s, e) = self
            .meter
            .call("protocol_des.peer_ids", || self.inner.peer_ids());
        if self.meter.bootstrapped {
            self.peer_ids_ns.set(self.peer_ids_ns.get() + e - s);
        }
        ids
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        let (events, s, e) = self
            .meter
            .call("protocol_des.drain_events", || self.inner.drain_events());
        if !self.meter.bootstrapped {
            // The engine drains once, when its bootstrap is done.
            self.meter.bootstrapped = true;
            self.book.setup_ns = e;
            self.book.setup_cpu_ns = cpu_ns() - self.meter.cpu0;
            self.sent_mark = self.inner.sent();
            self.open_window();
            return events;
        }
        self.book.drain_ns += e - s;
        self.book.measured_ns = e - self.book.setup_ns;
        self.book.measured_cpu_ns = cpu_ns() - self.meter.cpu0 - self.book.setup_cpu_ns;
        for ev in &events {
            match ev {
                ProtocolEvent::QueryCompleted(r) if r.success => {
                    self.book.queries_ok += 1;
                    self.book.query_cost_sum += r.cost() as u64;
                }
                ProtocolEvent::RepairFired { .. } => self.book.repairs_fired += 1,
                ProtocolEvent::TimedOut { .. } => self.book.timeouts += 1,
                ProtocolEvent::Retried { .. } => self.book.retries += 1,
                ProtocolEvent::GaveUp { .. } => self.book.gave_up += 1,
                _ => {}
            }
        }
        events
    }

    fn sent(&self) -> u64 {
        self.inner.sent()
    }

    fn fault_count(&self) -> u64 {
        self.inner.fault_count()
    }
}
