//! The Oscar benchmark: three workloads from one process, each checked,
//! each printing every end-to-end metric by name with its unit, and a
//! traced mode that breaks the wall time down by layer (crate).
//!
//! The workloads drive only public APIs of the repository's crates and
//! measure every layer from outside: a timing [`OverlayBuilder`]
//! around oscar-core's builder, a timing [`ProtocolDriver`] around the
//! DES driver, and the generator's own clock around its calls into the
//! threaded `Runtime`.
//!
//! [`OverlayBuilder`]: oscar_sim::OverlayBuilder
//! [`ProtocolDriver`]: oscar_protocol::ProtocolDriver

pub mod churn;
pub mod grow;
pub mod stats;
pub mod storm;
pub mod timed;
pub mod trace;

use stats::{median, summarize, supported_tail, Summary};
use std::collections::BTreeMap;
use std::fmt::Display;
use trace::Span;

/// Seed-tree child labels of the benchmark's input streams.
pub mod stream {
    pub const GROW: u64 = 1;
    pub const QUERIES: u64 = 2;
    pub const FLEET: u64 = 3;
    pub const RUNTIME: u64 = 4;
    pub const CHURN: u64 = 5;
}

/// End-to-end metrics: every workload prints all of them. Where the
/// paper's name for a number differs per workload (`peers_per_s` on
/// `grow`, `queries_per_s` on `storm`, `windows_per_s` on `churn`), the
/// workload prints that name beside the key.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("delivery", "fraction"),
    ("query_cost_mean", "hops"),
    ("msgs_per_op", "msgs"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, named `<layer>.<what>`. Every
/// workload prints all of them; a layer a workload bypasses reads 0.
pub const LAYERS: [(&str, &str); 39] = [
    ("core.build_links_s", "s"),
    ("core.rewire_s", "s"),
    ("core.estimate_partitions_s", "s"),
    ("core.acquire_links_s", "s"),
    ("sim.walk_steps_per_join", "count"),
    ("sim.link_accept_ratio", "ratio"),
    ("sim.growth_other_s", "s"),
    ("sim.route_queries_s", "s"),
    ("protocol_des.settle_probe_s", "s"),
    ("protocol_des.settle_join_s", "s"),
    ("protocol_des.settle_depart_s", "s"),
    ("protocol_des.settle_query_s", "s"),
    ("protocol_des.inject_s", "s"),
    ("protocol_des.peer_ids_s", "s"),
    ("protocol_des.remove_peer_s", "s"),
    ("protocol_des.spawn_peer_s", "s"),
    ("protocol_des.drain_events_s", "s"),
    ("protocol_des.settle_calls", "count"),
    ("protocol_des.ns_per_msg", "ns"),
    ("churn_machine.other_s", "s"),
    ("protocol.msgs_probe", "msgs"),
    ("protocol.msgs_join", "msgs"),
    ("protocol.msgs_depart", "msgs"),
    ("protocol.msgs_query", "msgs"),
    ("protocol.repairs_fired", "count"),
    ("protocol.timeouts", "count"),
    ("protocol.retries", "count"),
    ("protocol.gave_up", "count"),
    ("protocol.handler_ns_per_msg", "ns"),
    ("runtime.inject_ns_per_query", "ns"),
    ("runtime.quiesce_wait_s", "s"),
    ("runtime.drain_events_s", "s"),
    ("runtime.busy_ns_per_msg", "ns"),
    ("runtime.overhead_ns_per_msg", "ns"),
    ("runtime.idle_core_s", "s"),
    ("runtime.worker_msg_imbalance", "ratio"),
    ("coverage", "ratio"),
    ("coverage_below_0.9", "count"),
    ("tracing_overhead_s", "s"),
];

/// Coverage under this share of wall time is flagged.
pub const COVERAGE_FLOOR: f64 = 0.9;

/// Per-layer values of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|&(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one workload run reports.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub e2e: BTreeMap<&'static str, f64>,
    /// Human-readable lines: each metric under the workload's own name.
    pub lines: Vec<String>,
    pub context: Vec<(String, String)>,
    pub layers: Option<Layers>,
    pub spans: Option<Vec<Span>>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            e2e: BTreeMap::new(),
            lines: Vec::new(),
            context: Vec::new(),
            layers: None,
            spans: None,
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn context(&mut self, key: &str, value: impl Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Sets end-to-end metric `key`, printed as `name` for this workload.
    pub fn e2e_named(&mut self, key: &'static str, name: &str, value: f64) {
        let unit = E2E
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, u)| u)
            .expect("declared end-to-end metric");
        self.lines
            .push(format!("{key:<18} {name:<24} {value:>14.6} {unit}"));
        self.e2e.insert(key, value);
    }

    pub fn e2e(&mut self, key: &'static str, value: f64) {
        self.e2e_named(key, key, value);
    }

    /// The timing metrics every workload shares, named for this
    /// workload. Gated: set-up time (median of the run's set-ups) and
    /// throughput (median over reps), both on the process CPU clock
    /// ([`cpu_ns`]). Printed, not gated: the throughput on the wall
    /// clock, and the latency median, p90 and tail (p99, or the
    /// highest percentile the samples support), on the wall clock: on a
    /// shared host they move between sets of identical runs by more than
    /// any bound allows. `cpu_per_s` and `wall_per_s` hold one rate per
    /// rep, `latency_ms` one sample list per rep. When every rep alone
    /// supports a p99, each percentile is taken per rep and the median
    /// over reps is reported, so a slow spell of the host during one rep
    /// does not move it; otherwise the reps' samples are pooled.
    pub fn e2e_timings(
        &mut self,
        setups_s: &[f64],
        cpu_per_s: &[f64],
        wall_per_s: &[f64],
        per_s_name: &str,
        latency_ms: &[Vec<f64>],
        latency_name: &str,
    ) {
        self.e2e("setup_s", median(setups_s));
        self.context("setup_samples", setups_s.len());
        let reps: Vec<String> = cpu_per_s.iter().map(|v| format!("{v:.2}")).collect();
        self.context("throughput_per_rep", reps.join(" "));
        self.e2e_named("throughput_per_s", per_s_name, median(cpu_per_s));
        self.lines.push(format!(
            "{:<18} {:<24} {:>14.6} 1/s",
            "(not gated)",
            format!("{per_s_name}_wall"),
            median(wall_per_s)
        ));
        let per_rep = latency_ms.iter().all(|v| supported_tail(v.len()) >= 0.99);
        let summaries: Vec<Summary> = if per_rep {
            latency_ms.iter().map(|v| summarize(v, 0.99)).collect()
        } else {
            vec![summarize(&latency_ms.concat(), 0.99)]
        };
        let over_reps =
            |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
        let tail_q = summaries[0].tail_q;
        let mut latency = vec![
            (format!("{latency_name}_p50"), over_reps(|s| s.p50)),
            (format!("{latency_name}_p90"), over_reps(|s| s.p90)),
        ];
        if tail_q > 0.9 {
            let tail_name = format!("{latency_name}_p{}", (tail_q * 100.0).round() as u32);
            latency.push((tail_name, over_reps(|s| s.tail)));
        }
        for (name, value) in latency {
            self.lines
                .push(format!("{:<18} {name:<24} {value:>14.6} ms", "(not gated)"));
        }
        let n: usize = latency_ms.iter().map(Vec::len).sum();
        self.context("latency_samples", n);
        self.context(
            "latency_statistic",
            if per_rep {
                "median over reps of each rep's percentile"
            } else {
                "percentile of all reps' samples pooled"
            },
        );
        if tail_q < 0.99 {
            self.context(
                "latency_tail_note",
                format!("{n} samples support only p{}", tail_q * 100.0),
            );
        }
    }
}

/// Decides how many reps a run makes: untraced, at least `min_reps` and
/// then more until the measured time reaches the budget; traced, one
/// untraced rep and then one traced rep of the same inputs.
pub struct RepLoop {
    budget_ns: u64,
    spent_ns: u64,
    reps: usize,
    min_reps: usize,
    trace: bool,
}

impl RepLoop {
    pub fn new(seconds: f64, min_reps: usize, trace: bool) -> Self {
        RepLoop {
            budget_ns: (seconds * 1e9) as u64,
            spent_ns: 0,
            reps: 0,
            min_reps: min_reps.max(1),
            trace,
        }
    }

    pub fn more(&self) -> bool {
        if self.trace {
            self.reps < 2
        } else {
            self.reps < self.min_reps || self.spent_ns < self.budget_ns
        }
    }

    /// True for the rep that records spans.
    pub fn traced_turn(&self) -> bool {
        self.trace && self.reps == 1
    }

    pub fn done(&mut self, measured_ns: u64) {
        self.spent_ns += measured_ns;
        self.reps += 1;
    }
}

/// FNV-1a over 64-bit words.
pub fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpu_ns reads the CPU clock through 64-bit Linux's clock_gettime");

/// Nanoseconds of CPU time this process's threads have run, from the
/// kernel's per-process clock. The gated timings use it: it leaves out
/// time a thread waits for a core, including time the hypervisor gives
/// other guests (steal), which Linux subtracts from a task's run time.
/// On an idle host a single-threaded phase reads the same as on the
/// wall clock; a multi-threaded one reads the sum over its threads.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is
    // Linux's constant, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Adds the layer-coverage metrics: `coverage` is the layers' summed
/// self time over the measured wall time.
pub fn set_coverage(l: &mut Layers, layer_self_s: f64, wall_s: f64) {
    let coverage = layer_self_s / wall_s;
    l.set("coverage", coverage);
    l.set(
        "coverage_below_0.9",
        if coverage < COVERAGE_FLOOR { 1.0 } else { 0.0 },
    );
}
