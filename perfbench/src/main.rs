//! The repository benchmark: end-to-end and per-layer figures of the
//! transparent-edge stack on two workloads of two phases each.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole rounds of its workload for at least `--seconds`
//! seconds. A round runs each phase of the workload in turn; a phase sets
//! the system up (timed as set-up), runs its operations (timed), then
//! checks every output against values the benchmark computed itself. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced rounds: the
//! per-layer figures come from the traced rounds, and the tracing overhead
//! is the traced rounds' time per op against the untraced rounds'.

mod alloc;
mod checks;
mod fleet;
mod mobile;
mod paper;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::{median, Layer, Tracer};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order, and the phases a round of
/// each runs: the two driven through the `testbed` harnesses, and the two
/// that drive switches and the controller directly.
const WORKLOADS: [(&str, [&str; 2]); 2] = [
    ("testbeds", ["paper_trace", "mobile_sessions"]),
    ("fleets", ["controller_fleet", "journaled_fleet"]),
];

/// Rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Leading rounds left out of the timing metrics: the first round also pays
/// for growing the heap and faulting in fresh pages. Their operations are
/// still checked and counted in `attempted` and `failed`.
const WARMUP_ROUNDS: usize = 1;

/// One round of a workload.
#[derive(Default)]
pub struct Round {
    /// Wall nanoseconds of set-up, summed over every set-up in the round.
    pub setup_ns: u64,
    /// Wall nanoseconds of the timed phases.
    pub timed_ns: u64,
    /// Operations completed.
    pub ops: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Allocations in the timed phases.
    pub allocs: u64,
    /// Bytes requested in the timed phases.
    pub bytes: u64,
    /// Live heap growth over the timed phases.
    pub live: i64,
    /// Check failures.
    pub problems: Vec<String>,
    /// Raw per-layer counts (deterministic for a seed).
    pub layer: BTreeMap<&'static str, f64>,
    /// Median deployment wait per replay, ms of simulated time.
    pub waits_ms: Vec<f64>,
}

impl Round {
    /// Adds one timed phase.
    pub fn add_timed(&mut self, ns: u64, c: alloc::Counts) {
        self.timed_ns += ns;
        self.allocs += c.allocs;
        self.bytes += c.bytes;
        self.live += c.live;
    }

    /// A raw per-layer count, 0 when the workload has none.
    pub fn layer_sum(&self, name: &str) -> f64 {
        self.layer.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a phase's round to this one. Per-layer entries are summed; the
    /// ones only a single phase records (maxima, ratios, journal figures)
    /// pass through unchanged.
    pub fn absorb(&mut self, o: Round) {
        self.setup_ns += o.setup_ns;
        self.timed_ns += o.timed_ns;
        self.ops += o.ops;
        self.failed += o.failed;
        self.allocs += o.allocs;
        self.bytes += o.bytes;
        self.live += o.live;
        self.problems.extend(o.problems);
        for (k, v) in o.layer {
            self.add_layer(k, v);
        }
        self.waits_ms.extend(o.waits_ms);
    }

    /// Adds `v` to the per-layer count `name`.
    pub fn add_layer(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_default() += v;
    }

    /// Adds one switch's frame, microflow, miss and table counters.
    pub fn add_switch_counts(&mut self, sw: &ovs::Switch) {
        self.add_layer(
            "netsim.frames",
            (sw.fast_path_packets + sw.table_misses) as f64,
        );
        self.add_layer("ovs.microflow_hits", sw.microflow_hits as f64);
        self.add_layer(
            "ovs.microflow_probes",
            (sw.microflow_hits + sw.microflow_misses) as f64,
        );
        self.add_layer("ovs.misses", sw.table_misses as f64);
        self.add_layer("ovs.table_flows", sw.table().len() as f64);
    }

    /// Adds one controller's FlowMemory and flow-install counters.
    pub fn add_controller_counts(&mut self, ctl: &edgectl::Controller) {
        let fm = ctl.memory().stats;
        self.add_layer("edgectl.memory_hits", fm.hits as f64);
        self.add_layer("edgectl.memory_lookups", fm.lookups as f64);
        self.add_layer("edgectl.flow_adds", ctl.flow_adds as f64);
        self.add_layer("edgectl.flowmemory_entries", ctl.memory().len() as f64);
    }
}

/// A workload: inputs generated from the seed when built, then rounds.
pub trait Workload {
    /// Sets up, runs and checks one round.
    fn round(&mut self, tr: &mut Tracer) -> Round;
}

/// A workload whose round runs each of its phases once, in order.
struct Phases(Vec<Box<dyn Workload>>);

impl Workload for Phases {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        for (i, p) in self.0.iter_mut().enumerate() {
            tr.set_phase(i as u8);
            round.absorb(p.round(tr));
        }
        round
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err(format!("--seconds {v} outside 0..3600"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}, want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == a.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(a)
}

fn phase(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "paper_trace" => Box::new(paper::PaperTrace::new(seed)),
        "mobile_sessions" => Box::new(mobile::MobileSessions::new(seed)),
        "controller_fleet" => Box::new(fleet::Fleet::new(fleet::Shape::controller(), seed)),
        "journaled_fleet" => Box::new(fleet::Fleet::new(fleet::Shape::journaled(), seed)),
        _ => unreachable!("no such phase {name}"),
    }
}

fn build(workload: &str, seed: u64) -> Phases {
    let (_, phases) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("validated by parse_args");
    Phases(phases.iter().map(|p| phase(p, seed)).collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut w = build(&args.workload, args.seed);
    let mut tracer = Tracer::new(args.trace);
    let start = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let min_rounds = WARMUP_ROUNDS
        + if args.trace {
            MIN_ROUNDS + 1
        } else {
            MIN_ROUNDS
        };
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate after the warm-up: untraced, then traced.
        tracer.set_recording(
            args.trace && rounds.len() >= WARMUP_ROUNDS && (rounds.len() - WARMUP_ROUNDS) % 2 == 1,
        );
        let r = w.round(&mut tracer);
        eprintln!(
            "round {:>3}{}{}: setup {:.3} s, {} ops in {:.3} s, {} failed, {} problems",
            rounds.len(),
            if rounds.len() < WARMUP_ROUNDS {
                " (warm-up)"
            } else {
                ""
            },
            if tracer.recording() { " (traced)" } else { "" },
            r.setup_ns as f64 / 1e9,
            r.ops,
            r.timed_ns as f64 / 1e9,
            r.failed,
            r.problems.len()
        );
        rounds.push((tracer.recording(), r));
    }

    let mut problems: Vec<&String> = rounds.iter().flat_map(|(_, r)| &r.problems).collect();
    problems.dedup();
    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    let attempted: u64 = rounds.iter().map(|(_, r)| r.ops + r.failed).sum();
    let failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();

    let measured = &rounds[WARMUP_ROUNDS..];
    let metrics = if args.trace {
        per_layer(measured, &tracer)
    } else {
        end_to_end(measured)
    };
    if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            println!("{name:<36} {v:>16.6} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

type Metric = (&'static str, &'static str, f64);

fn per_op(r: &Round, v: f64) -> f64 {
    v / r.ops.max(1) as f64
}

/// End-to-end metrics: medians over the run's rounds.
fn end_to_end(rounds: &[(bool, Round)]) -> Vec<Metric> {
    let of =
        |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|(_, r)| f(r)).collect::<Vec<_>>());
    vec![
        ("setup_s", "s", of(&|r| r.setup_ns as f64 / 1e9)),
        (
            "ops_per_s",
            "1/s",
            of(&|r| r.ops as f64 / (r.timed_ns.max(1) as f64 / 1e9)),
        ),
        ("peak_rss_mb", "MB", trace::peak_rss_mb()),
        ("allocs_per_op", "1", of(&|r| per_op(r, r.allocs as f64))),
        (
            "alloc_bytes_per_op",
            "B",
            of(&|r| per_op(r, r.bytes as f64)),
        ),
    ]
}

/// Per-layer metrics from the traced rounds, plus the tracing overhead.
fn per_layer(rounds: &[(bool, Round)], t: &Tracer) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds
        .iter()
        .filter(|(on, _)| *on)
        .map(|(_, r)| r)
        .collect();
    let n = traced.len().max(1) as f64;
    let r = traced.last().expect("a traced run makes traced rounds");
    let ns_per_op = |on: bool| {
        median(
            &rounds
                .iter()
                .filter(|(t, _)| *t == on)
                .map(|(_, r)| r.timed_ns as f64 / r.ops.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let l = |k: &str| r.layer_sum(k);
    let s = |layer: Layer| t.stat(layer);
    let events = l("desim.events");
    let run = s(Layer::Run);
    let frame = s(Layer::HandleFrame);
    let ctlr = s(Layer::HandleController);
    let pin = s(Layer::PacketIn);
    let restart = s(Layer::Restart);
    vec![
        ("desim.events_per_op", "count", per_op(r, events)),
        ("desim.peak_pending", "count", l("desim.peak_pending")),
        (
            "testbed.run_ns_per_event",
            "ns",
            ratio(run.total_ns as f64 / n, events),
        ),
        (
            "testbed.allocs_per_event",
            "count",
            ratio(run.allocs as f64 / n, events),
        ),
        (
            "netsim.frames_per_op",
            "count",
            per_op(r, l("netsim.frames")),
        ),
        (
            "netsim.decode_ns.p50",
            "ns",
            s(Layer::FrameDecode).percentile_ns(50.0),
        ),
        ("ovs.handle_frame_ns.p50", "ns", frame.percentile_ns(50.0)),
        ("ovs.handle_frame_ns.p99", "ns", frame.percentile_ns(99.0)),
        (
            "ovs.handle_controller_ns.p50",
            "ns",
            ctlr.percentile_ns(50.0),
        ),
        (
            "ovs.handle_controller_ns.p99",
            "ns",
            ctlr.percentile_ns(99.0),
        ),
        (
            "ovs.allocs_per_frame",
            "count",
            ratio(frame.allocs as f64, frame.count as f64),
        ),
        (
            "ovs.microflow_hit_share",
            "1",
            ratio(l("ovs.microflow_hits"), l("ovs.microflow_probes")),
        ),
        ("ovs.misses_per_op", "count", per_op(r, l("ovs.misses"))),
        ("ovs.table_flows", "count", l("ovs.table_flows")),
        (
            "openflow.msgs_per_packet_in",
            "count",
            ratio(l("openflow.msgs"), l("openflow.packet_ins")),
        ),
        (
            "openflow.decode_ns.p50",
            "ns",
            s(Layer::MsgDecode).percentile_ns(50.0),
        ),
        ("edgectl.packet_in_ns.p50", "ns", pin.percentile_ns(50.0)),
        ("edgectl.packet_in_ns.p99", "ns", pin.percentile_ns(99.0)),
        (
            "edgectl.allocs_per_packet_in",
            "count",
            ratio(pin.allocs as f64, pin.count as f64),
        ),
        (
            "edgectl.memory_hit_share",
            "1",
            ratio(l("edgectl.memory_hits"), l("edgectl.memory_lookups")),
        ),
        (
            "edgectl.flow_adds_per_op",
            "count",
            per_op(r, l("edgectl.flow_adds")),
        ),
        (
            "edgectl.flowmemory_entries",
            "count",
            l("edgectl.flowmemory_entries"),
        ),
        ("heap.live_bytes_per_op", "B", per_op(r, r.live as f64)),
        (
            "journal.appends_per_op",
            "count",
            ratio(l("journal.appends"), l("journal.ops")),
        ),
        (
            "journal.snapshots_per_kop",
            "count",
            ratio(1e3 * l("journal.snapshots"), l("journal.ops")),
        ),
        (
            "journal.snapshot_entries",
            "count",
            l("journal.snapshot_entries"),
        ),
        (
            "journal.restart_ms",
            "ms",
            ratio(restart.total_ns as f64, restart.count as f64) / 1e6,
        ),
        (
            "journal.replay_events_per_s",
            "1/s",
            l("journal.replay_events_per_s"),
        ),
        (
            "deploy.waited_per_replay",
            "count",
            l("deploy.waited_per_replay"),
        ),
        ("deploy.wait_p50_ms", "ms", median(&r.waits_ms)),
        (
            "setup.topology_ms",
            "ms",
            s(Layer::Topology).total_ns as f64 / n / 1e6,
        ),
        (
            "setup.register_ms",
            "ms",
            s(Layer::Register).total_ns as f64 / n / 1e6,
        ),
        (
            "setup.prepare_ms",
            "ms",
            s(Layer::Prepare).total_ns as f64 / n / 1e6,
        ),
        (
            "trace.overhead_share",
            "1",
            ratio(ns_per_op(true), ns_per_op(false)) - 1.0,
        ),
        ("trace.layer_share", "1", t.op_child_share()),
    ]
}
