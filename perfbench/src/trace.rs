//! Wall-clock and allocation meters, and the span tracer.
//!
//! A [`Meter`] times one phase of a round and counts the allocations made
//! in it; work the benchmark does for itself inside the phase (output
//! checks) is bracketed by [`Meter::pause`] / [`Meter::resume`] and left
//! out. The [`Tracer`] records spans around the benchmark's calls into each
//! layer: name, start, end, parent and op id, plus the allocations made
//! inside the span. Spans are kept in memory and written out at the end.
//! A disabled tracer calls straight through.

use crate::alloc::Counts;
use desim::LogHistogram;
use std::io::Write as _;
use std::time::Instant;

/// Times one phase and counts its allocations, minus paused stretches.
pub struct Meter {
    ns: u64,
    counts: Counts,
    t0: Instant,
    c0: Counts,
    running: bool,
}

impl Meter {
    /// Starts a running meter.
    pub fn start() -> Meter {
        Meter {
            ns: 0,
            counts: Counts::default(),
            t0: Instant::now(),
            c0: Counts::now(),
            running: true,
        }
    }

    /// Stops the clock and the counters until [`Meter::resume`].
    pub fn pause(&mut self) {
        if self.running {
            let c = Counts::now().since(self.c0);
            self.ns += self.t0.elapsed().as_nanos() as u64;
            self.counts.allocs += c.allocs;
            self.counts.bytes += c.bytes;
            self.counts.live += c.live;
            self.running = false;
        }
    }

    /// Restarts the clock and the counters.
    pub fn resume(&mut self) {
        if !self.running {
            self.c0 = Counts::now();
            self.t0 = Instant::now();
            self.running = true;
        }
    }

    /// Stops the meter: wall nanoseconds and allocation counts measured.
    pub fn stop(mut self) -> (u64, Counts) {
        self.pause();
        (self.ns, self.counts)
    }
}

/// The layers the benchmark calls into (span names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One operation (a fleet connection) or one replay's timed phase.
    Op,
    /// Topology, switch and controller construction.
    Topology,
    /// Service registration.
    Register,
    /// Image pre-pulls, pre-creates and warm-up deployments.
    Prepare,
    /// `Testbed::run_until` / `MobilityTestbed::run`.
    Run,
    /// `ovs::Switch::handle_frame`.
    HandleFrame,
    /// `ovs::Switch::handle_controller`.
    HandleController,
    /// `edgectl::Controller::handle_switch_message_from`.
    PacketIn,
    /// `netsim::TcpFrame::decode` in the output checks.
    FrameDecode,
    /// `openflow::messages::Message::decode` in the output checks.
    MsgDecode,
    /// `edgectl::Controller::crash_restart`.
    Restart,
}

const LAYERS: usize = 11;

impl Layer {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Topology => "setup.topology",
            Layer::Register => "setup.register",
            Layer::Prepare => "setup.prepare",
            Layer::Run => "testbed.run",
            Layer::HandleFrame => "ovs.handle_frame",
            Layer::HandleController => "ovs.handle_controller",
            Layer::PacketIn => "edgectl.packet_in",
            Layer::FrameDecode => "netsim.decode",
            Layer::MsgDecode => "openflow.decode",
            Layer::Restart => "edgectl.crash_restart",
        }
    }
}

/// Accumulated figures of one layer's spans.
#[derive(Clone)]
pub struct LayerStat {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Allocations made inside the spans.
    pub allocs: u64,
    /// Span durations.
    pub hist: LogHistogram,
}

impl LayerStat {
    fn new() -> LayerStat {
        LayerStat {
            count: 0,
            total_ns: 0,
            allocs: 0,
            hist: LogHistogram::new(),
        }
    }

    /// The `p`-th percentile (0–100) of the span durations, ns; 0 when
    /// there were none.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        self.hist.percentile(p).unwrap_or(0) as f64
    }
}

/// One recorded span.
#[derive(Clone, Copy)]
struct Span {
    layer: Layer,
    phase: u8,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    allocs: u64,
    bytes: u64,
}

struct Open {
    layer: Layer,
    index: u32,
    start: Instant,
    counts: Counts,
}

/// No parent (a root span).
const NO_PARENT: u32 = u32::MAX;

/// Spans kept in memory for the span file; later spans still feed the
/// per-layer figures.
const KEEP_SPANS: usize = 200_000;

/// The span tracer.
pub struct Tracer {
    on: bool,
    /// Phase of the workload the next spans belong to.
    phase: u8,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    stats: Vec<LayerStat>,
    /// Summed durations of `Op` spans, and of their direct children.
    op_ns: u64,
    op_child_ns: u64,
}

impl Tracer {
    /// A tracer; `on == false` records nothing and allocates nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: false,
            phase: 0,
            base: Instant::now(),
            spans: if on {
                Vec::with_capacity(KEEP_SPANS)
            } else {
                Vec::new()
            },
            stack: Vec::with_capacity(if on { 16 } else { 0 }),
            stats: if on {
                (0..LAYERS).map(|_| LayerStat::new()).collect()
            } else {
                Vec::new()
            },
            op_ns: 0,
            op_child_ns: 0,
        }
    }

    /// Switches recording on or off (rounds alternate in a traced run).
    pub fn set_recording(&mut self, on: bool) {
        self.on = on && !self.stats.is_empty();
    }

    /// Sets the phase written with the next spans; op ids count within a
    /// phase.
    pub fn set_phase(&mut self, phase: u8) {
        self.phase = phase;
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span of `layer` for operation `op`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        self.open(layer, op);
        let r = f(self);
        self.close();
        r
    }

    fn open(&mut self, layer: Layer, op: u64) {
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.index);
        let index = if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                layer,
                phase: self.phase,
                op,
                start_ns: 0,
                end_ns: 0,
                parent,
                allocs: 0,
                bytes: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            layer,
            index,
            start: Instant::now(),
            counts: Counts::now(),
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack balanced");
        let c = Counts::now().since(open.counts);
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if self.stack.last().is_some_and(|p| p.layer == Layer::Op) {
            self.op_child_ns += ns;
        }
        if open.layer == Layer::Op {
            self.op_ns += ns;
        }
        let st = &mut self.stats[open.layer as usize];
        st.count += 1;
        st.total_ns += ns;
        st.allocs += c.allocs;
        // The histogram grows when a duration lands in a new bucket; keep
        // that allocation out of the spans still open.
        let before = Counts::now();
        st.hist.record(ns);
        let own = Counts::now().since(before);
        for o in &mut self.stack {
            o.counts = o.counts.plus(own);
        }
        if let Some(s) = self.spans.get_mut(open.index as usize) {
            s.start_ns = open.start.duration_since(self.base).as_nanos() as u64;
            s.end_ns = end.duration_since(self.base).as_nanos() as u64;
            s.allocs = c.allocs;
            s.bytes = c.bytes;
        }
    }

    /// The figures of `layer` (empty on an untraced run).
    pub fn stat(&self, layer: Layer) -> LayerStat {
        self.stats
            .get(layer as usize)
            .cloned()
            .unwrap_or_else(LayerStat::new)
    }

    /// Share of `Op` span time covered by the spans directly inside them.
    pub fn op_child_share(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.op_child_ns as f64 / self.op_ns as f64
        }
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "index\tname\tphase\top\tstart_ns\tend_ns\tparent\tallocs\tbytes"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.phase,
                s.op,
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.bytes
            )?;
        }
        w.flush()
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count_allocations() {
        let mut t = Tracer::new(true);
        t.set_recording(true);
        t.span(Layer::Op, 1, |t| {
            t.span(Layer::PacketIn, 1, |_| std::hint::black_box(vec![0u8; 32]));
        });
        let s = t.stat(Layer::PacketIn);
        assert_eq!((s.count, s.allocs), (1, 1));
        assert_eq!((t.spans[1].allocs, t.spans[1].bytes), (1, 32));
        assert_eq!(t.stat(Layer::Op).allocs, 1);
        assert_eq!(t.spans[1].parent, 0);
        assert!(t.op_child_share() > 0.0 && t.op_child_share() <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.set_recording(true);
        assert_eq!(t.span(Layer::Op, 1, |_| 5), 5);
        assert!(t.spans.is_empty());
        assert_eq!(t.stat(Layer::Op).count, 0);
    }
}
