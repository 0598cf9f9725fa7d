//! `paper_trace`: the paper's own evaluation.
//!
//! One round replays the bigFlows-like trace through `testbed::Testbed` for
//! every Table I service on Docker and on Kubernetes, in the scale-up-only
//! (Fig. 11: images pulled, services created) and the create + scale-up
//! (Fig. 12: images pulled only) matrices — 16 replays. The op is a
//! completed client request.

use crate::checks::{self, Fig, PaperMedians};
use crate::trace::{Layer, Meter, Tracer};
use crate::{Round, Workload};
use containerd::{ServiceProfile, ServiceSet};
use desim::{Duration, SimTime};
use edgectl::ControllerConfig;
use netsim::{Ipv4Addr, ServiceAddr};
use std::collections::BTreeMap;
use testbed::{ClusterKind, Testbed, TestbedConfig};
use workload::{Trace, TraceConfig};

/// The replay matrix and its generated trace.
pub struct PaperTrace {
    seed: u64,
    trace: Trace,
    profiles: Vec<ServiceProfile>,
}

impl PaperTrace {
    /// Generates the trace from `seed`.
    pub fn new(seed: u64) -> PaperTrace {
        PaperTrace {
            seed,
            trace: Trace::generate(TraceConfig::default(), seed),
            profiles: ServiceSet::all(),
        }
    }
}

/// Service `i` of the trace, bound to `profile`'s port.
fn addr_of(profile: &ServiceProfile, i: usize) -> ServiceAddr {
    ServiceAddr::new(
        Ipv4Addr::new(203, 0, 113, (i + 1) as u8),
        profile.listen_port,
    )
}

impl Workload for PaperTrace {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut medians = PaperMedians::default();
        let mut replay = 0u64;
        for pre_create in [true, false] {
            for kind in [ClusterKind::Docker, ClusterKind::K8s] {
                for profile in &self.profiles {
                    replay += 1;
                    let fig = if pre_create {
                        Fig::ScaleUp
                    } else {
                        Fig::CreateScaleUp
                    };
                    let first = self.replay(tr, &mut round, replay, kind, profile, pre_create);
                    medians.insert(fig, kind.label(), profile.key, first);
                }
            }
        }
        round
            .problems
            .extend(checks::paper_anchors(&medians, &self.profiles));
        round.layer.insert(
            "deploy.waited_per_replay",
            round.layer_sum("deploy.waited") / replay as f64,
        );
        round
    }
}

impl PaperTrace {
    /// One replay; returns the median first-request `time_total` in seconds.
    fn replay(
        &self,
        tr: &mut Tracer,
        round: &mut Round,
        replay: u64,
        kind: ClusterKind,
        profile: &ServiceProfile,
        pre_create: bool,
    ) -> f64 {
        let n_services = self.trace.config.n_services;
        let addrs: Vec<ServiceAddr> = (0..n_services).map(|i| addr_of(profile, i)).collect();
        let setup = Meter::start();
        let mut tb = tr.span(Layer::Topology, replay, |_| {
            Testbed::new(TestbedConfig {
                cluster: kind,
                seed: self.seed,
                controller: ControllerConfig {
                    // All 42 services stay alive for the whole trace, as in
                    // the paper's runs (42 deployments per replay).
                    memory_idle: Duration::from_secs(400),
                    ..ControllerConfig::default()
                },
                ..TestbedConfig::default()
            })
        });
        tr.span(Layer::Register, replay, |_| {
            for &a in &addrs {
                tb.register_service(profile.clone(), a);
            }
        });
        tr.span(Layer::Prepare, replay, |_| {
            for &a in &addrs {
                tb.pre_pull(a);
                if pre_create {
                    tb.pre_create(a);
                }
            }
        });
        round.setup_ns += setup.stop().0;

        let timed = Meter::start();
        let events = tr.span(Layer::Op, replay, |tr| {
            for r in &self.trace.requests {
                // Traffic starts 1 s in, strictly after set-up.
                tb.request_at(r.at + Duration::from_secs(1), r.client, addrs[r.service]);
            }
            tr.span(Layer::Run, replay, |_| {
                tb.run_until(SimTime::from_secs(400))
            })
        });
        let (ns, counts) = timed.stop();
        round.add_timed(ns, counts);

        let done = tb.completed.len() as u64;
        let want = self.trace.requests.len() as u64;
        round.ops += done;
        round.failed += want.saturating_sub(done);
        let label = format!(
            "{} {} {}",
            if pre_create { "fig11" } else { "fig12" },
            kind.label(),
            profile.key
        );
        round.problems.extend(checks::paper_replay(
            &label,
            want,
            done,
            tb.resets,
            tb.transparency_violations,
            tb.drops,
        ));

        // Per-layer counts (deterministic for a seed).
        let snap = tb.telemetry_snapshot();
        round.add_layer("desim.events", events as f64);
        let peak = snap.gauge("engine.peak_pending").unwrap_or(0.0);
        let e = round.layer.entry("desim.peak_pending").or_default();
        *e = e.max(peak);
        round.add_switch_counts(tb.switch());
        round.add_controller_counts(&tb.controller);
        round.add_layer("deploy.waited", snap.counter("requests_waited") as f64);
        if let Some(h) = snap.histogram("deploy_wait_ns") {
            round
                .waits_ms
                .push(h.percentile(50.0).unwrap_or(0) as f64 / 1e6);
        }

        first_request_median(&tb)
    }
}

/// Median `time_total` of each service's first completed request, seconds,
/// computed from the harness's `CompletedRequest` timings.
fn first_request_median(tb: &Testbed) -> f64 {
    let mut first: BTreeMap<ServiceAddr, f64> = BTreeMap::new();
    for c in &tb.completed {
        if let Some(t) = c.timing.time_total() {
            first.entry(c.service).or_insert(t.as_secs_f64());
        }
    }
    let v: Vec<f64> = first.into_values().collect();
    crate::trace::median(&v)
}
