//! `mobile_sessions`: long-lived sessions under vehicular mobility.
//!
//! One round runs `testbed::MobilityTestbed` near its topology limit under
//! the anchored and then the redispatch handover policy. Every client keeps
//! one session open and pings the service every 200 ms while a random
//! waypoint model moves it across the gNB strip. The op is an answered ping.

use crate::checks::{self, MobileOutcome};
use crate::trace::{Layer, Meter, Tracer};
use crate::{Round, Workload};
use desim::{Duration, SimTime};
use edgectl::HandoverPolicy;
use mobility::{CellGrid, MobilityModel, RandomWaypoint};
use netsim::{Ipv4Addr, ServiceAddr};
use testbed::{MobilityConfig, MobilityTestbed};

/// gNBs (one cell and one edge zone each).
const GNBS: usize = 16;
/// Moving clients, one session each.
const CLIENTS: usize = 240;
/// Simulated run length.
const SECS: u64 = 120;
/// Sessions start here, staggered 50 ms apart.
const START: SimTime = SimTime::from_secs(1);
/// Ping interval: a session sends its next ping this long after the
/// previous answer (a closed loop per client).
const PING: Duration = Duration::from_millis(200);
/// Round-trip allowance per ping in the lower bound on pings sent.
const RTT_ALLOWANCE: Duration = Duration::from_millis(50);

/// The two-policy mobility round and its generated movement.
pub struct MobileSessions {
    seed: u64,
    /// Each client's first cell.
    initial: Vec<usize>,
    /// gNB changes the model produces over the run, counted by the benchmark.
    want_handovers: u64,
    /// Pings the sessions must at least send.
    min_pings: u64,
}

fn model(seed: u64) -> RandomWaypoint {
    let grid = CellGrid::new(GNBS as u32, 1, 120.0);
    RandomWaypoint::new(grid, CLIENTS, seed ^ 0x6d6f_7665).with_speed(30.0, 50.0)
}

impl MobileSessions {
    /// Generates the movement from `seed`.
    pub fn new(seed: u64) -> MobileSessions {
        let mut m = model(seed);
        let initial: Vec<usize> = (0..CLIENTS).map(|c| m.initial_cell(c)).collect();
        let events = m.events(Duration::from_secs(SECS));
        let want_handovers = checks::expected_handovers(&initial, &events, GNBS);
        // Client c pings from its session start (plus up to 1 s to connect)
        // until 2 s before the end, one ping per interval plus round trip.
        let ping_end = SimTime::from_secs(SECS - 2);
        let cycle = (PING + RTT_ALLOWANCE).as_nanos();
        let min_pings = (0..CLIENTS as u64)
            .map(|c| {
                let from = START + Duration::from_millis(50 * c) + Duration::from_secs(1);
                ping_end.saturating_since(from).as_nanos() / cycle
            })
            .sum::<u64>();
        MobileSessions {
            seed,
            initial,
            want_handovers,
            min_pings,
        }
    }
}

impl Workload for MobileSessions {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        for (i, policy) in [HandoverPolicy::Anchored, HandoverPolicy::Redispatch]
            .into_iter()
            .enumerate()
        {
            self.policy_run(tr, &mut round, i as u64 + 1, policy);
        }
        round
    }
}

impl MobileSessions {
    fn policy_run(&self, tr: &mut Tracer, round: &mut Round, run: u64, policy: HandoverPolicy) {
        let mut m = model(self.seed);
        let setup = Meter::start();
        let mut tb = tr.span(Layer::Topology, run, |_| {
            MobilityTestbed::new(MobilityConfig {
                n_gnbs: GNBS,
                n_clients: CLIENTS,
                policy,
                seed: self.seed,
                ping_interval: PING,
                ..MobilityConfig::default()
            })
        });
        tr.span(Layer::Register, run, |_| {
            let profile = containerd::ServiceSet::by_key("asm").expect("asm profile");
            tb.register_service(
                profile,
                ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
            );
        });
        tr.span(Layer::Prepare, run, |_| {
            // Images cached and containers created in every zone; instances
            // run where clients start, so a move onto a cold zone under
            // redispatch exercises the on-demand scale-up.
            tb.warm_all_zones();
            let mut homes: Vec<usize> = self.initial.iter().map(|c| c % GNBS).collect();
            homes.sort_unstable();
            homes.dedup();
            for z in homes {
                tb.pre_deploy_on(z);
            }
        });
        round.setup_ns += setup.stop().0;

        let timed = Meter::start();
        let events = tr.span(Layer::Op, run, |tr| {
            tr.span(Layer::Run, run, |_| {
                tb.run(&mut m, START, SimTime::from_secs(SECS))
            })
        });
        let (ns, counts) = timed.stop();
        round.add_timed(ns, counts);

        let o = MobileOutcome {
            sent: tb.pings_sent(),
            answered: tb.pings_done(),
            rtts: tb.rtts_secs().len() as u64,
            double_answered: tb.double_answered,
            resets: tb.resets,
            violations: tb.transparency_violations,
            handovers: tb.handovers.len() as u64,
        };
        round.ops += o.answered;
        round.failed += o.sent.saturating_sub(o.answered);
        round.problems.extend(checks::mobile_run(
            policy.label(),
            &o,
            self.want_handovers,
            self.min_pings,
        ));

        round.add_layer("desim.events", events as f64);
        for sw in tb.switches() {
            round.add_switch_counts(sw);
        }
        round.add_controller_counts(&tb.controller);
    }
}
