//! `controller_fleet` and `journaled_fleet`: fresh connections from a large
//! client population through one `ovs::Switch` per ingress and one
//! `edgectl::Controller`.
//!
//! Per connection: the client's SYN misses the ingress switch, the
//! `PACKET_IN` bytes go to the controller, every message it sends back is
//! applied to the switch, and the released SYN leaves on the edge port
//! rewritten to the service's instance. The instance's SYN-ACK then comes
//! back through the switch to the client's port. The op is one connection
//! set up both ways. Every frame is encoded before the timed phase. The
//! journaled variant runs with the write-ahead journal on and ends in a
//! warm `Controller::crash_restart`.

use crate::checks::{self, Conn};
use crate::trace::{Layer, Meter, Tracer};
use crate::{Round, Workload};
use desim::{Duration, SimRng, SimTime};
use dockersim::DockerEngine;
use edgectl::{
    annotate_deployment, Controller, ControllerConfig, DockerCluster, EdgeService, IngressId,
    InstanceAddr, JournalConfig, OutboundMessage, PortMap, ProximityScheduler, RecoveryMode,
};
use netsim::{Ipv4Addr, MacAddr, ServiceAddr, TcpFlags, TcpFrame};
use openflow::messages::{FlowModCommand, Message};
use ovs::{Effect, Switch, SwitchConfig};
use std::collections::{BTreeSet, HashMap};
use testbed::{client_ip_for, fleet_client_ip};

/// Port clients arrive on, on every ingress switch.
const CLIENT_PORT: u32 = 1;
/// Port toward the edge cluster.
const EDGE_PORT: u32 = 2;
/// Port toward the cloud uplink.
const CLOUD_PORT: u32 = 3;
/// Registered services.
const SERVICES: u16 = 10;
/// Distinct services each client connects to.
const PER_CLIENT: usize = 2;
/// Connections checked per batch (the check runs with the meter paused).
const BATCH: usize = 1024;
/// Gateway MAC the clients address (the perceived cloud gateway).
const GW_MAC: u32 = 900;
/// First connection of the timed phase, after every warm-up is ready.
const T0: SimTime = SimTime::from_secs(600);

/// Population of one fleet workload.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Ingress switches.
    pub ingresses: u32,
    /// Clients behind each ingress.
    pub clients_per_ingress: usize,
    /// Write-ahead journal on (default `snapshotEvery`), warm restart at
    /// the end.
    pub journal: bool,
}

impl Shape {
    /// `controller_fleet`: 16 × 2 500 clients, 2 services each = 80 000
    /// connections per round.
    pub fn controller() -> Shape {
        Shape {
            ingresses: 16,
            clients_per_ingress: 2_500,
            journal: false,
        }
    }

    /// `journaled_fleet`: 16 × 250 clients, 2 services each = 8 000
    /// connections per round (journal compaction cost grows with the square
    /// of the population).
    pub fn journaled() -> Shape {
        Shape {
            ingresses: 16,
            clients_per_ingress: 250,
            journal: true,
        }
    }
}

/// One generated connection.
struct Planned {
    ingress: u32,
    conn: Conn,
    service: u16,
    syn: Vec<u8>,
}

/// The fleet workload and its generated connections.
pub struct Fleet {
    shape: Shape,
    seed: u64,
    plan: Vec<Planned>,
    /// Distinct (client, service) pairs in the plan.
    pairs: u64,
    /// SYN-ACKs for the instance addresses they were built for.
    replies: Option<(Vec<InstanceAddr>, Vec<Vec<u8>>)>,
}

fn service_addr(s: u16) -> ServiceAddr {
    ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 8000 + s)
}

fn client_mac(ingress: u32, i: usize, per_ingress: usize) -> MacAddr {
    MacAddr::from_id(1_000 + ingress * per_ingress as u32 + i as u32)
}

impl Fleet {
    /// Generates the connections from `seed`: each client picks its
    /// services at random, and the connection order is shuffled across
    /// ingresses.
    pub fn new(shape: Shape, seed: u64) -> Fleet {
        let mut rng = SimRng::new(seed ^ 0xf1ee7);
        let mut plan = Vec::new();
        let mut pairs = BTreeSet::new();
        for g in 0..shape.ingresses {
            for i in 0..shape.clients_per_ingress {
                let mut services: Vec<u16> = (0..SERVICES).collect();
                rng.shuffle(&mut services);
                let ip = fleet_client_ip(g, i);
                for &s in &services[..PER_CLIENT] {
                    let conn = Conn {
                        ip,
                        port: 20_000 + s,
                        service: service_addr(s),
                    };
                    pairs.insert((ip, s));
                    let syn = TcpFrame::syn(
                        client_mac(g, i, shape.clients_per_ingress),
                        MacAddr::from_id(GW_MAC),
                        ip,
                        conn.port,
                        conn.service,
                    );
                    plan.push(Planned {
                        ingress: g,
                        conn,
                        service: s,
                        syn: syn.encode(),
                    });
                }
            }
        }
        rng.shuffle(&mut plan);
        Fleet {
            shape,
            seed,
            pairs: pairs.len() as u64,
            plan,
            replies: None,
        }
    }

    /// Builds the instance's SYN-ACK for every planned connection, unless
    /// they were built for the same instances already.
    fn build_replies(&mut self, instances: &[InstanceAddr]) {
        if self.replies.as_ref().is_none_or(|(i, _)| i != instances) {
            let frames = self
                .plan
                .iter()
                .map(|p| {
                    let mut syn = TcpFrame::decode(&p.syn).expect("planned SYN decodes");
                    let inst = instances[p.service as usize];
                    syn.rewrite_dst(inst.mac, inst.ip, inst.port);
                    syn.reply(TcpFlags::SYN.with(TcpFlags::ACK), Vec::new())
                        .encode()
                })
                .collect();
            self.replies = Some((instances.to_vec(), frames));
        }
    }
}

/// An edge service at `addr` backed by the `asm` profile.
fn edge_service(addr: ServiceAddr) -> EdgeService {
    let profile = containerd::ServiceSet::by_key("asm").expect("asm profile");
    let yaml = format!(
        "spec:\n  template:\n    spec:\n      containers:\n        - name: main\n          image: {}\n          ports:\n            - containerPort: {}\n",
        profile.manifests[0].reference, profile.listen_port
    );
    let annotated = annotate_deployment(&yaml, addr, None).expect("valid definition");
    EdgeService {
        addr,
        name: annotated.service_name.clone(),
        annotated,
        profile,
    }
}

/// Forwards a frame produced: how many, and the first as (port, frame).
/// Fixed-size, so keeping it allocates nothing in the timed phase.
#[derive(Default)]
struct Forwards {
    count: u32,
    first: Option<(u32, Vec<u8>)>,
}

impl Forwards {
    fn push(&mut self, port: u32, data: Vec<u8>) {
        self.count += 1;
        if self.first.is_none() {
            self.first = Some((port, data));
        }
    }

    /// The frame of the only forward, if it left on `port`.
    fn single(&self, port: u32) -> Option<&[u8]> {
        match &self.first {
            Some((p, data)) if self.count == 1 && *p == port => Some(data),
            _ => None,
        }
    }
}

/// What one connection produced, kept for the batch check.
#[derive(Default)]
struct Outcome {
    packet_ins: u32,
    /// Forwards on the SYN's way.
    syn_out: Forwards,
    /// Forwards on the reply's way.
    reply_out: Forwards,
    msgs: Vec<OutboundMessage>,
    /// Anything else (drops, control replies, errors).
    stray: u32,
}

/// Result of checking one connection.
#[derive(Default)]
struct Tally {
    failed: u64,
    msgs: u64,
    packet_ins: u64,
}

impl Workload for Fleet {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut rng = SimRng::new(self.seed);
        let shape = self.shape;

        // -- set-up -----------------------------------------------------
        let setup = Meter::start();
        let (mut switches, mut ctl) = tr.span(Layer::Topology, 0, |_| {
            let switches: Vec<Switch> = (0..shape.ingresses)
                .map(|g| {
                    Switch::new(SwitchConfig {
                        datapath_id: 0x100 + u64::from(g),
                        n_buffers: 1024,
                        miss_send_len: 0xffff,
                        ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
                    })
                })
                .collect();
            let cluster = DockerCluster::new(
                "edge-docker",
                DockerEngine::with_defaults(),
                MacAddr::from_id(200),
                Ipv4Addr::new(10, 0, 0, 10),
                Duration::from_micros(150),
            );
            let mut ctl = Controller::new(
                Box::<ProximityScheduler>::default(),
                PortMap {
                    cluster_ports: HashMap::new(),
                    cloud_port: CLOUD_PORT,
                },
                ControllerConfig {
                    record_requests: false,
                    journal: JournalConfig {
                        enabled: shape.journal,
                        ..JournalConfig::default()
                    },
                    ..ControllerConfig::default()
                },
            );
            ctl.add_cluster(Box::new(cluster), EDGE_PORT);
            for _ in 1..shape.ingresses {
                let id = ctl.add_ingress(PortMap {
                    cluster_ports: HashMap::new(),
                    cloud_port: CLOUD_PORT,
                });
                ctl.map_cluster_port(id, "edge-docker", EDGE_PORT);
            }
            (switches, ctl)
        });
        let services: Vec<EdgeService> = tr.span(Layer::Register, 0, |_| {
            (0..SERVICES)
                .map(|s| {
                    let svc = edge_service(service_addr(s));
                    ctl.register_service(svc.clone());
                    svc
                })
                .collect()
        });
        tr.span(Layer::Prepare, 0, |_| {
            for svc in &services {
                ctl.cluster_mut(0)
                    .pull(svc, SimTime::ZERO, &mut rng)
                    .expect("pre-pull");
            }
            // One warm-up connection per service through ingress 0 deploys
            // its instance on demand, a second apart in simulated time.
            for s in 0..SERVICES {
                let t = SimTime::from_secs(1 + u64::from(s));
                let syn = TcpFrame::syn(
                    MacAddr::from_id(999),
                    MacAddr::from_id(GW_MAC),
                    client_ip_for(0),
                    1000 + s,
                    service_addr(s),
                );
                for e in switches[0].handle_frame(t, CLIENT_PORT, &syn.encode()) {
                    if let Effect::ToController(b) = e {
                        let outs = ctl
                            .handle_switch_message(t, &b, &mut rng)
                            .expect("warm-up packet-in");
                        for m in outs {
                            switches[0]
                                .handle_controller(m.at.max(t), &m.data)
                                .expect("warm-up install");
                        }
                    }
                }
            }
        });
        round.setup_ns += setup.stop().0;

        // -- inputs that depend on set-up (not timed) ---------------------
        let mut instances = Vec::with_capacity(services.len());
        for svc in &services {
            let c = ctl.cluster(0);
            match (c.state(svc, T0).is_ready(), c.instance_addr(svc)) {
                (true, Some(a)) => instances.push(a),
                _ => {
                    round.problems.push(format!(
                        "warm-up left {} without a running instance",
                        svc.addr
                    ));
                    return round;
                }
            }
        }
        self.build_replies(&instances);
        let replies = &self.replies.as_ref().expect("built above").1;
        let mut batch: Vec<Outcome> = Vec::with_capacity(BATCH);
        let mut tally = Tally::default();

        // -- timed phase --------------------------------------------------
        let mut timed = Meter::start();
        for (k, p) in self.plan.iter().enumerate() {
            let t = T0 + Duration::from_micros(k as u64);
            let g = p.ingress as usize;
            let op = k as u64;
            let sw = &mut switches[g];
            let out = tr.span(Layer::Op, op, |tr| {
                let mut o = Outcome::default();
                let effects = tr.span(Layer::HandleFrame, op, |_| {
                    sw.handle_frame(t, CLIENT_PORT, &p.syn)
                });
                for e in effects {
                    let Effect::ToController(pkt_in) = e else {
                        o.stray += 1;
                        continue;
                    };
                    o.packet_ins += 1;
                    let msgs = tr.span(Layer::PacketIn, op, |_| {
                        ctl.handle_switch_message_from(IngressId(p.ingress), t, &pkt_in, &mut rng)
                    });
                    let Ok(msgs) = msgs else {
                        o.stray += 1;
                        continue;
                    };
                    for m in &msgs {
                        let effects = tr.span(Layer::HandleController, op, |_| {
                            sw.handle_controller(m.at.max(t), &m.data)
                        });
                        for e in effects.unwrap_or_else(|_| vec![Effect::Drop]) {
                            match e {
                                Effect::Forward { port, data } => o.syn_out.push(port, data),
                                _ => o.stray += 1,
                            }
                        }
                    }
                    o.msgs = msgs;
                }
                let effects = tr.span(Layer::HandleFrame, op, |_| {
                    sw.handle_frame(t, EDGE_PORT, &replies[k])
                });
                for e in effects {
                    match e {
                        Effect::Forward { port, data } => o.reply_out.push(port, data),
                        _ => o.stray += 1,
                    }
                }
                o
            });
            batch.push(out);
            if batch.len() == BATCH || k + 1 == self.plan.len() {
                timed.pause();
                let first = k + 1 - batch.len();
                for (j, o) in batch.drain(..).enumerate() {
                    let p = &self.plan[first + j];
                    check_connection(
                        tr,
                        (first + j) as u64,
                        p,
                        instances[p.service as usize],
                        o,
                        &mut tally,
                        &mut round.problems,
                    );
                }
                timed.resume();
            }
        }
        let mut restart = None;
        if shape.journal {
            timed.pause();
            let before = ctl.state_digest();
            let rebuilt = ctl.journal_rebuild_digest();
            let stats = ctl.journal_stats();
            timed.resume();
            let t = T0 + Duration::from_micros(self.plan.len() as u64);
            let report = tr.span(Layer::Restart, 0, |_| {
                ctl.crash_restart(RecoveryMode::Warm, t)
            });
            restart = Some((before, rebuilt, stats, report, t));
        }
        let (ns, counts) = timed.stop();
        round.add_timed(ns, counts);

        // -- checks and per-layer counts (not timed) -----------------------
        let conns = self.plan.len() as u64;
        round.ops += conns - tally.failed;
        round.failed += tally.failed;
        let table_flows: u64 = switches.iter().map(|s| s.table().len() as u64).sum();
        let warmups = u64::from(SERVICES);
        round.problems.extend(checks::fleet_state(
            table_flows,
            conns + warmups,
            ctl.memory().len() as u64,
            self.pairs + warmups,
        ));
        if let Some((before, rebuilt, stats, report, t)) = restart {
            let mut fixes = 0;
            for (g, sw) in switches.iter().enumerate() {
                let flows: Vec<openflow::FlowEntry> = sw.table().entries().cloned().collect();
                fixes += ctl.reconcile(IngressId(g as u32), &flows, t).len();
            }
            let after = ctl.state_digest();
            round.problems.extend(checks::journal_restart(
                &before,
                rebuilt.as_deref(),
                &after,
                fixes,
            ));
            let l = &mut round.layer;
            l.insert("journal.ops", (conns - tally.failed) as f64);
            l.insert("journal.appends", stats.appended as f64);
            l.insert("journal.snapshots", stats.snapshots_taken as f64);
            l.insert("journal.snapshot_entries", stats.snapshot_entries as f64);
            let restored = (report.snapshot_entries + report.replayed_events) as f64;
            l.insert(
                "journal.replay_events_per_s",
                restored / (report.replay_wall_ns.max(1) as f64 / 1e9),
            );
        }
        for sw in &switches {
            round.add_switch_counts(sw);
        }
        round.add_controller_counts(&ctl);
        round.add_layer("openflow.msgs", tally.msgs as f64);
        round.add_layer("openflow.packet_ins", tally.packet_ins as f64);
        round
    }
}

/// Checks one connection's outputs: one packet-in, two flow adds, the SYN
/// on the edge port rewritten to the service's instance, and the SYN-ACK on
/// the client's port showing the cloud service address.
fn check_connection(
    tr: &mut Tracer,
    op: u64,
    p: &Planned,
    instance: InstanceAddr,
    o: Outcome,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) {
    tally.packet_ins += u64::from(o.packet_ins);
    tally.msgs += o.msgs.len() as u64;
    let mut flow_adds = 0;
    for m in &o.msgs {
        match tr.span(Layer::MsgDecode, op, |_| Message::decode(&m.data)) {
            Ok((
                _,
                Message::FlowMod {
                    command: FlowModCommand::Add,
                    ..
                },
                _,
            )) => flow_adds += 1,
            Ok(_) => {}
            Err(e) => problems.push(format!("controller sent an undecodable message: {e:?}")),
        }
    }
    let syn = o.syn_out.single(EDGE_PORT);
    let reply = o.reply_out.single(CLIENT_PORT);
    let (Some(syn), Some(reply)) = (syn, reply) else {
        tally.failed += 1;
        for (way, out, port, frame) in [
            ("SYN", &o.syn_out, EDGE_PORT, syn),
            ("reply", &o.reply_out, CLIENT_PORT, reply),
        ] {
            if frame.is_none() {
                problems.push(format!(
                    "connection {}:{}: {way} not forwarded once on port {port} ({} forwards, first on {:?})",
                    p.conn.ip,
                    p.conn.port,
                    out.count,
                    out.first.as_ref().map(|(p, _)| *p)
                ));
            }
        }
        return;
    };
    if o.packet_ins != 1 || flow_adds != 2 || o.stray != 0 {
        problems.push(format!(
            "connection {}:{}: {} packet-ins, {flow_adds} flow adds, {} stray effects",
            p.conn.ip, p.conn.port, o.packet_ins, o.stray
        ));
    }
    let syn = tr.span(Layer::FrameDecode, op, |_| TcpFrame::decode(syn));
    let reply = tr.span(Layer::FrameDecode, op, |_| TcpFrame::decode(reply));
    match (syn, reply) {
        (Ok(syn), Ok(reply)) => {
            for r in [
                checks::forwarded_syn(&p.conn, &syn, instance),
                checks::delivered_reply(&p.conn, &reply),
            ] {
                if let Err(e) = r {
                    problems.push(e);
                }
            }
        }
        _ => problems.push(format!(
            "connection {}:{}: undecodable frame",
            p.conn.ip, p.conn.port
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_sent_to_the_cloud_port_is_a_problem() {
        let shape = Shape {
            ingresses: 1,
            clients_per_ingress: 1,
            journal: false,
        };
        let fleet = Fleet::new(shape, 7);
        let p = &fleet.plan[0];
        let instance = InstanceAddr {
            mac: MacAddr::from_id(200),
            ip: Ipv4Addr::new(10, 0, 0, 10),
            port: 8080,
        };
        let mut o = Outcome {
            packet_ins: 1,
            ..Outcome::default()
        };
        o.syn_out.push(CLOUD_PORT, p.syn.clone());
        o.reply_out.push(CLIENT_PORT, p.syn.clone());
        let (mut tally, mut problems) = (Tally::default(), Vec::new());
        check_connection(
            &mut Tracer::new(false),
            0,
            p,
            instance,
            o,
            &mut tally,
            &mut problems,
        );
        assert_eq!(tally.failed, 1);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("SYN not forwarded once on port 2"),
            "{problems:?}"
        );
    }
}
