//! Output checks, computed apart from the program.
//!
//! Each check takes plain values — counts the benchmark derived itself from
//! the inputs it generated, and the program's outputs — and returns the
//! problems it found, so a test can feed it a corrupted output.

use edgectl::InstanceAddr;
use mobility::AttachmentEvent;
use netsim::{Ipv4Addr, ServiceAddr, TcpFrame};
use std::collections::BTreeMap;

/// Which evaluation matrix a replay belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fig {
    /// Fig. 11: images pulled and services created; scale-up on demand.
    ScaleUp,
    /// Fig. 12: images pulled only; create + scale-up on demand.
    CreateScaleUp,
}

/// Median first-request `time_total` (seconds) per (figure, cluster, service).
#[derive(Default)]
pub struct PaperMedians(BTreeMap<(Fig, &'static str, &'static str), f64>);

impl PaperMedians {
    /// Records one replay's median.
    pub fn insert(&mut self, fig: Fig, cluster: &'static str, service: &'static str, secs: f64) {
        self.0.insert((fig, cluster, service), secs);
    }

    fn get(&self, fig: Fig, cluster: &'static str, service: &'static str) -> f64 {
        self.0
            .get(&(fig, cluster, service))
            .copied()
            .unwrap_or(f64::NAN)
    }
}

/// One replay: every request of the trace completed, with no resets, no
/// transparency violations and no drops.
pub fn paper_replay(
    label: &str,
    trace_len: u64,
    completed: u64,
    resets: u64,
    violations: u64,
    drops: u64,
) -> Vec<String> {
    let mut p = Vec::new();
    if completed != trace_len {
        p.push(format!(
            "{label}: {completed} requests completed, trace has {trace_len}"
        ));
    }
    for (what, n) in [
        ("resets", resets),
        ("transparency violations", violations),
        ("drops", drops),
    ] {
        if n != 0 {
            p.push(format!("{label}: {n} {what}"));
        }
    }
    p
}

/// The paper's stated anchors for Figs. 11 and 12: Docker asm and nginx
/// below 1 s with nginx near 0.5 s; Kubernetes nginx within 2–4 s and more
/// than 3× Docker's; creating adds about 100 ms per container on Docker.
/// ResNet is left out of the create anchor: its model-load spread swallows
/// the create cost, as the paper itself observes.
pub fn paper_anchors(m: &PaperMedians, profiles: &[containerd::ServiceProfile]) -> Vec<String> {
    let mut p = Vec::new();
    for fig in [Fig::ScaleUp, Fig::CreateScaleUp] {
        for svc in ["asm", "nginx"] {
            let d = m.get(fig, "Docker", svc);
            if d.is_nan() || d >= 1.0 {
                p.push(format!("{fig:?} Docker {svc} median {d:.3} s, want < 1 s"));
            }
        }
    }
    let dn = m.get(Fig::ScaleUp, "Docker", "nginx");
    if !(0.3..=0.8).contains(&dn) {
        p.push(format!(
            "ScaleUp Docker nginx median {dn:.3} s, want about 0.5 s"
        ));
    }
    let kn = m.get(Fig::ScaleUp, "K8s", "nginx");
    if !(2.0..=4.0).contains(&kn) {
        p.push(format!("ScaleUp K8s nginx median {kn:.3} s, want 2-4 s"));
    }
    if kn.is_nan() || dn.is_nan() || kn <= 3.0 * dn {
        p.push(format!(
            "K8s nginx {kn:.3} s is not > 3x Docker nginx {dn:.3} s"
        ));
    }
    for prof in profiles.iter().filter(|p| p.key != "resnet") {
        let added =
            m.get(Fig::CreateScaleUp, "Docker", prof.key) - m.get(Fig::ScaleUp, "Docker", prof.key);
        let per = added / prof.manifests.len() as f64;
        if !(0.05..=0.2).contains(&per) {
            p.push(format!(
                "create adds {:.0} ms per container on Docker {}, want about 100 ms",
                per * 1e3,
                prof.key
            ));
        }
    }
    p
}

/// Handovers a run must perform: the model's cell changes that cross gNBs,
/// counted from its own event list (cells map to gNBs modulo their count).
pub fn expected_handovers(initial: &[usize], events: &[AttachmentEvent], n_gnbs: usize) -> u64 {
    let mut at: Vec<usize> = initial.iter().map(|c| c % n_gnbs).collect();
    let mut n = 0;
    for e in events {
        let to = e.to_cell % n_gnbs;
        if at[e.client] != to {
            at[e.client] = to;
            n += 1;
        }
    }
    n
}

/// Session continuity of one mobility run.
pub struct MobileOutcome {
    /// Pings the sessions sent.
    pub sent: u64,
    /// Pings answered.
    pub answered: u64,
    /// Round-trip times recorded (one per answered ping).
    pub rtts: u64,
    /// Answers with no ping outstanding.
    pub double_answered: u64,
    /// RSTs seen by clients.
    pub resets: u64,
    /// Frames reaching a client from a non-cloud source.
    pub violations: u64,
    /// Handovers the controller performed.
    pub handovers: u64,
}

/// Every ping answered exactly once, at least `min_pings` sent, nothing
/// reset or exposed, and one handover per cell change of the model.
pub fn mobile_run(
    label: &str,
    o: &MobileOutcome,
    want_handovers: u64,
    min_pings: u64,
) -> Vec<String> {
    let mut p = Vec::new();
    if o.answered != o.sent || o.rtts != o.answered {
        p.push(format!(
            "{label}: {} pings sent, {} answered, {} timed",
            o.sent, o.answered, o.rtts
        ));
    }
    if o.sent < min_pings {
        p.push(format!(
            "{label}: {} pings sent, sessions should send at least {min_pings}",
            o.sent
        ));
    }
    for (what, n) in [
        ("double answers", o.double_answered),
        ("resets", o.resets),
        ("transparency violations", o.violations),
    ] {
        if n != 0 {
            p.push(format!("{label}: {n} {what}"));
        }
    }
    if o.handovers != want_handovers {
        p.push(format!(
            "{label}: {} handovers, the mobility model changed gNB {want_handovers} times",
            o.handovers
        ));
    }
    p
}

/// The client side of one fleet connection.
#[derive(Clone, Copy, Debug)]
pub struct Conn {
    /// Client address.
    pub ip: Ipv4Addr,
    /// Client source port.
    pub port: u16,
    /// The cloud service address the client dialled.
    pub service: ServiceAddr,
}

/// The SYN leaving the edge port must be the client's, rewritten to
/// `instance` (a running instance of its service).
pub fn forwarded_syn(c: &Conn, frame: &TcpFrame, instance: InstanceAddr) -> Result<(), String> {
    if (frame.src_ip, frame.src_port) != (c.ip, c.port) {
        return Err(format!(
            "SYN of {}:{} left with source {}:{}",
            c.ip, c.port, frame.src_ip, frame.src_port
        ));
    }
    if (frame.dst_mac, frame.dst_ip, frame.dst_port) != (instance.mac, instance.ip, instance.port) {
        return Err(format!(
            "SYN of {}:{} for {} went to {}:{}, not its instance {}:{}",
            c.ip, c.port, c.service, frame.dst_ip, frame.dst_port, instance.ip, instance.port
        ));
    }
    Ok(())
}

/// The reply reaching the client must come from the cloud service address:
/// the edge instance must stay invisible (transparency).
pub fn delivered_reply(c: &Conn, frame: &TcpFrame) -> Result<(), String> {
    if (frame.dst_ip, frame.dst_port) != (c.ip, c.port) {
        return Err(format!(
            "reply for {}:{} reached {}:{}",
            c.ip, c.port, frame.dst_ip, frame.dst_port
        ));
    }
    if (frame.src_ip, frame.src_port) != (c.service.ip, c.service.port) {
        return Err(format!(
            "reply to {}:{} shows source {}:{}, not the service {}",
            c.ip, c.port, frame.src_ip, frame.src_port, c.service
        ));
    }
    Ok(())
}

/// Switch tables hold two flows per connection (forward and reverse
/// rewrite), warm-ups included; FlowMemory one entry per (client, service).
pub fn fleet_state(table_flows: u64, connections: u64, memory: u64, pairs: u64) -> Vec<String> {
    let mut p = Vec::new();
    if table_flows != 2 * connections {
        p.push(format!(
            "switch tables hold {table_flows} flows, want 2 x {connections} connections"
        ));
    }
    if memory != pairs {
        p.push(format!(
            "FlowMemory holds {memory} entries, want {pairs} (client, service) pairs"
        ));
    }
    p
}

/// The journal rebuilds the live state, and the warm restart reproduces it
/// without a single reconcile fix.
pub fn journal_restart(
    before: &str,
    rebuilt: Option<&str>,
    after: &str,
    fixes: usize,
) -> Vec<String> {
    let mut p = Vec::new();
    if rebuilt != Some(before) {
        p.push("journal rebuild digest differs from the live state before the crash".to_owned());
    }
    if after != before {
        p.push("state after the warm restart differs from the state before the crash".to_owned());
    }
    if fixes != 0 {
        p.push(format!(
            "warm restart left {fixes} switch-table fixes to reconcile"
        ));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::MacAddr;

    fn conn() -> Conn {
        Conn {
            ip: Ipv4Addr::new(10, 64, 0, 7),
            port: 20_001,
            service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 8001),
        }
    }

    fn instance() -> InstanceAddr {
        InstanceAddr {
            mac: MacAddr::from_id(200),
            ip: Ipv4Addr::new(10, 0, 0, 10),
            port: 32_768,
        }
    }

    fn forwarded() -> TcpFrame {
        let c = conn();
        let i = instance();
        let mut f = TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(900),
            c.ip,
            c.port,
            c.service,
        );
        f.rewrite_dst(i.mac, i.ip, i.port);
        f
    }

    #[test]
    fn syn_to_its_instance_passes_and_elsewhere_fails() {
        let c = conn();
        assert!(forwarded_syn(&c, &forwarded(), instance()).is_ok());
        // Not rewritten: the SYN still heads for the cloud address.
        let raw = TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(900),
            c.ip,
            c.port,
            c.service,
        );
        assert!(forwarded_syn(&c, &raw, instance()).is_err());
        let mut other = forwarded();
        other.dst_port += 1;
        assert!(forwarded_syn(&c, &other, instance()).is_err());
    }

    #[test]
    fn reply_from_the_instance_fails_transparency() {
        let c = conn();
        let mut reply = forwarded().reply(
            netsim::TcpFlags::SYN.with(netsim::TcpFlags::ACK),
            Vec::new(),
        );
        // Straight from the instance: the edge address leaks to the client.
        assert!(delivered_reply(&c, &reply).is_err());
        reply.rewrite_src(MacAddr::from_id(900), c.service.ip, c.service.port);
        assert!(delivered_reply(&c, &reply).is_ok());
        reply.dst_port += 1;
        assert!(delivered_reply(&c, &reply).is_err());
    }

    #[test]
    fn fleet_state_rejects_missing_flows_and_entries() {
        assert!(fleet_state(200, 100, 90, 90).is_empty());
        assert_eq!(fleet_state(199, 100, 90, 90).len(), 1);
        assert_eq!(fleet_state(200, 100, 89, 90).len(), 1);
    }

    #[test]
    fn journal_check_rejects_divergent_digests() {
        assert!(journal_restart("a", Some("a"), "a", 0).is_empty());
        assert_eq!(journal_restart("a", Some("b"), "a", 0).len(), 1);
        assert_eq!(journal_restart("a", None, "a", 0).len(), 1);
        assert_eq!(journal_restart("a", Some("a"), "c", 0).len(), 1);
        assert_eq!(journal_restart("a", Some("a"), "a", 3).len(), 1);
    }

    #[test]
    fn handovers_count_gnb_changes_only() {
        let ev = |client, to_cell| AttachmentEvent {
            at: desim::SimTime::ZERO,
            client,
            from_cell: 0,
            to_cell,
        };
        // Two gNBs, cell c on gNB c % 2: 0 -> 2 and 3 -> 1 stay on their
        // gNB, so only 2 -> 1 and 0 -> 3 are handovers.
        let events = [ev(0, 2), ev(0, 1), ev(1, 3), ev(1, 1)];
        assert_eq!(expected_handovers(&[0, 0], &events, 2), 2);
    }

    #[test]
    fn mobile_check_rejects_lost_pings_and_missed_handovers() {
        let ok = MobileOutcome {
            sent: 100,
            answered: 100,
            rtts: 100,
            double_answered: 0,
            resets: 0,
            violations: 0,
            handovers: 7,
        };
        assert!(mobile_run("x", &ok, 7, 90).is_empty());
        assert_eq!(
            mobile_run("x", &MobileOutcome { answered: 99, ..ok }, 7, 90).len(),
            1
        );
        assert_eq!(
            mobile_run(
                "x",
                &MobileOutcome {
                    violations: 1,
                    ..ok
                },
                7,
                90
            )
            .len(),
            1
        );
        assert_eq!(
            mobile_run(
                "x",
                &MobileOutcome {
                    double_answered: 2,
                    ..ok
                },
                7,
                90
            )
            .len(),
            1
        );
        assert_eq!(mobile_run("x", &ok, 8, 90).len(), 1);
        assert_eq!(mobile_run("x", &ok, 7, 101).len(), 1);
    }

    #[test]
    fn paper_checks_reject_short_replays_and_missed_anchors() {
        assert!(paper_replay("r", 1708, 1708, 0, 0, 0).is_empty());
        assert_eq!(paper_replay("r", 1708, 1707, 0, 0, 0).len(), 1);
        assert_eq!(paper_replay("r", 1708, 1708, 0, 1, 0).len(), 1);

        let profiles = containerd::ServiceSet::all();
        let mut m = PaperMedians::default();
        let fig11 = [
            ("asm", 0.49, 2.67),
            ("nginx", 0.50, 2.74),
            ("resnet", 2.75, 5.02),
            ("nginx-py", 0.87, 3.40),
        ];
        for (svc, d, k) in fig11 {
            let svc = profiles
                .iter()
                .find(|p| p.key == svc)
                .map(|p| p.key)
                .unwrap_or(svc);
            m.insert(Fig::ScaleUp, "Docker", svc, d);
            m.insert(Fig::ScaleUp, "K8s", svc, k);
            let containers = profiles
                .iter()
                .find(|p| p.key == svc)
                .map_or(1, |p| p.manifests.len());
            m.insert(
                Fig::CreateScaleUp,
                "Docker",
                svc,
                d + 0.11 * containers as f64,
            );
            m.insert(Fig::CreateScaleUp, "K8s", svc, k + 0.1);
        }
        assert_eq!(paper_anchors(&m, &profiles), Vec::<String>::new());
        // Kubernetes as fast as Docker would break the 2-4 s and 3x anchors.
        m.insert(Fig::ScaleUp, "K8s", "nginx", 0.6);
        assert_eq!(paper_anchors(&m, &profiles).len(), 2);
    }
}
