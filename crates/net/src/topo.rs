//! The paper's topologies.
//!
//! Every experiment runs on one of four layouts:
//!
//! * [`chain`] — the K-hop line of Fig. 1 and of the analytical model:
//!   nodes every 200 m, so 1–2-hop neighbours carrier-sense each other
//!   (≤ 400 m < 550 m) and 3-hop neighbours are hidden (600 m > 550 m).
//! * [`testbed`] — the 9-node campus deployment of Fig. 3, with per-link
//!   loss calibrated to the Table 1 capacities. F1 is the 7-hop flow
//!   N0→…→N7 over links `l0..l6` (bottleneck `l2`); F2 is the 4-hop
//!   parking-lot flow entering at N4 from the extra source node 8 (the
//!   paper's N0′).
//! * [`scenario1`] — Fig. 5: two 8-hop flows on a Y of two branches merging
//!   at N4 toward the gateway N0 (uplink backhaul pattern).
//! * [`scenario2`] — Fig. 9: three flows with hidden sources. The paper
//!   does not give coordinates, so this is a documented reconstruction
//!   satisfying every property the text states: N10 (F2's source) is
//!   hidden from N0 and carrier-senses only N11 and N12; the lower parts
//!   of F2 and F3 share the medium with F1's chain; node ids match the
//!   `cw` labels of Fig. 11 (F2 = N10..N15, F3 = N19..N24).

use ezflow_mac::MacConfig;
use ezflow_phy::{LossModel, Position};
use ezflow_sim::Time;

use crate::calibrate::per_for_capacity;
use crate::traffic::Transport;

/// One unidirectional flow over a fixed multi-hop path.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSpec {
    /// Flow id (dense, 0-based).
    pub id: u32,
    /// Full node path, source first, destination last.
    pub path: Vec<usize>,
    /// Application rate, bits/s (the paper saturates with 2 Mb/s).
    /// Ignored by windowed transports (they are ACK-clocked).
    pub rate_bps: u64,
    /// Payload bytes per packet.
    pub payload_bytes: u32,
    /// Generation start.
    pub start: Time,
    /// Generation stop.
    pub stop: Time,
    /// Source pacing: open-loop CBR (the paper) or closed-loop windowed.
    pub transport: Transport,
}

impl FlowSpec {
    /// A saturating 2 Mb/s CBR flow along `path` for `[start, stop)`.
    pub fn saturating(id: u32, path: Vec<usize>, start: Time, stop: Time) -> Self {
        FlowSpec {
            id,
            path,
            rate_bps: 2_000_000,
            payload_bytes: 1000,
            start,
            stop,
            transport: Transport::Cbr,
        }
    }

    /// A fixed-window (TCP-like, ACK-clocked) flow along `path`.
    pub fn windowed(id: u32, path: Vec<usize>, window: usize, start: Time, stop: Time) -> Self {
        FlowSpec {
            transport: Transport::Windowed {
                window,
                ack_payload: 40,
            },
            ..FlowSpec::saturating(id, path, start, stop)
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// A complete experiment layout: node placement, link quality and flows.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable name.
    pub name: String,
    /// Node positions (meters).
    pub positions: Vec<Position>,
    /// Link loss process.
    pub loss: LossModel,
    /// The flows.
    pub flows: Vec<FlowSpec>,
}

impl Topology {
    /// Checks the layout can actually be built and run — the same typed
    /// diagnostics the spec loader uses (paths in bounds and decodable,
    /// positions finite, ids sane); see
    /// [`crate::builder::NetworkSpec::validate`]. The seed plays no role
    /// in validity.
    pub fn validate(&self) -> Result<(), crate::builder::SpecError> {
        crate::builder::NetworkSpec::from_topology(self, 0).validate()
    }
}

/// Standard inter-node spacing (meters).
pub const SPACING: f64 = 200.0;

/// Carrier-sense range used by every experiment (meters).
///
/// At 200 m spacing this makes carrier sensing cover **three** hops
/// (600 m ≤ 620 m) while four hops (800 m) stay hidden — the mesh-density
/// regime of the paper's testbed, where the 3-hop chain is the longest
/// stable one. The decode range stays at the ns-2 default (250 m). With
/// the ns-2 550 m default instead, even the destination's ACKs three hops
/// away are inaudible to the source, which (combined with capture) tips
/// the 3-hop chain into turbulence as well; real 802.11b carrier sensing
/// is commonly 2.5–3× the decode range, so 620 m is the faithful choice
/// for reproducing Fig. 1's stability boundary. See DESIGN.md §4.
pub const CS_RANGE: f64 = 620.0;

/// A K-hop chain (K+1 nodes) with one saturating flow 0 → K active over
/// `[start, stop)`.
pub fn chain(hops: usize, start: Time, stop: Time) -> Topology {
    assert!(hops >= 1);
    let positions = ezflow_phy::geom::line_positions(hops + 1, SPACING);
    let flow = FlowSpec::saturating(0, (0..=hops).collect(), start, stop);
    Topology {
        name: "chain".into(),
        positions,
        loss: LossModel::ideal(),
        flows: vec![flow],
    }
}

/// Paper Table 1 mean link capacities for F1's links `l0..l6`, kb/s.
pub const TABLE1_KBPS: [f64; 7] = [845.0, 672.0, 408.0, 748.0, 746.0, 805.0, 648.0];

/// Calibrated capacity of F2's access link N0′ → N4 (not in Table 1; a
/// good link, chosen at the level of `l3`/`l4`).
pub const F2_ACCESS_KBPS: f64 = 750.0;

/// Node id of the paper's N0′ (F2's source) in the [`testbed`] layout.
pub const TESTBED_F2_SRC: usize = 8;

/// The 9-node campus testbed of Fig. 3. `f1`/`f2` toggle the two flows
/// (Table 2 studies them alone and together); active flows run over
/// `[start, stop)`.
pub fn testbed(f1: bool, f2: bool, start: Time, stop: Time) -> Topology {
    // N0..N7 on a line; N8 (= N0') 200 m off the chain next to N4.
    let mut positions = ezflow_phy::geom::line_positions(8, SPACING);
    positions.push(Position::new(4.0 * SPACING, SPACING));

    let cfg = MacConfig::default();
    let mut loss = LossModel::ideal();
    for (i, &kbps) in TABLE1_KBPS.iter().enumerate() {
        let p = per_for_capacity(&cfg, 1000, kbps);
        loss.set_link_symmetric(i, i + 1, p);
    }
    loss.set_link_symmetric(
        TESTBED_F2_SRC,
        4,
        per_for_capacity(&cfg, 1000, F2_ACCESS_KBPS),
    );

    let mut flows = Vec::new();
    if f1 {
        flows.push(FlowSpec::saturating(
            flows.len() as u32,
            (0..=7).collect(),
            start,
            stop,
        ));
    }
    if f2 {
        flows.push(FlowSpec::saturating(
            flows.len() as u32,
            vec![TESTBED_F2_SRC, 4, 5, 6, 7],
            start,
            stop,
        ));
    }
    Topology {
        name: "testbed".into(),
        positions,
        loss,
        flows,
    }
}

/// Fig. 5: two 8-hop flows merging at N4 toward the gateway N0.
///
/// F1 (N12→N10→N8→N6→N4→N3→N2→N1→N0) runs 5 s – 2504 s;
/// F2 (N11→N9→N7→N5→N4→…→N0) runs 605 s – 1804 s.
pub fn scenario1() -> Topology {
    let mut positions = vec![Position::default(); 13];
    // Shared chain N4..N0 going east.
    #[allow(clippy::needless_range_loop)] // k is the node id, not an index
    for k in 0..=4usize {
        positions[k] = Position::new((4 - k) as f64 * SPACING, 0.0);
    }
    // Two branches leaving N4 westward at ±15 degrees.
    let (dx, dy) = ((165f64).to_radians().cos(), (165f64).to_radians().sin());
    for j in 1..=4usize {
        let r = j as f64 * SPACING;
        positions[4 + 2 * j] = Position::new(r * dx, r * dy); // N6,N8,N10,N12
        positions[3 + 2 * j] = Position::new(r * dx, -r * dy); // N5,N7,N9,N11
    }
    let f1 = FlowSpec::saturating(
        0,
        vec![12, 10, 8, 6, 4, 3, 2, 1, 0],
        Time::from_secs(5),
        Time::from_secs(2504),
    );
    let f2 = FlowSpec::saturating(
        1,
        vec![11, 9, 7, 5, 4, 3, 2, 1, 0],
        Time::from_secs(605),
        Time::from_secs(1804),
    );
    Topology {
        name: "scenario1".into(),
        positions,
        loss: LossModel::ideal(),
        flows: vec![f1, f2],
    }
}

/// End of the scenario-1 run.
pub fn scenario1_end() -> Time {
    Time::from_secs(2504)
}

/// A dense `rows × cols` grid mesh with one saturating west→east flow per
/// row, all active over `[start, stop)`.
///
/// Nodes sit every `spacing` meters in both directions, so tight spacings
/// put *every* node inside every other's carrier-sense range — the
/// worst case for the channel's per-sender neighbor lists (degree ≈ N)
/// and therefore the dense stressor of the hot-path golden
/// (`crates/bench/tests/golden.rs`).
pub fn grid(rows: usize, cols: usize, spacing: f64, start: Time, stop: Time) -> Topology {
    assert!(rows >= 1 && cols >= 2, "each row must carry a 1+ hop flow");
    let mut positions = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Position::new(c as f64 * spacing, r as f64 * spacing));
        }
    }
    let flows = (0..rows)
        .map(|r| {
            let path: Vec<usize> = (0..cols).map(|c| r * cols + c).collect();
            FlowSpec::saturating(r as u32, path, start, stop)
        })
        .collect();
    Topology {
        name: "grid".into(),
        positions,
        loss: LossModel::ideal(),
        flows,
    }
}

/// Fig. 9 (reconstruction): three flows with hidden sources.
///
/// * F1: N0→N1→…→N9 (9 hops along the x axis), 5 s – 4500 s.
/// * F2: N10→N11→N12→N13→N14→N15 (descending from the north, lower hops
///   sharing the medium with F1's head), 5 s – 3605 s.
/// * F3: N19→N20→N21→N22→N23→N24 (ascending from the south near F1's
///   middle), 1805 s – 3605 s.
///
/// Properties from the paper preserved: N10 is hidden from N0
/// (dist ≈ 1077 m > 550 m) and carrier-senses only N11 and N12; the flows
/// share the wireless resource on parts of their paths; node ids match the
/// `cw` labels of Fig. 11. Nodes 16–18 exist but are idle (parked far
/// away), keeping the paper's numbering.
pub fn scenario2() -> Topology {
    let mut positions = vec![Position::new(50_000.0, 50_000.0); 25];
    #[allow(clippy::needless_range_loop)] // k is the node id, not an index
    for k in 0..=9usize {
        positions[k] = Position::new(k as f64 * SPACING, 0.0);
    }
    // F2: chain descending from the north toward the F1 chain. The hop
    // N12 -> N13 stretches to 240 m so that N13 stays outside N10's
    // carrier-sense range (the paper: N10 competes only with N11, N12).
    positions[10] = Position::new(400.0, 1000.0);
    positions[11] = Position::new(400.0, 800.0);
    positions[12] = Position::new(400.0, 600.0);
    positions[13] = Position::new(400.0, 360.0);
    positions[14] = Position::new(480.0, 140.0);
    positions[15] = Position::new(640.0, 40.0);
    // F3: mirrored chain ascending from the south near F1's middle.
    positions[19] = Position::new(800.0, -1000.0);
    positions[20] = Position::new(800.0, -800.0);
    positions[21] = Position::new(800.0, -600.0);
    positions[22] = Position::new(800.0, -360.0);
    positions[23] = Position::new(880.0, -140.0);
    positions[24] = Position::new(1040.0, -40.0);
    // Idle spares 16..18 parked far away but distinct.
    for (i, k) in (16..=18usize).enumerate() {
        positions[k] = Position::new(50_000.0 + 1_000.0 * i as f64, 50_000.0);
    }

    let f1 = FlowSpec::saturating(
        0,
        (0..=9).collect(),
        Time::from_secs(5),
        Time::from_secs(4500),
    );
    let f2 = FlowSpec::saturating(
        1,
        vec![10, 11, 12, 13, 14, 15],
        Time::from_secs(5),
        Time::from_secs(3605),
    );
    let f3 = FlowSpec::saturating(
        2,
        vec![19, 20, 21, 22, 23, 24],
        Time::from_secs(1805),
        Time::from_secs(3605),
    );
    Topology {
        name: "scenario2".into(),
        positions,
        loss: LossModel::ideal(),
        flows: vec![f1, f2, f3],
    }
}

/// End of the scenario-2 run.
pub fn scenario2_end() -> Time {
    Time::from_secs(4500)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_phy::{Channel, ChannelConfig};

    fn channel_for(t: &Topology) -> Channel {
        let cfg = ChannelConfig {
            cs_range: CS_RANGE,
            ..ChannelConfig::default()
        };
        Channel::new(&t.positions, cfg, t.loss.clone())
    }

    #[test]
    fn chain_geometry() {
        let t = chain(4, Time::from_secs(0), Time::from_secs(10));
        assert_eq!(t.positions.len(), 5);
        assert_eq!(t.flows[0].hops(), 4);
        let ch = channel_for(&t);
        assert!(ch.can_decode(0, 1));
        assert!(!ch.can_decode(0, 2));
        assert!(ch.can_sense(0, 2));
        assert!(ch.can_sense(0, 3), "3-hop neighbours are sensed");
        assert!(!ch.can_sense(0, 4), "4-hop neighbours are hidden");
    }

    #[test]
    fn scenario1_paths_are_connected_and_merge() {
        let t = scenario1();
        let ch = channel_for(&t);
        for f in &t.flows {
            for w in f.path.windows(2) {
                assert!(
                    ch.can_decode(w[0], w[1]),
                    "hop {}->{} must decode",
                    w[0],
                    w[1]
                );
            }
        }
        assert_eq!(t.flows[0].hops(), 8);
        assert_eq!(t.flows[1].hops(), 8);
        // Branch heads are 2 hops of distance from the junction's chain.
        assert!(ch.can_sense(6, 4));
        assert!(ch.can_sense(8, 4));
    }

    #[test]
    fn grid_is_dense_and_rowwise_connected() {
        let t = grid(4, 4, 140.0, Time::ZERO, Time::from_secs(10));
        assert_eq!(t.positions.len(), 16);
        assert_eq!(t.flows.len(), 4);
        let ch = channel_for(&t);
        for f in &t.flows {
            for w in f.path.windows(2) {
                assert!(ch.can_decode(w[0], w[1]), "hop {}->{}", w[0], w[1]);
            }
        }
        // 140 m spacing: the whole 420 m x 420 m grid fits inside one
        // 620 m carrier-sense disk — every node senses every other.
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    assert!(ch.can_sense(a, b), "{a} must sense {b}");
                }
            }
        }
    }

    #[test]
    fn scenario2_hidden_source_properties() {
        let t = scenario2();
        let ch = channel_for(&t);
        for f in &t.flows {
            for w in f.path.windows(2) {
                assert!(
                    ch.can_decode(w[0], w[1]),
                    "hop {}->{} must decode",
                    w[0],
                    w[1]
                );
            }
        }
        // N10 is hidden from N0...
        assert!(!ch.can_sense(10, 0));
        assert!(!ch.can_sense(0, 10));
        // ...and carrier-senses exactly N11 and N12.
        let sensed: Vec<usize> = (0..25).filter(|&r| ch.can_sense(r, 10)).collect();
        assert_eq!(sensed, vec![11, 12], "N10's competitors");
        // F2's tail shares the medium with F1's head.
        assert!(ch.can_sense(14, 1));
        // F3's source likewise senses only its own next two hops.
        let sensed: Vec<usize> = (0..25).filter(|&r| ch.can_sense(r, 19)).collect();
        assert_eq!(sensed, vec![20, 21]);
        // Idle spares do not touch the arena.
        for k in 16..=18 {
            for r in 0..16 {
                assert!(!ch.can_sense(k, r));
            }
        }
    }

    #[test]
    fn testbed_links_calibrated_to_table1() {
        let t = testbed(true, true, Time::from_secs(0), Time::from_secs(10));
        assert_eq!(t.positions.len(), 9);
        assert_eq!(t.flows.len(), 2);
        assert_eq!(t.flows[0].hops(), 7);
        assert_eq!(t.flows[1].hops(), 4);
        // The bottleneck l2 must have the worst loss.
        let p2 = t.loss.loss_prob(2, 3);
        for (i, _) in TABLE1_KBPS.iter().enumerate() {
            assert!(t.loss.loss_prob(i, i + 1) <= p2 + 1e-12);
        }
        assert!(p2 > 0.1, "l2 needs substantial loss, got {p2}");
        let ch = channel_for(&t);
        assert!(ch.can_decode(TESTBED_F2_SRC, 4));
    }

    #[test]
    fn testbed_flow_toggles() {
        let t = testbed(true, false, Time::from_secs(0), Time::from_secs(1));
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.flows[0].path[0], 0);
        let t = testbed(false, true, Time::from_secs(0), Time::from_secs(1));
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.flows[0].path[0], TESTBED_F2_SRC);
        assert_eq!(t.flows[0].id, 0, "ids stay dense");
    }
}
