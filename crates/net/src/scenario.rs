//! Declarative scenario specs — workloads as data, not code.
//!
//! A [`ScenarioSpec`] is a JSON document (read through the in-tree
//! [`ezflow_sim::json`] kernel — no external parser) that describes a
//! complete experiment: a topology (explicit positions or a generative
//! family), a traffic mix (CBR, windowed, bursty on-off), a loss
//! schedule (uniform, per-link, Gilbert-Elliott, link churn) and sweep
//! axes (queue capacity, seed, controller). [`ScenarioSpec::compile`]
//! lowers one into the same [`Topology`] the hand-built constructors in
//! [`crate::topo`] produce — provably so: the committed spec files under
//! `scenarios/` are pinned byte-identical to the constructors by test.
//!
//! ## Determinism
//!
//! Everything generative draws from [`SimRng`] streams derived from the
//! spec's own seeds, never from ambient state: random-geometric
//! placement uses `SimRng::with_stream(topology.seed, PLACEMENT_STREAM)`,
//! traffic-source selection `SOURCE_STREAM` of the same seed. Compiling
//! the same document twice therefore yields identical positions, routes
//! and flows, and the sweep's *run* seeds stay an independent axis: they
//! reseed the simulation, not the layout.
//!
//! ## Schema (informal)
//!
//! ```json
//! {
//!   "name": "...", "description": "...",
//!   "duration_secs": 60, "seed": 1, "queue_cap": 50,
//!   "topology": {"kind": "explicit" | "chain" | "grid" | "random_geometric", ...},
//!   "flows": [{"path": [..], "rate_bps": .., "payload_bytes": ..,
//!              "start_secs": .., "stop_secs": .., "transport": {"kind": ..}}],
//!   "traffic": {"flows": .., "rate_bps": .., "payload_bytes": ..,
//!               "start_secs": .., "stop_secs": .., "mix": [{"weight": .., "transport": ..}]},
//!   "loss": {"kind": "ideal" | "uniform" | "custom", ...},
//!   "sweep": {"queue_caps": [..], "seeds": [..], "controllers": ["802.11", ..]}
//! }
//! ```
//!
//! Explicit `flows` and a generative `traffic` mix are mutually
//! exclusive; the mix needs gateways, so it requires a
//! `random_geometric` topology. See DESIGN.md §9 for the full schema.

use ezflow_phy::{ChannelConfig, ChurnWindow, GilbertElliott, LossModel, Position};
use ezflow_sim::json::{JsonError, JsonValue};
use ezflow_sim::{Duration, SimRng, Time};

use crate::routing::GatewayRoutes;
use crate::topo::{FlowSpec, Topology};
use crate::traffic::Transport;

/// Stream tag for random-geometric node placement.
const PLACEMENT_STREAM: u64 = 0x746f_706f; // "topo"
/// Stream tag for traffic-source selection.
const SOURCE_STREAM: u64 = 0x7472_6166; // "traf"

/// Largest payload a flow may carry, bytes: the 802.11 maximum MSDU.
const MAX_MSDU: u64 = 2304;

/// Why a scenario document was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// Not valid JSON at all.
    Parse {
        /// 1-based line of the failure.
        line: usize,
        /// 1-based column of the failure.
        col: usize,
        /// The parser's message.
        message: String,
    },
    /// Valid JSON, but not a valid scenario; `path` names the offending
    /// field (e.g. `flows[2].transport.kind`).
    Field {
        /// Dotted field path into the document.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// The compiled topology failed [`Topology::validate`].
    Spec(crate::builder::SpecError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { line, col, message } => {
                write!(
                    f,
                    "scenario parse error at line {line}, column {col}: {message}"
                )
            }
            ScenarioError::Field { path, message } => {
                write!(f, "scenario error at `{path}`: {message}")
            }
            ScenarioError::Spec(e) => write!(f, "scenario compiles to an invalid network: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<crate::builder::SpecError> for ScenarioError {
    fn from(e: crate::builder::SpecError) -> Self {
        ScenarioError::Spec(e)
    }
}

/// How the node layout is produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Positions given verbatim (meters).
    Explicit {
        /// The node positions.
        positions: Vec<Position>,
    },
    /// A K-hop line, nodes every `spacing` meters (see
    /// [`crate::topo::chain`]).
    Chain {
        /// Number of hops (nodes = hops + 1).
        hops: usize,
        /// Inter-node spacing, meters.
        spacing: f64,
    },
    /// A `rows × cols` lattice (see [`crate::topo::grid`]).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Lattice spacing, meters.
        spacing: f64,
    },
    /// Seeded uniform placement on a `width × height` rectangle, with
    /// `gateways` drain nodes pinned on a deterministic sub-lattice.
    /// Node ids `0..gateways` are the gateways.
    RandomGeometric {
        /// Total node count (gateways included).
        nodes: usize,
        /// Area width, meters.
        width: f64,
        /// Area height, meters.
        height: f64,
        /// Number of gateway nodes.
        gateways: usize,
        /// Placement seed (independent of the run seed).
        seed: u64,
    },
}

/// One weighted entry of a generative traffic mix.
#[derive(Clone, Debug, PartialEq)]
pub struct MixEntry {
    /// Relative weight (flows are assigned round-robin by weight).
    pub weight: u32,
    /// The transport template.
    pub transport: Transport,
}

/// A generative traffic mix: `flows` sources picked deterministically
/// among non-gateway nodes, each routed to its nearest gateway.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficMix {
    /// Number of flows to generate.
    pub flows: usize,
    /// Application rate per flow, bits/s.
    pub rate_bps: u64,
    /// Payload bytes per packet.
    pub payload_bytes: u32,
    /// Generation start.
    pub start: Time,
    /// Generation stop.
    pub stop: Time,
    /// Weighted transport templates, assigned cyclically.
    pub mix: Vec<MixEntry>,
}

/// A directed or symmetric per-link Bernoulli override.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkPer {
    /// Transmitting node (or one end if symmetric).
    pub a: usize,
    /// Receiving node (or the other end).
    pub b: usize,
    /// Loss probability.
    pub per: f64,
    /// Apply in both directions.
    pub symmetric: bool,
}

/// A per-link Gilbert-Elliott override.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkBurst {
    /// Transmitting node (or one end if symmetric).
    pub a: usize,
    /// Receiving node (or the other end).
    pub b: usize,
    /// The burst parameters.
    pub ge: GilbertElliott,
    /// Apply in both directions.
    pub symmetric: bool,
}

/// A per-link deterministic up/down schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkChurn {
    /// Transmitting node (or one end if symmetric).
    pub a: usize,
    /// Receiving node (or the other end).
    pub b: usize,
    /// The schedule.
    pub window: ChurnWindow,
    /// Apply in both directions.
    pub symmetric: bool,
}

/// The loss schedule of a scenario, compiled onto [`LossModel`].
#[derive(Clone, Debug, PartialEq, Default)]
pub struct LossSpec {
    /// Bernoulli loss on every link not overridden.
    pub default_per: f64,
    /// Per-link Bernoulli overrides.
    pub links: Vec<LinkPer>,
    /// Global Gilbert-Elliott overlay.
    pub burst: Option<GilbertElliott>,
    /// Per-link Gilbert-Elliott overrides.
    pub burst_links: Vec<LinkBurst>,
    /// Per-link up/down schedules.
    pub churn: Vec<LinkChurn>,
}

impl LossSpec {
    /// Lowers the schedule onto a [`LossModel`].
    pub fn compile(&self) -> LossModel {
        let mut m = if self.default_per > 0.0 {
            LossModel::uniform(self.default_per)
        } else {
            LossModel::ideal()
        };
        for l in &self.links {
            if l.symmetric {
                m.set_link_symmetric(l.a, l.b, l.per);
            } else {
                m.set_link(l.a, l.b, l.per);
            }
        }
        if let Some(ge) = self.burst {
            m = m.with_burst(ge);
        }
        for l in &self.burst_links {
            if l.symmetric {
                m.set_link_burst_symmetric(l.a, l.b, l.ge);
            } else {
                m.set_link_burst(l.a, l.b, l.ge);
            }
        }
        for l in &self.churn {
            if l.symmetric {
                m.set_link_churn_symmetric(l.a, l.b, l.window);
            } else {
                m.set_link_churn(l.a, l.b, l.window);
            }
        }
        m
    }
}

/// The sweep axes: one spec file expands into the cartesian product.
/// Empty axes default to the spec's own base values (a single point).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SweepSpec {
    /// Interface-queue capacities to sweep.
    pub queue_caps: Vec<usize>,
    /// Run seeds to sweep.
    pub seeds: Vec<u64>,
    /// Controller names (resolved by the harness, e.g. `"802.11"`,
    /// `"EZ-flow"`); the net layer treats them as opaque strings.
    pub controllers: Vec<String>,
}

/// A parsed scenario document.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the base of every sweep-point label).
    pub name: String,
    /// One-line description (shown by `experiments --list`).
    pub description: String,
    /// Nominal run length, seconds.
    pub duration_secs: f64,
    /// Base run seed (swept by `sweep.seeds`).
    pub seed: u64,
    /// Base interface-queue capacity (swept by `sweep.queue_caps`).
    pub queue_cap: usize,
    /// The layout.
    pub topology: TopologySpec,
    /// Explicit flows (mutually exclusive with `traffic`).
    pub flows: Vec<FlowSpec>,
    /// Generative traffic mix (requires a `random_geometric` topology).
    pub traffic: Option<TrafficMix>,
    /// The loss schedule.
    pub loss: LossSpec,
    /// The sweep axes.
    pub sweep: SweepSpec,
}

/// One expanded run of a scenario's sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Unique label, `{name}/{controller}[/qc{cap}][/seed{seed}]` with
    /// path-hostile characters stripped from the controller.
    pub label: String,
    /// Interface-queue capacity of this run.
    pub queue_cap: usize,
    /// Run seed of this run.
    pub seed: u64,
    /// Controller name (opaque to the net layer).
    pub controller: String,
}

/// The result of compiling a [`ScenarioSpec`]: a runnable topology plus
/// the expanded job matrix.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// Scenario name.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The compiled (validated) topology.
    pub topology: Topology,
    /// Nominal run length.
    pub until: Time,
    /// The expanded sweep, in controller-major order.
    pub points: Vec<SweepPoint>,
}

impl ScenarioSpec {
    /// Parses a JSON document into a spec, with line/column diagnostics
    /// for syntax errors and field-path diagnostics for schema errors.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let v = JsonValue::parse(text).map_err(|e: JsonError| {
            let (line, col) = e.line_col(text);
            ScenarioError::Parse {
                line,
                col,
                message: e.message,
            }
        })?;
        ScenarioSpec::from_json(&v)
    }

    /// Builds a spec from an already-parsed JSON value.
    pub fn from_json(v: &JsonValue) -> Result<ScenarioSpec, ScenarioError> {
        let name = req_str(v, "", "name")?;
        let description = opt_str(v, "", "description", "")?;
        let duration_secs = req_f64(v, "", "duration_secs")?;
        if !(duration_secs.is_finite() && duration_secs > 0.0) {
            return Err(field("duration_secs", "must be a positive number"));
        }
        let seed = opt_u64(v, "", "seed", 1)?;
        let queue_cap = narrow("queue_cap", opt_u64(v, "", "queue_cap", 50)?)?;
        let topology = parse_topology(req(v, "", "topology")?)?;
        let duration = secs_to_time("duration_secs", duration_secs)?;

        let mut flows = Vec::new();
        if let Some(fv) = v.get("flows") {
            let arr = fv
                .as_array()
                .ok_or_else(|| field("flows", "must be an array"))?;
            for (i, f) in arr.iter().enumerate() {
                flows.push(parse_flow(f, i)?);
            }
        }
        let traffic = match v.get("traffic") {
            Some(t) => Some(parse_traffic(t)?),
            None => None,
        };
        if !flows.is_empty() && traffic.is_some() {
            return Err(field("traffic", "mutually exclusive with explicit `flows`"));
        }
        let loss = match v.get("loss") {
            Some(l) => parse_loss(l)?,
            None => LossSpec::default(),
        };
        let sweep = match v.get("sweep") {
            Some(s) => parse_sweep(s)?,
            None => SweepSpec::default(),
        };
        let _ = duration; // range-checked above; compile re-derives it
        Ok(ScenarioSpec {
            name,
            description,
            duration_secs,
            seed,
            queue_cap,
            topology,
            flows,
            traffic,
            loss,
            sweep,
        })
    }

    /// The canonical JSON form of the spec. `parse(to_json().to_pretty())`
    /// round-trips to an equal spec (pinned by proptest).
    pub fn to_json(&self) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("name", JsonValue::str(&self.name)),
            ("description", JsonValue::str(&self.description)),
            ("duration_secs", JsonValue::from(self.duration_secs)),
            ("seed", JsonValue::from(self.seed)),
            ("queue_cap", JsonValue::from(self.queue_cap)),
            ("topology", topology_json(&self.topology)),
        ];
        if !self.flows.is_empty() {
            fields.push((
                "flows",
                JsonValue::Array(self.flows.iter().map(flow_json).collect()),
            ));
        }
        if let Some(t) = &self.traffic {
            fields.push(("traffic", traffic_json(t)));
        }
        fields.push(("loss", loss_json(&self.loss)));
        fields.push(("sweep", sweep_json(&self.sweep)));
        JsonValue::obj(fields)
    }

    /// Re-expresses a hand-built [`Topology`] as a spec with explicit
    /// positions and flows — the generator behind `experiments
    /// --emit-spec`, and the bridge that lets every legacy constructor
    /// be pinned byte-identical against its spec file.
    pub fn from_topology(
        topo: &Topology,
        description: &str,
        duration: Time,
        seed: u64,
        controllers: &[&str],
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: topo.name.clone(),
            description: description.to_string(),
            duration_secs: time_to_secs(duration),
            seed,
            queue_cap: 50,
            topology: TopologySpec::Explicit {
                positions: topo.positions.clone(),
            },
            flows: topo.flows.clone(),
            traffic: None,
            loss: loss_spec_of(&topo.loss),
            sweep: SweepSpec {
                queue_caps: Vec::new(),
                seeds: Vec::new(),
                controllers: controllers.iter().map(|c| c.to_string()).collect(),
            },
        }
    }

    /// Compiles the spec: generates the layout and flows, lowers the
    /// loss schedule, validates the result and expands the sweep.
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        let until = secs_to_time("duration_secs", self.duration_secs)?;
        // Zero capacities parse (they are integers) but cannot build.
        if self.queue_cap == 0 {
            return Err(field("queue_cap", "must be nonzero"));
        }
        if let Some(i) = self.sweep.queue_caps.iter().position(|&cap| cap == 0) {
            return Err(field(&format!("sweep.queue_caps[{i}]"), "must be nonzero"));
        }
        if let Some(mix) = &self.traffic {
            at_most::<u32>("traffic.payload_bytes", mix.payload_bytes.into(), MAX_MSDU)?;
        }
        for (i, f) in self.flows.iter().enumerate() {
            let path = format!("flows[{i}].payload_bytes");
            at_most::<u32>(&path, f.payload_bytes.into(), MAX_MSDU)?;
        }
        let positions = self.build_positions()?;
        let flows = self.build_flows(&positions, until)?;
        let topology = Topology {
            name: self.name.clone(),
            positions,
            loss: self.loss.compile(),
            flows,
        };
        crate::builder::NetworkSpec::from_topology(&topology, self.seed).validate()?;
        Ok(CompiledScenario {
            name: self.name.clone(),
            description: self.description.clone(),
            topology,
            until,
            points: self.expand_sweep(),
        })
    }

    fn build_positions(&self) -> Result<Vec<Position>, ScenarioError> {
        match &self.topology {
            TopologySpec::Explicit { positions } => Ok(positions.clone()),
            TopologySpec::Chain { hops, spacing } => {
                if *hops == 0 {
                    return Err(field("topology.hops", "must be at least 1"));
                }
                positive("topology.spacing", *spacing)?;
                Ok(ezflow_phy::geom::line_positions(hops + 1, *spacing))
            }
            TopologySpec::Grid {
                rows,
                cols,
                spacing,
            } => {
                if *rows == 0 || *cols < 2 {
                    return Err(field(
                        "topology",
                        "grid needs rows >= 1 and cols >= 2 (each row carries a flow)",
                    ));
                }
                positive("topology.spacing", *spacing)?;
                let mut positions = Vec::with_capacity(rows * cols);
                for r in 0..*rows {
                    for c in 0..*cols {
                        positions.push(Position::new(c as f64 * spacing, r as f64 * spacing));
                    }
                }
                Ok(positions)
            }
            TopologySpec::RandomGeometric {
                nodes,
                width,
                height,
                gateways,
                seed,
            } => {
                if *gateways == 0 || *gateways >= *nodes {
                    return Err(field(
                        "topology.gateways",
                        "need at least one gateway and at least one non-gateway node",
                    ));
                }
                positive("topology.width", *width)?;
                positive("topology.height", *height)?;
                // Gateways sit on a deterministic sub-lattice (cell
                // centers), spreading the drains across the area; the
                // rest land uniformly from the placement stream.
                let gcols = (*gateways as f64).sqrt().ceil() as usize;
                let grows = gateways.div_ceil(gcols);
                let mut positions = Vec::with_capacity(*nodes);
                for g in 0..*gateways {
                    let (c, r) = (g % gcols, g / gcols);
                    positions.push(Position::new(
                        (c as f64 + 0.5) * width / gcols as f64,
                        (r as f64 + 0.5) * height / grows as f64,
                    ));
                }
                let mut rng = SimRng::with_stream(*seed, PLACEMENT_STREAM);
                for _ in *gateways..*nodes {
                    let x = rng.gen_f64() * width;
                    let y = rng.gen_f64() * height;
                    positions.push(Position::new(x, y));
                }
                Ok(positions)
            }
        }
    }

    fn build_flows(
        &self,
        positions: &[Position],
        until: Time,
    ) -> Result<Vec<FlowSpec>, ScenarioError> {
        if !self.flows.is_empty() {
            return Ok(self.flows.clone());
        }
        if let Some(mix) = &self.traffic {
            return self.build_mix_flows(mix, positions);
        }
        // No explicit flows, no mix: the generative families fall back
        // to their constructors' built-in workloads.
        match &self.topology {
            TopologySpec::Chain { hops, .. } => Ok(vec![FlowSpec::saturating(
                0,
                (0..=*hops).collect(),
                Time::ZERO,
                until,
            )]),
            TopologySpec::Grid { rows, cols, .. } => Ok((0..*rows)
                .map(|r| {
                    let path: Vec<usize> = (0..*cols).map(|c| r * cols + c).collect();
                    FlowSpec::saturating(r as u32, path, Time::ZERO, until)
                })
                .collect()),
            _ => Err(field(
                "flows",
                "explicit topologies need explicit flows (or a traffic mix on random_geometric)",
            )),
        }
    }

    fn build_mix_flows(
        &self,
        mix: &TrafficMix,
        positions: &[Position],
    ) -> Result<Vec<FlowSpec>, ScenarioError> {
        let TopologySpec::RandomGeometric { gateways, seed, .. } = &self.topology else {
            return Err(field(
                "traffic",
                "a traffic mix requires a random_geometric topology (it routes to gateways)",
            ));
        };
        if mix.flows == 0 {
            return Err(field("traffic.flows", "must generate at least one flow"));
        }
        if mix.mix.is_empty() {
            return Err(field("traffic.mix", "needs at least one transport entry"));
        }
        let total_weight: u64 = mix.mix.iter().map(|m| u64::from(m.weight)).sum();
        if total_weight == 0 {
            return Err(field("traffic.mix", "weights must not all be zero"));
        }
        // Decode graph + nearest-gateway trees. The connectivity check:
        // a generated mesh where some node cannot drain is a spec bug,
        // reported with the offending node rather than silently routed
        // around.
        let tx_range = ChannelConfig::default().tx_range;
        let adj = decode_adjacency(positions, tx_range);
        let gw: Vec<usize> = (0..*gateways).collect();
        let routes = GatewayRoutes::compute(&adj, &gw);
        let stranded = routes.unreachable();
        if let Some(&node) = stranded.first() {
            return Err(field(
                "topology",
                &format!(
                    "not connected: node {node} (of {} stranded) cannot reach any gateway — \
                     densify (more nodes / smaller area) or reseed",
                    stranded.len()
                ),
            ));
        }
        // Eligible sources: every non-gateway node, shuffled by the
        // source stream (partial Fisher-Yates), so source choice is a
        // pure function of the topology seed.
        let mut eligible: Vec<usize> = (*gateways..positions.len()).collect();
        if mix.flows > eligible.len() {
            return Err(field(
                "traffic.flows",
                &format!("only {} non-gateway nodes available", eligible.len()),
            ));
        }
        let mut rng = SimRng::with_stream(*seed, SOURCE_STREAM);
        for i in 0..mix.flows {
            let j = i + rng.gen_range((eligible.len() - i) as u32) as usize;
            eligible.swap(i, j);
        }
        let mut flows = Vec::with_capacity(mix.flows);
        for (i, &src) in eligible[..mix.flows].iter().enumerate() {
            let path = routes.path_from(src).expect("checked connected above");
            // Transport kinds cycle by weight: flow i takes the entry
            // whose cumulative weight bucket contains i mod total.
            let mut slot = i as u64 % total_weight;
            let entry = mix
                .mix
                .iter()
                .find(|m| {
                    if slot < u64::from(m.weight) {
                        true
                    } else {
                        slot -= u64::from(m.weight);
                        false
                    }
                })
                .expect("total weight covers every slot");
            flows.push(FlowSpec {
                id: i as u32,
                path,
                rate_bps: mix.rate_bps,
                payload_bytes: mix.payload_bytes,
                start: mix.start,
                stop: mix.stop,
                transport: entry.transport,
            });
        }
        Ok(flows)
    }

    fn expand_sweep(&self) -> Vec<SweepPoint> {
        let caps = if self.sweep.queue_caps.is_empty() {
            vec![self.queue_cap]
        } else {
            self.sweep.queue_caps.clone()
        };
        let seeds = if self.sweep.seeds.is_empty() {
            vec![self.seed]
        } else {
            self.sweep.seeds.clone()
        };
        let controllers = if self.sweep.controllers.is_empty() {
            vec!["802.11".to_string()]
        } else {
            self.sweep.controllers.clone()
        };
        let mut points = Vec::with_capacity(controllers.len() * caps.len() * seeds.len());
        for c in &controllers {
            for &cap in &caps {
                for &seed in &seeds {
                    let mut label = format!("{}/{}", self.name, slug(c));
                    if caps.len() > 1 {
                        label.push_str(&format!("/qc{cap}"));
                    }
                    if seeds.len() > 1 {
                        label.push_str(&format!("/seed{seed}"));
                    }
                    points.push(SweepPoint {
                        label,
                        queue_cap: cap,
                        seed,
                        controller: c.clone(),
                    });
                }
            }
        }
        points
    }
}

/// The decode-graph adjacency of a layout (symmetric by construction).
pub fn decode_adjacency(positions: &[Position], tx_range: f64) -> Vec<Vec<usize>> {
    let n = positions.len();
    let range_sq = tx_range * tx_range;
    let mut adj = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            if positions[a].distance_sq(&positions[b]) <= range_sq {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
    }
    adj
}

/// File-label slug of a controller name (same scrub the bench layer
/// applies to algorithm names).
fn slug(name: &str) -> String {
    name.replace(['.', ' ', '(', ')'], "")
}

// ---- parse helpers -------------------------------------------------------

fn field(path: &str, message: &str) -> ScenarioError {
    ScenarioError::Field {
        path: path.to_string(),
        message: message.to_string(),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn req<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a JsonValue, ScenarioError> {
    v.get(key)
        .ok_or_else(|| field(&join(path, key), "missing required field"))
}

fn req_str(v: &JsonValue, path: &str, key: &str) -> Result<String, ScenarioError> {
    req(v, path, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| field(&join(path, key), "must be a string"))
}

fn opt_str(v: &JsonValue, path: &str, key: &str, default: &str) -> Result<String, ScenarioError> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(s) => s
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| field(&join(path, key), "must be a string")),
    }
}

fn req_f64(v: &JsonValue, path: &str, key: &str) -> Result<f64, ScenarioError> {
    req(v, path, key)?
        .as_f64()
        .ok_or_else(|| field(&join(path, key), "must be a number"))
}

fn req_u64(v: &JsonValue, path: &str, key: &str) -> Result<u64, ScenarioError> {
    req(v, path, key)?
        .as_u64()
        .ok_or_else(|| field(&join(path, key), "must be a non-negative integer"))
}

fn opt_u64(v: &JsonValue, path: &str, key: &str, default: u64) -> Result<u64, ScenarioError> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| field(&join(path, key), "must be a non-negative integer")),
    }
}

/// Narrows a parsed integer to the width its field is stored in. Every
/// narrowing goes through here, so an out-of-range value is a pointed
/// error instead of a silent wrap. Counts and node ids are held to the
/// `u32` range as well: flow ids are `u32`, and no network with more
/// nodes than that can be built.
fn narrow<T: TryFrom<u64>>(path: &str, n: u64) -> Result<T, ScenarioError> {
    at_most(path, n, u64::from(u32::MAX))
}

/// `n` narrowed to `T` if it is at most `max`, else a field error that
/// states the bound.
fn at_most<T: TryFrom<u64>>(path: &str, n: u64, max: u64) -> Result<T, ScenarioError> {
    T::try_from(n)
        .ok()
        .filter(|_| n <= max)
        .ok_or_else(|| field(path, &format!("must be at most {max}")))
}

/// A length in meters that must be a positive, finite number.
fn positive(path: &str, meters: f64) -> Result<(), ScenarioError> {
    if meters.is_finite() && meters > 0.0 {
        Ok(())
    } else {
        Err(field(path, "must be a positive number of meters"))
    }
}

fn opt_f64(v: &JsonValue, path: &str, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_f64()
            .ok_or_else(|| field(&join(path, key), "must be a number")),
    }
}

fn opt_bool(v: &JsonValue, path: &str, key: &str, default: bool) -> Result<bool, ScenarioError> {
    match v.get(key) {
        None => Ok(default),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| field(&join(path, key), "must be a boolean")),
    }
}

/// Seconds (possibly fractional) to a microsecond [`Time`]. Exact for
/// any whole-microsecond duration below ~2·10⁹ s: the f64 relative
/// error stays under half a microsecond, and the round recovers it.
fn secs_to_time(path: &str, secs: f64) -> Result<Time, ScenarioError> {
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(field(path, "must be a non-negative number of seconds"));
    }
    Ok(Time::from_micros((secs * 1e6).round() as u64))
}

fn secs_to_duration(path: &str, secs: f64) -> Result<Duration, ScenarioError> {
    Ok(Duration::from_micros(secs_to_time(path, secs)?.as_micros()))
}

fn time_to_secs(t: Time) -> f64 {
    t.as_micros() as f64 / 1e6
}

fn duration_to_secs(d: Duration) -> f64 {
    d.as_micros() as f64 / 1e6
}

fn parse_topology(v: &JsonValue) -> Result<TopologySpec, ScenarioError> {
    let p = "topology";
    let kind = req_str(v, p, "kind")?;
    match kind.as_str() {
        "explicit" => {
            let arr = req(v, p, "positions")?
                .as_array()
                .ok_or_else(|| field("topology.positions", "must be an array of [x, y] pairs"))?;
            let mut positions = Vec::with_capacity(arr.len());
            for (i, pv) in arr.iter().enumerate() {
                let pair = pv.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    field(
                        &format!("topology.positions[{i}]"),
                        "must be an [x, y] pair",
                    )
                })?;
                let x = pair[0].as_f64().ok_or_else(|| {
                    field(&format!("topology.positions[{i}][0]"), "must be a number")
                })?;
                let y = pair[1].as_f64().ok_or_else(|| {
                    field(&format!("topology.positions[{i}][1]"), "must be a number")
                })?;
                positions.push(Position::new(x, y));
            }
            Ok(TopologySpec::Explicit { positions })
        }
        "chain" => Ok(TopologySpec::Chain {
            hops: narrow("topology.hops", req_u64(v, p, "hops")?)?,
            spacing: opt_f64(v, p, "spacing", crate::topo::SPACING)?,
        }),
        "grid" => Ok(TopologySpec::Grid {
            rows: narrow("topology.rows", req_u64(v, p, "rows")?)?,
            cols: narrow("topology.cols", req_u64(v, p, "cols")?)?,
            spacing: req_f64(v, p, "spacing")?,
        }),
        "random_geometric" => Ok(TopologySpec::RandomGeometric {
            nodes: narrow("topology.nodes", req_u64(v, p, "nodes")?)?,
            width: req_f64(v, p, "width")?,
            height: req_f64(v, p, "height")?,
            gateways: narrow("topology.gateways", req_u64(v, p, "gateways")?)?,
            seed: req_u64(v, p, "seed")?,
        }),
        other => Err(field(
            "topology.kind",
            &format!(
                "unknown kind '{other}' (expected explicit | chain | grid | random_geometric)"
            ),
        )),
    }
}

fn parse_transport(v: &JsonValue, path: &str) -> Result<Transport, ScenarioError> {
    let kind = req_str(v, path, "kind")?;
    match kind.as_str() {
        "cbr" => Ok(Transport::Cbr),
        "windowed" => Ok(Transport::Windowed {
            window: narrow(&join(path, "window"), req_u64(v, path, "window")?)?,
            ack_payload: narrow(
                &join(path, "ack_payload"),
                opt_u64(v, path, "ack_payload", 40)?,
            )?,
        }),
        "onoff" => Ok(Transport::OnOff {
            mean_on: secs_to_duration(
                &join(path, "mean_on_secs"),
                req_f64(v, path, "mean_on_secs")?,
            )?,
            mean_off: secs_to_duration(
                &join(path, "mean_off_secs"),
                req_f64(v, path, "mean_off_secs")?,
            )?,
            alpha: req_f64(v, path, "alpha")?,
        }),
        other => Err(field(
            &join(path, "kind"),
            &format!("unknown transport '{other}' (expected cbr | windowed | onoff)"),
        )),
    }
}

fn parse_flow(v: &JsonValue, i: usize) -> Result<FlowSpec, ScenarioError> {
    let p = format!("flows[{i}]");
    let path_arr = req(v, &p, "path")?
        .as_array()
        .ok_or_else(|| field(&join(&p, "path"), "must be an array of node ids"))?;
    let mut path = Vec::with_capacity(path_arr.len());
    for (j, nv) in path_arr.iter().enumerate() {
        let jp = format!("{p}.path[{j}]");
        let node = nv
            .as_u64()
            .ok_or_else(|| field(&jp, "must be a non-negative integer"))?;
        path.push(narrow(&jp, node)?);
    }
    let transport = match v.get("transport") {
        None => Transport::Cbr,
        Some(t) => parse_transport(t, &join(&p, "transport"))?,
    };
    Ok(FlowSpec {
        id: i as u32,
        path,
        rate_bps: opt_u64(v, &p, "rate_bps", 2_000_000)?,
        payload_bytes: narrow(
            &join(&p, "payload_bytes"),
            opt_u64(v, &p, "payload_bytes", 1000)?,
        )?,
        start: secs_to_time(&join(&p, "start_secs"), req_f64(v, &p, "start_secs")?)?,
        stop: secs_to_time(&join(&p, "stop_secs"), req_f64(v, &p, "stop_secs")?)?,
        transport,
    })
}

fn parse_traffic(v: &JsonValue) -> Result<TrafficMix, ScenarioError> {
    let p = "traffic";
    let mix_arr = req(v, p, "mix")?
        .as_array()
        .ok_or_else(|| field("traffic.mix", "must be an array"))?;
    let mut mix = Vec::with_capacity(mix_arr.len());
    for (i, m) in mix_arr.iter().enumerate() {
        let mp = format!("traffic.mix[{i}]");
        mix.push(MixEntry {
            weight: narrow(&join(&mp, "weight"), opt_u64(m, &mp, "weight", 1)?)?,
            transport: parse_transport(req(m, &mp, "transport")?, &join(&mp, "transport"))?,
        });
    }
    Ok(TrafficMix {
        flows: narrow("traffic.flows", req_u64(v, p, "flows")?)?,
        rate_bps: req_u64(v, p, "rate_bps")?,
        payload_bytes: narrow(
            "traffic.payload_bytes",
            opt_u64(v, p, "payload_bytes", 1000)?,
        )?,
        start: secs_to_time("traffic.start_secs", req_f64(v, p, "start_secs")?)?,
        stop: secs_to_time("traffic.stop_secs", req_f64(v, p, "stop_secs")?)?,
        mix,
    })
}

fn parse_ge(v: &JsonValue, path: &str) -> Result<GilbertElliott, ScenarioError> {
    Ok(GilbertElliott {
        p_g2b: req_f64(v, path, "p_g2b")?,
        p_b2g: req_f64(v, path, "p_b2g")?,
        p_good: opt_f64(v, path, "p_good", 0.0)?,
        p_bad: req_f64(v, path, "p_bad")?,
    })
}

fn parse_loss(v: &JsonValue) -> Result<LossSpec, ScenarioError> {
    let kind = req_str(v, "loss", "kind")?;
    match kind.as_str() {
        "ideal" => Ok(LossSpec::default()),
        "uniform" => {
            let per = req_f64(v, "loss", "per")?;
            if !(0.0..=1.0).contains(&per) {
                return Err(field("loss.per", "must be a probability in [0, 1]"));
            }
            Ok(LossSpec {
                default_per: per,
                ..LossSpec::default()
            })
        }
        "custom" => {
            let default_per = opt_f64(v, "loss", "default_per", 0.0)?;
            if !(0.0..=1.0).contains(&default_per) {
                return Err(field("loss.default_per", "must be a probability in [0, 1]"));
            }
            let mut links = Vec::new();
            if let Some(ls) = v.get("links") {
                let arr = ls
                    .as_array()
                    .ok_or_else(|| field("loss.links", "must be an array"))?;
                for (i, l) in arr.iter().enumerate() {
                    let lp = format!("loss.links[{i}]");
                    let per = req_f64(l, &lp, "per")?;
                    if !(0.0..=1.0).contains(&per) {
                        return Err(field(&join(&lp, "per"), "must be a probability in [0, 1]"));
                    }
                    links.push(LinkPer {
                        a: narrow(&join(&lp, "a"), req_u64(l, &lp, "a")?)?,
                        b: narrow(&join(&lp, "b"), req_u64(l, &lp, "b")?)?,
                        per,
                        symmetric: opt_bool(l, &lp, "symmetric", true)?,
                    });
                }
            }
            let burst = match v.get("burst") {
                None => None,
                Some(b) => Some(parse_ge(b, "loss.burst")?),
            };
            let mut burst_links = Vec::new();
            if let Some(ls) = v.get("burst_links") {
                let arr = ls
                    .as_array()
                    .ok_or_else(|| field("loss.burst_links", "must be an array"))?;
                for (i, l) in arr.iter().enumerate() {
                    let lp = format!("loss.burst_links[{i}]");
                    burst_links.push(LinkBurst {
                        a: narrow(&join(&lp, "a"), req_u64(l, &lp, "a")?)?,
                        b: narrow(&join(&lp, "b"), req_u64(l, &lp, "b")?)?,
                        ge: parse_ge(l, &lp)?,
                        symmetric: opt_bool(l, &lp, "symmetric", true)?,
                    });
                }
            }
            let mut churn = Vec::new();
            if let Some(ls) = v.get("churn") {
                let arr = ls
                    .as_array()
                    .ok_or_else(|| field("loss.churn", "must be an array"))?;
                for (i, l) in arr.iter().enumerate() {
                    let lp = format!("loss.churn[{i}]");
                    let up = secs_to_duration(&join(&lp, "up_secs"), req_f64(l, &lp, "up_secs")?)?;
                    let down =
                        secs_to_duration(&join(&lp, "down_secs"), req_f64(l, &lp, "down_secs")?)?;
                    if up.as_micros() + down.as_micros() == 0 {
                        return Err(field(&lp, "churn cycle must be nonzero"));
                    }
                    let phase = secs_to_duration(
                        &join(&lp, "phase_secs"),
                        opt_f64(l, &lp, "phase_secs", 0.0)?,
                    )?;
                    churn.push(LinkChurn {
                        a: narrow(&join(&lp, "a"), req_u64(l, &lp, "a")?)?,
                        b: narrow(&join(&lp, "b"), req_u64(l, &lp, "b")?)?,
                        window: ChurnWindow::new(up, down, phase),
                        symmetric: opt_bool(l, &lp, "symmetric", true)?,
                    });
                }
            }
            Ok(LossSpec {
                default_per,
                links,
                burst,
                burst_links,
                churn,
            })
        }
        other => Err(field(
            "loss.kind",
            &format!("unknown kind '{other}' (expected ideal | uniform | custom)"),
        )),
    }
}

fn parse_sweep(v: &JsonValue) -> Result<SweepSpec, ScenarioError> {
    let mut sweep = SweepSpec::default();
    if let Some(qs) = v.get("queue_caps") {
        let arr = qs
            .as_array()
            .ok_or_else(|| field("sweep.queue_caps", "must be an array of integers"))?;
        for (i, q) in arr.iter().enumerate() {
            let qp = format!("sweep.queue_caps[{i}]");
            let cap = q
                .as_u64()
                .ok_or_else(|| field(&qp, "must be a positive integer"))?;
            sweep.queue_caps.push(narrow(&qp, cap)?);
        }
    }
    if let Some(ss) = v.get("seeds") {
        let arr = ss
            .as_array()
            .ok_or_else(|| field("sweep.seeds", "must be an array of integers"))?;
        for (i, s) in arr.iter().enumerate() {
            sweep.seeds.push(s.as_u64().ok_or_else(|| {
                field(
                    &format!("sweep.seeds[{i}]"),
                    "must be a non-negative integer",
                )
            })?);
        }
    }
    if let Some(cs) = v.get("controllers") {
        let arr = cs
            .as_array()
            .ok_or_else(|| field("sweep.controllers", "must be an array of strings"))?;
        for (i, c) in arr.iter().enumerate() {
            sweep.controllers.push(
                c.as_str()
                    .ok_or_else(|| field(&format!("sweep.controllers[{i}]"), "must be a string"))?
                    .to_string(),
            );
        }
    }
    Ok(sweep)
}

// ---- serialisation helpers ----------------------------------------------

fn topology_json(t: &TopologySpec) -> JsonValue {
    match t {
        TopologySpec::Explicit { positions } => JsonValue::obj(vec![
            ("kind", JsonValue::str("explicit")),
            (
                "positions",
                JsonValue::Array(
                    positions
                        .iter()
                        .map(|p| JsonValue::Array(vec![JsonValue::from(p.x), JsonValue::from(p.y)]))
                        .collect(),
                ),
            ),
        ]),
        TopologySpec::Chain { hops, spacing } => JsonValue::obj(vec![
            ("kind", JsonValue::str("chain")),
            ("hops", JsonValue::from(*hops)),
            ("spacing", JsonValue::from(*spacing)),
        ]),
        TopologySpec::Grid {
            rows,
            cols,
            spacing,
        } => JsonValue::obj(vec![
            ("kind", JsonValue::str("grid")),
            ("rows", JsonValue::from(*rows)),
            ("cols", JsonValue::from(*cols)),
            ("spacing", JsonValue::from(*spacing)),
        ]),
        TopologySpec::RandomGeometric {
            nodes,
            width,
            height,
            gateways,
            seed,
        } => JsonValue::obj(vec![
            ("kind", JsonValue::str("random_geometric")),
            ("nodes", JsonValue::from(*nodes)),
            ("width", JsonValue::from(*width)),
            ("height", JsonValue::from(*height)),
            ("gateways", JsonValue::from(*gateways)),
            ("seed", JsonValue::from(*seed)),
        ]),
    }
}

fn transport_json(t: &Transport) -> JsonValue {
    match t {
        Transport::Cbr => JsonValue::obj(vec![("kind", JsonValue::str("cbr"))]),
        Transport::Windowed {
            window,
            ack_payload,
        } => JsonValue::obj(vec![
            ("kind", JsonValue::str("windowed")),
            ("window", JsonValue::from(*window)),
            ("ack_payload", JsonValue::from(*ack_payload)),
        ]),
        Transport::OnOff {
            mean_on,
            mean_off,
            alpha,
        } => JsonValue::obj(vec![
            ("kind", JsonValue::str("onoff")),
            ("mean_on_secs", JsonValue::from(duration_to_secs(*mean_on))),
            (
                "mean_off_secs",
                JsonValue::from(duration_to_secs(*mean_off)),
            ),
            ("alpha", JsonValue::from(*alpha)),
        ]),
    }
}

fn flow_json(f: &FlowSpec) -> JsonValue {
    JsonValue::obj(vec![
        (
            "path",
            JsonValue::Array(f.path.iter().map(|&n| JsonValue::from(n)).collect()),
        ),
        ("rate_bps", JsonValue::from(f.rate_bps)),
        ("payload_bytes", JsonValue::from(f.payload_bytes)),
        ("start_secs", JsonValue::from(time_to_secs(f.start))),
        ("stop_secs", JsonValue::from(time_to_secs(f.stop))),
        ("transport", transport_json(&f.transport)),
    ])
}

fn traffic_json(t: &TrafficMix) -> JsonValue {
    JsonValue::obj(vec![
        ("flows", JsonValue::from(t.flows)),
        ("rate_bps", JsonValue::from(t.rate_bps)),
        ("payload_bytes", JsonValue::from(t.payload_bytes)),
        ("start_secs", JsonValue::from(time_to_secs(t.start))),
        ("stop_secs", JsonValue::from(time_to_secs(t.stop))),
        (
            "mix",
            JsonValue::Array(
                t.mix
                    .iter()
                    .map(|m| {
                        JsonValue::obj(vec![
                            ("weight", JsonValue::from(m.weight)),
                            ("transport", transport_json(&m.transport)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn ge_fields(ge: &GilbertElliott) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("p_g2b", JsonValue::from(ge.p_g2b)),
        ("p_b2g", JsonValue::from(ge.p_b2g)),
        ("p_good", JsonValue::from(ge.p_good)),
        ("p_bad", JsonValue::from(ge.p_bad)),
    ]
}

fn loss_json(l: &LossSpec) -> JsonValue {
    let custom = !l.links.is_empty()
        || l.burst.is_some()
        || !l.burst_links.is_empty()
        || !l.churn.is_empty();
    if !custom {
        if l.default_per == 0.0 {
            return JsonValue::obj(vec![("kind", JsonValue::str("ideal"))]);
        }
        return JsonValue::obj(vec![
            ("kind", JsonValue::str("uniform")),
            ("per", JsonValue::from(l.default_per)),
        ]);
    }
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("kind", JsonValue::str("custom")),
        ("default_per", JsonValue::from(l.default_per)),
    ];
    if !l.links.is_empty() {
        fields.push((
            "links",
            JsonValue::Array(
                l.links
                    .iter()
                    .map(|lp| {
                        JsonValue::obj(vec![
                            ("a", JsonValue::from(lp.a)),
                            ("b", JsonValue::from(lp.b)),
                            ("per", JsonValue::from(lp.per)),
                            ("symmetric", JsonValue::from(lp.symmetric)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(ge) = &l.burst {
        fields.push(("burst", JsonValue::obj(ge_fields(ge))));
    }
    if !l.burst_links.is_empty() {
        fields.push((
            "burst_links",
            JsonValue::Array(
                l.burst_links
                    .iter()
                    .map(|lb| {
                        let mut f =
                            vec![("a", JsonValue::from(lb.a)), ("b", JsonValue::from(lb.b))];
                        f.extend(ge_fields(&lb.ge));
                        f.push(("symmetric", JsonValue::from(lb.symmetric)));
                        JsonValue::obj(f)
                    })
                    .collect(),
            ),
        ));
    }
    if !l.churn.is_empty() {
        fields.push((
            "churn",
            JsonValue::Array(
                l.churn
                    .iter()
                    .map(|lc| {
                        JsonValue::obj(vec![
                            ("a", JsonValue::from(lc.a)),
                            ("b", JsonValue::from(lc.b)),
                            ("up_secs", JsonValue::from(duration_to_secs(lc.window.up))),
                            (
                                "down_secs",
                                JsonValue::from(duration_to_secs(lc.window.down)),
                            ),
                            (
                                "phase_secs",
                                JsonValue::from(duration_to_secs(lc.window.phase)),
                            ),
                            ("symmetric", JsonValue::from(lc.symmetric)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    JsonValue::obj(fields)
}

fn sweep_json(s: &SweepSpec) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = Vec::new();
    if !s.queue_caps.is_empty() {
        fields.push((
            "queue_caps",
            JsonValue::Array(s.queue_caps.iter().map(|&q| JsonValue::from(q)).collect()),
        ));
    }
    if !s.seeds.is_empty() {
        fields.push((
            "seeds",
            JsonValue::Array(s.seeds.iter().map(|&q| JsonValue::from(q)).collect()),
        ));
    }
    if !s.controllers.is_empty() {
        fields.push((
            "controllers",
            JsonValue::Array(s.controllers.iter().map(JsonValue::str).collect()),
        ));
    }
    JsonValue::obj(fields)
}

/// Reconstructs a [`LossSpec`] from a compiled [`LossModel`] (directed
/// entries, sorted) — the inverse `--emit-spec` needs.
fn loss_spec_of(m: &LossModel) -> LossSpec {
    let mut links: Vec<LinkPer> = m
        .per_link
        .iter()
        .map(|(&(a, b), &per)| LinkPer {
            a,
            b,
            per,
            symmetric: false,
        })
        .collect();
    links.sort_by_key(|l| (l.a, l.b));
    let mut burst_links: Vec<LinkBurst> = m
        .burst_link
        .iter()
        .map(|(&(a, b), &ge)| LinkBurst {
            a,
            b,
            ge,
            symmetric: false,
        })
        .collect();
    burst_links.sort_by_key(|l| (l.a, l.b));
    let mut churn: Vec<LinkChurn> = m
        .churn
        .iter()
        .map(|(&(a, b), &window)| LinkChurn {
            a,
            b,
            window,
            symmetric: false,
        })
        .collect();
    churn.sort_by_key(|l| (l.a, l.b));
    LossSpec {
        default_per: m.default_per,
        links,
        burst: m.burst,
        burst_links,
        churn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(topology: &str) -> String {
        format!(
            r#"{{"name": "t", "duration_secs": 10, "topology": {topology},
                "flows": [{{"path": [0, 1], "start_secs": 0, "stop_secs": 10}}]}}"#
        )
    }

    #[test]
    fn parses_a_minimal_chain_spec() {
        let text = r#"{"name": "c3", "duration_secs": 30,
                       "topology": {"kind": "chain", "hops": 3}}"#;
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.name, "c3");
        assert_eq!(spec.queue_cap, 50, "defaults applied");
        assert_eq!(spec.seed, 1);
        let c = spec.compile().unwrap();
        assert_eq!(c.topology.positions.len(), 4);
        assert_eq!(c.topology.flows.len(), 1, "chain gets its built-in flow");
        assert_eq!(c.topology.flows[0].path, vec![0, 1, 2, 3]);
        assert_eq!(c.until, Time::from_secs(30));
        assert_eq!(c.points.len(), 1);
        assert_eq!(c.points[0].label, "c3/80211");
        assert_eq!(c.points[0].controller, "802.11");
    }

    #[test]
    fn chain_spec_matches_constructor() {
        let spec = ScenarioSpec::parse(&minimal(r#"{"kind": "chain", "hops": 4, "spacing": 200}"#))
            .unwrap();
        let c = spec.compile().unwrap();
        let hand = crate::topo::chain(4, Time::ZERO, Time::from_secs(10));
        assert_eq!(c.topology.positions, hand.positions);
    }

    #[test]
    fn grid_spec_matches_constructor() {
        let text = r#"{"name": "g", "duration_secs": 60,
                       "topology": {"kind": "grid", "rows": 4, "cols": 4, "spacing": 140}}"#;
        let c = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        let hand = crate::topo::grid(4, 4, 140.0, Time::ZERO, Time::from_secs(60));
        assert_eq!(c.topology.positions, hand.positions);
        assert_eq!(c.topology.flows.len(), hand.flows.len());
        for (a, b) in c.topology.flows.iter().zip(hand.flows.iter()) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.start, b.start);
            assert_eq!(a.stop, b.stop);
        }
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        let text = "{\n  \"name\": \"x\",\n  \"duration_secs\": @\n}";
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Parse { line, col, .. } => {
                assert_eq!(line, 3);
                assert_eq!(col, 20);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn schema_errors_carry_field_paths() {
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 10,
                                  "transport": {"kind": "warp"}}]}"#;
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "flows[0].transport.kind");
                assert!(message.contains("warp"), "{message}");
            }
            other => panic!("expected field error, got {other:?}"),
        }
        let text = r#"{"name": "x", "topology": {"kind": "chain", "hops": 2}}"#;
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Field { path, .. } => assert_eq!(path, "duration_secs"),
            other => panic!("expected field error, got {other:?}"),
        }
    }

    #[test]
    fn compile_validates_the_result() {
        // Hop 0 -> 5 does not exist in a 2-hop chain.
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "flows": [{"path": [0, 5], "start_secs": 0, "stop_secs": 10}]}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Spec(e) => {
                assert!(e.to_string().contains("out of bounds"), "{e}");
            }
            other => panic!("expected spec error, got {other:?}"),
        }
    }

    #[test]
    fn random_geometric_is_deterministic_and_connected() {
        let text = r#"{"name": "rg", "duration_secs": 10,
                       "topology": {"kind": "random_geometric", "nodes": 60,
                                    "width": 900, "height": 900, "gateways": 2, "seed": 9},
                       "traffic": {"flows": 8, "rate_bps": 200000,
                                   "start_secs": 0, "stop_secs": 10,
                                   "mix": [{"weight": 2, "transport": {"kind": "cbr"}},
                                           {"weight": 1, "transport": {"kind": "onoff",
                                             "mean_on_secs": 1, "mean_off_secs": 1,
                                             "alpha": 1.5}}]}}"#;
        let a = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        let b = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        assert_eq!(a.topology.positions, b.topology.positions);
        assert_eq!(a.topology.flows.len(), 8);
        for (fa, fb) in a.topology.flows.iter().zip(b.topology.flows.iter()) {
            assert_eq!(fa.path, fb.path, "same seed ⇒ identical routes");
            assert_eq!(fa.transport, fb.transport);
        }
        // The 2:1 mix assigns kinds cyclically: flows 0,1 CBR, 2 on-off.
        assert_eq!(a.topology.flows[0].transport, Transport::Cbr);
        assert_eq!(a.topology.flows[1].transport, Transport::Cbr);
        assert!(matches!(
            a.topology.flows[2].transport,
            Transport::OnOff { .. }
        ));
        // Every generated path ends at a gateway.
        for f in &a.topology.flows {
            assert!(*f.path.last().unwrap() < 2);
        }
        // Weights up to the u32 limit sum without overflow; past it they
        // are a field error, not a wrap.
        let max = u32::MAX.to_string();
        let huge = text
            .replace("\"weight\": 2", &format!("\"weight\": {max}"))
            .replace("\"weight\": 1", &format!("\"weight\": {max}"));
        let c = ScenarioSpec::parse(&huge).unwrap().compile().unwrap();
        assert_eq!(c.topology.flows[7].transport, Transport::Cbr);
        let wrapped = text.replace("\"weight\": 2", "\"weight\": 4294967296");
        match ScenarioSpec::parse(&wrapped).unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "traffic.mix[0].weight");
                assert!(message.contains("at most 4294967295"), "{message}");
            }
            other => panic!("expected field error, got {other:?}"),
        }
    }

    #[test]
    fn sweep_expands_the_cartesian_product() {
        let text = r#"{"name": "s", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "sweep": {"queue_caps": [25, 50], "seeds": [1, 2, 3],
                                 "controllers": ["802.11", "EZ-flow"]}}"#;
        let c = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        assert_eq!(c.points.len(), 12);
        assert_eq!(c.points[0].label, "s/80211/qc25/seed1");
        assert_eq!(c.points[11].label, "s/EZ-flow/qc50/seed3");
        let uniq: std::collections::BTreeSet<&str> =
            c.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(uniq.len(), 12, "labels are unique");
    }

    #[test]
    fn loss_schedule_round_trips_and_compiles() {
        let text = r#"{"name": "l", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 3},
                       "loss": {"kind": "custom", "default_per": 0.01,
                                "links": [{"a": 0, "b": 1, "per": 0.3}],
                                "burst": {"p_g2b": 0.02, "p_b2g": 0.1, "p_bad": 0.8},
                                "burst_links": [{"a": 1, "b": 2, "p_g2b": 0.05,
                                                 "p_b2g": 0.2, "p_bad": 0.9,
                                                 "symmetric": false}],
                                "churn": [{"a": 2, "b": 3, "up_secs": 5, "down_secs": 1}]}}"#;
        let spec = ScenarioSpec::parse(text).unwrap();
        let round = ScenarioSpec::parse(&spec.to_json().to_pretty()).unwrap();
        assert_eq!(spec, round);
        let m = spec.loss.compile();
        assert_eq!(m.loss_prob(0, 1), 0.3);
        assert_eq!(m.loss_prob(1, 0), 0.3, "symmetric by default");
        assert_eq!(m.loss_prob(1, 2), 0.01, "default per elsewhere");
        assert!(m.burst.is_some());
        assert_eq!(m.burst_link.len(), 1, "directed burst override");
        assert_eq!(m.churn.len(), 2, "symmetric churn covers both directions");
    }

    #[test]
    fn emitted_spec_round_trips_scenario1_exactly() {
        let hand = crate::topo::scenario1();
        let spec = ScenarioSpec::from_topology(
            &hand,
            "Fig. 5",
            crate::topo::scenario1_end(),
            1,
            &["802.11", "EZ-flow"],
        );
        let text = spec.to_json().to_pretty();
        let c = ScenarioSpec::parse(&text).unwrap().compile().unwrap();
        // Bit-exact positions (shortest-repr f64 round trip) and flows.
        assert_eq!(c.topology.positions, hand.positions);
        assert_eq!(c.topology.flows.len(), hand.flows.len());
        for (a, b) in c.topology.flows.iter().zip(hand.flows.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.path, b.path);
            assert_eq!(a.rate_bps, b.rate_bps);
            assert_eq!(a.payload_bytes, b.payload_bytes);
            assert_eq!(a.start, b.start);
            assert_eq!(a.stop, b.stop);
            assert_eq!(a.transport, b.transport);
        }
        assert_eq!(c.topology.loss, hand.loss);
    }

    #[test]
    fn traffic_mix_rejects_unroutable_topologies() {
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "traffic": {"flows": 1, "rate_bps": 100000,
                                   "start_secs": 0, "stop_secs": 10,
                                   "mix": [{"transport": {"kind": "cbr"}}]}}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "traffic");
                assert!(message.contains("random_geometric"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sparse_random_geometric_reports_stranded_nodes() {
        // 5 nodes scattered over 100 km cannot possibly connect.
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "random_geometric", "nodes": 5,
                                    "width": 100000, "height": 100000,
                                    "gateways": 1, "seed": 1},
                       "traffic": {"flows": 1, "rate_bps": 100000,
                                   "start_secs": 0, "stop_secs": 10,
                                   "mix": [{"transport": {"kind": "cbr"}}]}}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "topology");
                assert!(message.contains("cannot reach any gateway"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }
}
