//! The pinned workloads and the one pipeline every measurement runs:
//! spec text → `ScenarioSpec::parse` → `compile` → `Network::new` →
//! `run_until` in equal simulated slices → `snapshot_json` →
//! `to_compact` → probe exports. Only public simulator calls are used;
//! the spans here wrap those calls from the outside.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ezflow_bench::experiments::{spec::summarize, Algo};
use ezflow_net::scenario::TopologySpec;
use ezflow_net::{Network, NetworkSpec, PerfSnapshot, RunSnapshot, ScenarioSpec, Topology};
use ezflow_phy::Channel;
use ezflow_sim::{Duration, JsonValue, Time};

use crate::speed::HostSpeed;
use crate::stats::{fnv1a64, median};

/// One pinned workload: a committed scenario document, the controller
/// its sweep point is picked by, whether the observability probes are
/// armed, and the simulated slice `run_until` advances by.
pub struct Workload {
    pub name: &'static str,
    /// Scenario document, relative to the repository root.
    pub spec_file: &'static str,
    pub controller: &'static str,
    pub probes: bool,
    pub slice: Duration,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "scenario1-ezflow",
        spec_file: "scenarios/scenario1.json",
        controller: "EZ-flow",
        probes: false,
        slice: Duration::from_secs(1),
    },
    Workload {
        name: "mesh1k-80211",
        spec_file: "scenarios/mesh1k.json",
        controller: "802.11",
        probes: false,
        slice: Duration::from_millis(10),
    },
    Workload {
        name: "scenario2-probed",
        spec_file: "scenarios/scenario2.json",
        controller: "EZ-flow",
        probes: true,
        slice: Duration::from_secs(1),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seeds a workload is generated from. `topo` replaces the
/// placement seed of a `random_geometric` topology (mesh1k); `None`
/// keeps the document's own, so run seeds vary the run, not the layout.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub master: u64,
    pub topo: Option<u64>,
}

/// What one pipeline run arms.
#[derive(Clone, Copy, Debug)]
pub struct Arms {
    /// Telemetry bus, audit ledger and flight recorder.
    pub probes: bool,
    /// The engine's self-profiler (`NetworkSpec::profile`).
    pub profile: bool,
}

/// Telemetry sampling interval when the probes are armed (the
/// experiments harness default).
const TELEMETRY_EVERY: Duration = Duration::from_millis(100);
/// Flight-recorder journeys kept when the probes are armed (the
/// experiments harness default).
const FLIGHT_CAP: usize = 4096;

/// A JSONL sink for the telemetry bus and the audit export: every
/// record is rendered, counted and dropped, so the stream costs what a
/// file sink costs minus the I/O, and memory stays flat however long
/// the run.
#[derive(Clone, Default)]
struct CountingSink(Arc<AtomicUsize>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len(), Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A built network plus what the pipeline needs to run and check it.
pub struct Built {
    pub net: Network,
    pub topology: Topology,
    pub seed: u64,
    pub until: Time,
    pub parse_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    telemetry: Option<CountingSink>,
}

impl Built {
    pub fn setup_s(&self) -> f64 {
        self.parse_s + self.compile_s + self.build_s
    }
}

/// Parse, compile and build: the set-up stage, timed per call.
pub fn build(w: &Workload, text: &str, seeds: Seeds, arms: Arms) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut spec = ScenarioSpec::parse(text).map_err(|e| format!("{}: {e}", w.spec_file))?;
    let t1 = Instant::now();
    spec.seed = seeds.master;
    spec.sweep.seeds.clear();
    if let (Some(s), TopologySpec::RandomGeometric { seed, .. }) = (seeds.topo, &mut spec.topology)
    {
        *seed = s;
    }
    let compiled = spec
        .compile()
        .map_err(|e| format!("{}: {e}", w.spec_file))?;
    let point = compiled
        .points
        .iter()
        .find(|p| p.controller == w.controller)
        .ok_or_else(|| format!("{}: no {} sweep point", w.spec_file, w.controller))?;
    let algo = Algo::from_name(&point.controller)
        .ok_or_else(|| format!("unknown controller {}", point.controller))?;
    let mut ns = NetworkSpec::from_topology(&compiled.topology, point.seed);
    ns.queue_cap = point.queue_cap;
    ns.profile = arms.profile;
    if arms.probes {
        ns.telemetry_every = Some(TELEMETRY_EVERY);
        ns.audit_cap = NetworkSpec::AUDIT_CAP;
        ns.flight_cap = FLIGHT_CAP;
    }
    let t2 = Instant::now();
    let mut net = Network::new(ns, &*algo.factory());
    let telemetry = arms.probes.then(|| {
        let buf = CountingSink::default();
        net.telemetry.set_sink(Box::new(buf.clone()));
        buf
    });
    let t3 = Instant::now();
    Ok(Built {
        net,
        seed: point.seed,
        until: compiled.until,
        topology: compiled.topology,
        parse_s: (t1 - t0).as_secs_f64(),
        compile_s: (t2 - t1).as_secs_f64(),
        build_s: (t3 - t2).as_secs_f64(),
        telemetry,
    })
}

/// Advances `net` to `until` in `slice`-sized `run_until` calls and
/// returns the host seconds each call took, probing the host's speed
/// between calls.
pub fn run_sliced(
    net: &mut Network,
    until: Time,
    slice: Duration,
    speed: &mut HostSpeed,
) -> Vec<f64> {
    let mut slices =
        Vec::with_capacity((until.as_micros() / slice.as_micros().max(1)) as usize + 1);
    let mut t = Time::ZERO;
    while t < until {
        t = Time::from_micros((t.as_micros() + slice.as_micros()).min(until.as_micros()));
        let t0 = Instant::now();
        net.run_until(t);
        slices.push(t0.elapsed().as_secs_f64());
        speed.tick();
    }
    slices
}

/// Everything one pipeline run measured and produced. Times are in
/// reference seconds (see [`crate::speed`]): host seconds × `speed`.
pub struct Run {
    /// Reference seconds per host second, from the probes taken between
    /// the timed calls of this run; every time below is scaled by it.
    pub speed: f64,
    pub parse_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    /// Each `run_until` slice.
    pub slices_s: Vec<f64>,
    pub run_s: f64,
    pub sim_s: f64,
    /// Medians over the output passes of `snapshot_json`, `to_compact`,
    /// the probe exports, and their sum.
    pub snapshot_s: f64,
    pub serialize_s: f64,
    pub export_s: f64,
    pub output_s: f64,
    /// Spec text to serialised output: set-up, the slices and the first
    /// output pass.
    pub total_s: f64,
    pub doc_bytes: usize,
    pub export_bytes: usize,
    /// Every output pass produced the same document.
    pub output_repeatable: bool,
    /// The compact snapshot document.
    pub doc: String,
    /// The network after the run, for counter reads.
    pub built: Built,
}

impl Run {
    pub fn wall_per_sim_s(&self) -> f64 {
        self.run_s / self.sim_s
    }
}

/// Output passes per run, at least. The output stage only reads the
/// finished network, so repeating it gives a median from one state; the
/// documents of all passes must be identical.
pub const MIN_OUTPUT_PASSES: usize = 9;
/// Host time the output passes of a run take, at least, as a share of
/// the time its slices took. The exports build multi-megabyte strings,
/// whose speed swings with the host's load more than the speed probe
/// follows; a long window averages over more of those swings.
pub const OUTPUT_SHARE: f64 = 0.5;

/// One output pass: the compact snapshot document, the seconds spent in
/// `snapshot_json`, `to_compact` and the probe exports, and the exports'
/// size in bytes.
fn output(b: &mut Built, label: &str, probes: bool) -> (String, [f64; 3], usize) {
    let t0 = Instant::now();
    let doc = b.net.snapshot_json(label);
    let t1 = Instant::now();
    let doc = doc.to_compact();
    let t2 = Instant::now();
    let export_bytes = if probes { export(b) } else { 0 };
    let t3 = Instant::now();
    let secs = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64());
    (doc, secs, export_bytes)
}

/// One full pipeline run of `w`. One [`HostSpeed`] probes between all
/// its timed calls — set-up, slices and output passes — and its factor
/// scales every stage.
pub fn pipeline(w: &Workload, text: &str, seeds: Seeds, arms: Arms) -> Result<Run, String> {
    let mut speed = HostSpeed::default();
    speed.sample();
    let mut b = build(w, text, seeds, arms)?;
    speed.tick();
    let mut slices_s = run_sliced(&mut b.net, b.until, w.slice, &mut speed);
    let window = OUTPUT_SHARE * slices_s.iter().sum::<f64>();
    let started = Instant::now();
    let (doc, first, export_bytes) = output(&mut b, w.name, arms.probes);
    let mut passes = vec![first];
    let mut output_repeatable = true;
    while passes.len() < MIN_OUTPUT_PASSES || started.elapsed().as_secs_f64() < window {
        speed.tick();
        let (again, secs, _) = output(&mut b, w.name, arms.probes);
        output_repeatable &= again == doc;
        passes.push(secs);
    }
    speed.sample();
    let k = speed.factor();
    slices_s.iter_mut().for_each(|s| *s *= k);
    let run_s: f64 = slices_s.iter().sum();
    let stage = |f: &dyn Fn(&[f64; 3]) -> f64| {
        k * median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    Ok(Run {
        speed: k,
        parse_s: k * b.parse_s,
        compile_s: k * b.compile_s,
        build_s: k * b.build_s,
        total_s: k * (b.setup_s() + first.iter().sum::<f64>()) + run_s,
        run_s,
        sim_s: b.until.as_secs_f64(),
        slices_s,
        snapshot_s: stage(&|p| p[0]),
        serialize_s: stage(&|p| p[1]),
        export_s: stage(&|p| p[2]),
        output_s: stage(&|p| p.iter().sum()),
        doc_bytes: doc.len(),
        export_bytes,
        output_repeatable,
        doc,
        built: b,
    })
}

/// Renders the probe exports in memory and returns their total size in
/// bytes: the flight recorder's JSONL document, the audit ledger's
/// records as JSONL, and the telemetry stream written during the run.
/// The ledger is rendered record by record into a [`CountingSink`], as
/// a file export streams it, not gathered into one string.
fn export(b: &Built) -> usize {
    let flight = b.net.flight.to_jsonl();
    let mut audit = CountingSink::default();
    for rec in b.net.audit.records() {
        writeln!(audit, "{}", rec.to_json().to_compact()).expect("counting sink never fails");
    }
    let telemetry = b
        .telemetry
        .as_ref()
        .map_or(0, |t| t.0.load(Ordering::Relaxed));
    flight.len() + audit.0.load(Ordering::Relaxed) + telemetry
}

/// Checks on one run's output. Returns the parsed snapshot and the
/// failed checks (empty when all hold).
pub fn check(run: &Run) -> (Option<RunSnapshot>, Vec<String>) {
    let mut failed = Vec::new();
    let snap = match JsonValue::parse(&run.doc)
        .map_err(|e| e.to_string())
        .and_then(|v| RunSnapshot::from_json(&v))
    {
        Ok(s) => s,
        Err(e) => return (None, vec![format!("snapshot does not parse: {e}")]),
    };
    if !run.output_repeatable {
        failed.push("repeated output passes gave different snapshot documents".into());
    }
    if snap.to_json().to_compact() != run.doc {
        failed.push("snapshot does not round-trip through RunSnapshot::from_json".into());
    }
    let net = &run.built.net;
    let delivered: u64 = net.metrics.delivered.values().sum();
    if delivered == 0 {
        failed.push("no traffic delivered".into());
    }
    // Every delivered packet was admitted to its source's own queue, so
    // per source node the flows' deliveries are bounded by admissions.
    let mut by_src = std::collections::BTreeMap::<usize, u64>::new();
    for f in &run.built.topology.flows {
        *by_src.entry(f.path[0]).or_default() +=
            net.metrics.delivered.get(&f.id).copied().unwrap_or(0);
    }
    for (src, got) in by_src {
        let admitted: u64 = snap.nodes[src]
            .queues
            .iter()
            .filter(|q| q.own)
            .map(|q| q.accepted)
            .sum();
        if got > admitted {
            failed.push(format!(
                "flows from node {src} delivered {got} packets but admitted {admitted}"
            ));
        }
    }
    // The fan-out census attributes every on-air frame to its sender; a
    // mismatch would make `phy.sense_fanout` wrong.
    let frames: u64 = frames_per_node(&snap).iter().sum();
    if frames != snap.channel.tx_started {
        failed.push(format!(
            "per-node frames sum to {frames}, but the channel started {}",
            snap.channel.tx_started
        ));
    }
    (Some(snap), failed)
}

/// Digest of the snapshot with its wall-clock `perf` section zeroed —
/// the deterministic content of the run. With `sans_probes` the probe
/// sections (`stability`, `controller`) are cleared too, so a probed run
/// can be compared with an unprobed one.
pub fn digest(snap: &RunSnapshot, sans_probes: bool) -> u64 {
    let mut s = snap.clone();
    s.perf = PerfSnapshot::zeroed();
    if sans_probes {
        s.stability = None;
        s.controller = None;
    }
    fnv1a64(s.to_json().to_compact().as_bytes())
}

/// Model outputs, printed next to the digest for comparison: delivered
/// kb/s summed over flows, simulated end-to-end p99 (s) and the minimum
/// windowed Jain index.
pub fn model_outputs(b: &Built) -> (f64, f64, f64) {
    let flows: Vec<u32> = b.topology.flows.iter().map(|f| f.id).collect();
    let from = b
        .topology
        .flows
        .iter()
        .map(|f| f.start)
        .min()
        .unwrap_or(Time::ZERO)
        .min(b.until);
    let (tput, p99, (jain_min, _)) = summarize(&b.net, &flows, from, b.until);
    (tput, p99, jain_min)
}

/// The channel the network was built with, rebuilt from its spec so the
/// sensing sets can be read through `Channel::sensing_neighbors`.
pub fn channel_of(b: &Built) -> Channel {
    let ns = NetworkSpec::from_topology(&b.topology, b.seed);
    Channel::new(&ns.positions, ns.channel, ns.loss)
}

/// Frames each node put on the air: data attempts, ACKs, RTS and CTS.
pub fn frames_per_node(snap: &RunSnapshot) -> Vec<u64> {
    snap.nodes
        .iter()
        .map(|n| n.mac.tx_attempts + n.mac.acks_sent + n.mac.rts_sent + n.mac.cts_sent)
        .collect()
}
