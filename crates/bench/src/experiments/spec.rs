//! Scenario-spec runs: the bridge from a declarative JSON document
//! (`scenarios/*.json`, see [`ezflow_net::scenario`]) to the same
//! [`Report`] machinery the named experiments use.
//!
//! One spec expands into a sweep of runs (controller × queue-cap × seed),
//! executed through the [`crate::runner::SweepRunner`] like every other
//! experiment. Each run reports aggregate throughput, end-to-end p99
//! latency (from the per-flow log histograms) and windowed Jain fairness
//! (floor and mean), and attaches the usual cross-layer
//! [`RunSnapshot`](ezflow_net::RunSnapshot)
//! plus, when the flight recorder is armed, the per-packet lifecycle
//! export — so `--trace-dir` / `--telemetry-dir` / `--json` work on spec
//! runs exactly as they do on the named experiments.

use std::path::{Path, PathBuf};

use ezflow_net::{topo, ScenarioSpec, Topology};
use ezflow_sim::Time;

use super::{fairness_windows, Algo};
use crate::report::{Report, Scale};
use crate::runner::Job;

/// Reads and parses a spec file; errors carry the path and, for syntax
/// errors, the line/column the in-tree JSON kernel reports.
pub fn load(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Scales a nominal spec duration the way `--quick` / `--time=F` demand.
/// Spec durations are the author's own, not the paper's multi-kilosecond
/// timelines, so the floor is 1 s — not the 30 s the named experiments
/// use to protect the CAA's convergence.
fn scaled_until(until: Time, scale: &Scale) -> Time {
    Time::from_micros(((until.as_micros() as f64 * scale.time) as u64).max(1_000_000))
}

/// Compiles and runs every sweep point of `spec`, returning one report.
/// Fails (as a message, not a panic) when the document is invalid or
/// names a controller this harness doesn't have.
pub fn run_spec(spec: &ScenarioSpec, scale: &Scale) -> Result<Report, String> {
    let compiled = spec.compile().map_err(|e| e.to_string())?;
    let until = scaled_until(compiled.until, scale);

    let mut jobs = Vec::with_capacity(compiled.points.len());
    for point in &compiled.points {
        let algo = Algo::from_name(&point.controller).ok_or_else(|| {
            format!(
                "spec `{}`: unknown controller '{}' (known: 802.11, EZ-flow, EZ-flow (2^10 cap))",
                compiled.name, point.controller
            )
        })?;
        let mut ns = scale.spec(&compiled.topology, point.seed);
        ns.queue_cap = point.queue_cap;
        ns.flight_cap = scale.flight_cap;
        let label = point.label.replace('/', "_");
        jobs.push(
            Job::new(point.label.clone(), ns, until, algo.factory()).with_setup(move |net| {
                crate::telemetry_out::attach(net, &label);
                crate::audit_out::attach(net, &label);
            }),
        );
    }

    let mut rep = Report::new(compiled.name.clone(), spec_title(spec));
    rep.note(format!(
        "{} nodes, {} flows, {} run(s), {} simulated each",
        compiled.topology.positions.len(),
        compiled.topology.flows.len(),
        compiled.points.len(),
        until
    ));
    let flows: Vec<u32> = compiled.topology.flows.iter().map(|f| f.id).collect();
    let from = compiled
        .topology
        .flows
        .iter()
        .map(|f| f.start)
        .min()
        .unwrap_or(Time::ZERO)
        .min(until);

    let nets = scale.runner().run(jobs);
    for (point, mut net) in compiled.points.iter().zip(nets) {
        rep.snapshots.push(net.snapshot(&point.label));
        if scale.flight_cap > 0 {
            rep.lifecycle(
                point.label.replace('/', "_"),
                net.flight.to_jsonl(),
                net.flight.stats(),
            );
        }
        let (tput, p99, jain) = summarize(&net, &flows, from, until);
        rep.row(
            format!("{}: aggregate throughput", point.label),
            "-",
            format!("{tput:.1} kb/s"),
        );
        rep.row(
            format!("{}: e2e latency p99", point.label),
            "-",
            format!("{:.3} s", p99),
        );
        rep.row(
            format!("{}: windowed Jain fairness", point.label),
            "-",
            format!("{:.2} (mean {:.2})", jain.0, jain.1),
        );
        rep.check(
            format!("{}: traffic flowed", point.label),
            net.metrics.delivered.values().sum::<u64>() > 0,
        );
    }
    Ok(rep)
}

/// Aggregate throughput (kb/s, summed over flows), p99 network latency
/// across all flows' merged histograms (seconds) and windowed Jain
/// fairness `(min, mean)` over `[from, until)`. Public so perfbench
/// reports the exact numbers the spec harness would.
pub fn summarize(
    net: &ezflow_net::Network,
    flows: &[u32],
    from: Time,
    until: Time,
) -> (f64, f64, (f64, f64)) {
    let tput: f64 = flows
        .iter()
        .map(|f| net.metrics.mean_kbps(*f, from, until))
        .sum();
    let mut merged = ezflow_stats::LogHistogram::new();
    for f in flows {
        if let Some(h) = net.metrics.flow_latency.get(f) {
            merged.merge(h);
        }
    }
    let p99 = merged.quantile(0.99) as f64 / 1e6;
    let jain = fairness_windows(net, flows, from, until);
    (tput, p99, jain)
}

fn spec_title(spec: &ScenarioSpec) -> String {
    if spec.description.is_empty() {
        format!("scenario spec `{}`", spec.name)
    } else {
        spec.description.clone()
    }
}

/// The named specs `--emit-spec` can regenerate: each is the hand-built
/// constructor re-expressed as data. The committed `scenarios/*.json`
/// files are exactly these, pretty-printed — pinned by the byte-identity
/// tests in `tests/scenario_spec.rs`.
pub fn emit(name: &str) -> Option<ScenarioSpec> {
    let (topo, desc, until): (Topology, &str, Time) = match name {
        "scenario1" => (
            topo::scenario1(),
            "Fig. 5: two 8-hop flows merging toward a gateway (Figs. 6-8)",
            topo::scenario1_end(),
        ),
        "scenario2" => (
            topo::scenario2(),
            "Fig. 9: 25-node mesh, 2 gateways, staggered flow arrivals (Figs. 10-11)",
            topo::scenario2_end(),
        ),
        "grid4x4" => (
            topo::grid(4, 4, 140.0, Time::ZERO, Time::from_secs(60)),
            "4x4 lattice, one west-to-east flow per row",
            Time::from_secs(60),
        ),
        _ => return None,
    };
    Some(ScenarioSpec::from_topology(
        &topo,
        desc,
        until,
        42,
        &["802.11", "EZ-flow"],
    ))
}

/// Names [`emit`] accepts, for `--list` and usage messages.
pub const EMITTABLE: &[&str] = &["scenario1", "scenario2", "grid4x4"];

/// Discovers `*.json` files under `dir` (sorted by file name) and reads
/// each one's name and description, tolerating unparsable files by
/// listing the error instead — `--list` must never die on one bad spec.
pub fn discover(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let line = match load(&path) {
                Ok(spec) => {
                    let points = spec
                        .compile()
                        .map(|c| c.points.len().to_string())
                        .unwrap_or_else(|_| "?".into());
                    format!("{} — {} ({} run(s))", spec.name, spec_title(&spec), points)
                }
                Err(e) => format!("UNREADABLE: {e}"),
            };
            (path, line)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_resolves_every_display_name_and_slug() {
        for algo in [Algo::Plain, Algo::EzFlow, Algo::EzFlowTestbed] {
            assert_eq!(Algo::from_name(algo.name()), Some(algo));
            assert_eq!(Algo::from_name(&algo.slug()), Some(algo));
        }
        assert_eq!(Algo::from_name("diffserv"), None);
    }

    #[test]
    fn emit_covers_exactly_the_advertised_names() {
        for name in EMITTABLE {
            assert!(emit(name).is_some(), "{name} must be emittable");
        }
        assert!(emit("fig1").is_none());
    }

    #[test]
    fn spec_run_reports_throughput_latency_and_fairness() {
        let spec = emit("grid4x4").unwrap();
        let mut scale = Scale::quick();
        scale.time = 0.1; // 6 s simulated — enough for packets to land
        let rep = run_spec(&spec, &scale).unwrap();
        assert_eq!(rep.snapshots.len(), 2, "one run per controller");
        assert!(rep.all_ok(), "traffic must flow in a saturated grid");
        assert!(rep
            .rows
            .iter()
            .any(|r| r.label.contains("aggregate throughput")));
        assert!(rep.rows.iter().any(|r| r.label.contains("p99")));
        assert!(rep.rows.iter().any(|r| r.label.contains("Jain")));
    }

    #[test]
    fn unknown_controller_is_a_message_not_a_panic() {
        let mut spec = emit("grid4x4").unwrap();
        spec.sweep.controllers = vec!["tcp-reno".into()];
        let err = run_spec(&spec, &Scale::quick()).unwrap_err();
        assert!(err.contains("unknown controller 'tcp-reno'"), "{err}");
    }
}
