//! The hot-path behaviour pins.
//!
//! Every speed change to the simulator must be observationally
//! identical: the same events in the same order, so the same counters.
//! Two tests hold it to that, on runs whose event counts (never wall
//! time) are compared, so neither can flake:
//!
//! 1. [`golden`] rebuilds the quick scenario-1 pair (802.11 and EZ-flow,
//!    the two merging 8-hop flows) and a dense 4×4 grid where every node
//!    carrier-senses every other, and compares their perf-zeroed
//!    snapshots byte for byte with `golden/hotpath.json`. The runs keep
//!    every probe off, so this is also the probes-off zero-cost pin.
//! 2. [`probes_never_perturb_a_run`] re-runs the scenario-1 pair with
//!    telemetry, the audit ledger and the flight recorder all armed, and
//!    requires the same digests once the sections the probes are allowed
//!    to add (`stability`, `controller`) are stripped.
//!
//! When the simulation's behaviour changes on purpose, [`golden`] writes
//! the fresh document next to the test binaries and names the `cp` that
//! re-blesses it.

use std::path::PathBuf;

use ezflow_bench::experiments::{run_net, scenario1, Algo};
use ezflow_bench::Scale;
use ezflow_net::{topo, NetworkSpec, PerfSnapshot, Topology};
use ezflow_sim::{JsonValue, Time};

/// One run: its label and its perf-zeroed compact snapshot.
type Digest = (String, String);

/// Runs `t` under `algo` to `until` and returns its deterministic
/// digest: the snapshot with the wall-clock `perf` block zeroed and the
/// probe-only top-level sections removed (a no-op on probes-off runs).
fn digest(label: &str, t: &Topology, algo: Algo, until: Time, scale: &Scale) -> Digest {
    let mut net = run_net(t, algo, until, scale, label);
    let mut doc = net.snapshot_json(label);
    if let JsonValue::Object(fields) = &mut doc {
        for (k, v) in fields.iter_mut() {
            if k == "perf" {
                *v = PerfSnapshot::zeroed().to_json();
            }
        }
        fields.retain(|(k, _)| k != "stability" && k != "controller");
    }
    (label.to_string(), doc.to_compact())
}

/// The quick scenario-1 pair: scenario 1's timeline at the quick scale,
/// under 802.11 and EZ-flow, with `scale`'s probes.
fn scenario1_runs(scale: &Scale) -> Vec<Digest> {
    let tl = scenario1::scale_timeline(*scale, &[5, 605, 1805, 2504]);
    let mut t = topo::scenario1();
    t.flows[0].start = tl[0];
    t.flows[0].stop = tl[3];
    t.flows[1].start = tl[1];
    t.flows[1].stop = tl[2];
    [Algo::Plain, Algo::EzFlow]
        .into_iter()
        .map(|algo| {
            let label = format!("scenario1/{}", algo.name());
            digest(&label, &t, algo, tl[3], scale)
        })
        .collect()
}

/// The dense-mesh stressor: a 4×4 grid at 140 m, where carrier-sense
/// neighbor lists cannot shrink the work.
fn grid_run() -> Digest {
    let until = Time::from_secs(300);
    let t = topo::grid(4, 4, 140.0, Time::ZERO, until);
    digest("grid/4x4/140m", &t, Algo::Plain, until, &Scale::quick())
}

/// The golden document: label → digest, one compact line.
fn golden_doc(runs: &[Digest]) -> String {
    let fields = runs
        .iter()
        .map(|(label, digest)| {
            let v = JsonValue::parse(digest).expect("digest is valid JSON");
            (label.clone(), v)
        })
        .collect();
    let mut text = JsonValue::Object(fields).to_compact();
    text.push('\n');
    text
}

#[test]
fn golden() {
    let mut runs = scenario1_runs(&Scale::quick());
    runs.push(grid_run());
    let got = golden_doc(&runs);

    let golden_path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/hotpath.json"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{} must be committed: {e}", golden_path.display()));
    if got != golden {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hotpath.actual.json");
        std::fs::write(&actual, &got)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", actual.display()));
        panic!(
            "hotpath snapshots diverged from the committed golden.\n\
             Hot-path changes must be observationally identical. If the simulation's\n\
             behaviour changed on purpose, re-bless with\n  cp {} {}",
            actual.display(),
            golden_path.display()
        );
    }
}

#[test]
fn probes_never_perturb_a_run() {
    let off = scenario1_runs(&Scale::quick());
    let mut armed = Scale::quick();
    armed.telemetry_every = Some(NetworkSpec::TELEMETRY_EVERY);
    armed.audit_cap = NetworkSpec::AUDIT_CAP;
    armed.flight_cap = 4096;
    for ((label, on), (_, off)) in scenario1_runs(&armed).iter().zip(&off) {
        assert!(
            on == off,
            "{label}: arming telemetry, the audit ledger and the flight recorder \
             changed the simulation; a probe must only read"
        );
    }
}
