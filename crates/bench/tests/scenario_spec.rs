//! The spec-vs-constructor equivalence pins.
//!
//! The committed `scenarios/*.json` files claim to be the hand-built
//! `topo::` constructors re-expressed as data. These tests make that
//! claim exact, twice over:
//!
//! 1. the committed files are byte-identical to what `--emit-spec`
//!    regenerates (so the files can never drift from the emitter), and
//! 2. a network built from the *parsed file* leaves a perf-zeroed
//!    [`RunSnapshot`] byte-identical to one built from the constructor
//!    (so the whole parse → compile → build pipeline is provably exact,
//!    down to the f64 positions surviving the JSON round trip).

use std::path::PathBuf;

use ezflow_bench::experiments::{spec, Algo};
use ezflow_net::{topo, Network, NetworkSpec, PerfSnapshot, ScenarioSpec, Topology};
use ezflow_sim::Time;

fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios")).join(name)
}

/// Perf-zeroed compact snapshot JSON: the deterministic run digest.
fn digest(topo: &Topology, algo: Algo, seed: u64, until: Time) -> String {
    let mut net = Network::new(NetworkSpec::from_topology(topo, seed), &*algo.factory());
    net.run_until(until);
    let mut snap = net.snapshot("pin");
    snap.perf = PerfSnapshot::zeroed();
    snap.to_json().to_compact()
}

fn assert_file_matches_emitter(file: &str, emit_name: &str) {
    let committed = std::fs::read_to_string(scenario_path(file))
        .unwrap_or_else(|e| panic!("{file} must be committed: {e}"));
    let mut emitted = spec::emit(emit_name).unwrap().to_json().to_pretty();
    emitted.push('\n');
    assert_eq!(
        committed, emitted,
        "{file} drifted from `experiments --emit-spec={emit_name}` — regenerate it"
    );
}

fn assert_spec_pins_constructor(file: &str, hand: &Topology, until: Time, algo: Algo) {
    let doc = spec::load(&scenario_path(file)).unwrap();
    let compiled = doc.compile().unwrap();
    assert_eq!(
        digest(&compiled.topology, algo, doc.seed, until),
        digest(hand, algo, doc.seed, until),
        "{file}: spec-built run diverged from the {} constructor",
        hand.name
    );
}

#[test]
fn scenario1_spec_is_byte_identical_to_the_constructor() {
    assert_file_matches_emitter("scenario1.json", "scenario1");
    assert_spec_pins_constructor(
        "scenario1.json",
        &topo::scenario1(),
        Time::from_secs(30),
        Algo::Plain,
    );
}

#[test]
fn scenario2_spec_is_byte_identical_to_the_constructor() {
    assert_file_matches_emitter("scenario2.json", "scenario2");
    assert_spec_pins_constructor(
        "scenario2.json",
        &topo::scenario2(),
        Time::from_secs(30),
        Algo::EzFlow,
    );
}

#[test]
fn grid4x4_spec_is_byte_identical_to_the_constructor() {
    assert_file_matches_emitter("grid4x4.json", "grid4x4");
    assert_spec_pins_constructor(
        "grid4x4.json",
        &topo::grid(4, 4, 140.0, Time::ZERO, Time::from_secs(60)),
        Time::from_secs(10),
        Algo::Plain,
    );
}

#[test]
fn mesh1k_spec_compiles_to_the_advertised_mesh() {
    let doc = spec::load(&scenario_path("mesh1k.json")).unwrap();
    let compiled = doc.compile().unwrap();
    assert!(compiled.topology.positions.len() >= 1000, "1,000+ nodes");
    let gateways: std::collections::BTreeSet<usize> = compiled
        .topology
        .flows
        .iter()
        .map(|f| *f.path.last().unwrap())
        .collect();
    assert!(gateways.len() >= 4, "traffic must drain to >= 4 gateways");
    let kinds: std::collections::BTreeSet<&str> = compiled
        .topology
        .flows
        .iter()
        .map(|f| match f.transport {
            ezflow_net::Transport::Cbr => "cbr",
            ezflow_net::Transport::Windowed { .. } => "windowed",
            ezflow_net::Transport::OnOff { .. } => "onoff",
        })
        .collect();
    assert_eq!(kinds.len(), 3, "mixed CBR / windowed / on-off traffic");
    // Compiling twice yields the identical mesh: placement and source
    // selection are pure functions of the topology seed.
    let again = doc.compile().unwrap();
    assert_eq!(compiled.topology.positions, again.topology.positions);
    assert_eq!(compiled.topology.flows, again.topology.flows);
}

#[test]
fn malformed_specs_fail_with_pointed_messages() {
    // Syntax: the error names the line and column.
    let err = ScenarioSpec::parse("{\n  \"name\": \"x\",\n  \"duration_secs\": oops\n}")
        .unwrap_err()
        .to_string();
    assert!(err.contains("line 3"), "{err}");
    // Schema: the error names the offending field path.
    let err =
        ScenarioSpec::parse(r#"{"name": "x", "duration_secs": 1, "topology": {"kind": "donut"}}"#)
            .unwrap_err()
            .to_string();
    assert!(
        err.contains("topology.kind") && err.contains("donut"),
        "{err}"
    );

    // Out-of-range values: each edit to a committed spec must fail
    // parse or compile (the `--spec` path) with an error naming its field.
    let rejected = |text: &str| match ScenarioSpec::parse(text).and_then(|s| s.compile()) {
        Ok(_) => panic!("spec compiled:\n{text}"),
        Err(e) => e.to_string(),
    };
    let edit = |file: &str, from: &str, to: &str| {
        let text = std::fs::read_to_string(scenario_path(file)).unwrap();
        assert!(text.contains(from), "{file} no longer contains {from}");
        text.replacen(from, to, 1)
    };
    let cases = [
        // 2^32 + 1000 would wrap to 1000 bytes in a u32.
        (
            edit(
                "scenario1.json",
                "\"payload_bytes\": 1000",
                "\"payload_bytes\": 4294968296",
            ),
            "flows[0].payload_bytes",
        ),
        // Larger than the 802.11 maximum MSDU.
        (
            edit(
                "scenario1.json",
                "\"payload_bytes\": 1000",
                "\"payload_bytes\": 100000",
            ),
            "flows[0].payload_bytes",
        ),
        (
            edit("mesh1k.json", "\"width\": 4000", "\"width\": 0"),
            "topology.width",
        ),
        (
            r#"{"name": "x", "duration_secs": 1,
                "topology": {"kind": "chain", "hops": 4, "spacing": 0}}"#
                .to_string(),
            "topology.spacing",
        ),
    ];
    for (text, path) in cases {
        let err = rejected(&text);
        assert!(err.contains(path), "expected {path} in: {err}");
    }
}
