//! The benchmark's simulated parts: slicing `run_until` must not change
//! a run, and the fan-out census must count a hand-built chain exactly.

use ezflow_net::{PerfSnapshot, RunSnapshot, ScenarioSpec};
use ezflow_perfbench::speed::HostSpeed;
use ezflow_perfbench::stats::sense_fanout;
use ezflow_perfbench::workload::{
    build, channel_of, frames_per_node, run_sliced, workload, Arms, Seeds, Workload,
};
use ezflow_sim::{Duration, JsonValue};

const SEEDS: Seeds = Seeds {
    master: 7,
    topo: None,
};

/// A committed scenario document cut to `secs` simulated seconds.
fn shortened(file: &str, secs: f64) -> String {
    let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
    let mut spec = ScenarioSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.duration_secs = secs;
    spec.to_json().to_compact()
}

fn zeroed_doc(net: &mut ezflow_net::Network) -> String {
    let v = JsonValue::parse(&net.snapshot_json("x").to_compact()).unwrap();
    let mut snap = RunSnapshot::from_json(&v).unwrap();
    snap.perf = PerfSnapshot::zeroed();
    snap.to_json().to_compact()
}

fn assert_sliced_matches_single(w: &Workload, secs: f64, arms: Arms) {
    let text = shortened(w.spec_file, secs);
    let mut sliced = build(w, &text, SEEDS, arms).unwrap();
    let until = sliced.until;
    let mut speed = HostSpeed::default();
    let slices = run_sliced(&mut sliced.net, until, w.slice, &mut speed);
    assert_eq!(slices.len() as u64, until.as_micros() / w.slice.as_micros());
    let mut single = build(w, &text, SEEDS, arms).unwrap();
    single.net.run_until(until);
    assert!(single.net.events_processed() > 0);
    assert_eq!(zeroed_doc(&mut sliced.net), zeroed_doc(&mut single.net));
}

#[test]
fn sliced_run_matches_single_call_byte_for_byte() {
    let plain = Arms {
        probes: false,
        profile: false,
    };
    assert_sliced_matches_single(workload("scenario1-ezflow").unwrap(), 40.0, plain);
    assert_sliced_matches_single(workload("mesh1k-80211").unwrap(), 2.0, plain);
    let probed = Arms {
        probes: true,
        profile: true,
    };
    assert_sliced_matches_single(workload("scenario2-probed").unwrap(), 30.0, probed);
}

#[test]
fn fanout_census_on_a_three_node_chain() {
    // 0 — 1 — 2 at 200 m spacing: all three inside one carrier-sense
    // range. One flow on the single link 0 → 1; node 2 never sends.
    let text = r#"{"name":"chain3","duration_secs":2,"seed":1,"queue_cap":50,
        "topology":{"kind":"chain","hops":2,"spacing":200},
        "flows":[{"path":[0,1],"rate_bps":200000,"payload_bytes":1000,
                  "start_secs":0,"stop_secs":2,"transport":{"kind":"cbr"}}],
        "loss":{"kind":"ideal"},"sweep":{"controllers":["802.11"]}}"#;
    let w = Workload {
        name: "chain3",
        spec_file: "chain3",
        controller: "802.11",
        probes: false,
        slice: Duration::from_millis(100),
    };
    let arms = Arms {
        probes: false,
        profile: false,
    };
    let mut b = build(&w, text, SEEDS, arms).unwrap();
    let until = b.until;
    b.net.run_until(until);
    let v = JsonValue::parse(&b.net.snapshot_json("chain3").to_compact()).unwrap();
    let snap = RunSnapshot::from_json(&v).unwrap();
    let frames = frames_per_node(&snap);
    assert_eq!(frames[2], 0, "node 2 is off the flow's path");
    assert!(frames[0] > 0 && frames[1] > 0);
    assert_eq!(frames.iter().sum::<u64>(), snap.channel.tx_started);

    let chan = channel_of(&b);
    for s in 0..3 {
        assert_eq!(
            chan.sensing_neighbors(s).len(),
            2,
            "node {s} senses both others"
        );
    }
    let (total, quiet) = sense_fanout(&frames, |s| chan.sensing_neighbors(s));
    assert_eq!(total, 2 * snap.channel.tx_started);
    // Every frame reaches two listeners, one of them the silent node 2.
    assert_eq!(2 * quiet, total);
}
