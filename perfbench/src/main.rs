//! The repository benchmark: one workload per invocation, measured end
//! to end with tracing off (`--trace 0`) or layer by layer with spans
//! and the engine's self-profiler armed (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scenario1-ezflow --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Times are reported in reference seconds, host seconds corrected for
//! the drifting speed of a shared host's core (see `speed.rs`); each run
//! also prints its host seconds and speed factor.
//!
//! Every run is checked (snapshot round-trip, traffic conservation,
//! digest identity across repeats and configurations); a failed check
//! counts toward `failed` and is never skipped. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ezflow_net::engine::PROFILE_NAMES;
use ezflow_net::RunSnapshot;
use ezflow_perfbench::speed::HostSpeed;
use ezflow_perfbench::stats::{median, peak_rss_bytes, percentile, sense_fanout, MIN_BEYOND};
use ezflow_perfbench::workload::{
    self, build, channel_of, check, digest, frames_per_node, model_outputs, pipeline, Arms, Run,
    Seeds, Workload, WORKLOADS,
};
use ezflow_perfbench::{DEFAULT_SEED, HELD_OUT_SEED};

/// Host time spent on dedicated set-ups per run; `setup_s` is their
/// median. A time budget, not a count, so the small scenarios, whose
/// set-up takes microseconds, get thousands of samples and mesh1k a
/// few dozen. The set-ups inside the repeats are left out: they follow
/// a whole run, whose heap they inherit, so mixing them in would make
/// the median depend on how many repeats fit in `--seconds`.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Set-ups a run makes however long they take.
const MIN_SETUPS: usize = 5;
/// Repeats a run makes however long they take: two, so the digest is
/// compared across repeats at least once.
const MIN_REPEATS: usize = 2;

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload; printed beside every traced metric. First matching
/// prefix wins.
const LAYER_MAP: &[(&str, &str)] = &[
    ("scenario.", "setup_s on mesh1k-80211"),
    ("builder.", "setup_s and peak_rss_mb on mesh1k-80211"),
    ("sched.", "wall_per_sim_s on scenario1-ezflow"),
    (
        "engine.",
        "wall_per_sim_s (tx_end/mac_tx_path on mesh1k-80211, mac_ack_job/traffic on scenario1-ezflow)",
    ),
    (
        "phy.",
        "wall_per_sim_s and slice_p99_ms on mesh1k-80211; scenario1-ezflow should not move",
    ),
    ("mac.", "wall_per_sim_s on scenario2-probed and mesh1k-80211"),
    ("core.", "wall_per_sim_s on scenario1-ezflow and scenario2-probed (zero on mesh1k-80211)"),
    ("net.", "peak_rss_mb and wall_per_sim_s"),
    ("probe.overhead_ratio", "wall_per_sim_s on scenario2-probed"),
    ("probe.", "output_s on scenario2-probed"),
    ("snapshot.", "output_s on mesh1k-80211 and scenario2-probed"),
    ("trace.", "the cost of this traced run itself, every workload"),
];

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--topo-seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: &'static Workload,
    seeds: Seeds,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut topo, mut seconds, mut trace) =
        (None, DEFAULT_SEED, None, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => name = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--topo-seed" => topo = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => seconds = val.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::workload(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", names.join(", "))
    })?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seeds: Seeds { master: seed, topo },
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Checks every run and counts attempts and failures. Digests are
/// compared two ways: the perf-zeroed snapshot across runs with the same
/// probe setting (repeats, traced vs untraced), and the same digest with
/// the probe sections cleared across *all* runs (probed vs unprobed).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    full: BTreeMap<bool, u64>,
    sans_probes: Option<u64>,
}

impl Tally {
    fn record(&mut self, label: &str, run: &Run, arms: Arms) -> Option<RunSnapshot> {
        self.attempted += 1;
        let (snap, mut failures) = check(run);
        if let Some(s) = &snap {
            let (full, sans) = (digest(s, false), digest(s, true));
            if *self.full.entry(arms.probes).or_insert(full) != full {
                failures.push(format!("digest {full:016x} differs from an earlier run's"));
            }
            if *self.sans_probes.get_or_insert(sans) != sans {
                failures.push(format!(
                    "digest without probe sections {sans:016x} differs from the unprobed run's"
                ));
            }
            let (kbps, p99, jain) = model_outputs(&run.built);
            println!(
                "run {label}: digest {full:016x} (sans probes {sans:016x}) | delivered {kbps:.1} kb/s, \
                 e2e p99 {p99:.4} s, min windowed Jain {jain:.4} | wall/sim {:.6} ref s, \
                 {:.6} host s (speed {:.3})",
                run.wall_per_sim_s(),
                run.wall_per_sim_s() / run.speed,
                run.speed
            );
        }
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                println!("CHECK FAILED ({label}): {f}");
            }
        }
        snap
    }
}

/// The measuring window: another repeat starts only if it is expected
/// to end nearer the budget than stopping now would (repeats are
/// assumed to take as long as the last one).
struct Budget {
    start: Instant,
    last: Instant,
    seconds: Duration,
}

impl Budget {
    fn new(seconds: Duration) -> Self {
        let now = Instant::now();
        Budget {
            start: now,
            last: now,
            seconds,
        }
    }

    fn another(&mut self) -> bool {
        let now = Instant::now();
        let repeat = now - self.last;
        self.last = now;
        now - self.start + repeat / 2 < self.seconds
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `--trace 0`: the end-to-end stage split, probes as the workload sets
/// them, profiler off.
fn end_to_end(a: &Args, text: &str, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let w = a.workload;
    let arms = Arms {
        probes: w.probes,
        profile: false,
    };
    let (mut setup, mut setup_speed) = (Vec::new(), HostSpeed::default());
    let started = Instant::now();
    setup_speed.sample();
    while setup.len() < MIN_SETUPS || started.elapsed() < SETUP_BUDGET {
        setup.push(build(w, text, a.seeds, arms)?.setup_s());
        setup_speed.tick();
    }
    setup_speed.sample();
    let setup_s = med(&setup) * setup_speed.factor();
    let (mut wall, mut p50, mut p99) = (vec![], vec![], vec![]);
    let (mut output, mut total, mut speed, mut slices) = (vec![], vec![], vec![], 0);
    let mut clock = Budget::new(a.seconds);
    // `|`, not `||`: the clock must see every repeat boundary.
    while clock.another() | (wall.len() < MIN_REPEATS) {
        let mut run = pipeline(w, text, a.seeds, arms)?;
        tally.record(&format!("repeat {}", wall.len() + 1), &run, arms);
        // Slice percentiles are taken per repeat, whose slices share
        // one calibration, and their medians reported.
        run.slices_s.sort_by(f64::total_cmp);
        let pct = |q| percentile(&run.slices_s, q, MIN_BEYOND).map(|s| s * 1e3);
        let (Some(lo), Some(hi)) = (pct(0.5), pct(0.99)) else {
            return Err(format!(
                "{} slices leave fewer than {MIN_BEYOND} samples beyond p99",
                run.slices_s.len()
            ));
        };
        p50.push(lo);
        p99.push(hi);
        slices = run.slices_s.len();
        wall.push(run.wall_per_sim_s());
        output.push(run.output_s);
        total.push(run.total_s);
        speed.push(run.speed);
    }
    if w.probes {
        // The reference the probed digest must match once the probe
        // sections are cleared; checked, not measured.
        let plain = Arms {
            probes: false,
            profile: false,
        };
        let run = pipeline(w, text, a.seeds, plain)?;
        tally.record("unprobed reference", &run, plain);
    }
    println!(
        "{} set-ups, host speed {:.3}; {} repeats of {slices} slices of {} simulated, \
         host speed {:.3} reference s per host s (median)",
        setup.len(),
        setup_speed.factor(),
        wall.len(),
        w.slice,
        med(&speed),
    );
    let rss = peak_rss_bytes().ok_or("no VmHWM in /proc/self/status")?;
    let mut m = Vec::new();
    metric(&mut m, "setup_s", setup_s, "s");
    metric(&mut m, "wall_per_sim_s", med(&wall), "s/s");
    metric(&mut m, "slice_p50_ms", med(&p50), "ms");
    metric(&mut m, "slice_p99_ms", med(&p99), "ms");
    metric(&mut m, "output_s", med(&output), "s");
    metric(&mut m, "total_s", med(&total), "s");
    metric(&mut m, "peak_rss_mb", rss as f64 / 1e6, "MB");
    Ok(m)
}

/// Timings collected over the rounds of a `--trace 1` run: spans of
/// the traced runs, in the order the layers see them, then the wall
/// figures of the untraced and unprobed runs they are compared with.
#[derive(Default)]
struct Spans {
    parse: Vec<f64>,
    compile: Vec<f64>,
    build: Vec<f64>,
    self_ns: Vec<f64>,
    handler_ns: Vec<[f64; PROFILE_NAMES.len()]>,
    snapshot: Vec<f64>,
    serialize: Vec<f64>,
    export: Vec<f64>,
    wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    untraced_ns_per_dispatch: Vec<f64>,
    unprobed_wall: Vec<f64>,
}

/// `--trace 1`: per-layer numbers. Untraced, traced (spans plus the
/// engine profiler) and, on a probed workload, unprobed runs alternate
/// for `--seconds`; deterministic counters come from the last traced
/// run's snapshot and public getters.
fn per_layer(a: &Args, text: &str, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let w = a.workload;
    let untraced = Arms {
        probes: w.probes,
        profile: false,
    };
    let traced = Arms {
        probes: w.probes,
        profile: true,
    };
    let unprobed = Arms {
        probes: false,
        profile: false,
    };
    let mut sp = Spans::default();
    let mut last = None;
    let mut clock = Budget::new(a.seconds);
    while clock.another() | sp.wall.is_empty() {
        let round = sp.wall.len() + 1;
        let run = pipeline(w, text, a.seeds, untraced)?;
        tally.record(&format!("untraced {round}"), &run, untraced);
        sp.untraced_wall.push(run.wall_per_sim_s());
        sp.untraced_ns_per_dispatch.push(ratio(
            run.run_s * 1e9,
            run.built.net.events_processed() as f64,
        ));
        drop(run);

        if w.probes {
            let run = pipeline(w, text, a.seeds, unprobed)?;
            tally.record(&format!("unprobed {round}"), &run, unprobed);
            sp.unprobed_wall.push(run.wall_per_sim_s());
        }

        let run = pipeline(w, text, a.seeds, traced)?;
        let Some(snap) = tally.record(&format!("traced {round}"), &run, traced) else {
            return Err("traced snapshot does not parse".into());
        };
        let dispatched = run.built.net.events_processed() as f64;
        // The profiler's handler times are host ns; scale them like
        // every other timing of this run.
        let handler_ns = snap.perf.handler_ns.map(|ns| ns as f64 * run.speed);
        let handler: f64 = handler_ns.iter().sum();
        sp.parse.push(run.parse_s * 1e3);
        sp.compile.push(run.compile_s * 1e3);
        sp.build.push(run.build_s * 1e3);
        sp.self_ns
            .push(ratio(run.run_s * 1e9 - handler, dispatched));
        let kinds = kind_counts(&snap, &run);
        let mut per = [0.0; PROFILE_NAMES.len()];
        for (k, slot) in per.iter_mut().enumerate() {
            *slot = ratio(handler_ns[k], kinds[k] as f64);
        }
        sp.handler_ns.push(per);
        sp.snapshot.push(run.snapshot_s * 1e3);
        sp.serialize.push(run.serialize_s * 1e3);
        sp.export.push(run.export_s * 1e3);
        sp.wall.push(run.wall_per_sim_s());
        last = Some((run, snap));
    }
    let (run, snap) = last.expect("at least one traced run");
    Ok(layer_metrics(w, &run, &snap, &sp))
}

/// Dispatches per profiler slot: the eight counted kinds from the
/// snapshot, plus the telemetry sampler (one event per window).
fn kind_counts(snap: &RunSnapshot, run: &Run) -> [u64; PROFILE_NAMES.len()] {
    let mut out = [0u64; PROFILE_NAMES.len()];
    for (k, name) in PROFILE_NAMES.iter().enumerate() {
        out[k] = match snap
            .scheduler
            .dispatched_by_kind
            .iter()
            .find(|(n, _)| n == name)
        {
            Some(&(_, c)) => c,
            None => run.built.net.telemetry.windows(),
        };
    }
    out
}

fn layer_metrics(w: &Workload, run: &Run, snap: &RunSnapshot, sp: &Spans) -> Vec<Metric> {
    let net = &run.built.net;
    let mut m = Vec::new();
    metric(&mut m, "scenario.parse_ms", med(&sp.parse), "ms");
    metric(&mut m, "scenario.compile_ms", med(&sp.compile), "ms");
    metric(&mut m, "builder.build_ms", med(&sp.build), "ms");
    let chan = channel_of(&run.built);
    let n = snap.nodes.len();
    let degrees: u64 = (0..n).map(|s| chan.sensing_neighbors(s).len() as u64).sum();
    metric(
        &mut m,
        "builder.sense_degree_mean",
        ratio(degrees as f64, n as f64),
        "nodes",
    );

    let count = |x: u64| x as f64;
    metric(
        &mut m,
        "sched.dispatched",
        count(net.events_processed()),
        "count",
    );
    metric(
        &mut m,
        "sched.rescheduled",
        count(net.sched_rescheduled()),
        "count",
    );
    metric(&mut m, "sched.removed", count(net.sched_removed()), "count");
    metric(
        &mut m,
        "sched.elided",
        count(net.sched_stale_elided()),
        "count",
    );
    metric(
        &mut m,
        "sched.depth_high_water",
        count(snap.scheduler.depth_high_water as u64),
        "count",
    );
    metric(&mut m, "sched.self_ns_per_dispatch", med(&sp.self_ns), "ns");

    metric(
        &mut m,
        "engine.ns_per_dispatch",
        med(&sp.untraced_ns_per_dispatch),
        "ns",
    );
    let kinds = kind_counts(snap, run);
    for (k, name) in PROFILE_NAMES.iter().enumerate() {
        metric(
            &mut m,
            format!("engine.dispatched.{name}"),
            count(kinds[k]),
            "count",
        );
    }
    for (k, name) in PROFILE_NAMES.iter().enumerate() {
        let per: Vec<f64> = sp.handler_ns.iter().map(|h| h[k]).collect();
        metric(&mut m, format!("engine.handler_ns.{name}"), med(&per), "ns");
    }

    let ch = &snap.channel;
    metric(&mut m, "phy.tx_started", count(ch.tx_started), "count");
    metric(
        &mut m,
        "phy.clean_deliveries",
        count(ch.clean_deliveries),
        "count",
    );
    metric(&mut m, "phy.captures", count(ch.captures), "count");
    metric(
        &mut m,
        "phy.collisions_at_dst",
        count(ch.collisions_at_dst),
        "count",
    );
    metric(
        &mut m,
        "phy.hidden_losses",
        count(ch.hidden_losses),
        "count",
    );
    let frames = frames_per_node(snap);
    let (fanout, quiet) = sense_fanout(&frames, |s| chan.sensing_neighbors(s));
    metric(&mut m, "phy.sense_fanout", count(fanout), "count");
    metric(
        &mut m,
        "phy.fanout_quiescent_share",
        ratio(quiet as f64, fanout as f64),
        "ratio",
    );

    let mac = snap
        .nodes
        .iter()
        .fold(ezflow_mac::MacStats::default(), |mut acc, n| {
            let s = &n.mac;
            acc.tx_attempts += s.tx_attempts;
            acc.tx_success += s.tx_success;
            acc.retries += s.retries;
            acc.drops_retry += s.drops_retry;
            acc.cca_busy += s.cca_busy;
            acc.eifs_starts += s.eifs_starts;
            acc.backoff_slots += s.backoff_slots;
            acc
        });
    metric(&mut m, "mac.tx_attempts", count(mac.tx_attempts), "count");
    metric(
        &mut m,
        "mac.success_ratio",
        ratio(mac.tx_success as f64, mac.tx_attempts as f64),
        "ratio",
    );
    metric(&mut m, "mac.retries", count(mac.retries), "count");
    metric(&mut m, "mac.drops_retry", count(mac.drops_retry), "count");
    metric(&mut m, "mac.cca_busy", count(mac.cca_busy), "count");
    metric(&mut m, "mac.eifs_starts", count(mac.eifs_starts), "count");
    metric(
        &mut m,
        "mac.backoff_slots",
        count(mac.backoff_slots),
        "count",
    );

    let c = snap
        .nodes
        .iter()
        .map(|n| n.counters)
        .fold([0u64; 5], |acc, c| {
            [
                acc[0] + c.boe_hits,
                acc[1] + c.boe_misses,
                acc[2] + c.caa_increases,
                acc[3] + c.caa_decreases,
                acc[4] + c.caa_holds,
            ]
        });
    metric(&mut m, "core.boe_hits", count(c[0]), "count");
    metric(&mut m, "core.boe_misses", count(c[1]), "count");
    metric(
        &mut m,
        "core.boe_hit_ratio",
        ratio(c[0] as f64, (c[0] + c[1]) as f64),
        "ratio",
    );
    metric(
        &mut m,
        "core.caa_rounds",
        count(c[2] + c[3] + c[4]),
        "count",
    );
    metric(&mut m, "core.cw_changes", count(c[2] + c[3]), "count");

    let drops: u64 = snap
        .nodes
        .iter()
        .flat_map(|n| &n.queues)
        .map(|q| q.drops)
        .sum();
    metric(&mut m, "net.queue_drops", count(drops), "count");
    metric(
        &mut m,
        "net.delivered_pkts",
        count(net.metrics.delivered.values().sum()),
        "count",
    );
    metric(
        &mut m,
        "net.arena_high_water",
        count(net.arena_high_water() as u64),
        "count",
    );
    metric(
        &mut m,
        "net.buffer_reuses",
        count(net.buffer_reuses()),
        "count",
    );

    metric(
        &mut m,
        "probe.telemetry_windows",
        count(net.telemetry.windows()),
        "count",
    );
    metric(
        &mut m,
        "probe.audit_records",
        count(net.audit.pushed()),
        "count",
    );
    metric(
        &mut m,
        "probe.flight_journeys_kept",
        count(net.flight.packets() as u64),
        "count",
    );
    metric(
        &mut m,
        "probe.export_bytes",
        count(run.export_bytes as u64),
        "bytes",
    );
    metric(&mut m, "probe.export_ms", med(&sp.export), "ms");
    // Probed ÷ unprobed wall per simulated second; 0 on workloads that
    // run with the probes off (there is nothing to compare).
    let probe_ratio = if w.probes {
        ratio(med(&sp.untraced_wall), med(&sp.unprobed_wall))
    } else {
        0.0
    };
    metric(&mut m, "probe.overhead_ratio", probe_ratio, "ratio");

    metric(&mut m, "snapshot.build_ms", med(&sp.snapshot), "ms");
    metric(&mut m, "snapshot.serialize_ms", med(&sp.serialize), "ms");
    metric(
        &mut m,
        "snapshot.doc_bytes",
        count(run.doc_bytes as u64),
        "bytes",
    );

    metric(
        &mut m,
        "trace.overhead_ratio",
        ratio(med(&sp.wall), med(&sp.untraced_wall)),
        "ratio",
    );
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(w.spec_file);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} ({}, controller {}, probes {}), seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}), \
         {} measuring {:.0} s",
        w.name,
        w.spec_file,
        w.controller,
        if w.probes { "on" } else { "off" },
        args.seeds.master,
        if args.trace { "traced" } else { "untraced" },
        args.seconds.as_secs_f64()
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &text, &mut tally)
    } else {
        end_to_end(&args, &text, &mut tally)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        let moves = LAYER_MAP
            .iter()
            .find(|(p, _)| m.name.starts_with(p))
            .map_or(String::new(), |(_, t)| format!("  -> {t}"));
        println!("{:<34} {:>18} {}{moves}", m.name, m.value, m.unit);
    }
    println!(
        "fail_rate {} ({} of {} runs failed a check)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
