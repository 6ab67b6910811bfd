//! The MAC's epoch check: a timer input armed under an epoch the MAC has
//! since moved past produces nothing and is counted in `stale_epochs`,
//! and the live timer that replaced it still fires normally. The engine
//! parks invalidated timers before they pop, so this check is the last
//! line of defence if that discipline ever slips.

use ezflow_mac::{Mac, MacConfig, MacInput, MacOutput};
use ezflow_phy::{Frame, FrameArena};
use ezflow_sim::{Duration, SimRng, Time};

fn t(us: u64) -> Time {
    Time::from_micros(us)
}

fn mac(node: usize) -> (Mac, SimRng, FrameArena) {
    let mut mac = Mac::new(node, MacConfig::default());
    let mut rng = SimRng::new(11);
    let mut arena = FrameArena::new();
    mac.input(
        Time::ZERO,
        MacInput::SetCwMin { cw_min: 16 },
        &mut rng,
        &mut arena,
    );
    (mac, rng, arena)
}

/// A data frame on the 0 → 1 hop.
fn data(seq: u64) -> Frame {
    let mut f = Frame::data(seq, 0, 0, 1, 1000, Time::ZERO);
    f.src = 0;
    f.dst = 1;
    f
}

fn tx_timer(out: &[MacOutput]) -> (Duration, u64) {
    out.iter()
        .find_map(|o| match *o {
            MacOutput::SetTimerTxPath { after, epoch } => Some((after, epoch)),
            _ => None,
        })
        .expect("tx-path timer armed")
}

fn ack_timer(out: &[MacOutput]) -> (Duration, u64) {
    out.iter()
        .find_map(|o| match *o {
            MacOutput::SetTimerAckJob { after, epoch } => Some((after, epoch)),
            _ => None,
        })
        .expect("ack-job timer armed")
}

fn starts_tx(out: &[MacOutput]) -> bool {
    out.iter().any(|o| matches!(o, MacOutput::StartTx { .. }))
}

#[test]
fn stale_tx_path_timer_is_discarded_and_counted() {
    let (mut mac, mut rng, mut arena) = mac(0);
    let frame = arena.alloc(data(1));
    let out = mac.input(
        t(0),
        MacInput::Enqueue { frame, queue: 0 },
        &mut rng,
        &mut arena,
    );
    let (_, old) = tx_timer(&out);
    // A busy spell freezes the countdown; the resume re-arms under a new
    // epoch, which leaves the first timer stale.
    assert!(mac
        .input(t(10), MacInput::MediumBusy, &mut rng, &mut arena)
        .is_empty());
    let out = mac.input(t(2_000), MacInput::MediumIdle, &mut rng, &mut arena);
    let (after, live) = tx_timer(&out);
    assert!(live > old, "the resume must move the epoch on");

    let out = mac.input(
        t(2_000) + after,
        MacInput::TimerTxPath { epoch: old },
        &mut rng,
        &mut arena,
    );
    assert!(out.is_empty(), "a stale tx-path timer produces nothing");
    assert_eq!(mac.stats().stale_epochs, 1);

    let out = mac.input(
        t(2_000) + after,
        MacInput::TimerTxPath { epoch: live },
        &mut rng,
        &mut arena,
    );
    assert!(starts_tx(&out), "the live timer still transmits");
    assert_eq!(mac.stats().stale_epochs, 1, "a live timer is not stale");
}

#[test]
fn stale_ack_job_timer_is_discarded_and_counted() {
    let (mut mac, mut rng, mut arena) = mac(1);
    let out = mac.input(
        t(0),
        MacInput::RxData {
            frame: arena.alloc(data(1)),
        },
        &mut rng,
        &mut arena,
    );
    let (_, old) = ack_timer(&out);
    // A second reception replaces the pending ACK job under a new epoch.
    let out = mac.input(
        t(5),
        MacInput::RxData {
            frame: arena.alloc(data(2)),
        },
        &mut rng,
        &mut arena,
    );
    let (after, live) = ack_timer(&out);
    assert!(live > old, "the new ACK job must move the epoch on");

    let out = mac.input(
        t(5) + after,
        MacInput::TimerAckJob { epoch: old },
        &mut rng,
        &mut arena,
    );
    assert!(out.is_empty(), "a stale ACK-job timer produces nothing");
    assert_eq!(mac.stats().stale_epochs, 1);

    let out = mac.input(
        t(5) + after,
        MacInput::TimerAckJob { epoch: live },
        &mut rng,
        &mut arena,
    );
    assert!(starts_tx(&out), "the live ACK job still transmits");
    assert_eq!(mac.stats().stale_epochs, 1, "a live timer is not stale");
}
