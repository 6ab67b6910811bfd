//! Host-speed calibration.
//!
//! The benchmark runs on shared machines. Other tenants contend for the
//! physical core, and the simulator's speed on a 2-vCPU cloud box was
//! seen to drift by up to 2x over seconds to minutes. That drift moves
//! every timing of a run together. A fixed probe kernel measures it. It
//! runs every [`PROBE_EVERY`] of host time, between the timed calls, so
//! it sees the same mix of fast and slow periods as the timed work.
//!
//! Each probe walks its buffer once untimed, then times the same walk
//! again. The timed walk therefore finds every line it reads already in
//! the core's private caches, whatever the simulator left there, and
//! its time depends on the core's speed alone, not on the code under
//! test. The walk runs [`CHAINS`] independent chains of dependent loads
//! with no data-dependent branch, so it keeps several cache misses in
//! flight at once, as the simulator's allocation-heavy code does. That
//! throughput is what a busy hyperthread sibling on the host takes
//! away: measured side by side on a 2-vCPU cloud box, a single chain
//! slowed by 15% while eight chains and a string-formatting kernel both
//! slowed by 1.6-2x, in step. With eight chains the reference times
//! still rose with the factor, by 0.16-0.44 of its log-swing across
//! 10-run sets, so the probe over-corrected; six chains swing by about
//! 0.83 of what eight do.
//!
//! Timings are reported in *reference seconds*: host seconds ×
//! [`PROBE_REF`] ÷ the mean probe time, that is, host seconds on a core
//! whose probe takes `PROBE_REF`. The constant only sets the scale.
//! Compare figures taken on one machine only.

use std::time::{Duration, Instant};

/// Probe words: 256 KiB. The walk reads up to `CHAINS × PROBE_STEPS`
/// distinct lines of it, more than an L1 holds and well under a private
/// L2.
const PROBE_WORDS: usize = 1 << 15;
/// Independent load chains per walk.
const CHAINS: usize = 6;
/// Dependent loads per chain.
const PROBE_STEPS: u32 = 650;
/// Host time between probes: fine enough to follow the drift, coarse
/// enough that the probes cost a small share of the run.
pub const PROBE_EVERY: Duration = Duration::from_millis(2);
/// A typical timed-walk time, in seconds, on the machine the bounds
/// were set on (an Intel Xeon cloud box with 2 vCPUs).
pub const PROBE_REF: f64 = 5.2e-6;

/// A fixed walk of [`CHAINS`] × [`PROBE_STEPS`] loads over `buf`. Every
/// call reads the same lines in the same order, since `buf` is never
/// written and the chains start from constants.
fn walk(buf: &[u64]) -> u64 {
    let mask = buf.len() - 1;
    let mut x: [u64; CHAINS] =
        std::array::from_fn(|c| (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut i = [0usize; CHAINS];
    let mut acc = 0u64;
    for _ in 0..PROBE_STEPS {
        for c in 0..CHAINS {
            x[c] ^= x[c] << 13;
            x[c] ^= x[c] >> 7;
            x[c] ^= x[c] << 17;
            let v = buf[i[c]];
            acc = acc.wrapping_add(v);
            // Each chain's next index needs its last load's value.
            i[c] = (v ^ x[c]) as usize & mask;
        }
    }
    acc
}

/// One probe in host seconds: warm the walk's lines, then time it.
fn probe(buf: &[u64]) -> f64 {
    std::hint::black_box(walk(buf));
    let t = Instant::now();
    std::hint::black_box(walk(std::hint::black_box(buf)));
    t.elapsed().as_secs_f64()
}

/// Probe samples taken over one stretch of timed work.
pub struct HostSpeed {
    buf: Vec<u64>,
    total: f64,
    probes: u32,
    last: Option<Instant>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            buf: (0..PROBE_WORDS as u64)
                .map(|k| k.wrapping_mul(0x2545_F491_4F6C_DD1D))
                .collect(),
            total: 0.0,
            probes: 0,
            last: None,
        }
    }
}

impl HostSpeed {
    /// Probes if [`PROBE_EVERY`] has passed since the last probe (or
    /// none was taken yet). Call between timed calls, never inside one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= PROBE_EVERY) {
            self.sample();
        }
    }

    /// Probes now.
    pub fn sample(&mut self) {
        self.total += probe(&self.buf);
        self.probes += 1;
        self.last = Some(Instant::now());
    }

    /// Reference seconds per host second over the probes so far.
    pub fn factor(&self) -> f64 {
        assert!(self.probes > 0, "no probe taken");
        PROBE_REF * self.probes as f64 / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_probes_at_start_and_after_the_interval() {
        let mut s = HostSpeed::default();
        s.tick();
        assert_eq!(s.probes, 1);
        s.tick();
        assert_eq!(s.probes, 1);
        std::thread::sleep(PROBE_EVERY);
        s.tick();
        assert_eq!(s.probes, 2);
        let f = s.factor();
        assert!(f.is_finite() && f > 0.0);
    }

    #[test]
    fn walk_is_a_pure_function_of_the_buffer() {
        let s = HostSpeed::default();
        assert_eq!(walk(&s.buf), walk(&s.buf));
    }
}
