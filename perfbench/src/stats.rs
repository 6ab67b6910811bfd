//! Pure measurement helpers: order statistics, the peak-RSS parse, the
//! carrier-sense fan-out census and the snapshot digest. Nothing here
//! touches the simulator, so every piece is unit-tested on canned input.

/// Median of `xs` (mean of the two middle values for even counts);
/// `None` for an empty slice. NaNs sort last and are never produced by
/// the benchmark's own timers.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples a tail percentile needs beyond it before it is reported: a
/// p99 read off fewer than this many larger samples is one outlier, not
/// a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of the ascending `sorted`
/// samples, or `None` when fewer than `min_beyond` samples lie beyond the
/// chosen rank. The rank is `ceil(q · n)` (1-based), so a p99 needs at
/// least 1,000 samples under the default [`MIN_BEYOND`] of ten.
pub fn percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    // The epsilon keeps ranks like 0.99 · 1000 = 990.0000000000001 from
    // rounding up a whole sample.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Peak resident set in bytes from the text of a `/proc/<pid>/status`
/// document (its `VmHWM:` line, which the kernel writes in kB); `None`
/// when the line is absent or malformed.
pub fn parse_vm_hwm(status_text: &str) -> Option<u64> {
    let line = status_text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// This process's peak resident set in bytes (linux procfs only).
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Carrier-sense fan-out of a run: every frame a node puts on the air
/// reaches each node in its sensing set, so the channel's busy/idle
/// notification work is `Σ frames(s) · degree(s)`. Returns that sum and
/// the part of it landing on nodes that never transmitted (quiescent
/// MACs that only absorb carrier-sense edges).
pub fn sense_fanout<'a>(frames: &[u64], neighbors: impl Fn(usize) -> &'a [usize]) -> (u64, u64) {
    let (mut total, mut quiescent) = (0u64, 0u64);
    for (s, &f) in frames.iter().enumerate() {
        let nb = neighbors(s);
        total += f * nb.len() as u64;
        quiescent += f * nb.iter().filter(|&&r| frames[r] == 0).count() as u64;
    }
    (total, quiescent)
}

/// 64-bit FNV-1a of `bytes`: a stable digest (unlike `std`'s hasher, its
/// value is fixed by definition), enough to compare snapshot documents.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1,000 leaves exactly ten samples above it.
        assert_eq!(percentile(&sorted, 0.99, MIN_BEYOND), Some(990.0));
        // One sample fewer leaves nine: refused, not rounded.
        assert_eq!(percentile(&sorted[..999], 0.99, MIN_BEYOND), None);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99, MIN_BEYOND), Some(1980.0));
    }

    #[test]
    fn p50_is_the_lower_middle_and_never_refused_when_dense() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5, MIN_BEYOND), Some(50.0));
        assert_eq!(percentile(&[7.0], 1.0, 0), Some(7.0));
        assert_eq!(percentile(&[], 0.5, 0), None);
        assert_eq!(percentile(&sorted, 0.0, 0), None);
    }

    #[test]
    fn vm_hwm_parse() {
        let status = "Name:\tperfbench\nVmPeak:\t  30000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(20480 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn fanout_on_a_three_node_chain() {
        // 0 — 1 — 2, every node in every other's sensing range; only the
        // one-hop link 0 → 1 carries traffic: 10 data frames from node 0
        // and 10 ACKs from node 1, node 2 stays silent.
        let nb: [&[usize]; 3] = [&[1, 2], &[0, 2], &[0, 1]];
        let (total, quiet) = sense_fanout(&[10, 10, 0], |s| nb[s]);
        assert_eq!(total, 40);
        // Half of every frame's audience is the silent node 2.
        assert_eq!(quiet, 20);
        // A chain whose ends only sense the middle node.
        let nb: [&[usize]; 3] = [&[1], &[0, 2], &[1]];
        assert_eq!(sense_fanout(&[3, 5, 0], |s| nb[s]), (3 + 10, 5));
    }

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
