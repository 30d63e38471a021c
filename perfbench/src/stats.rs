//! Statistics helpers: tail percentiles with a sample-support rule, run-to-run
//! quartiles, failure fractions and write-amplification accounting.

/// Fewest samples that must lie beyond a reported percentile. A percentile
/// with less support is noise, so it is not reported at all.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile of `samples` (`0 < p < 100`), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
/// Failed operations belong in `samples` as `f64::INFINITY`: they miss any
/// latency limit.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || !(0.0 < p && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Fewest statements in one window of a timed phase: enough for a p95 with
/// [`MIN_BEYOND`] samples beyond it.
pub const WINDOW_MIN: usize = 200;

/// Most windows a timed phase is cut into.
pub const WINDOWS_MAX: usize = 5;

/// Throughput and latency percentiles of one window of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub throughput: f64,
    pub p50: Percentile,
    pub p95: Percentile,
}

/// A timed phase's figures: each is the median of the per-window figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub throughput: f64,
    pub p50: f64,
    pub p95: f64,
    pub windows: Vec<Window>,
}

/// Cut a timed phase into consecutive windows in completion order, as many
/// as hold at least [`WINDOW_MIN`] statements each (at most
/// [`WINDOWS_MAX`]), and report the median over windows of each window's
/// throughput, p50 and p95. A burst of outside load confined to one or two
/// windows then moves none of the three; a slowdown across the phase moves
/// all of them. `ends` are completion times in seconds since the phase
/// began, ascending; `latencies_ms` is parallel, with failures infinite
/// (they count in the percentiles but not in throughput). `None` when the
/// phase is too short for one window.
pub fn windowed(ends: &[f64], latencies_ms: &[f64]) -> Option<Windowed> {
    let n = ends.len();
    let k = (n / WINDOW_MIN).min(WINDOWS_MAX);
    if k == 0 || latencies_ms.len() != n {
        return None;
    }
    let mut windows = Vec::with_capacity(k);
    let mut begin = 0.0;
    for w in 0..k {
        let (a, b) = (w * n / k, (w + 1) * n / k);
        let lat = &latencies_ms[a..b];
        let ok = lat.iter().filter(|l| l.is_finite()).count();
        windows.push(Window {
            throughput: ok as f64 / (ends[b - 1] - begin),
            p50: percentile(lat, 50.0)?,
            p95: percentile(lat, 95.0)?,
        });
        begin = ends[b - 1];
    }
    let med = |f: fn(&Window) -> f64| {
        median(&windows.iter().map(f).collect::<Vec<_>>()).expect("at least one window")
    };
    Some(Windowed {
        throughput: med(|w| w.throughput),
        p50: med(|w| w.p50.value),
        p95: med(|w| w.p95.value),
        windows,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of `values`, computed exactly
/// as Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) does; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// a metric's bound is compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Statements that returned an error, as a share of statements attempted.
/// An output mismatch is not a failure here: it fails the whole run.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The durability counters write accounting reads
/// (`rasql_api::DurabilityStatus` minus the directory name).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// Bytes in the current WAL tail (reset to 0 by every snapshot).
    pub wal_bytes: u64,
    /// Snapshots published so far.
    pub snapshots: u64,
    /// Size of the most recently published snapshot.
    pub last_snapshot_bytes: u64,
}

/// Accumulates bytes the durability layer wrote from successive counter
/// samples. Between two samples the WAL tail either grew, or one or more
/// snapshots were published, truncating it; then the bytes written are the
/// snapshots plus the new tail. Frames appended between the previous sample
/// and a truncation are gone from every counter, so the total is a lower
/// bound, tight when samples are taken after every statement.
#[derive(Debug, Clone, Default)]
pub struct WriteAccount {
    last: DurabilityCounters,
    written: u64,
}

impl WriteAccount {
    /// Start accounting from `base` (bytes already on disk are not counted).
    pub fn new(base: DurabilityCounters) -> Self {
        WriteAccount {
            last: base,
            written: 0,
        }
    }

    /// Fold in a new sample.
    pub fn observe(&mut self, now: DurabilityCounters) {
        let published = now.snapshots.saturating_sub(self.last.snapshots);
        self.written += if published == 0 {
            now.wal_bytes.saturating_sub(self.last.wal_bytes)
        } else {
            published * now.last_snapshot_bytes + now.wal_bytes
        };
        self.last = now;
    }

    /// Bytes written since accounting started.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Snapshots published since accounting started.
    pub fn snapshots_since(&self, base: &DurabilityCounters) -> u64 {
        self.last.snapshots - base.snapshots
    }

    /// Bytes written per byte of user data.
    pub fn amplification(&self, user_bytes: u64) -> f64 {
        if user_bytes == 0 {
            0.0
        } else {
            self.written as f64 / user_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), None, "199 samples leave 9 beyond");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&xs, 95.0).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (190.0, 200, 10));
    }

    #[test]
    fn median_percentile_is_nearest_rank_and_order_free() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0].repeat(5);
        let p = percentile(&xs, 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (3.0, 12));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.extend([f64::INFINITY; 20]);
        assert_eq!(percentile(&xs, 95.0).unwrap().value, f64::INFINITY);
        assert!(percentile(&xs, 50.0).unwrap().value.is_finite());
    }

    #[test]
    fn windows_take_the_median_and_shrug_off_one_stalled_window() {
        // 1 000 statements, one every 10 ms, 5 ms each; window 2 stalls:
        // its statements take 50 ms and complete ten times slower.
        let mut ends = Vec::new();
        let mut lat = Vec::new();
        let mut t = 0.0;
        for i in 0..1000 {
            let stalled = (400..600).contains(&i);
            t += if stalled { 0.1 } else { 0.01 };
            ends.push(t);
            lat.push(if stalled { 50.0 } else { 5.0 });
        }
        let w = windowed(&ends, &lat).unwrap();
        assert_eq!(w.windows.len(), 5);
        assert_eq!((w.p50, w.p95), (5.0, 5.0));
        assert!((w.throughput - 100.0).abs() < 1e-6);
        assert_eq!(w.windows[2].p95.value, 50.0);
        assert!((w.windows[2].throughput - 10.0).abs() < 1e-6);
        assert!(w.windows.iter().all(|x| x.p95.beyond >= MIN_BEYOND));
    }

    #[test]
    fn window_count_follows_the_sample_count() {
        let run = |n: usize| {
            let ends: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            windowed(&ends, &vec![1.0; n]).map(|w| w.windows.len())
        };
        assert_eq!(run(199), None);
        assert_eq!(run(200), Some(1));
        assert_eq!(run(599), Some(2));
        assert_eq!(run(50_000), Some(WINDOWS_MAX));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let spread = relative_spread(&xs).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn failed_frac_counts_errors_over_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(400, 0), 0.0);
        assert_eq!(failed_frac(400, 3), 0.0075);
    }

    #[test]
    fn write_account_spans_a_snapshot_that_resets_the_tail() {
        let c = |wal_bytes, snapshots, last_snapshot_bytes| DurabilityCounters {
            wal_bytes,
            snapshots,
            last_snapshot_bytes,
        };
        // 1 000 bytes already on disk before accounting starts.
        let base = c(1_000, 2, 50_000);
        let mut acct = WriteAccount::new(base);
        acct.observe(c(1_040, 2, 50_000)); // +40 appended
        acct.observe(c(1_100, 2, 50_000)); // +60 appended
                                           // A 70 000-byte snapshot truncates the tail; 30 bytes land after it.
        acct.observe(c(30, 3, 70_000));
        acct.observe(c(90, 3, 70_000)); // +60 appended
        assert_eq!(acct.written(), 40 + 60 + 70_000 + 30 + 60);
        assert_eq!(acct.snapshots_since(&base), 1);
        assert!((acct.amplification(100) - 701.9).abs() < 1e-9);
        assert_eq!(acct.amplification(0), 0.0);
    }
}
