//! Percentiles and the summary of a timed window.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the samples at or below it. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
}

/// Median of an unsorted list (the lower of the two middle values when
/// the count is even, as [`percentile`] picks it).
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 0.5)
}

/// One answered op: when its reply was parsed, in seconds since the
/// window opened, and how long the caller waited for it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub us: f64,
}

/// Equal-length slices of the window: `p95_us` is the median of their
/// own p95s, and their throughputs are recorded beside the result.
pub const SLICES: usize = 5;
/// Below this many samples a slice's p95 is its maximum or nearly so;
/// the window's own p95 is reported then (smoke runs).
const MIN_SLICE_SAMPLES: usize = 20;

/// What a window reports. Throughput is ops answered correctly ÷ window
/// seconds and p50 is the median of every sample: both over the whole
/// window, so whatever slows part of it slows them as it slows a user.
///
/// `p95_us` is the median over five equal slices of each slice's own
/// p95. Over the whole window a p95 belongs to whichever twentieth of
/// the samples was slowest, and on a shared host that is a neighbour's
/// second, not the program's: two or three runs in ten met one and read
/// 35–45 % high, which no bound can gate. A stall the program makes
/// itself — a checkpoint, a snapshot pause — recurs, fills a twentieth
/// of most slices and moves the median of their p95s; one that happens
/// once in a window still moves `ops_per_s`, and `p95_window_us`,
/// `p99_us` and `max_us` are recorded beside the result, un-gated.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p95_window_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    /// p10 … p90: the shape behind the median.
    pub deciles_us: [f64; 9],
    pub samples: usize,
    /// Throughput of each slice. Recorded, never gated.
    pub slice_ops_per_s: [f64; SLICES],
}

/// Summarize a window of `window_s` seconds. `latency` holds the ops
/// whose latency is reported; `completions` holds the reply times of
/// every op that counts toward throughput (a superset on `serve_mixed`,
/// where percentiles are QUERY-only but INSERTs are work done too).
pub fn summarize(latency: &[Sample], completions: &[f64], window_s: f64) -> Summary {
    let slice_s = window_s / SLICES as f64;
    let slice_of = |at_s: f64| ((at_s / slice_s) as usize).min(SLICES - 1);
    let mut slice_ops_per_s = [0.0; SLICES];
    for &at_s in completions {
        slice_ops_per_s[slice_of(at_s)] += 1.0 / slice_s;
    }
    let mut per_slice: [Vec<f64>; SLICES] = Default::default();
    for s in latency {
        per_slice[slice_of(s.at_s)].push(s.us);
    }
    let mut all: Vec<f64> = latency.iter().map(|s| s.us).collect();
    sort(&mut all);
    let p95_window_us = percentile(&all, 0.95);
    let p95_us = if per_slice.iter().all(|v| v.len() >= MIN_SLICE_SAMPLES) {
        let p95s = per_slice.iter_mut().map(|v| {
            sort(v);
            percentile(v, 0.95)
        });
        median(p95s.collect())
    } else {
        p95_window_us
    };
    Summary {
        ops_per_s: completions.len() as f64 / window_s,
        p50_us: percentile(&all, 0.50),
        p95_us,
        p95_window_us,
        p99_us: percentile(&all, 0.99),
        max_us: all.last().copied().unwrap_or(0.0),
        deciles_us: std::array::from_fn(|i| percentile(&all, (i + 1) as f64 / 10.0)),
        samples: all.len(),
        slice_ops_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_count_is_lower_middle() {
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(vec![5.0]), 5.0);
    }

    /// `rate` ops/s at 100 µs for `secs` seconds, except where `slow`
    /// says a sample (second, index within it) took 300 µs.
    fn window(secs: usize, rate: usize, slow: impl Fn(usize, usize) -> bool) -> Vec<Sample> {
        (0..secs * rate)
            .map(|i| Sample {
                at_s: (i as f64 + 0.5) / rate as f64,
                us: if slow(i / rate, i % rate) {
                    300.0
                } else {
                    100.0
                },
            })
            .collect()
    }

    #[test]
    fn one_disturbed_second_moves_the_window_figures_not_p95() {
        // A neighbour triples latency for the third of five seconds.
        let samples = window(5, 1000, |sec, _| sec == 2);
        // The closed loop answered a third as many ops in that second.
        let disturbed = |s: &&Sample| (2.0..3.0).contains(&s.at_s);
        let completions: Vec<f64> = samples
            .iter()
            .filter(|s| !disturbed(s))
            .chain(samples.iter().filter(disturbed).step_by(3))
            .map(|s| s.at_s)
            .collect();
        let s = summarize(&samples, &completions, 5.0);
        assert_eq!(s.samples, 5000);
        assert!((866.0..868.0).contains(&s.ops_per_s), "{}", s.ops_per_s);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.p95_us, 100.0);
        assert_eq!(s.p95_window_us, 300.0);
        assert!(s.slice_ops_per_s[2] < 400.0 && s.slice_ops_per_s[3] == 1000.0);
    }

    #[test]
    fn a_stall_that_recurs_moves_p95() {
        // The program stalls for the last 80 ms of every second.
        let samples = window(5, 1000, |_, i| i >= 920);
        let completions: Vec<f64> = samples.iter().map(|s| s.at_s).collect();
        let s = summarize(&samples, &completions, 5.0);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.p95_us, 300.0);
    }

    #[test]
    fn short_slices_fall_back_to_the_window() {
        let samples = window(1, 50, |_, i| i >= 45);
        let s = summarize(&samples, &[], 1.0);
        assert_eq!((s.samples, s.ops_per_s), (50, 0.0));
        assert_eq!(s.p95_us, s.p95_window_us);
        let none = summarize(&[], &[], 1.0);
        assert_eq!((none.samples, none.p50_us, none.p95_us), (0, 0.0, 0.0));
    }
}
