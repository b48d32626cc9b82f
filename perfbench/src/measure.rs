//! Statistics over samples and the few `/proc` readings the benchmark
//! reports: memory high-water marks, CPU time, and host steal.

use std::fs;

/// The median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `values` (`q` in `0..=1`); 0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len().saturating_sub(1)) as f64 * q).round() as usize;
    sorted.get(rank).copied().unwrap_or(0.0)
}

/// The highest percentile of a sample that still has at least ten samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `values`: the value with exactly ten samples above it in
/// sorted order.  With eleven or fewer samples it is the minimum.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = n.saturating_sub(11);
    Tail {
        value: sorted.get(rank).copied().unwrap_or(0.0),
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (rank + 1) as f64 / n as f64
        },
        samples: n,
    }
}

/// The median over consecutive blocks of `block` values of each block's
/// [`tail`]: a tail that one rare stall cannot move.  With fewer values than
/// a block it is the plain tail.
pub fn blocked_tail(values: &[f64], block: usize) -> Tail {
    let tails: Vec<Tail> = values.chunks_exact(block).map(tail).collect();
    match tails.first() {
        None => tail(values),
        Some(first) => Tail {
            value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            percentile: first.percentile,
            samples: values.len(),
        },
    }
}

/// Cumulative CPU ticks of the whole host, from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    /// Reads the current counters (zeros when `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user and nice.
        HostTicks {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// The share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// CPU seconds the calling thread has run, from its scheduler statistics.
pub fn thread_cpu_seconds() -> f64 {
    schedstat_seconds("/proc/thread-self/schedstat")
}

/// CPU seconds all threads of process `pid` have run.
pub fn process_cpu_seconds(pid: u32) -> f64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    tasks
        .filter_map(Result::ok)
        .map(|task| schedstat_seconds(&format!("{}/schedstat", task.path().display())))
        .sum()
}

fn schedstat_seconds(path: &str) -> f64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// The peak resident set (`VmHWM`) of a process in MiB; `pid` is a number
/// or `self`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.9), 5.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        let blocked = blocked_tail(&[values.clone(), values].concat(), 100);
        assert_eq!((blocked.value, blocked.samples), (90.0, 200));
    }
}
