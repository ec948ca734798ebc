//! Small statistics and process helpers shared by the workloads.

use std::time::Duration;

/// Latency recorded for an op that failed or was refused: the client's
/// 30-second socket deadline, so a failure misses any latency limit.
pub const FAILED_OP_US: f64 = 30e6;

/// Nearest-rank quantile of an unsorted sample (sorts it in place).
/// Returns 0 for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latency samples of one kind of op, in µs.
#[derive(Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Records one failed op: it misses every latency limit.
    pub fn push_failed(&mut self) {
        self.push(FAILED_OP_US);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Quantile `q` over every sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&mut self.samples.clone(), q)
    }

    /// One stdout line stating the sample count, the p50 and p99, and how
    /// many samples lie beyond the p99 (it needs at least ten to be
    /// reported as a p99).
    pub fn describe(&self, name: &str) -> String {
        let (p50, p99) = (self.quantile(0.5), self.quantile(0.99));
        let beyond = self.samples.iter().filter(|&&v| v > p99).count();
        format!(
            "{name}: {} samples, p50 {p50:.1} us, p99 {p99:.1} us, {beyond} samples beyond p99",
            self.len()
        )
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deterministic 64-bit mix of a seed and a counter (SplitMix64), for
/// choices the workloads make per op.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
