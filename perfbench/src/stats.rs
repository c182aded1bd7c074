//! Order statistics, the peak-memory probe, per-op seeds and the
//! schedule digest.

/// The `q`-th percentile (0–100, interpolated between closest ranks);
/// NaN when empty, so a metric with no samples fails the run instead of
/// reading 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    deep::core::percentile(samples, q)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A tail percentile that resists bursts of host noise: the median of
/// the `q`-th percentile over consecutive blocks of `block` samples.
/// With fewer than two blocks it is the plain percentile.
pub fn blocked_percentile(samples: &[f64], q: f64, block: usize) -> f64 {
    if samples.len() < 2 * block {
        return percentile(samples, q);
    }
    let per_block: Vec<f64> = samples.chunks_exact(block).map(|b| percentile(b, q)).collect();
    median(&per_block)
}

/// A central value that resists both host noise and the mix of inputs a
/// run happens to fit: the median of the means of consecutive blocks of
/// `block` samples. With fewer than two blocks it is the plain mean.
pub fn blocked_mean(samples: &[f64], block: usize) -> f64 {
    if samples.len() < 2 * block {
        return mean(samples);
    }
    let per_block: Vec<f64> = samples.chunks_exact(block).map(mean).collect();
    median(&per_block)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: derives every per-op seed from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serialized schedules of a workload's first ops, digested.
#[derive(Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn add_schedule(&mut self, schedule: &deep::simulator::Schedule) {
        let json = serde_json::to_vec(schedule).expect("schedules serialize");
        self.0.extend_from_slice(&json);
    }

    pub fn hex(&self) -> String {
        deep::registry::Digest::of(&self.0).short().to_string()
    }
}
