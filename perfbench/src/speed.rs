//! Host-speed normalization.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±25 % over
//! tens of seconds (other tenants on the same cores). Every reported
//! time is therefore scaled to a reference host speed: a fixed kernel
//! that belongs to the benchmark, not to the program (sorting, hashing
//! and float math on a cache-resident working set), is timed around the
//! ops, and an op's time `t` is reported as `t × REFERENCE_NS / r`, where
//! `r` is the kernel's time measured around that op. A change to the
//! program moves `t` and leaves `r` alone; a slow spell of the host
//! moves both. Raw times are printed next to the normalized ones.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on an unloaded reference host (ns).
pub const REFERENCE_NS: f64 = 75_000.0;
/// Minimum wall time between two probes (s).
const PERIOD_S: f64 = 0.025;

pub struct HostSpeed {
    keys: Vec<u64>,
    slots: Vec<u64>,
    last_probe: Instant,
    /// Kernel time of the probe before the current op (ns).
    before_ns: f64,
    /// Every probe taken (ns), for the run summary.
    probes: Vec<f64>,
    last_factor: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            keys: vec![0; 4096],
            slots: vec![0; 8192],
            last_probe: Instant::now(),
            before_ns: 0.0,
            probes: Vec::new(),
            last_factor: 1.0,
        };
        speed.before_ns = speed.probe();
        speed
    }

    /// Sorting, open-addressing hashing and float math on preallocated
    /// buffers that fit in L2: no allocation, and a warm run does not
    /// depend on what the op left in the heap or the cache.
    fn kernel(&mut self, seed: u64) -> u64 {
        let mut x = seed | 1;
        for k in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        self.slots.fill(0);
        let mut acc = 0.0f64;
        let mask = self.slots.len() - 1;
        for (i, &k) in self.keys.iter().enumerate() {
            let mut slot = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            while self.slots[slot] != 0 && self.slots[slot] != k {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = k;
            acc += (i as f64).sqrt() / (1.0 + (k & 0xff) as f64);
        }
        acc as u64 ^ self.keys[self.keys.len() / 2]
    }

    /// Median of three kernel runs after a warm-up run (ns).
    fn probe(&mut self) -> f64 {
        black_box(self.kernel(black_box(1)));
        let mut runs = [0.0f64; 3];
        for run in runs.iter_mut() {
            let t = Instant::now();
            black_box(self.kernel(black_box(1)));
            *run = t.elapsed().as_nanos() as f64;
        }
        runs.sort_by(f64::total_cmp);
        self.last_probe = Instant::now();
        self.probes.push(runs[1]);
        runs[1]
    }

    /// Call before an op: probes when the last probe is older than the
    /// probe period.
    pub fn before_op(&mut self) {
        if self.last_probe.elapsed().as_secs_f64() >= PERIOD_S {
            self.before_ns = self.probe();
        }
    }

    /// Call after the op: the factor that scales its raw times to the
    /// reference host speed. An op that outlasted the probe period is
    /// bracketed by a second probe.
    pub fn after_op(&mut self) -> f64 {
        let r = if self.last_probe.elapsed().as_secs_f64() >= PERIOD_S {
            let after = self.probe();
            let r = (self.before_ns + after) / 2.0;
            self.before_ns = after;
            r
        } else {
            self.before_ns
        };
        self.last_factor = REFERENCE_NS / r;
        self.last_factor
    }

    /// Normalized wall time (s) of `f`, with its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        self.before_op();
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        (raw * self.after_op(), out)
    }

    /// The factor `after_op` last returned.
    pub fn last_factor(&self) -> f64 {
        self.last_factor
    }

    /// Median probe of the run, as a share of the reference (> 1: the
    /// host ran slower than the reference).
    pub fn median_slowdown(&self) -> f64 {
        crate::stats::median(&self.probes) / REFERENCE_NS
    }
}
