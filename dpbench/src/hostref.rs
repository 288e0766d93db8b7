//! The host's speed during a run, from a fixed reference computation
//! timed at intervals through the timed phase, and the scaling that
//! expresses the run's timings at a nominal host speed.
//!
//! The 2-vCPU host the benchmark was built on slows each vCPU by up to
//! 1.9× for stretches from a fraction of a second to many minutes:
//! neighbours share its caches and memory bandwidth. A fixed
//! computation slows with the host, and nothing in the program under
//! test changes it. A quantile of the program's timings, divided by the
//! same quantile of the reference's, removes most of the host's share
//! and leaves the program's.
//!
//! Every constant below is part of the scale: change one and scaled
//! timings of different commits no longer compare.

use crate::stats::percentile_of;
use obskit::Stopwatch;

/// Time between samples, in ns.
pub const EVERY_NS: u64 = 250_000_000;

/// Reference time, in ms, of an unhindered vCPU of the host the
/// benchmark was built on: a scaled timing reads as the program would
/// have run there.
const NOMINAL_MS: f64 = 2.0;

/// `u64` slots of the random-access table (4 MiB).
const TABLE_SLOTS: usize = 1 << 19;
const TABLE_STEPS: usize = 400_000;
/// Bytes of the text validated as UTF-8, and how often.
const TEXT_BYTES: usize = 100_000;
const TEXT_PASSES: usize = 400;
const CHAIN_STEPS: usize = 500_000;

pub struct HostRef {
    table: Vec<u64>,
    text: Vec<u8>,
    /// One time per [`HostRef::sample`], in ms.
    samples: Vec<f64>,
}

impl Default for HostRef {
    fn default() -> Self {
        Self {
            table: vec![1; TABLE_SLOTS],
            text: vec![b'a'; TEXT_BYTES],
            samples: Vec::new(),
        }
    }
}

impl HostRef {
    /// Times three kernels on the calling thread and records the
    /// geometric mean of their times: random read-modify-writes over
    /// 4 MiB (cache misses), UTF-8 validation of 100 KB (streaming from
    /// cache), and a dependent multiply chain (the core alone).
    pub fn sample(&mut self) {
        let seed = self.samples.len() as u64;
        let table = time_ms(|| random_updates(&mut self.table, seed));
        let utf8 = time_ms(|| validate(&self.text));
        let chain = time_ms(|| multiply_chain(seed));
        self.samples.push((table * utf8 * chain).cbrt());
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The `p` quantile of the reference's times, in ms.
    pub fn ms(&self, p: f64) -> f64 {
        percentile_of(&self.samples, p)
    }

    /// `value`, the `p` quantile of some timing of this run, at the
    /// nominal host speed: divided by the reference's `p` quantile, so
    /// that fast moments are compared with fast moments and typical
    /// with typical. Unchanged when nothing was sampled.
    pub fn scale(&self, value: f64, p: f64) -> f64 {
        if self.samples.is_empty() {
            value
        } else {
            value * NOMINAL_MS / self.ms(p)
        }
    }
}

fn time_ms(work: impl FnOnce() -> u64) -> f64 {
    let watch = Stopwatch::start();
    std::hint::black_box(work());
    watch.elapsed_ns() as f64 / 1e6
}

fn random_updates(table: &mut [u64], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mask = table.len() - 1;
    for _ in 0..TABLE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        table[j] = table[j].wrapping_add(x);
    }
    x
}

fn validate(text: &[u8]) -> u64 {
    (0..TEXT_PASSES)
        .map(|i| std::str::from_utf8(std::hint::black_box(&text[i % 64..])).map_or(0, str::len))
        .sum::<usize>() as u64
}

fn multiply_chain(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..CHAIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    x
}
