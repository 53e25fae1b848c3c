//! Host speed: a fixed reference kernel timed next to the measured work, so
//! that timings read at one reference speed.
//!
//! On a shared host the same instructions take up to 1.5x longer in one
//! minute than in the next, while the host reports no steal time (CPU time
//! drifts with wall time).  A time measured next to probes of the reference
//! kernel is scaled by `NOMINAL_S / probe`: the time the work would take on
//! a host that runs the kernel in `NOMINAL_S`.  The kernel uses only the
//! standard library, so no change to the program under test moves it.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on an unloaded 2-core Intel Xeon host,
/// release build.
pub const NOMINAL_S: f64 = 0.0019;

/// Sorting, hashing and bit counting over a few KiB: about the instruction
/// mix of the synthesis flow, which tracks the host's speed best of the
/// kernels tried (pointer chasing, an interpreter loop, B-tree updates).
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    let mut counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..64 {
        let mut words: Vec<u64> = (0..1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        words.sort_unstable();
        for pair in words.windows(2) {
            let distance = u64::from((pair[0] ^ pair[1]).count_ones());
            if distance & 1 == 1 {
                acc = acc.wrapping_add(distance);
            } else {
                acc ^= pair[0];
            }
            *counts.entry(pair[1] & 1023).or_default() += 1;
        }
    }
    acc ^ counts.len() as u64
}

/// Times one run of the reference kernel, in seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(0x5eed)));
    start.elapsed().as_secs_f64()
}

/// The factor that scales a time measured next to `probes` to the nominal
/// speed.
pub fn factor(probes: &[f64]) -> f64 {
    NOMINAL_S / median(probes)
}

/// Per-sample factors for a sequence with one probe before each sample:
/// sample `i` is scaled by the median of probes `i - 2 ..= i + 2`, so one
/// disturbed probe does not move it.
pub fn local_factors(probes: &[f64]) -> Vec<f64> {
    (0..probes.len())
        .map(|i| factor(&probes[i.saturating_sub(2)..(i + 3).min(probes.len())]))
        .collect()
}

/// Probes taken around a timed region.
const AROUND: usize = 3;

/// Runs `f` between probes; returns its value, its wall time and its time
/// at the nominal speed.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let mut probes: Vec<f64> = (0..AROUND).map(|_| probe()).collect();
    let start = Instant::now();
    let value = f();
    let wall = start.elapsed().as_secs_f64();
    probes.extend((0..AROUND).map(|_| probe()));
    (value, wall, wall * factor(&probes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_factors_take_the_median_of_five_neighbours() {
        let probes = [NOMINAL_S, NOMINAL_S, 10.0, NOMINAL_S, NOMINAL_S / 2.0];
        let factors = local_factors(&probes);
        assert_eq!(factors[2], 1.0);
        assert_eq!(factors[0], 1.0);
    }
}
