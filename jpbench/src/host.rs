//! Host speed. The benchmark runs on shared machines whose speed changes
//! from minute to minute: over one set of runs every workload came out up
//! to 1.8 times faster together. A calibration round is fixed work that
//! calls no engine code, so its time moves only with the host; dividing
//! the workload's times by it leaves what the engine changed.

use crate::ops::mix;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Calibration rounds run on this many threads at once, as many as the
/// busiest workload runs.
const THREADS: u64 = 2;

/// One round: sort 64k keys, build an ordered map over an eighth of them
/// with formatted values, and look a third of the keys up in it. That is
/// allocation, comparison sorts, tree descents and formatting, the kinds
/// of work a statement does.
fn round(seed: u64) -> u64 {
    let mut keys: Vec<u64> = (0..1u64 << 16).map(|i| mix(seed, i, 0)).collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, String> =
        keys.iter().step_by(8).map(|&k| (k, format!("{k:x}"))).collect();
    keys.iter()
        .step_by(3)
        .filter_map(|k| map.range(..=k).next_back())
        .fold(0u64, |acc, (_, v)| acc.wrapping_add(v.len() as u64))
}

/// Times calibration rounds for `d` on [`THREADS`] threads and returns
/// every round's time in ns.
pub fn rounds_ns(d: Duration) -> Vec<f64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let start = Instant::now();
                    let mut times = Vec::new();
                    let mut seed = t;
                    while start.elapsed() < d {
                        let t0 = Instant::now();
                        seed = std::hint::black_box(round(std::hint::black_box(seed)));
                        times.push(t0.elapsed().as_nanos() as f64);
                    }
                    times
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("calibration thread panicked")).collect()
    })
}
