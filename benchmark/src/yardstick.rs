//! The yardstick: a fixed piece of work, owned by the benchmark, that is
//! timed right before and right after every rep.
//!
//! Why: on a shared host the same rep of the same code costs 1.3–1.8× more
//! in one minute than in the next (measured here: `telemetry_pull_256`,
//! 1.34 s and 3.47 s an hour apart), and the slow stretches last minutes,
//! so no statistic of one run's reps sees past them. What a stretch does to
//! a rep it also does to any other work of the same kind done next to it.
//! A rep's time divided by the lap times around it is therefore steadier
//! than the rep's time, and a change to the stack cannot move the divisor,
//! because a lap runs none of the stack's code.
//!
//! One lap mixes what the stack's reps are made of — dependent loads over
//! a working set far beyond the caches and over one that nearly fits,
//! heap / tree / `String` churn with small allocations, a register-only
//! loop, a streaming copy — in about [`REFERENCE_LAP_S`] on a calm host.

use crate::measure;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

/// What a lap takes on the host this was written on when it is calm.
/// Timing metrics are reported as `time ÷ lap × REFERENCE_LAP_S`: seconds
/// as this host reads them in a calm minute.
pub const REFERENCE_LAP_S: f64 = 0.3;

const BIG_WORDS: usize = 16 << 20; // 64 MiB of u32
const MID_WORDS: usize = 1 << 20; // 4 MiB of u32
const STREAM_WORDS: usize = 4 << 20; // 32 MiB of u64, twice

pub struct Yardstick {
    big: Vec<u32>,
    mid: Vec<u32>,
    src: Vec<u64>,
    dst: Vec<u64>,
}

/// The index after `i`: it depends on the word loaded at `i`, so no load
/// can start before the one ahead of it ends and no prefetcher can guess
/// it, and on the step number, so the walk cannot close into a short
/// cycle that would fit a cache.
fn next(table: &[u32], i: usize, step: usize) -> usize {
    let mixed = (i ^ step)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(table[i] as usize);
    (mixed >> 7) & (table.len() - 1)
}

fn chase(table: &[u32], steps: usize) -> usize {
    (0..steps).fold(1, |i, step| next(table, i, step))
}

/// An event queue, an ordered map and formatted keys, with a small
/// allocation per step: the shape of a simulator's inner loop.
fn churn(steps: usize) -> u64 {
    let mut heap: BinaryHeap<(u64, Box<[u64; 4]>)> = BinaryHeap::new();
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut s = 88_172_645_463_325_252u64;
    let mut acc = 0u64;
    for i in 0..steps {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        heap.push((s >> 20, Box::new([s; 4])));
        map.insert(s >> 40, format!("k{}", s & 0xffff));
        if i % 2 == 1 {
            if let Some((k, b)) = heap.pop() {
                acc ^= k ^ b[0];
            }
        }
        if map.len() > 4096 {
            map.pop_first();
        }
    }
    acc
}

fn spin(steps: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..steps {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    x
}

impl Yardstick {
    /// Allocates ~130 MiB: build it only after the workload's own peak
    /// resident set has been read.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Yardstick {
        let table = |n: usize| {
            (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect()
        };
        Yardstick {
            big: table(BIG_WORDS),
            mid: table(MID_WORDS),
            src: vec![1; STREAM_WORDS],
            dst: vec![0; STREAM_WORDS],
        }
    }

    /// One lap: `(wall, cpu)` seconds.
    pub fn lap(&mut self) -> (f64, f64) {
        let ((), wall, cpu) = measure::timed(|| {
            black_box(chase(&self.big, 400_000));
            black_box(chase(&self.mid, 2_000_000));
            black_box(churn(150_000));
            black_box(spin(20_000_000));
            for _ in 0..4 {
                self.dst.copy_from_slice(&self.src);
                black_box(&self.dst);
            }
        });
        (wall, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_wanders_over_the_whole_table() {
        let table: Vec<u32> = (0..1u32 << 16)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut seen = vec![false; table.len()];
        let mut i = 1;
        for step in 0..table.len() * 4 {
            i = next(&table, i, step);
            seen[i] = true;
        }
        let touched = seen.iter().filter(|&&s| s).count();
        assert!(
            touched > table.len() * 9 / 10,
            "{touched} of {}",
            table.len()
        );
    }
}
