//! Unit costs: direct calls into one layer's public functions on inputs
//! shaped like the workload, timed in batches. Each figure is the
//! fastest of [`BATCHES`] batches, divided by the operations in it.
//!
//! A unit cost priced here, times the count the workload reports, is
//! what `attrib.*` calls that layer's share. It is a model from outside
//! the program: the same function may run colder inside a full rep.

use crate::spans::Spans;
use fluxpm_bench::fpp::{epoch_signal, planned_estimate, FppEpochRig};
use fluxpm_bench::relay_tree::RelayTree;
use fluxpm_bench::workload::DeliveryRig;
use fluxpm_fft::PeriodAnalyzer;
use fluxpm_flux::{StateLog, StateValue, World};
use fluxpm_hw::{lassen, MachineKind, NodeHardware, NodeId};
use fluxpm_monitor::{PowerRecord, RingBuffer};
use fluxpm_sim::{Engine, SimDuration, Xoshiro256pp};
use fluxpm_variorum::NodePowerSample;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Nanoseconds per operation of `batch`, which returns how many
/// operations it did: the fastest of [`BATCHES`] runs, each in a span.
fn unit_ns(spans: &mut Spans, name: &'static str, mut batch: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..BATCHES {
        let s = spans.enter(name, None, i as u64);
        let t = Instant::now();
        let ops = batch();
        let ns = t.elapsed().as_nanos() as f64;
        spans.exit(s);
        best = best.min(ns / ops.max(1) as f64);
    }
    best
}

/// Schedule + pop on an `Engine<u64>` holding `pending` events, the
/// workload's own peak.
pub fn engine_op_ns(spans: &mut Spans, pending: usize) -> f64 {
    let pending = pending.max(1);
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = Xoshiro256pp::seed_from_u64(pending as u64);
    let mut world = 0u64;
    for _ in 0..pending {
        let delay = SimDuration::from_micros(1 + rng.below(1_000_000));
        eng.schedule_in(delay, |w: &mut u64, _| *w += 1);
    }
    const OPS: u64 = 200_000;
    unit_ns(spans, "probe.engine_op", || {
        for _ in 0..OPS {
            // One pop (the step) and one push (its replacement), so the
            // pending set stays at the workload's size.
            eng.step(&mut world);
            let delay = SimDuration::from_micros(1 + rng.below(1_000_000));
            eng.schedule_in(delay, |w: &mut u64, _| *w += 1);
        }
        black_box(world);
        OPS
    })
}

/// Per-hop cost of an echo round trip to the deepest rank of a
/// `ranks`-node tree, on a clean network or with the last uplink
/// squeezed to 0.1 % of its bandwidth. Returns `(ns per hop, hops)`.
pub fn hop_ns(spans: &mut Spans, ranks: u32, congested: bool) -> (f64, u32) {
    let mut rig = if congested {
        DeliveryRig::congested(ranks, 0.999)
    } else {
        DeliveryRig::new(ranks)
    };
    let hops = rig.hops();
    const TRIPS: u64 = 20_000;
    let name = if congested {
        "probe.hop_congested"
    } else {
        "probe.hop"
    };
    let ns = unit_ns(spans, name, || {
        for _ in 0..TRIPS {
            rig.roundtrip();
        }
        TRIPS * 2 * u64::from(hops)
    });
    (ns, hops)
}

/// `World::new` per rank, in microseconds.
pub fn world_build_us_per_rank(spans: &mut Spans, ranks: u32, seed: u64) -> f64 {
    unit_ns(spans, "probe.world_build", || {
        black_box(World::new(MachineKind::Lassen, ranks, seed));
        u64::from(ranks)
    }) / 1e3
}

pub fn state_append_ns(spans: &mut Spans) -> f64 {
    const OPS: u64 = 100_000;
    unit_ns(spans, "probe.state_append", || {
        let mut log = StateLog::new();
        for i in 0..OPS {
            let data =
                StateValue::record([("job", StateValue::U64(i)), ("w", StateValue::F64(1200.0))]);
            log.append(i, "probe", "limit", data);
        }
        black_box(log.total_appended())
    })
}

/// One node-agent sample: read the sensors, build the Variorum object,
/// encode it, push it into the ring.
pub fn sample_ns(spans: &mut Spans, seed: u64) -> f64 {
    let mut node = NodeHardware::new(NodeId(0), lassen(), seed);
    let mut ring: RingBuffer<PowerRecord> = RingBuffer::new(4096);
    const OPS: u64 = 20_000;
    let mut ts = 0u64;
    unit_ns(spans, "probe.sample", || {
        for _ in 0..OPS {
            ts += 2_000_000;
            let reading = node.read_sensors();
            let sample = NodePowerSample::from_reading("lassen0", ts, &reading);
            ring.push(PowerRecord::new(sample));
        }
        OPS
    })
}

/// One subscriber-queue delivery through a 256-broker, fanout-8 relay
/// tree with 256 subscribers — the push workload's shape, minus the
/// engine.
pub fn fanout_ns_per_delivery(spans: &mut Spans) -> f64 {
    unit_ns(spans, "probe.fanout", || {
        let mut tree = RelayTree::new(256, 8, 256, 8192);
        // 16 sweeps of 256 deltas stay inside the 8192-deep queues.
        (0..16).map(|_| tree.publish_sweep()).sum()
    })
}

/// One node's planned FPP epoch: four GPU buffers of a 90-sample epoch.
const FPP_GPUS: usize = 4;
const FPP_EPOCH_SAMPLES: usize = 90;

pub fn fpp_epoch_ns(spans: &mut Spans, seed: u64) -> f64 {
    let mut rig = FppEpochRig::new(FPP_GPUS, FPP_EPOCH_SAMPLES, seed);
    const OPS: u64 = 2_000;
    unit_ns(spans, "probe.fpp_epoch", || {
        for _ in 0..OPS {
            black_box(rig.planned_epoch());
        }
        OPS
    })
}

pub fn fft_estimate_ns(spans: &mut Spans, seed: u64) -> f64 {
    let samples = epoch_signal(FPP_EPOCH_SAMPLES, 10.5, seed);
    let mut analyzer = PeriodAnalyzer::new();
    const OPS: u64 = 5_000;
    unit_ns(spans, "probe.fft_estimate", || {
        for _ in 0..OPS {
            black_box(planned_estimate(&mut analyzer, black_box(&samples)));
        }
        OPS
    })
}

/// `(to_json ns, from_json ns)` on a Lassen sample.
pub fn json_ns(spans: &mut Spans, seed: u64) -> (f64, f64) {
    let mut node = NodeHardware::new(NodeId(0), lassen(), seed);
    let sample = NodePowerSample::from_reading("lassen0", 2_000_000, &node.read_sensors());
    let text = sample.to_json();
    const OPS: u64 = 50_000;
    let enc = unit_ns(spans, "probe.to_json", || {
        for _ in 0..OPS {
            black_box(black_box(&sample).to_json());
        }
        OPS
    });
    let dec = unit_ns(spans, "probe.from_json", || {
        for _ in 0..OPS {
            black_box(NodePowerSample::from_json(black_box(&text)));
        }
        OPS
    });
    (enc, dec)
}

/// `(tick ns, read_sensors ns)` on a Lassen node at the executor's 1 s
/// slice.
pub fn hw_ns(spans: &mut Spans, seed: u64) -> (f64, f64) {
    let mut node = NodeHardware::new(NodeId(0), lassen(), seed);
    const OPS: u64 = 100_000;
    let tick = unit_ns(spans, "probe.hw_tick", || {
        for _ in 0..OPS {
            black_box(node.tick(1.0));
        }
        OPS
    });
    let read = unit_ns(spans, "probe.hw_read_sensors", || {
        for _ in 0..OPS {
            black_box(node.read_sensors());
        }
        OPS
    });
    (tick, read)
}
