//! Chaos-soak: seeded fail/recover storms against the live power stack.
//!
//! Every soak here is [`storm`], the one plain-world storm: a scripted
//! prefix (an interior batch kill, a node re-failing 50 µs into its own
//! recovery, the root dying mid-storm) followed by seeded random
//! fail/recover ticks, all while the monitor samples, the manager
//! enforces budgets, jobs churn through the queue, per-link burst faults
//! drop traffic, and a periodic re-balance pass restores k-ary shape.
//!
//! `storm` asserts its invariants every simulated second (root attached
//! and alive, every attached rank reachable and acyclic, topology epoch
//! monotone) and once the world halts. The tests below add what only the
//! trace text shows, pin outcomes, and demand that a storm replay
//! byte-for-byte from its seed.

use fluxpm::experiments::chaos::{storm, storm_trace, StormConfig, StormOutcome};
use fluxpm::sim::TraceLevel;

mod common;

/// One 16-rank storm, traced at `Debug` so every hop is in the text.
fn soak(seed: u64) -> (StormOutcome, String) {
    let cfg = StormConfig {
        trace_level: TraceLevel::Debug,
        ..StormConfig::new(16, seed)
    };
    let (outcome, trace) = storm_trace(&cfg);
    // The scripted prefix is deterministic regardless of seed: the batch
    // kill re-parents orphans, and the root death elects rank 1.
    assert!(trace.contains("re-parented 2 orphan(s) of rank1 under rank0"));
    assert!(trace.contains("re-parented 2 orphan(s) of rank2 under rank0"));
    assert!(trace.contains("root failover: rank0 -> rank1"));
    assert!(
        outcome.invariant_checks >= 90,
        "invariant checker ran through the storm"
    );
    (outcome, trace)
}

#[test]
fn storm_seed_11_converges() {
    soak(11);
}

#[test]
fn storm_seed_29_converges() {
    soak(29);
}

#[test]
fn storm_seed_47_converges() {
    soak(47);
}

/// The acceptance scenario: the full storm — overlapping interior
/// failures, a failure during an active recovery, the root dying
/// mid-storm, burst faults — converges, and the same seed replays
/// byte-identically, trace and all. The trace is also pinned to a
/// committed golden, so an engine or overlay change that shifts event
/// ordering fails here even though both runs of the *new* code agree
/// with each other.
#[test]
fn acceptance_storm_replays_byte_identical() {
    let (first, trace) = soak(64);
    assert_eq!(first, soak(64).0, "same-seed storms must be byte-identical");
    common::check_golden(
        &trace,
        "tests/golden/chaos_soak_seed64.trace",
        include_str!("golden/chaos_soak_seed64.trace"),
    );
}

// --- 128-rank storms -------------------------------------------------

/// The scaled storm: a 128-rank instance through the same script with
/// proportionally sized failure batches, replayed for equality.
#[test]
fn storm_128_ranks_converges_and_replays() {
    let cfg = StormConfig::new(128, 7);
    let first = storm(&cfg);
    assert!(first.invariant_checks >= 90);
    assert_eq!(first, storm(&cfg), "same-seed 128-rank storms must agree");
    let pin = (first.trace_hash, first.trace_lines, first.halted_at_us);
    assert_eq!(pin, (0xb337_224f_9a8f_a369, 1005, 140_000_000));
}

/// Network-realism acceptance: the 128-rank storm with congestion
/// layered on — per-link bandwidth squeezes (one sustained, one
/// Gilbert–Elliott-style flapping window riding the death ticks, one
/// mid-tree), 1 s push telemetry feeding every interior link, and the
/// link monitor routing subtrees around sustained congestion. The
/// harness itself asserts the acceptance invariants (the mid-congestion
/// reduction completes, exactly one re-parent for the sustained
/// pre-storm event, per-link re-parents bounded against epoch thrash);
/// this test pins the replay-equality and re-route guarantees at scale.
#[test]
fn congestion_storm_128_ranks_converges_and_replays() {
    let cfg = StormConfig::congested(128, 7);
    let first = storm(&cfg);
    assert!(first.invariant_checks >= 90);
    assert!(
        first.congestion_reparents >= 1,
        "congestion avoidance engaged: {first:?}"
    );
    assert_eq!(first, storm(&cfg), "same-seed congestion storms must agree");
    let pin = (first.trace_hash, first.trace_lines, first.halted_at_us);
    assert_eq!(pin, (0x4ecb_eae1_e12e_1a22, 5425, 140_000_000));
}

/// Long-horizon soak: ten minutes of simulated churn at 128 ranks.
/// Too slow for the CI fast matrix — run explicitly with
/// `cargo test -- --ignored` (nightly soak lane).
#[test]
#[ignore = "long-horizon soak; run with --ignored"]
fn storm_128_ranks_long_horizon_soak() {
    let out = storm(&StormConfig::long(128, 21));
    assert!(out.invariant_checks >= 600, "checker ran through the soak");
    assert!(out.epoch > 0 && out.drops > 0);
}
