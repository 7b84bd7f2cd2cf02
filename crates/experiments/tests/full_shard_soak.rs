//! Full-fidelity sharded-world soak: the real monitor + manager stack,
//! sharded across threads, must merge a byte-identical canonical record
//! stream for every shard count — including under bursty congestion.
//!
//! These are the ISSUE-9 acceptance gates: shard counts 1/2/4/8 on
//! three seeds with congestion plans, plus a property sweep over random
//! shard counts and congestion windows.

use fluxpm_experiments::full_shard::{full_shard_run, FullShardConfig};
use fluxpm_flux::shard::first_divergence;
use fluxpm_flux::{records_hash, CongestionBurst, Rank};
use fluxpm_sim::SimTime;
use proptest::prelude::*;

/// Run the scenario at every shard count and demand byte-equality of
/// the merged record stream (not just the hash). Returns the
/// single-shard `(trace_hash, records)`.
fn assert_shard_invariant(base: &FullShardConfig, counts: &[usize]) -> (u64, usize) {
    let mut one = base.clone();
    one.shards = 1;
    let (ref_records, ref_out) = full_shard_run(&one);
    assert!(
        ref_out.records > 0,
        "seed {}: the stack must emit records",
        base.seed
    );
    for &shards in counts {
        let mut cfg = base.clone();
        cfg.shards = shards;
        let (records, out) = full_shard_run(&cfg);
        if let Some(d) = first_divergence(&ref_records, &records) {
            panic!("seed {}: shards=1 vs shards={shards}: {d}", base.seed);
        }
        assert_eq!(
            ref_out.trace_hash, out.trace_hash,
            "seed {}: shards=1 vs shards={shards} hash",
            base.seed
        );
        assert_eq!(
            records_hash(&records),
            ref_out.trace_hash,
            "seed {}: shards={shards} stream does not hash to the shards=1 fingerprint",
            base.seed
        );
        assert!(
            records.windows(2).all(|w| w[0] <= w[1]),
            "seed {}: shards={shards} merged stream is not time-ordered",
            base.seed
        );
    }
    (ref_out.trace_hash, ref_out.records)
}

/// 64-rank storm, three seeds, shard counts 1/2/4/8, clean links.
#[test]
fn storm_64_shard_counts_agree_three_seeds() {
    for seed in [3u64, 11, 42] {
        let base = FullShardConfig::new(64, 1, seed);
        assert_shard_invariant(&base, &[2, 4, 8]);
    }
}

/// 64-rank storm under bursty congestion windows, three seeds, shard
/// counts 1/2/4/8.
#[test]
fn congested_storm_64_shard_counts_agree_three_seeds() {
    for seed in [3u64, 11, 42] {
        let base = FullShardConfig::congested(64, 1, seed);
        assert_shard_invariant(&base, &[2, 4, 8]);
    }
}

/// The full 128-rank acceptance scenario: congestion plans, three
/// seeds, shard counts 1/2/4/8 — the ISSUE-9 gate at the storm scale
/// the benchmark times.
#[test]
fn congested_storm_128_shard_counts_agree() {
    for seed in [3u64, 11, 42] {
        let base = FullShardConfig::congested(128, 1, seed);
        assert_shard_invariant(&base, &[2, 4, 8]);
    }
}

/// Fleet-preset soak at a test-sized rank count: relaxed cadences, the
/// real stack, byte-equality across shard counts.
#[test]
fn fleet_preset_shard_counts_agree() {
    let base = FullShardConfig::fleet(256, 1, 7);
    let fingerprint = assert_shard_invariant(&base, &[4]);
    assert_eq!(fingerprint, (0x39f0_8228_cb87_cae5, 1181));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any shard count and any congestion window shape produce the
    /// same merged stream as the single-shard reference. Every window is
    /// open at `t = 4 s`, when the first filler job's admission re-pushes
    /// node limits down both root links, and a congested link runs at
    /// severity 0.9 or more, where a 1 KiB message pays at least 1 µs per
    /// crossing: the limit records land later than on calm links.
    #[test]
    fn random_shards_and_congestion_windows_agree(
        seed in 0u64..1000,
        shards in 2usize..10,
        start_s in 0u64..5,
        len_s in 5u64..20,
        severity in 0.9f64..0.9995,
        p_flap in 0.05f64..0.5,
    ) {
        let mut base = FullShardConfig::new(32, 1, seed);
        base.storm_ticks = 2;
        base.filler_jobs = 2;
        let window = SimTime::from_secs(start_s)..SimTime::from_secs(start_s + len_s);
        let burst = CongestionBurst {
            p_calm_to_congested: p_flap,
            p_congested_to_calm: p_flap,
            calm_severity: 0.0,
            congested_severity: severity,
        };
        base.extra_congestion = vec![
            (Rank(0), Rank(1), window.clone(), Some(burst)),
            (Rank(0), Rank(2), window, None),
        ];
        let mut one = base.clone();
        one.shards = 1;
        let (ref_records, ref_out) = full_shard_run(&one);
        let mut n = base.clone();
        n.shards = shards;
        let (records, out) = full_shard_run(&n);
        prop_assert_eq!(ref_out.trace_hash, out.trace_hash);
        prop_assert_eq!(ref_records, records);
        // The windows moved the stream: a twin run without them differs.
        one.extra_congestion.clear();
        prop_assert_ne!(full_shard_run(&one).1.trace_hash, ref_out.trace_hash);
    }
}
