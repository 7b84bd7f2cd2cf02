//! Chaos-soak driver: one seeded 16-rank failure storm, summarized on
//! stdout.
//!
//! Runs `chaos::storm`, the storm `tests/chaos_soak.rs` soaks — per-link
//! burst faults, a batched interior kill, a root death, random
//! fail/recover ticks, periodic re-balancing — against the live monitor
//! and manager stack. The storm panics if the overlay does not heal or
//! a budget check fails; otherwise this prints its `StormOutcome`.
//!
//! ```text
//! cargo run --example chaos_soak [seed]
//! ```

use fluxpm::experiments::chaos::{storm, StormConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let out = storm(&StormConfig::new(16, seed));
    println!("chaos soak (seed {seed}): {out:#?}");
}
