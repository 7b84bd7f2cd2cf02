//! Shared helpers for the integration-test golden files.

use fluxpm::flux::shard::first_divergence;

/// Compare `actual` against a committed golden file, or regenerate it
/// when `GOLDEN_REGEN` is set in the environment.
///
/// `rel` is the golden's path relative to the repository root (used for
/// regeneration and error messages); `golden` is its compile-time
/// content via `include_str!`. On mismatch the panic names the first
/// diverging line (0-based), the three lines before it and both
/// versions of it, instead of dumping both files.
pub fn check_golden(actual: &str, rel: &str, golden: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("regen {rel}: {e}"));
        eprintln!("regenerated {rel} ({} bytes)", actual.len());
        return;
    }
    let golden: Vec<&str> = golden.split('\n').collect();
    let actual: Vec<&str> = actual.split('\n').collect();
    if let Some(d) = first_divergence(&golden, &actual) {
        panic!(
            "golden {rel} (-) and this run (+): {d}\n\
             (intentional change? regenerate with GOLDEN_REGEN=1)"
        );
    }
}
