//! The crate's `cargo test`: a public-API call the stack no longer
//! honours, a manifest out of step with the binary, or a bound tighter
//! than the measured noise allows, fails here without timing anything.

use stackbench::metrics::{END_TO_END, PER_LAYER};
use stackbench::workloads::Workload;

#[test]
fn every_workload_passes_its_checks_at_one_eighth_size() {
    let (ok, report) = stackbench::check::run();
    assert!(ok, "\n{report}");
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|e| e.name));
    names.extend(PER_LAYER.iter().map(|l| l.name));
    for name in &names {
        let entry = format!("{{\"name\": \"{name}\", ");
        assert_eq!(manifest.matches(&entry).count(), 1, "{name}");
    }
    assert_eq!(
        manifest.matches("{\"name\": ").count(),
        names.len(),
        "BENCHMARK.json names something the binary does not print"
    );
    for e in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
            e.name, e.unit, e.bound
        );
        assert!(manifest.contains(&entry), "{entry}");
    }
}

/// The value of `"key": ` in one row of `noise.json`, up to the next
/// comma or brace, without quotes.
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let start = row
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} missing in {row}"))
        + key.len()
        + 4;
    let rest = &row[start..];
    rest[..rest.find([',', '}']).expect("a row ends in a brace")].trim_matches('"')
}

/// `noise.json` is what `selftest` last wrote on the reference host. A
/// bound means something only while the same code, measured twice,
/// disagrees by less than its noise limit.
#[test]
fn every_bound_leaves_room_for_the_measured_noise() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/noise.json");
    let noise = std::fs::read_to_string(path).expect("benchmark/noise.json");
    let rows: Vec<&str> = noise.lines().filter(|l| l.contains("\"gap\"")).collect();
    assert_eq!(rows.len(), Workload::ALL.len() * END_TO_END.len());
    for w in Workload::ALL {
        for e in &END_TO_END {
            let row = rows
                .iter()
                .find(|r| field(r, "workload") == w.name() && field(r, "metric") == e.name)
                .unwrap_or_else(|| panic!("no row for {} {}", w.name(), e.name));
            let gap: f64 = field(row, "gap").parse().expect("a number");
            assert!(
                gap <= e.noise_limit(),
                "{} {}: measured gap {gap} against a bound of {}",
                w.name(),
                e.name,
                e.bound
            );
        }
    }
}
