//! Property-based tests for the Variorum JSON encoding.

use fluxpm_hw::Lanes;
use fluxpm_variorum::NodePowerSample;
use proptest::prelude::*;

prop_compose! {
    /// A telemetry-scale sample, whose readings are node power: used where
    /// a property holds only for such readings (a non-negative estimate, a
    /// bounded record).
    fn any_sample()(
        hostname in "[a-z][a-z0-9]{0,15}",
        timestamp_us in 0u64..u64::MAX / 2,
        node in prop::option::of(0.0f64..10_000.0),
        cpu in prop::collection::vec(0.0f64..1_000.0, 0..4),
        mem in prop::option::of(0.0f64..500.0),
        gpu in prop::collection::vec(0.0f64..600.0, 0..9),
    ) -> NodePowerSample {
        NodePowerSample {
            hostname: hostname.into(),
            timestamp_us,
            power_node_watts: node,
            power_cpu_watts: cpu.into_iter().collect(),
            power_mem_watts: mem,
            power_gpu_watts: gpu.into_iter().collect(),
        }
    }
}

/// Any reading the writer can be handed: telemetry-scale values of
/// either sign, signed zeros, NaN and both infinities, values from 4e12 on
/// (written by `{:.3}`, not the fixed-point path), and any bit pattern.
fn any_reading() -> impl Strategy<Value = f64> {
    let special = (0usize..8).prop_map(|i| {
        [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            4.0e12,
            -4.0e12,
        ][i]
    });
    prop_oneof![
        6 => -5_000.0f64..5_000.0,
        2 => special,
        1 => 4.0e12f64..1.0e20,
        1 => -1.0e20f64..-4.0e12,
        1 => any::<u64>().prop_map(f64::from_bits),
    ]
}

prop_compose! {
    /// A sample of any readings (see [`any_reading`]), as many per family
    /// as a sample holds.
    fn wide_sample()(
        hostname in "[a-z][a-z0-9]{0,15}",
        timestamp_us in any::<u64>(),
        node in prop::option::of(any_reading()),
        cpu in prop::collection::vec(any_reading(), 0..=Lanes::<f64>::CAPACITY),
        mem in prop::option::of(any_reading()),
        gpu in prop::collection::vec(any_reading(), 0..=Lanes::<f64>::CAPACITY),
    ) -> NodePowerSample {
        NodePowerSample {
            hostname: hostname.into(),
            timestamp_us,
            power_node_watts: node,
            power_cpu_watts: cpu.into_iter().collect(),
            power_mem_watts: mem,
            power_gpu_watts: gpu.into_iter().collect(),
        }
    }
}

/// What `from_json` decodes, as the `Vec`-based parser it replaced
/// returned it: `(hostname, timestamp, node, cpu, mem, gpu)`.
type Decoded = (String, u64, Option<f64>, Vec<f64>, Option<f64>, Vec<f64>);

/// The parser `NodePowerSample::from_json` replaced, kept verbatim as the
/// oracle: collect `(index, value)` pairs per family, stable-sort by
/// index, keep the values. It has no limit on entries per family.
fn reference_from_json(s: &str) -> Option<Decoded> {
    fn split_top_level(s: &str) -> Vec<&str> {
        let mut parts = Vec::new();
        let mut depth_quote = false;
        let mut start = 0;
        for (i, c) in s.char_indices() {
            match c {
                '"' => depth_quote = !depth_quote,
                ',' if !depth_quote => {
                    parts.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if start < s.len() {
            parts.push(&s[start..]);
        }
        parts
    }

    let body = s.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut hostname = String::new();
    let mut timestamp_us = 0u64;
    let mut node = None;
    let mut mem = None;
    let mut cpu: Vec<(usize, f64)> = Vec::new();
    let mut gpu: Vec<(usize, f64)> = Vec::new();
    for pair in split_top_level(body) {
        let (k, v) = pair.split_once(':')?;
        let key = k.trim().trim_matches('"');
        let val = v.trim();
        match key {
            "hostname" => hostname = val.trim_matches('"').to_owned(),
            "timestamp_us" => {
                timestamp_us = match val.parse::<u64>() {
                    Ok(t) => t,
                    Err(_) => val.parse::<f64>().ok()? as u64,
                }
            }
            "power_node_watts" => node = Some(val.parse().ok()?),
            "power_mem_watts" => mem = Some(val.parse().ok()?),
            _ => {
                if let Some(idx) = key.strip_prefix("power_cpu_watts_socket_") {
                    cpu.push((idx.parse().ok()?, val.parse().ok()?));
                } else if let Some(idx) = key.strip_prefix("power_gpu_watts_") {
                    gpu.push((idx.parse().ok()?, val.parse().ok()?));
                }
            }
        }
    }
    cpu.sort_by_key(|(i, _)| *i);
    gpu.sort_by_key(|(i, _)| *i);
    Some((
        hostname,
        timestamp_us,
        node,
        cpu.into_iter().map(|(_, w)| w).collect(),
        mem,
        gpu.into_iter().map(|(_, w)| w).collect(),
    ))
}

/// Bit patterns, so that a decoded `NaN` compares equal to itself.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_decode(json: &str) -> Result<(), TestCaseError> {
    let got = NodePowerSample::from_json(json);
    let want = reference_from_json(json);
    match (got, want) {
        (None, None) => {}
        (Some(got), Some((hostname, ts, node, cpu, mem, gpu))) => {
            prop_assert_eq!(&*got.hostname, hostname.as_str(), "{}", json);
            prop_assert_eq!(got.timestamp_us, ts, "{}", json);
            prop_assert_eq!(
                got.power_node_watts.map(f64::to_bits),
                node.map(f64::to_bits)
            );
            prop_assert_eq!(got.power_mem_watts.map(f64::to_bits), mem.map(f64::to_bits));
            prop_assert_eq!(bits(&got.power_cpu_watts), bits(&cpu), "{}", json);
            prop_assert_eq!(bits(&got.power_gpu_watts), bits(&gpu), "{}", json);
        }
        (got, want) => prop_assert!(false, "{json}: decoded {got:?}, oracle {want:?}"),
    }
    Ok(())
}

/// One `key:value` member of a flat object. Family members carry sparse,
/// possibly repeated indices; a few values are not numbers at all.
fn any_member() -> impl Strategy<Value = (u8, String)> {
    let value = prop_oneof![
        8 => (-5_000.0f64..5_000.0).prop_map(|v| format!("{v:.3}")),
        1 => (4.0e12f64..1.0e20).prop_map(|v| format!("{v:.3}")),
        // More than three decimals.
        2 => (-5_000.0f64..5_000.0, 4usize..12).prop_map(|(v, d)| format!("{v:.d$}")),
        // Exponents.
        1 => (-5_000.0f64..5_000.0, 0usize..3).prop_map(|(v, form)| match form {
            0 => format!("{v:e}"),
            1 => format!("{v:E}"),
            _ => format!("{:.2}e+{}", v / 1000.0, 3),
        }),
        // Leading zeros, and 16 or more digits.
        1 => (0u64..5_000_000, 1usize..4).prop_map(|(v, zeros)| {
            format!("{}{}.{:03}", "0".repeat(zeros), v / 1000, v % 1000)
        }),
        1 => (1_000_000_000_000_000u64..u64::MAX, 0usize..5).prop_map(|(v, point)| {
            let digits = v.to_string();
            let at = digits.len() - point;
            format!("{}.{}", &digits[..at], &digits[at..])
        }),
        1 => (0u64..1u64 << 40).prop_map(|v| v.to_string()),
        2 => (0usize..22).prop_map(|i| {
            [
                "NaN", "inf", "-inf", "infinity", "-0.000", "-0", "+1.5", "-1e3", "abc", "\"7\"",
                " 12.5 ", "", "1.", ".5", "-.5", "-", ".", "1.2.3", "1e", "0x10", "1_000", "--1",
            ][i]
                .to_owned()
        }),
    ];
    (0u8..8, 0usize..24, value, "[ ]?").prop_map(|(kind, index, value, pad)| {
        let key = match kind {
            0 => "\"hostname\"".to_owned(),
            1 => "\"timestamp_us\"".to_owned(),
            2 => "\"power_node_watts\"".to_owned(),
            3 => "\"power_mem_watts\"".to_owned(),
            4 => "\"some_future_key\"".to_owned(),
            5 => format!("\"power_cpu_watts_socket_{index}\""),
            _ => format!("\"power_gpu_watts_{index}\""),
        };
        let value = if kind == 0 {
            format!("\"n,{index}\"")
        } else {
            value
        };
        (kind, format!("{pad}{key}{pad}:{pad}{value}"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every sample round-trips through the JSON encoding: the writer's
    /// own output decodes to what the parser it replaced decoded, bit for
    /// bit, and each reading comes back to the writer's 3-decimal
    /// precision (a NaN as a NaN, an infinity as itself).
    #[test]
    fn json_round_trip(sample in wide_sample()) {
        let json = sample.to_json();
        assert_same_decode(&json)?;
        let parsed = NodePowerSample::from_json(&json).expect("parses");
        prop_assert_eq!(&parsed.hostname, &sample.hostname);
        prop_assert_eq!(parsed.timestamp_us, sample.timestamp_us);
        prop_assert_eq!(parsed.power_cpu_watts.len(), sample.power_cpu_watts.len());
        prop_assert_eq!(parsed.power_gpu_watts.len(), sample.power_gpu_watts.len());
        let close = |a: f64, b: f64| a == b || (a - b).abs() < 0.001 || a.is_nan() && b.is_nan();
        for (a, b) in [
            (parsed.power_node_watts, sample.power_node_watts),
            (parsed.power_mem_watts, sample.power_mem_watts),
        ] {
            match (a, b) {
                (Some(a), Some(b)) => prop_assert!(close(a, b), "{a} from {b}"),
                (None, None) => {}
                other => prop_assert!(false, "presence mismatch {other:?}"),
            }
        }
        for (a, b) in parsed.power_cpu_watts.iter().zip(sample.power_cpu_watts.iter()) {
            prop_assert!(close(*a, *b), "{a} from {b}");
        }
        for (a, b) in parsed.power_gpu_watts.iter().zip(sample.power_gpu_watts.iter()) {
            prop_assert!(close(*a, *b), "{a} from {b}");
        }
    }

    /// For every object with at most eight keys per family — in any
    /// order, with sparse and repeated indices, quoted commas, unknown
    /// keys, stray blanks and values that are not numbers — the inline
    /// parser returns what the `Vec`-based one did.
    #[test]
    fn from_json_matches_the_parser_it_replaced(
        members in prop::collection::vec(any_member(), 0..24),
        trailing_comma in any::<bool>(),
    ) {
        let mut per_family = [0usize; 2];
        let mut body: Vec<String> = Vec::new();
        for (kind, member) in members {
            if kind >= 5 {
                let seen = &mut per_family[usize::from(kind == 5)];
                if *seen == Lanes::<f64>::CAPACITY {
                    continue;
                }
                *seen += 1;
            }
            body.push(member);
        }
        let mut json = format!("{{{}", body.join(","));
        if trailing_comma {
            json.push(',');
        }
        json.push('}');
        assert_same_decode(&json)?;
    }

    /// A ninth socket or GPU key is a node this stack does not model:
    /// the parse fails, it does not index past the inline list.
    #[test]
    fn a_ninth_key_of_one_family_parses_to_none(
        gpu_family in any::<bool>(),
        start in 0usize..1_000,
    ) {
        let prefix = if gpu_family { "power_gpu_watts_" } else { "power_cpu_watts_socket_" };
        let object = |n: usize| {
            let members: Vec<String> =
                (start..start + n).rev().map(|i| format!("\"{prefix}{i}\":1.5")).collect();
            format!("{{\"hostname\":\"h\",{}}}", members.join(","))
        };
        let eight = NodePowerSample::from_json(&object(8)).expect("eight fit");
        let family = if gpu_family { eight.power_gpu_watts } else { eight.power_cpu_watts };
        prop_assert_eq!(family.len(), 8);
        prop_assert!(NodePowerSample::from_json(&object(9)).is_none());
    }

    /// Arbitrary bytes — raw, and spliced into a valid object — decode to
    /// something or to `None`, never to a panic, and to what the replaced
    /// parser decoded whenever no family overflows.
    #[test]
    fn from_json_never_panics_on_arbitrary_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..64),
        sample in wide_sample(),
        at in any::<prop::sample::Index>(),
    ) {
        let noise = String::from_utf8_lossy(&noise).into_owned();
        let _ = NodePowerSample::from_json(&noise);
        let _ = NodePowerSample::from_json(&format!("{{{noise}}}"));
        let mut json = sample.to_json();
        let mut cut = at.index(json.len());
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        json.insert_str(cut, &noise);
        if let Some(decoded) = NodePowerSample::from_json(&json) {
            prop_assert!(decoded.power_gpu_watts.len() <= Lanes::<f64>::CAPACITY);
            assert_same_decode(&json)?;
        }
    }

    /// The node estimate is the direct value when present, else the
    /// CPU+GPU sum — never negative.
    #[test]
    fn node_estimate_definition(sample in any_sample()) {
        let est = sample.node_power_estimate();
        match sample.power_node_watts {
            Some(w) => prop_assert_eq!(est, w),
            None => {
                let sum = sample.cpu_total() + sample.gpu_total();
                prop_assert!((est - sum).abs() < 1e-9);
            }
        }
        prop_assert!(est >= 0.0);
    }

    /// Encoded size is bounded.
    #[test]
    fn json_size_bounded(sample in any_sample()) {
        let sz = sample.to_json().len();
        prop_assert!((30..1024).contains(&sz), "size {sz}");
    }
}
