//! The Variorum node-power JSON object.
//!
//! Variorum's `variorum_get_node_power_json` returns a flat JSON object
//! whose keys depend on what the platform can measure, e.g. on Lassen:
//!
//! ```json
//! {"hostname": "lassen18", "timestamp_us": 12000000,
//!  "power_node_watts": 981.2,
//!  "power_cpu_watts_socket_0": 151.0, "power_cpu_watts_socket_1": 149.7,
//!  "power_mem_watts": 81.3,
//!  "power_gpu_watts_0": 248.9, ...}
//! ```
//!
//! On Tioga the node and memory keys are absent and GPU keys are per-OAM.
//! `serde_json` is not in the offline dependency set, so this module
//! carries a small hand-rolled writer/parser pair for exactly this flat
//! shape (string values for `hostname`, floats for everything else).

use fluxpm_hw::{Lanes, SensorReading, Watts};
use std::sync::Arc;

/// A parsed/constructed node power sample (the paper's telemetry record).
///
/// The sample owns no heap: the measurements are inline and the hostname
/// is a handle to the node's one shared string, so a clone is a copy plus
/// a reference count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodePowerSample {
    /// Node hostname, e.g. `"lassen12"`.
    pub hostname: Arc<str>,
    /// Sample timestamp, microseconds on the simulation clock.
    pub timestamp_us: u64,
    /// Direct node power, when the platform measures it.
    pub power_node_watts: Option<f64>,
    /// Per-socket CPU power.
    pub power_cpu_watts: Lanes<f64>,
    /// Memory power, when measurable.
    pub power_mem_watts: Option<f64>,
    /// GPU power, one entry per reading group (GPU or OAM).
    pub power_gpu_watts: Lanes<f64>,
}

impl NodePowerSample {
    /// Build a sample from a sensor scan.
    pub fn from_reading(hostname: &str, timestamp_us: u64, r: &SensorReading) -> NodePowerSample {
        let mut sample = NodePowerSample {
            hostname: Arc::from(hostname),
            ..NodePowerSample::default()
        };
        sample.refill(timestamp_us, r);
        sample
    }

    /// Overwrite the measurements with a new sensor scan, keeping the
    /// hostname: a sampler that owns one `NodePowerSample` per node
    /// refills it every tick instead of building a fresh one (and a
    /// fresh hostname) each time.
    pub fn refill(&mut self, timestamp_us: u64, r: &SensorReading) {
        self.timestamp_us = timestamp_us;
        self.power_node_watts = r.node.map(Watts::get);
        self.power_cpu_watts = r.cpu.iter().map(|w| w.get()).collect();
        self.power_mem_watts = r.memory.map(Watts::get);
        self.power_gpu_watts = r.gpu.iter().map(|w| w.get()).collect();
    }

    /// The node power a client reports: direct when available, otherwise
    /// the conservative CPU+GPU sum (the Tioga estimate in the paper).
    pub fn node_power_estimate(&self) -> f64 {
        self.power_node_watts.unwrap_or_else(|| {
            self.power_cpu_watts.iter().sum::<f64>() + self.power_gpu_watts.iter().sum::<f64>()
        })
    }

    /// Total GPU power in the sample.
    pub fn gpu_total(&self) -> f64 {
        self.power_gpu_watts.iter().sum()
    }

    /// Total CPU power in the sample.
    pub fn cpu_total(&self) -> f64 {
        self.power_cpu_watts.iter().sum()
    }

    /// Serialize as the flat Variorum JSON object.
    ///
    /// This runs on every sampling tick of every node agent — it is the
    /// single hottest serialization path in the simulator — so it
    /// formats keys and numbers with integer arithmetic straight into
    /// the output buffer instead of going through `format!` (which
    /// allocates per field and takes the slow exact-precision float
    /// path).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    /// Append the flat Variorum JSON object to `out` — [`Self::to_json`]
    /// into a buffer the caller already owns.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        push_str_field(out, "hostname", &self.hostname);
        out.push_str("\"timestamp_us\":");
        push_u64(out, self.timestamp_us);
        out.push(',');
        if let Some(w) = self.power_node_watts {
            push_num_field(out, "power_node_watts", w);
        }
        for (i, w) in self.power_cpu_watts.iter().enumerate() {
            push_indexed_num_field(out, "power_cpu_watts_socket_", i, *w);
        }
        if let Some(w) = self.power_mem_watts {
            push_num_field(out, "power_mem_watts", w);
        }
        for (i, w) in self.power_gpu_watts.iter().enumerate() {
            push_indexed_num_field(out, "power_gpu_watts_", i, *w);
        }
        // Drop the trailing comma.
        if out.ends_with(',') {
            out.pop();
        }
        out.push('}');
    }

    /// Parse the flat Variorum JSON object produced by [`Self::to_json`].
    ///
    /// This is a minimal parser for the flat `{"k": v, ...}` shape — not a
    /// general JSON parser. Unknown keys are ignored so the format can
    /// grow. Socket and GPU values come back in index order whatever
    /// order (and however sparsely) the keys appear; an object with more
    /// than [`Lanes::CAPACITY`] socket or GPU keys is not a node this
    /// stack models and parses to `None`.
    pub fn from_json(s: &str) -> Option<NodePowerSample> {
        let body = s.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut hostname = "";
        let mut timestamp_us = 0u64;
        let mut node = None;
        let mut mem = None;
        let mut cpu = IndexedLanes::default();
        let mut gpu = IndexedLanes::default();

        for pair in split_top_level(body) {
            let (k, v) = pair.split_once(':')?;
            let key = k.trim().trim_matches('"');
            let val = v.trim();
            match key {
                "hostname" => hostname = val.trim_matches('"'),
                "timestamp_us" => {
                    // Accept both integer (current writer) and float
                    // (older encodings) forms.
                    timestamp_us = match val.parse::<u64>() {
                        Ok(t) => t,
                        Err(_) => val.parse::<f64>().ok()? as u64,
                    }
                }
                "power_node_watts" => node = Some(val.parse().ok()?),
                "power_mem_watts" => mem = Some(val.parse().ok()?),
                _ => {
                    if let Some(idx) = key.strip_prefix("power_cpu_watts_socket_") {
                        cpu.insert(idx.parse().ok()?, val.parse().ok()?)?;
                    } else if let Some(idx) = key.strip_prefix("power_gpu_watts_") {
                        gpu.insert(idx.parse().ok()?, val.parse().ok()?)?;
                    }
                }
            }
        }
        Some(NodePowerSample {
            hostname: Arc::from(hostname),
            timestamp_us,
            power_node_watts: node,
            power_cpu_watts: cpu.values,
            power_mem_watts: mem,
            power_gpu_watts: gpu.values,
        })
    }

    /// Approximate in-memory size of the JSON encoding, used for the
    /// monitor's buffer accounting (the paper sizes its ring buffer as
    /// "100,000 instances of the Variorum JSON object" ≈ 43.4 MB).
    pub fn json_size_bytes(&self) -> usize {
        self.to_json().len()
    }
}

/// One family of indexed keys (`…_socket_<i>` or `power_gpu_watts_<i>`)
/// while it is being parsed: the values seen so far, kept ordered by key
/// index, equal indices in arrival order.
#[derive(Default)]
struct IndexedLanes {
    indices: Lanes<usize>,
    values: Lanes<f64>,
}

impl IndexedLanes {
    /// File `value` under key index `index`; `None` when the family is
    /// already full.
    fn insert(&mut self, index: usize, value: f64) -> Option<()> {
        let at = self.indices.partition_point(|&i| i <= index);
        self.indices.try_push(index)?;
        self.values.try_push(value)?;
        self.indices[at..].rotate_right(1);
        self.values[at..].rotate_right(1);
        Some(())
    }
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(val);
    out.push_str("\",");
}

fn push_num_field(out: &mut String, key: &str, val: f64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    push_fixed3(out, val);
    out.push(',');
}

/// `"{prefix}{index}": {val}` without building the key string on the
/// heap first.
fn push_indexed_num_field(out: &mut String, prefix: &str, index: usize, val: f64) {
    out.push('"');
    out.push_str(prefix);
    push_u64(out, index as u64);
    out.push_str("\":");
    push_fixed3(out, val);
    out.push(',');
}

/// Append a non-negative integer without allocating.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // invariant: `buf[i..]` holds only the digits written above.
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Append `val` with exactly three decimal places. Fixed precision
/// keeps records compact and diffable; the integer fast path avoids the
/// standard formatter's exact-precision float machinery on the sampling
/// hot path. Values too large for the scaled-integer representation
/// (and non-finite values) fall back to `{val:.3}`; near round-to-even
/// ties the fast path may differ from the standard formatter by one in
/// the last decimal, which is within the sensor noise floor.
fn push_fixed3(out: &mut String, val: f64) {
    let a = val.abs();
    if !val.is_finite() || a >= 4.0e12 {
        use std::fmt::Write;
        let _ = write!(out, "{val:.3}");
        return;
    }
    if val.is_sign_negative() {
        out.push('-');
    }
    let r = a * 1000.0;
    let mut scaled = r.round() as u64; // rounds ties away from zero
    if r - r.trunc() == 0.5 && scaled % 2 == 1 {
        scaled -= 1; // ties to even, matching the standard formatter
    }
    push_u64(out, scaled / 1000);
    let frac = (scaled % 1000) as u32;
    out.push('.');
    out.push((b'0' + (frac / 100) as u8) as char);
    out.push((b'0' + (frac / 10 % 10) as u8) as char);
    out.push((b'0' + (frac % 10) as u8) as char);
}

/// Split `a:1,b:"x,y"` on commas not inside strings.
fn split_top_level(s: &str) -> impl Iterator<Item = &str> {
    let mut in_quotes = false;
    // Like the loop it replaces, a trailing comma (or an empty body)
    // yields no empty last part; an empty part anywhere else is kept and
    // fails the parse.
    s.split_terminator(move |c| {
        in_quotes ^= c == '"';
        c == ',' && !in_quotes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_hw::{lassen, tioga, NodeHardware, NodeId, PowerDemand, Sensors, Watts};

    fn lassen_sample() -> NodePowerSample {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        n.sensors = Sensors::new(&n.arch, 0).with_noise(0.0);
        let arch = n.arch.clone();
        n.set_demand(PowerDemand {
            cpu: [Watts(150.0); 2].into(),
            memory: Watts(80.0),
            gpu: [Watts(250.0); 4].into(),
            other: arch.other,
        });
        let r = n.read_sensors();
        NodePowerSample::from_reading("lassen7", 2_000_000, &r)
    }

    #[test]
    fn lassen_sample_has_all_keys() {
        let s = lassen_sample();
        let json = s.to_json();
        assert!(json.contains("\"hostname\":\"lassen7\""));
        assert!(json.contains("power_node_watts"));
        assert!(json.contains("power_cpu_watts_socket_0"));
        assert!(json.contains("power_cpu_watts_socket_1"));
        assert!(json.contains("power_mem_watts"));
        assert!(json.contains("power_gpu_watts_3"));
    }

    #[test]
    fn tioga_sample_omits_node_and_mem() {
        let mut n = NodeHardware::new(NodeId(0), tioga(), 1);
        n.sensors = Sensors::new(&n.arch, 0).with_noise(0.0);
        let r = n.read_sensors();
        let s = NodePowerSample::from_reading("tioga3", 0, &r);
        let json = s.to_json();
        assert!(!json.contains("power_node_watts"));
        assert!(!json.contains("power_mem_watts"));
        assert!(json.contains("power_gpu_watts_3"), "4 OAM readings");
        assert!(!json.contains("power_gpu_watts_4"));
    }

    #[test]
    fn json_round_trip() {
        let s = lassen_sample();
        let parsed = NodePowerSample::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.hostname, s.hostname);
        assert_eq!(parsed.timestamp_us, s.timestamp_us);
        assert_eq!(parsed.power_cpu_watts.len(), 2);
        assert_eq!(parsed.power_gpu_watts.len(), 4);
        assert!((parsed.node_power_estimate() - s.node_power_estimate()).abs() < 0.01);
    }

    #[test]
    fn estimate_prefers_direct_measurement() {
        let s = NodePowerSample {
            hostname: "x".into(),
            timestamp_us: 0,
            power_node_watts: Some(1000.0),
            power_cpu_watts: [100.0].into(),
            power_mem_watts: None,
            power_gpu_watts: [200.0].into(),
        };
        assert_eq!(s.node_power_estimate(), 1000.0);
        let s2 = NodePowerSample {
            power_node_watts: None,
            ..s
        };
        assert_eq!(s2.node_power_estimate(), 300.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(NodePowerSample::from_json("not json").is_none());
        assert!(NodePowerSample::from_json("{\"timestamp_us\":abc}").is_none());
    }

    #[test]
    fn parse_ignores_unknown_keys() {
        let json = "{\"hostname\":\"h\",\"timestamp_us\":5,\"future_key\":1.0}";
        let s = NodePowerSample::from_json(json).unwrap();
        assert_eq!(&*s.hostname, "h");
        assert_eq!(s.timestamp_us, 5);
    }

    #[test]
    fn fixed3_matches_standard_formatter() {
        let mut vals = vec![
            0.0,
            -0.0,
            0.001,
            0.0625,  // exact binary tie at the 3rd decimal: rounds to even
            0.1875,  // exact tie rounding up (187.5 -> 188)
            -0.0625, // sign handled before the tie adjustment
            999.999,
            1000.0,
            981.2,
            4.1e12, // past the integer fast path: standard fallback
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // A pseudo-random sweep over telemetry-scale magnitudes.
        let mut x = 0.000123_f64;
        for i in 0..2000 {
            vals.push(x * (i as f64));
            x = (x * 1.618 + 0.0137) % 3500.0;
        }
        for v in vals {
            let mut fast = String::new();
            push_fixed3(&mut fast, v);
            assert_eq!(fast, format!("{v:.3}"), "value {v:?}");
        }
    }

    #[test]
    fn record_size_is_plausible() {
        // The paper stores 100,000 records in 43.4 MB => ~434 bytes per
        // record (full JSON with more keys than we carry). Ours should be
        // the same order of magnitude.
        let sz = lassen_sample().json_size_bytes();
        assert!((100..600).contains(&sz), "record size {sz}");
    }
}
