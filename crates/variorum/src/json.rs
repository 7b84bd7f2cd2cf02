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
use std::ops::Range;
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
    /// hostname: the node agent owns one `NodePowerSample` and refills it
    /// every tick instead of building a fresh one (and a fresh hostname)
    /// each time.
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

    /// Serialize as the flat Variorum JSON object ([`Self::write_json`]
    /// into a fresh string).
    pub fn to_json(&self) -> String {
        // A Lassen object is some 270 bytes.
        let mut out = Vec::with_capacity(512);
        self.write_json(&mut out);
        // invariant: the writer emits ASCII and the hostname's own UTF-8.
        String::from_utf8(out).expect("the JSON writer emits UTF-8")
    }

    /// Append the flat Variorum JSON object to `out`.
    ///
    /// This runs on every sampling tick of every node agent, which
    /// writes straight into the bytes its log keeps. It is one pass over
    /// bytes: each key is a byte literal with its separators, integers
    /// go two digits at a time, and a reading has three decimals — the
    /// f64 product `|v|·1000` rounded half to even, which is not `{:.3}`
    /// within an ulp of a decimal tie (`0.0005` is written `0.000`).
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"hostname\":\"");
        out.extend_from_slice(self.hostname.as_bytes());
        out.extend_from_slice(b"\",\"timestamp_us\":");
        write_u64(out, self.timestamp_us);
        if let Some(w) = self.power_node_watts {
            out.extend_from_slice(b",\"power_node_watts\":");
            write_fixed3(out, w);
        }
        for (key, w) in CPU_KEYS.iter().zip(self.power_cpu_watts.iter()) {
            out.extend_from_slice(key);
            write_fixed3(out, *w);
        }
        if let Some(w) = self.power_mem_watts {
            out.extend_from_slice(b",\"power_mem_watts\":");
            write_fixed3(out, w);
        }
        for (key, w) in GPU_KEYS.iter().zip(self.power_gpu_watts.iter()) {
            out.extend_from_slice(key);
            write_fixed3(out, *w);
        }
        out.push(b'}');
    }

    /// Parse the flat Variorum JSON object produced by [`Self::to_json`].
    ///
    /// This is a minimal parser for the flat `{"k": v, ...}` shape — not a
    /// general JSON parser. Unknown keys are ignored so the format can
    /// grow. Socket and GPU values come back in index order whatever
    /// order (and however sparsely) the keys appear; an object with more
    /// than [`Lanes::CAPACITY`] socket or GPU keys is not a node this
    /// stack models and parses to `None`.
    ///
    /// A member runs to the first comma outside double quotes, and its
    /// key to the member's first colon; blanks (`char::is_whitespace`)
    /// around either are dropped, and double quotes around a key or the
    /// hostname. It is one scan over bytes: a member as the writer writes
    /// it is read where it stands, its key matched as a byte literal and
    /// its value read digit by digit; any other member is cut out first.
    /// Every reading has the bits `str::parse::<f64>` gives.
    pub fn from_json(s: &str) -> Option<NodePowerSample> {
        let b = s.as_bytes();
        let object = trim(s, 0..b.len());
        if object.len() < 2 || b[object.start] != b'{' || b[object.end - 1] != b'}' {
            return None;
        }
        let body = &b[..object.end - 1];
        let mut hostname = 0..0;
        let mut timestamp_us = 0u64;
        let mut node = None;
        let mut mem = None;
        let mut cpu = IndexedLanes::default();
        let mut gpu = IndexedLanes::default();

        // A comma that ends the body ends no empty member after it.
        let mut at = object.start + 1;
        while at < body.len() {
            let (field, next) = match written(body, at) {
                Some(read) => read,
                None => member(&s[..body.len()], at)?,
            };
            match field {
                Field::Hostname(range) => hostname = range,
                Field::Timestamp(t) => timestamp_us = t,
                Field::Node(w) => node = Some(w),
                Field::Mem(w) => mem = Some(w),
                Field::Cpu(i, w) => cpu.insert(i, w)?,
                Field::Gpu(i, w) => gpu.insert(i, w)?,
                Field::Other => {}
            }
            at = next;
        }
        Some(NodePowerSample {
            hostname: Arc::from(&s[hostname]),
            timestamp_us,
            power_node_watts: node,
            power_cpu_watts: cpu.values,
            power_mem_watts: mem,
            power_gpu_watts: gpu.values,
        })
    }
}

/// One member of an object, read.
enum Field {
    /// Where the hostname's bytes are.
    Hostname(Range<usize>),
    Timestamp(u64),
    Node(f64),
    Mem(f64),
    Cpu(usize, f64),
    Gpu(usize, f64),
    /// A key this stack does not read.
    Other,
}

/// The member of `body` at `at` if it is as the writer writes it — a
/// key of the writer's as a literal in double quotes, a colon, and a
/// value [`fixed`] or [`digits`] reads whole or a hostname in double
/// quotes, then a comma or the end — read where it stands; and where the
/// next member starts. `None` for any other member, which [`member`]
/// reads; what this reads, [`member`] reads the same.
fn written(body: &[u8], at: usize) -> Option<(Field, usize)> {
    let after = |at: usize, literal: &[u8]| {
        body.get(at..)?
            .starts_with(literal)
            .then_some(at + literal.len())
    };
    let key = after(at, b"\"")?;
    let (field, to) = if let Some(at) = after(key, b"power_") {
        if let Some(at) = after(at, b"cpu_watts_socket_") {
            let (i, at) = digits(body, at)?;
            let (w, to) = fixed(body, after(at, b"\":")?)?;
            (Field::Cpu(usize::try_from(i).ok()?, w), to)
        } else if let Some(at) = after(at, b"gpu_watts_") {
            let (i, at) = digits(body, at)?;
            let (w, to) = fixed(body, after(at, b"\":")?)?;
            (Field::Gpu(usize::try_from(i).ok()?, w), to)
        } else if let Some(at) = after(at, b"node_watts\":") {
            let (w, to) = fixed(body, at)?;
            (Field::Node(w), to)
        } else {
            let (w, to) = fixed(body, after(at, b"mem_watts\":")?)?;
            (Field::Mem(w), to)
        }
    } else if let Some(at) = after(key, b"timestamp_us\":") {
        let (t, to) = digits(body, at)?;
        (Field::Timestamp(t), to)
    } else {
        let at = after(key, b"hostname\":\"")?;
        let end = at + body[at..].iter().position(|&c| c == b'"')?;
        (Field::Hostname(at..end), end + 1)
    };
    match body.get(to) {
        None => Some((field, to)),
        Some(b',') => Some((field, to + 1)),
        Some(_) => None,
    }
}

/// The member of `body` at `at`, cut out: it runs to the first comma
/// outside double quotes, its key to its first colon. `None` without a
/// colon, or when a value of a key this stack reads does not parse.
fn member(body: &str, at: usize) -> Option<(Field, usize)> {
    let b = body.as_bytes();
    let mut colon = None;
    let mut quoted = false;
    let mut end = at;
    while end < b.len() {
        match b[end] {
            b'"' => quoted = !quoted,
            b',' if !quoted => break,
            b':' if colon.is_none() => colon = Some(end),
            _ => {}
        }
        end += 1;
    }
    let colon = colon?;
    let key = unquote(b, trim(body, at..colon));
    let val = trim(body, colon + 1..end);
    let text = &body[val.clone()];
    // A family key's index: what follows its (ASCII) prefix.
    let index =
        |prefix: &[u8]| usize::try_from(whole(&body[key.start + prefix.len()..key.end])?).ok();
    let field = match &b[key.clone()] {
        b"hostname" => Field::Hostname(unquote(b, val)),
        // Accept both integer (current writer) and float (older
        // encodings) forms.
        b"timestamp_us" => Field::Timestamp(match whole(text) {
            Some(t) => t,
            None => decimal(text)? as u64,
        }),
        b"power_node_watts" => Field::Node(decimal(text)?),
        b"power_mem_watts" => Field::Mem(decimal(text)?),
        k if k.starts_with(CPU_PREFIX) => Field::Cpu(index(CPU_PREFIX)?, decimal(text)?),
        k if k.starts_with(GPU_PREFIX) => Field::Gpu(index(GPU_PREFIX)?, decimal(text)?),
        _ => Field::Other,
    };
    Some((field, end + 1))
}

/// `s[range]` without the blanks `str::trim` drops at either end. Every
/// end it stops at is a character boundary; a non-ASCII character is
/// decoded only where it touches one.
fn trim(s: &str, range: Range<usize>) -> Range<usize> {
    let b = s.as_bytes();
    let Range { mut start, mut end } = range;
    while start < end {
        start += match b[start] {
            b'\t'..=b'\r' | b' ' => 1,
            0..=0x7f => break,
            _ => match s[start..end].chars().next() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => break,
            },
        };
    }
    while start < end {
        end -= match b[end - 1] {
            b'\t'..=b'\r' | b' ' => 1,
            0..=0x7f => break,
            _ => match s[start..end].chars().next_back() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => break,
            },
        };
    }
    start..end
}

/// `range` of `b` without the double quotes at either end.
fn unquote(b: &[u8], range: Range<usize>) -> Range<usize> {
    let Range { mut start, mut end } = range;
    while start < end && b[start] == b'"' {
        start += 1;
    }
    while start < end && b[end - 1] == b'"' {
        end -= 1;
    }
    start..end
}

/// The run of 1 to 19 digits at `at` of `b` (not followed by a 20th) as
/// an integer, and where it ends.
fn digits(b: &[u8], at: usize) -> Option<(u64, usize)> {
    let run = b[at..]
        .iter()
        .take(20)
        .take_while(|c| c.is_ascii_digit())
        .count();
    if !(1..=19).contains(&run) {
        return None;
    }
    let n = b[at..at + run]
        .iter()
        .fold(0, |n, &d| n * 10 + u64::from(d - b'0'));
    Some((n, at + run))
}

/// The integer `text` is, as `str::parse::<u64>` reads it: [`digits`]
/// reads it when they take it whole, `parse` otherwise.
fn whole(text: &str) -> Option<u64> {
    match digits(text.as_bytes(), 0) {
        Some((n, end)) if end == text.len() => Some(n),
        _ => text.parse().ok(),
    }
}

/// `10^k` for the decimals a reading is written with.
const POW10: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];

/// The plain decimal at `at` of `b`, the form [`write_fixed3`] writes —
/// an optional `-`, then at most 15 digits, at most 3 of them after a
/// point that has one at least on each side — and where it ends; `None`
/// unless that form ends at a byte that is neither a digit nor a point.
///
/// Its value is `mantissa / 10^k`. Both are exact in an f64, so the
/// quotient is the correctly rounded value of the decimal: the bits
/// `str::parse::<f64>` gives.
fn fixed(b: &[u8], at: usize) -> Option<(f64, usize)> {
    let negative = b.get(at) == Some(&b'-');
    let int = at + usize::from(negative);
    let run = |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut end = int + run(int);
    let mut k = 0;
    if b.get(end) == Some(&b'.') {
        k = run(end + 1);
        if k == 0 {
            return None;
        }
        end += 1 + k;
    }
    let count = end - int - usize::from(k > 0);
    if end == int || count > 15 || k > 3 || b.get(end) == Some(&b'.') {
        return None;
    }
    let mantissa = b[int..end]
        .iter()
        .filter(|&&c| c != b'.')
        .fold(0, |m, &d| m * 10 + u64::from(d - b'0'));
    let v = mantissa as f64 / POW10[k];
    Some((if negative { -v } else { v }, end))
}

/// The number `text` is, as `str::parse::<f64>` reads it, with the same
/// bits: [`fixed`] reads it when it takes it whole — the written form —
/// and `parse` anything else (a `+`, an exponent, more digits or
/// decimals, `NaN`, `inf`).
fn decimal(text: &str) -> Option<f64> {
    match fixed(text.as_bytes(), 0) {
        Some((v, end)) if end == text.len() => Some(v),
        _ => text.parse().ok(),
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

/// The key of socket `<i>` is this and `<i>`.
const CPU_PREFIX: &[u8] = b"power_cpu_watts_socket_";

/// The key of GPU `<i>` is this and `<i>`.
const GPU_PREFIX: &[u8] = b"power_gpu_watts_";

/// `,"power_cpu_watts_socket_<i>":` for each socket a sample can hold.
const CPU_KEYS: [&[u8]; Lanes::<f64>::CAPACITY] = [
    b",\"power_cpu_watts_socket_0\":",
    b",\"power_cpu_watts_socket_1\":",
    b",\"power_cpu_watts_socket_2\":",
    b",\"power_cpu_watts_socket_3\":",
    b",\"power_cpu_watts_socket_4\":",
    b",\"power_cpu_watts_socket_5\":",
    b",\"power_cpu_watts_socket_6\":",
    b",\"power_cpu_watts_socket_7\":",
];

/// `,"power_gpu_watts_<i>":` for each GPU a sample can hold.
const GPU_KEYS: [&[u8]; Lanes::<f64>::CAPACITY] = [
    b",\"power_gpu_watts_0\":",
    b",\"power_gpu_watts_1\":",
    b",\"power_gpu_watts_2\":",
    b",\"power_gpu_watts_3\":",
    b",\"power_gpu_watts_4\":",
    b",\"power_gpu_watts_5\":",
    b",\"power_gpu_watts_6\":",
    b",\"power_gpu_watts_7\":",
];

/// `00`, `01`, …, `99`: the decimal digits of every two-digit number.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The two digits of `n < 100`.
fn digit_pair(n: u64) -> &'static [u8] {
    let at = 2 * n as usize;
    &DIGIT_PAIRS[at..at + 2]
}

/// Append a non-negative integer, two digits at a time.
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(digit_pair(v % 100));
        v /= 100;
    }
    if v >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(digit_pair(v));
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append `val` with exactly three decimal places: the f64 product
/// `|val| · 1000`, rounded half to even, split at its third digit.
/// Fixed precision keeps records compact and diffable.
///
/// This is not `{val:.3}`, which rounds the exact decimal value of
/// `val`: where `val` lies within an ulp of a decimal tie the product
/// can land on the tie or across it, so `0.0005` is stored `0.000`
/// (`{:.3}` gives `0.001`) and `0.1235` is stored `0.124` (`{:.3}`:
/// `0.123`). Those are the stored bytes, kept as they are. Values from
/// 4e12 on, and non-finite ones, are written by `{val:.3}`.
fn write_fixed3(out: &mut Vec<u8>, val: f64) {
    let a = val.abs();
    if !val.is_finite() || a >= 4.0e12 {
        use std::io::Write;
        // invariant: writing into a `Vec` cannot fail.
        write!(out, "{val:.3}").expect("a Vec takes every byte");
        return;
    }
    if val.is_sign_negative() {
        out.push(b'-');
    }
    let r = a * 1000.0;
    // Both exact: `r < 4e15 < 2^53`, so `r` has an integer part `t` and
    // a fraction `r - t` an f64 holds without rounding.
    let t = r as u64;
    let frac = r - t as f64;
    let scaled = if frac > 0.5 || (frac == 0.5 && t % 2 == 1) {
        t + 1
    } else {
        t
    };
    write_u64(out, scaled / 1000);
    let milli = scaled % 1000;
    out.push(b'.');
    out.push(b'0' + (milli / 100) as u8);
    out.extend_from_slice(digit_pair(milli % 100));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_hw::{lassen, tioga, NodeHardware, NodeId, PowerDemand, Sensors, Watts};
    use proptest::prelude::*;

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

    /// The stored form of `v`.
    fn fixed3(v: f64) -> String {
        let mut out = Vec::new();
        write_fixed3(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    /// Away from decimal ties (within an ulp of `k/1000 + 0.0005`) the
    /// stored form is what `{:.3}` prints, exact binary ties included.
    #[test]
    fn fixed3_matches_standard_formatter_off_decimal_ties() {
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
            assert_eq!(fixed3(v), format!("{v:.3}"), "value {v:?}");
        }
    }

    /// At decimal ties the stored form rounds the f64 product `|v|·1000`
    /// half to even, not the exact decimal value of `v` as `{:.3}` does.
    /// These are the bytes every node agent has stored; pinned here so a
    /// "fix" shows as a test failure, not as silently different records.
    #[test]
    fn fixed3_rounds_the_scaled_product_at_decimal_ties() {
        for (v, stored, standard) in [
            (0.0005, "0.000", "0.001"),
            (0.1235, "0.124", "0.123"),
            (-0.0005, "-0.000", "-0.001"),
            (0.0025, "0.002", "0.003"),
            (981.2345, "981.234", "981.235"),
        ] {
            assert_eq!(fixed3(v), stored, "stored form of {v:?}");
            assert_eq!(format!("{v:.3}"), standard, "standard form of {v:?}");
        }
        assert_eq!(fixed3(f64::NAN), "NaN");
        assert_eq!(fixed3(4.0e12), "4000000000000.000");
    }

    /// The writer before it wrote bytes, kept verbatim as the oracle:
    /// per-field helpers over a `String`, every key built from its
    /// prefix and index, and a trailing comma dropped at the end.
    fn oracle_write_json(sample: &NodePowerSample, out: &mut String) {
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

        fn push_indexed_num_field(out: &mut String, prefix: &str, index: usize, val: f64) {
            out.push('"');
            out.push_str(prefix);
            push_u64(out, index as u64);
            out.push_str("\":");
            push_fixed3(out, val);
            out.push(',');
        }

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
            out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
        }

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

        out.push('{');
        push_str_field(out, "hostname", &sample.hostname);
        out.push_str("\"timestamp_us\":");
        push_u64(out, sample.timestamp_us);
        out.push(',');
        if let Some(w) = sample.power_node_watts {
            push_num_field(out, "power_node_watts", w);
        }
        for (i, w) in sample.power_cpu_watts.iter().enumerate() {
            push_indexed_num_field(out, "power_cpu_watts_socket_", i, *w);
        }
        if let Some(w) = sample.power_mem_watts {
            push_num_field(out, "power_mem_watts", w);
        }
        for (i, w) in sample.power_gpu_watts.iter().enumerate() {
            push_indexed_num_field(out, "power_gpu_watts_", i, *w);
        }
        if out.ends_with(',') {
            out.pop();
        }
        out.push('}');
    }

    /// A reading the writer must format as the oracle does: decimal
    /// near-ties `k/1000 + 0.0005` and one ulp either side, signed zeros
    /// and non-finite values, values at and past the 4e12 fallback, any
    /// bit pattern at all, and telemetry-scale readings of either sign.
    fn any_reading() -> impl Strategy<Value = f64> {
        fn near_tie() -> impl Strategy<Value = f64> {
            (0u64..4_000_000, -1i64..2).prop_map(|(k, ulps)| {
                let tie = k as f64 / 1000.0 + 0.0005;
                f64::from_bits(tie.to_bits().wrapping_add_signed(ulps))
            })
        }
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
            4 => near_tie(),
            2 => near_tie().prop_map(|v| -v),
            1 => special,
            1 => 3.9e12f64..1.0e20,
            2 => any::<u64>().prop_map(f64::from_bits),
            3 => -5_000.0f64..5_000.0,
        ]
    }

    prop_compose! {
        fn any_sample()(
            hostname in prop_oneof![
                "[a-z][a-z0-9]{0,15}",
                // Multi-byte UTF-8: two-, three- and four-byte characters.
                "[a-zéœλу節点🔌]{1,12}[0-9]{0,3}",
            ],
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The byte writer writes exactly what the oracle writes.
        #[test]
        fn writer_matches_the_oracle(sample in any_sample()) {
            let mut oracle = String::new();
            oracle_write_json(&sample, &mut oracle);
            let mut out = Vec::new();
            sample.write_json(&mut out);
            prop_assert_eq!(std::str::from_utf8(&out), Ok(oracle.as_str()));
            prop_assert_eq!(sample.to_json(), oracle.clone());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// A reading is decoded with the bits `str::parse` gives, on the
        /// mantissa-over-power-of-ten path (up to 15 digits, 3 of them
        /// decimals, either sign, leading zeros) and just past it.
        #[test]
        fn decimal_has_the_bits_of_parse(
            mantissa in prop_oneof![0u64..1_000_000_000_000_000, 0u64..10_000_000],
            decimals in 0usize..5,
            zeros in 0usize..3,
            negative in any::<bool>(),
        ) {
            let digits = format!("{}{mantissa}", "0".repeat(zeros));
            let digits = format!("{digits:0>width$}", width = decimals + 1);
            let (int, frac) = digits.split_at(digits.len() - decimals);
            let sign = if negative { "-" } else { "" };
            let text = if decimals == 0 {
                format!("{sign}{int}")
            } else {
                format!("{sign}{int}.{frac}")
            };
            let want = text.parse::<f64>().map(f64::to_bits).ok();
            prop_assert_eq!(decimal(&text).map(f64::to_bits), want, "{}", text);
        }
    }

    #[test]
    fn decimal_reads_what_parse_reads_and_refuses_the_rest() {
        for text in [
            "0",
            "-0",
            "-0.000",
            "981.200",
            "999999999999.999",
            "1e3",
            "1.",
            ".5",
            "+1.5",
            "inf",
            "NaN",
            "0000000000000001.5",
            "1234567890123456",
        ] {
            let want = text.parse::<f64>().map(f64::to_bits).ok();
            assert_eq!(decimal(text).map(f64::to_bits), want, "{text}");
        }
        for text in ["", "-", ".", "1.2.3", "--1", "1_0", " 1", "0x10"] {
            assert_eq!(decimal(text), None, "{text:?}");
        }
    }

    #[test]
    fn record_size_is_plausible() {
        // The paper stores 100,000 records in 43.4 MB => ~434 bytes per
        // record (full JSON with more keys than we carry). Ours should be
        // the same order of magnitude.
        let sz = lassen_sample().to_json().len();
        assert!((100..600).contains(&sz), "record size {sz}");
    }
}
