//! Lightweight simulation tracing.
//!
//! A trace renders each kept record as one line,
//! `[{at} {level:?} {subsystem}] {message}\n`, and folds the line's bytes
//! into a running 64-bit FNV-1a digest. A kept trace
//! ([`Trace::enabled`]) also keeps the text, beside a compact index of
//! where each line sits: debugging the broker/TBON layer relies on it,
//! and the goldens under `tests/golden/` pin its bytes. A hashed trace
//! ([`Trace::hashed`]) renders each line into one reused buffer, folds
//! it, counts it and drops it, so a long run that only compares digests
//! holds no text. [`Trace::emit`] takes [`fmt::Arguments`] and formats
//! nothing for a level the filter drops, so a world that keeps no trace
//! builds no strings. Events already execute on one logical thread, so
//! no synchronization is needed.

use crate::time::SimTime;
use std::fmt::{self, Write as _};

/// Severity / verbosity of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// High-volume records (per-message, per-sample).
    Debug,
    /// State transitions (job start/stop, cap changes).
    Info,
    /// Anomalies (cap failures, buffer wrap, dropped messages).
    Warn,
}

/// A view of one recorded line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry<'a> {
    /// When the record was emitted.
    pub at: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Subsystem tag, e.g. `"tbon"`, `"fpp"`, `"opal"`.
    pub subsystem: &'static str,
    /// Human-readable message, as rendered into the trace's text.
    pub message: &'a str,
}

impl fmt::Display for TraceEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {:?} {}] {}",
            self.at, self.level, self.subsystem, self.message
        )
    }
}

/// Where one line sits in the text: its metadata, its length with the
/// newline, and the length of its `[at level subsystem] ` prefix. A
/// length rather than an end offset keeps the record at 32 bytes
/// without bounding the whole text at 4 GiB.
#[derive(Debug, Clone, Copy)]
struct Line {
    at: SimTime,
    subsystem: &'static str,
    len: u32,
    prefix: u16,
    level: TraceLevel,
}

/// 64-bit FNV-1a offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a digest `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// An append-only trace with a level filter. Every kept line is folded
/// into [`Trace::digest`] and counted by [`Trace::len`]; only a trace
/// built by [`Trace::enabled`] also keeps the text.
#[derive(Debug)]
pub struct Trace {
    /// Every kept line, or, in the hashed form, the line being rendered.
    text: String,
    /// One record per line of `text`; empty in the hashed form.
    lines: Vec<Line>,
    min_level: Option<TraceLevel>,
    keep_text: bool,
    digest: u64,
    count: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            text: String::new(),
            lines: Vec::new(),
            min_level: None,
            keep_text: true,
            digest: FNV_OFFSET,
            count: 0,
        }
    }
}

impl Trace {
    /// A trace that records nothing (the default for production runs).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace keeping the text of every entry at or above `level`.
    pub fn enabled(level: TraceLevel) -> Self {
        Trace {
            min_level: Some(level),
            ..Trace::default()
        }
    }

    /// A trace that accepts what [`Trace::enabled`] does and renders
    /// every line the same way, but keeps only its digest and count:
    /// [`Trace::text`] stays empty and [`Trace::entries`] yields nothing.
    pub fn hashed(level: TraceLevel) -> Self {
        Trace {
            keep_text: false,
            ..Trace::enabled(level)
        }
    }

    /// True if a record at `level` would be kept.
    pub fn accepts(&self, level: TraceLevel) -> bool {
        self.min_level.is_some_and(|min| level >= min)
    }

    /// Record a line: render it, fold it into the digest and, in a kept
    /// trace, leave it in the text. `message` is not formatted at all
    /// when the level is filtered out or tracing is off.
    ///
    /// # Panics
    ///
    /// If a kept trace's line exceeds 4 GiB or its subsystem tag 64 KiB.
    pub fn emit(
        &mut self,
        at: SimTime,
        level: TraceLevel,
        subsystem: &'static str,
        message: fmt::Arguments<'_>,
    ) {
        if !self.accepts(level) {
            return;
        }
        let start = self.text.len();
        // Writing to a `String` fails only if a `Display` impl does; its
        // partial output stays, and the line still ends where it is cut.
        let _ = write!(self.text, "[{at} {level:?} {subsystem}] ");
        let prefix = self.text.len() - start;
        let _ = self.text.write_fmt(message);
        self.text.push('\n');
        self.digest = fnv1a(self.digest, &self.text.as_bytes()[start..]);
        self.count += 1;
        if !self.keep_text {
            self.text.clear();
            return;
        }
        let (Ok(prefix), Ok(len)) = (
            u16::try_from(prefix),
            u32::try_from(self.text.len() - start),
        ) else {
            panic!(
                "trace line of {} bytes at {at} is too long",
                self.text.len() - start
            );
        };
        self.lines.push(Line {
            at,
            subsystem,
            len,
            prefix,
            level,
        });
    }

    /// Every kept line, one rendered entry per line, in emission order;
    /// empty for a hashed trace.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The kept text, moved out of the trace.
    pub fn into_text(self) -> String {
        self.text
    }

    /// 64-bit FNV-1a over every line recorded, in emission order: in a
    /// kept trace, the digest of [`Trace::text`].
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Views of every kept entry, in emission order; none for a hashed
    /// trace.
    pub fn entries(&self) -> impl Iterator<Item = TraceEntry<'_>> + '_ {
        let mut start = 0;
        self.lines.iter().map(move |l| {
            let end = start + l.len as usize;
            let message = &self.text[start + usize::from(l.prefix)..end - 1];
            start = end;
            TraceEntry {
                at: l.at,
                level: l.level,
                subsystem: l.subsystem,
                message,
            }
        })
    }

    /// Number of recorded entries, kept or hashed.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Kept entries from a given subsystem.
    pub fn for_subsystem<'a>(
        &'a self,
        subsystem: &'a str,
    ) -> impl Iterator<Item = TraceEntry<'a>> + 'a {
        self.entries().filter(move |e| e.subsystem == subsystem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Prints `x` and counts how often it was asked to.
    struct Counted<'a>(&'a Cell<usize>);

    impl fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("x")
        }
    }

    #[test]
    fn line_index_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 32);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Trace::disabled();
        tr.emit(SimTime::ZERO, TraceLevel::Warn, "x", format_args!("boom"));
        assert!(tr.is_empty());
        assert_eq!(tr.text(), "");
        assert!(!tr.accepts(TraceLevel::Warn));
    }

    #[test]
    fn only_a_kept_line_is_formatted_and_only_once() {
        let calls = Cell::new(0);
        let mut off = Trace::disabled();
        off.emit(
            SimTime::ZERO,
            TraceLevel::Warn,
            "x",
            format_args!("{}", Counted(&calls)),
        );
        assert_eq!(calls.get(), 0, "a disabled trace formats nothing");

        for (mut tr, text) in [
            (Trace::enabled(TraceLevel::Info), "[0.000000s Info x] x\n"),
            (Trace::hashed(TraceLevel::Info), ""),
        ] {
            calls.set(0);
            tr.emit(
                SimTime::ZERO,
                TraceLevel::Debug,
                "x",
                format_args!("{}", Counted(&calls)),
            );
            assert_eq!(calls.get(), 0, "a filtered level formats nothing");

            tr.emit(
                SimTime::ZERO,
                TraceLevel::Info,
                "x",
                format_args!("{}", Counted(&calls)),
            );
            assert_eq!(calls.get(), 1, "a kept line formats once");
            assert_eq!(tr.text(), text);
            assert_eq!(tr.digest(), oracle_fnv1a(b"[0.000000s Info x] x\n"));
            assert_eq!(tr.entries().count(), text.lines().count());
            assert_eq!(calls.get(), 1, "reading the trace formats nothing");
        }
    }

    /// FNV-1a written out byte by byte, apart from the trace's fold.
    fn oracle_fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// An empty message, multi-byte UTF-8, a message holding `"] "`, an
    /// empty subsystem, and one record the `Info` filter drops.
    const EMITTED: [(SimTime, TraceLevel, &str, &str); 6] = [
        (
            SimTime::from_micros(1_500_000),
            TraceLevel::Info,
            "tbon",
            "",
        ),
        (
            SimTime::from_micros(1_600_000),
            TraceLevel::Debug,
            "tbon",
            "filtered out",
        ),
        (
            SimTime::from_secs(2),
            TraceLevel::Warn,
            "opal",
            "cap failed: 1200 W",
        ),
        (
            SimTime::from_micros(7),
            TraceLevel::Info,
            "fpp",
            "héllo — ✓ 🚀 über",
        ),
        (
            SimTime::from_secs(3),
            TraceLevel::Info,
            "link",
            "[x] ] then [y] ok]",
        ),
        (SimTime::from_secs(3), TraceLevel::Warn, "", "tagless"),
    ];

    #[test]
    fn a_hashed_trace_keeps_the_kept_texts_digest_and_count() {
        // The oracle against published FNV-1a 64 vectors.
        assert_eq!(oracle_fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(oracle_fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut kept = Trace::enabled(TraceLevel::Info);
        let mut hashed = Trace::hashed(TraceLevel::Info);
        for tr in [&mut kept, &mut hashed] {
            assert_eq!(tr.digest(), oracle_fnv1a(b""));
            for (at, level, subsystem, message) in EMITTED {
                tr.emit(at, level, subsystem, format_args!("{message}"));
            }
        }
        assert_eq!(kept.len(), EMITTED.len() - 1);
        assert_eq!(kept.digest(), oracle_fnv1a(kept.text().as_bytes()));
        assert_eq!(hashed.digest(), kept.digest());
        assert_eq!(hashed.len(), kept.len());
        assert!(!hashed.is_empty());
        assert_eq!(hashed.text(), "");
        assert_eq!(hashed.entries().count(), 0);
        assert_eq!(hashed.for_subsystem("tbon").count(), 0);
        assert_eq!(hashed.into_text(), "");
    }

    #[test]
    fn a_hashed_traces_line_buffer_is_bounded_by_its_longest_line() {
        let mut tr = Trace::hashed(TraceLevel::Debug);
        let pad = "y".repeat(300);
        let mut longest = 0;
        for i in 0..10_000_usize {
            let message = &pad[..(i * 7919) % pad.len()];
            let at = SimTime::from_micros(i as u64 * 1_000_003);
            longest = longest.max(format!("[{at} Debug x] {message}\n").len());
            tr.emit(at, TraceLevel::Debug, "x", format_args!("{message}"));
            assert!(tr.text.capacity() <= 2 * longest, "after emit {i}");
        }
        assert_eq!(tr.len(), 10_000);
        assert_eq!(tr.text(), "");
        assert!(tr.lines.is_empty() && tr.lines.capacity() == 0);
    }

    #[test]
    fn level_filter_applies() {
        let mut tr = Trace::enabled(TraceLevel::Info);
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Debug,
            "x",
            format_args!("drop me"),
        );
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Info,
            "x",
            format_args!("keep me"),
        );
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Warn,
            "y",
            format_args!("keep me too"),
        );
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn text_is_the_entries_and_entries_round_trip() {
        let emitted = [
            (
                SimTime::from_micros(1_500_000),
                TraceLevel::Info,
                "tbon",
                "",
            ),
            (
                SimTime::from_secs(2),
                TraceLevel::Warn,
                "opal",
                "cap failed: 1200 W",
            ),
            (
                SimTime::from_micros(7),
                TraceLevel::Debug,
                "fpp",
                "héllo — ✓ 🚀 über",
            ),
            (
                SimTime::from_secs(3),
                TraceLevel::Info,
                "link",
                "[x] ] then [y] ok]",
            ),
            (SimTime::from_secs(3), TraceLevel::Info, "", "tagless"),
        ];
        let mut tr = Trace::enabled(TraceLevel::Debug);
        for (at, level, subsystem, message) in emitted {
            tr.emit(at, level, subsystem, format_args!("{message}"));
        }
        assert_eq!(tr.len(), emitted.len());
        let rebuilt: String = tr.entries().map(|e| format!("{e}\n")).collect();
        assert_eq!(tr.text(), rebuilt);
        for (e, (at, level, subsystem, message)) in tr.entries().zip(emitted) {
            assert_eq!(
                e,
                TraceEntry {
                    at,
                    level,
                    subsystem,
                    message
                }
            );
        }
        assert!(tr
            .text()
            .starts_with("[1.500000s Info tbon] \n[2.000000s Warn opal] cap"));
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEntry {
            at: SimTime::from_secs(2),
            level: TraceLevel::Warn,
            subsystem: "opal",
            message: "cap failed",
        };
        assert_eq!(e.to_string(), "[2.000000s Warn opal] cap failed");
    }

    #[test]
    fn subsystem_filtering() {
        let mut tr = Trace::enabled(TraceLevel::Debug);
        tr.emit(SimTime::ZERO, TraceLevel::Info, "tbon", format_args!("a"));
        tr.emit(SimTime::ZERO, TraceLevel::Info, "fpp", format_args!("b"));
        tr.emit(SimTime::ZERO, TraceLevel::Info, "tbon", format_args!("c"));
        let tbon: Vec<&str> = tr.for_subsystem("tbon").map(|e| e.message).collect();
        assert_eq!(tbon, ["a", "c"]);
        assert!(tr.for_subsystem("tbon").all(|e| e.subsystem == "tbon"));
        assert_eq!(tr.for_subsystem("fpp").count(), 1);
        assert_eq!(tr.for_subsystem("opal").count(), 0);
    }
}
