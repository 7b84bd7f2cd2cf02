//! The node agent's record log, and the window of shared pages a reply
//! carries ([`Runs`]).
//!
//! The paper's node agent keeps a circular buffer of Variorum JSON
//! objects (§III-A). Here that buffer is a log of sealed, immutable pages
//! of [`PAGE`] records plus one open page being filled, so a window query
//! shares whole pages — one reference-count bump per page — instead of
//! one per record. A sample is written once, straight into the log's
//! pending bytes; every four records become one block, so a log holds a
//! block per four records rather than one per record, and a sample on
//! its own costs no allocation. Eviction stays exact per
//! record: a logical head counts the evicted records at the front of the
//! oldest page, and a page is dropped with its last live record. The log
//! holds at most `capacity + 2 × PAGE` records: the live ones, an evicted
//! prefix of the oldest page, and the open page.
//!
//! A stats query folds its window's node power ([`PagedLog::window_fold`]).
//! A sealed log keeps the fold of the last window it summed, so a job's
//! growing window adds only the records past it.
//!
//! [`Runs`] is generic over what the pages hold: a subscriber hub's poll
//! reply is runs of the relay batches it was sent.

use crate::proto::{PowerRecord, TRAILER};
use fluxpm_variorum::NodePowerSample;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// Records per sealed page.
const PAGE: usize = 16;

/// Pending records packed into one block, a quarter page: a log holds
/// four blocks per page instead of sixteen, and each block is built
/// while its bytes are still warm.
const PACK: usize = PAGE / 4;

/// Bytes of room a record is given beyond the length of the one before
/// it: a node's records differ by a digit here and there.
const SLACK: usize = 16;

/// What the first record of a log is expected to take (a Lassen record
/// is some 300 bytes).
const FIRST_RECORD: usize = 512;

/// A sealed page: exactly [`PAGE`] records, never written again.
type Page = Arc<[PowerRecord]>;

/// No sealed page yet.
static NO_PAGES: VecDeque<(u64, Page)> = VecDeque::new();

/// What a log keeps once it has sealed a page.
#[derive(Default)]
struct Sealed {
    /// Sealed pages, oldest first, each beside its newest timestamp so a
    /// search over pages reads this deque alone.
    pages: VecDeque<(u64, Page)>,
    /// The fold of the last window summed, by absolute record number
    /// (records ever pushed before it): `start..end` and its fold.
    last: Option<(Range<u64>, Fold)>,
}

/// The node power of a window's records, folded oldest first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold {
    pub(crate) samples: usize,
    pub(crate) sum: f64,
    pub(crate) max: f64,
    pub(crate) min: f64,
}

impl Fold {
    /// Nothing folded yet.
    pub(crate) const EMPTY: Fold = Fold {
        samples: 0,
        sum: 0.0,
        max: f64::NEG_INFINITY,
        min: f64::INFINITY,
    };

    /// Fold in the next record's node power.
    pub(crate) fn add(&mut self, p: f64) {
        self.samples += 1;
        self.sum += p;
        self.max = self.max.max(p);
        self.min = self.min.min(p);
    }
}

/// A fixed-capacity log of power records with overwrite accounting: the
/// same contract as a [`crate::RingBuffer`] of records, stored in shared
/// pages (see the module docs).
pub(crate) struct PagedLog {
    /// The sealed pages and the last window's fold. Absent until the
    /// first seal: most agents of a large fleet never fill a page, and
    /// both inline would cost each of them 80 bytes more than this
    /// pointer.
    sealed: Option<Box<Sealed>>,
    /// The open page's records, oldest first; it is sealed on reaching
    /// [`PAGE`] records.
    open: Vec<PowerRecord>,
    /// The open page's newest records, whose block is not built yet.
    pending: Pending,
    /// Records evicted from the front of the oldest page: the first
    /// sealed one, or the open page while nothing is sealed.
    head: usize,
    capacity: usize,
    /// Records ever pushed.
    pushed: u64,
    /// Records never captured at all ([`PagedLog::note_loss`]).
    lost: u64,
    /// Bytes of stored JSON in the live records.
    json_bytes: usize,
}

/// The records of the block being filled, at most [`PACK`]: their
/// bytes back to back, and for each where its bytes end and the two
/// numbers every query reads, inline, so a sample allocates nothing once
/// the bytes have room. A reader that needs them as records before the
/// block is full gets them in `open` ([`PagedLog::share_pending`]): the
/// first `shared`, as handles into blocks of their own, which the full
/// block replaces.
struct Pending {
    bytes: Vec<u8>,
    len: usize,
    shared: usize,
    /// Room the next record is given: the last one's length and
    /// [`SLACK`].
    next_len: usize,
    ends: [u32; PACK],
    timestamps: [u64; PACK],
    node_w: [f64; PACK],
}

impl Default for Pending {
    fn default() -> Pending {
        Pending {
            bytes: Vec::new(),
            len: 0,
            shared: 0,
            next_len: FIRST_RECORD,
            ends: [0; PACK],
            timestamps: [0; PACK],
            node_w: [0.0; PACK],
        }
    }
}

impl Pending {
    /// Record `i`'s bytes in `self.bytes`.
    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// The records not in `open` yet.
    fn unshared(&self) -> Range<usize> {
        self.shared..self.len
    }
}

impl PagedLog {
    /// An empty log holding at most `capacity` live records. Allocates
    /// nothing until the first push.
    pub(crate) fn new(capacity: usize) -> PagedLog {
        assert!(capacity > 0, "record log needs capacity >= 1");
        PagedLog {
            sealed: None,
            open: Vec::new(),
            pending: Pending::default(),
            head: 0,
            capacity,
            pushed: 0,
            lost: 0,
            json_bytes: 0,
        }
    }

    fn pages(&self) -> &VecDeque<(u64, Page)> {
        self.sealed.as_deref().map_or(&NO_PAGES, |s| &s.pages)
    }

    /// Records held as records, ahead of the unshared pending ones,
    /// evicted or not.
    fn packed(&self) -> usize {
        self.pages().len() * PAGE + self.open.len()
    }

    /// Live records.
    pub(crate) fn len(&self) -> usize {
        self.packed() + self.pending.unshared().len() - self.head
    }

    /// Records ever pushed.
    pub(crate) fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Records lost so far: evicted, plus any noted as never captured.
    pub(crate) fn overwritten(&self) -> u64 {
        self.pushed - self.len() as u64 + self.lost
    }

    /// Record `n` samples that were never captured (an outage gap). Only
    /// the loss accounting moves.
    pub(crate) fn note_loss(&mut self, n: u64) {
        self.lost += n;
    }

    /// Records noted via [`PagedLog::note_loss`] alone.
    pub(crate) fn noted_lost(&self) -> u64 {
        self.lost
    }

    /// Bytes of stored JSON in the live records.
    pub(crate) fn json_bytes(&self) -> usize {
        self.json_bytes
    }

    /// Append `sample` as a record (timestamps must not decrease),
    /// writing its bytes into the pending ones; when the log was full,
    /// the oldest record is evicted.
    ///
    /// Pending bytes keep their storage once the log has sealed a page,
    /// with room for [`PACK`] records. Before that each record is given
    /// the room it takes and [`SLACK`] more, and a pack releases the
    /// storage, so a fleet agent that never fills a page keeps no more
    /// than `SLACK` spare bytes.
    pub(crate) fn push_sample(&mut self, sample: &NodePowerSample) {
        self.pushed += 1;
        let p = &mut self.pending;
        if self.sealed.is_some() {
            // Doubling, from the first pack after the seal on: the room
            // settles at `PACK` records and their slack, and stays.
            p.bytes.reserve(p.next_len);
        } else {
            p.bytes.reserve_exact(p.next_len);
        }
        let start = p.bytes.len();
        PowerRecord::write(sample, &mut p.bytes);
        let end = p.bytes.len();
        p.next_len = end - start + SLACK;
        if self.sealed.is_none() {
            // A first record shorter than its guess, or a longer one the
            // `Vec` doubled for, leaves no more than `SLACK` behind.
            p.bytes.shrink_to(end + SLACK);
        }
        // invariant: four Variorum JSON objects are some kilobytes.
        p.ends[p.len] = u32::try_from(end).expect("pending bytes under 4 GiB");
        p.timestamps[p.len] = sample.timestamp_us;
        p.node_w[p.len] = sample.node_power_estimate();
        p.len += 1;
        self.json_bytes += end - start - TRAILER;
        if p.len == PACK || self.open.len() + p.unshared().len() == PAGE {
            self.pack();
            if self.open.len() == PAGE {
                self.seal();
            }
        }
        if self.len() > self.capacity {
            self.evict();
        }
    }

    /// Drop the oldest live record.
    fn evict(&mut self) {
        let at = self.head;
        self.head += 1;
        let pages = self.sealed.as_deref_mut().map(|s| &mut s.pages);
        let bytes = match pages.filter(|p| !p.is_empty()) {
            Some(pages) => {
                let bytes = pages[0].1[at].stored_bytes();
                if self.head == PAGE {
                    pages.pop_front();
                    self.head = 0;
                }
                bytes
            }
            None => match self.open.get(at) {
                Some(record) => record.stored_bytes(),
                None => {
                    let p = &self.pending;
                    p.span(at - self.open.len() + p.shared).len() - TRAILER
                }
            },
        };
        self.json_bytes -= bytes;
    }

    /// Make the pending records from `first` on handles into one new
    /// block of their bytes — one allocation, one copy — in `open`: the
    /// ones already there are replaced, the rest appended.
    fn build_block(&mut self, first: usize) {
        let p = &mut self.pending;
        let offset = p.span(first).start;
        let block: Arc<[u8]> = Arc::from(&p.bytes[offset..]);
        let record = |i: usize| {
            let span = p.span(i);
            PowerRecord::in_block(
                Arc::clone(&block),
                span.start - offset..span.end - offset,
                p.timestamps[i],
                p.node_w[i],
            )
        };
        let at = self.open.len() - p.shared;
        for i in first..p.shared {
            self.open[at + i] = record(i);
        }
        if self.open.capacity() - self.open.len() < p.unshared().len() {
            // A quarter page at a time: most agents of a large fleet never
            // fill one.
            self.open.reserve_exact(PACK.min(PAGE - self.open.len()));
        }
        self.open.extend(p.unshared().map(record));
        p.shared = p.len;
    }

    /// Hand a reader the pending records as records: the ones not shared
    /// yet get a block of their own until the full block replaces it.
    fn share_pending(&mut self) {
        if !self.pending.unshared().is_empty() {
            self.build_block(self.pending.shared);
        }
    }

    /// Build the full block of the pending records, which replaces any a
    /// reader was given, and start the next.
    fn pack(&mut self) {
        self.build_block(0);
        let p = &mut self.pending;
        p.len = 0;
        p.shared = 0;
        if self.sealed.is_some() {
            p.bytes.clear();
        } else {
            p.bytes = Vec::new();
        }
    }

    /// Move the full open page into the sealed ones. The first seal hands
    /// the open page's storage over with it (an agent that seals once
    /// keeps no second buffer); later ones copy the records out and keep
    /// the storage, so a long-lived agent does not regrow it every page.
    fn seal(&mut self) {
        let page: Page = match &self.sealed {
            None => Arc::from(std::mem::take(&mut self.open)),
            Some(_) => self.open.drain(..).collect(),
        };
        let newest = page[PAGE - 1].timestamp_us();
        self.sealed
            .get_or_insert_default()
            .pages
            .push_back((newest, page));
    }

    /// The live records, oldest first, sharing the pending ones first so
    /// that every record is a handle into a block the log keeps.
    pub(crate) fn records(&mut self) -> impl Iterator<Item = &PowerRecord> {
        self.share_pending();
        self.records_in(self.head..self.head + self.len())
    }

    /// The oldest live record's timestamp.
    pub(crate) fn oldest_timestamp(&self) -> Option<u64> {
        if self.len() == 0 {
            return None;
        }
        let at = self.head;
        Some(match self.pages().front() {
            Some((_, page)) => page[at].timestamp_us(),
            None => match self.open.get(at) {
                Some(record) => record.timestamp_us(),
                None => self.pending.timestamps[at - self.open.len() + self.pending.shared],
            },
        })
    }

    /// The newest record's timestamp and node power.
    pub(crate) fn newest(&self) -> Option<(u64, f64)> {
        let p = &self.pending;
        if p.len > 0 {
            return Some((p.timestamps[p.len - 1], p.node_w[p.len - 1]));
        }
        self.open
            .last()
            .or_else(|| self.pages().back().map(|(_, page)| &page[PAGE - 1]))
            .map(|r| (r.timestamp_us(), r.node_power_estimate()))
    }

    /// The fold of the node power of the live records whose timestamp
    /// lies in `lo..=hi`, oldest first.
    ///
    /// A sealed log keeps the fold of the last window it summed. A window
    /// that starts at the same record and ends at or past that one's end
    /// adds only the records past it, in the same order, so the fold has
    /// the same bits as one from scratch. Any other window — a new start,
    /// an evicted one, an earlier end — is folded from scratch.
    pub(crate) fn window_fold(&mut self, lo: u64, hi: u64) -> Fold {
        let window = self.find(lo, hi);
        // Position `p` is record number `dropped + p`: every record ever
        // pushed is held but for the pages dropped whole.
        let held = self.packed() + self.pending.unshared().len();
        let dropped = self.pushed - held as u64;
        let span = dropped + window.start as u64..dropped + window.end as u64;
        let (from, fold) = match self.sealed.as_deref().and_then(|s| s.last.clone()) {
            Some((last, fold)) if last.start == span.start && last.end <= span.end => {
                ((last.end - dropped) as usize, fold)
            }
            _ => (window.start, Fold::EMPTY),
        };
        let fold = self.fold_in(from..window.end, fold);
        if let Some(sealed) = self.sealed.as_deref_mut() {
            sealed.last = Some((span, fold));
        }
        fold
    }

    /// `fold` with the node power of the records at the positions
    /// `window` added, oldest first: the packed records', then the
    /// pending ones', each read in a loop of its own.
    fn fold_in(&self, window: Range<usize>, mut fold: Fold) -> Fold {
        let (packed, pending) = self.power_in(window);
        for p in packed {
            fold.add(p);
        }
        for &p in pending {
            fold.add(p);
        }
        fold
    }

    /// The node power of the live records at the positions `window`,
    /// oldest first, read beside the records without sharing any: the
    /// packed records' first, then the pending ones'.
    fn power_in(&self, window: Range<usize>) -> (impl Iterator<Item = f64> + '_, &[f64]) {
        let p = &self.pending;
        let unshared = part(&window, self.packed(), self.packed() + p.unshared().len());
        let pending = &p.node_w[unshared.start + p.shared..unshared.end + p.shared];
        (
            self.records_in(window)
                .map(PowerRecord::node_power_estimate),
            pending,
        )
    }

    /// The live records whose timestamp lies in `lo..=hi`, as a value a
    /// reply carries: every sealed page the window touches is shared
    /// whole, and only its part of the open page — at most `PAGE - 1`
    /// records — is cloned, record by record. Pending records in the
    /// window are shared first.
    pub(crate) fn share(&mut self, lo: u64, hi: u64) -> Records {
        let window = self.find(lo, hi);
        if window.end > self.packed() {
            self.share_pending();
        }
        let open = self.open_part(&window);
        let len = window.len();
        // One allocation: a mapped range chained with a mapped slice
        // reports its exact length.
        let runs = self
            .sealed_runs(window)
            .map(|(page, range)| Run::Page {
                page: Arc::clone(page),
                start: range.start,
                end: range.end,
            })
            .chain(open.iter().cloned().map(Run::One))
            .collect();
        Runs { runs, len }
    }

    /// Positions (counted from the first record of the oldest page) of
    /// the live records whose timestamp lies in `lo..=hi`.
    fn find(&self, lo: u64, hi: u64) -> Range<usize> {
        // Evicted records are older than every live one, so a search over
        // whole pages only needs its result clamped to the head.
        let start = self.head.max(self.partition_point(|ts| ts < lo));
        start..start.max(self.partition_point(|ts| ts <= hi))
    }

    /// The first position whose timestamp fails `pred`, which must hold
    /// for a prefix (timestamps never decrease): a binary search over the
    /// pages' newest timestamps, then one within the page it lands in —
    /// the open page's packed records, then its pending ones.
    fn partition_point(&self, pred: impl Fn(u64) -> bool) -> usize {
        let pages = self.pages();
        let before = pages.partition_point(|&(newest, _)| pred(newest));
        if let Some((_, page)) = pages.get(before) {
            return before * PAGE + page.partition_point(|r| pred(r.timestamp_us()));
        }
        let open = self.open.partition_point(|r| pred(r.timestamp_us()));
        let pending = if open == self.open.len() {
            let p = &self.pending;
            p.timestamps[p.unshared()].partition_point(|&ts| pred(ts))
        } else {
            0
        };
        before * PAGE + open + pending
    }

    /// The sealed pages the positions `window` touch, oldest first, each
    /// with the non-empty range of it inside the window.
    fn sealed_runs(&self, window: Range<usize>) -> impl Iterator<Item = (&Page, Range<usize>)> {
        let Range { start, end } = window;
        let pages = self.pages();
        let paged_end = end.min(pages.len() * PAGE);
        let touched = if start < paged_end {
            start / PAGE..paged_end.div_ceil(PAGE)
        } else {
            0..0
        };
        touched.map(move |i| {
            let base = i * PAGE;
            (
                &pages[i].1,
                start.max(base) - base..paged_end.min(base + PAGE) - base,
            )
        })
    }

    /// The packed part of the open page within the positions `window`.
    fn open_part(&self, window: &Range<usize>) -> &[PowerRecord] {
        let sealed_end = self.pages().len() * PAGE;
        &self.open[part(window, sealed_end, self.packed())]
    }

    /// The packed records within the positions `window`.
    fn records_in(&self, window: Range<usize>) -> impl Iterator<Item = &PowerRecord> {
        let open = self.open_part(&window);
        self.sealed_runs(window)
            .flat_map(|(page, range)| &page[range])
            .chain(open)
    }
}

/// The part of `window` within the positions `from..to`, counted from
/// `from`.
fn part(window: &Range<usize>, from: usize, to: usize) -> Range<usize> {
    window.start.clamp(from, to) - from..window.end.clamp(from, to) - from
}

/// A run of a [`Runs`] window, never empty: a shared page's
/// `page[start..end]`, or one element cloned out of a page still being
/// filled.
#[derive(Clone)]
pub(crate) enum Run<T> {
    Page {
        page: Arc<[T]>,
        start: usize,
        end: usize,
    },
    One(T),
}

impl<T> Run<T> {
    fn items(&self) -> &[T] {
        match self {
            Run::Page { page, start, end } => &page[*start..*end],
            Run::One(item) => std::slice::from_ref(item),
        }
    }
}

/// A window of shared pages, oldest first: the elements of a reply as
/// runs of the pages its sender keeps. Built once by the sender; every
/// later holder — the root's aggregation, the client, a cross-shard
/// message — shares the run list, so cloning a window is one
/// reference-count bump however many elements it holds. Reads like the
/// slice it replaces: `len()`, indexing, `first()`/`last()`,
/// `for x in &runs`.
///
/// Two senders build them: the node agent's record log ([`Records`])
/// and a relay's subscriber hub, whose poll reply shares the pages of
/// the relay batches it was sent
/// ([`DeltaBatch::deltas`](crate::DeltaBatch::deltas)).
pub struct Runs<T> {
    runs: Arc<[Run<T>]>,
    len: usize,
}

/// What [`Runs::sharing`] reports.
#[cfg(test)]
pub(crate) type Sharing<'a, T> = (Vec<(&'a Arc<[T]>, usize)>, usize);

/// The records of one node's reply window, as runs of the node agent's
/// pages.
pub type Records = Runs<PowerRecord>;

/// Iterator over a [`Records`] window.
pub type RecordsIter<'a> = RunsIter<'a, PowerRecord>;

impl<T> Runs<T> {
    /// The window `lineup` describes, built in one allocation (a `Vec`
    /// drain knows its length); `lineup` is left empty with its storage.
    pub(crate) fn from_lineup(lineup: &mut Vec<Run<T>>) -> Runs<T> {
        let len = lineup.iter().map(|run| run.items().len()).sum();
        Runs {
            runs: lineup.drain(..).collect(),
            len,
        }
    }

    /// Elements in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements, oldest first.
    pub fn iter(&self) -> RunsIter<'_, T> {
        RunsIter {
            runs: self.runs.iter(),
            run: Default::default(),
            left: self.len,
        }
    }

    /// The oldest element.
    pub fn first(&self) -> Option<&T> {
        self.runs.first()?.items().first()
    }

    /// The newest element.
    pub fn last(&self) -> Option<&T> {
        self.runs.last()?.items().last()
    }

    /// The element at `index`, oldest first (a walk over the runs).
    pub fn get(&self, mut index: usize) -> Option<&T> {
        for run in self.runs.iter() {
            let items = run.items();
            if index < items.len() {
                return Some(&items[index]);
            }
            index -= items.len();
        }
        None
    }

    /// Whether both share one run list (one is a clone of the other).
    pub fn ptr_eq(&self, other: &Runs<T>) -> bool {
        Arc::ptr_eq(&self.runs, &other.runs)
    }

    /// The pages this window shares, each with how many of its elements
    /// the window holds; and how many elements it holds cloned.
    #[cfg(test)]
    pub(crate) fn sharing(&self) -> Sharing<'_, T> {
        let mut pages = Vec::new();
        let mut cloned = 0;
        for run in self.runs.iter() {
            match run {
                Run::Page { page, start, end } => pages.push((page, end - start)),
                Run::One(_) => cloned += 1,
            }
        }
        (pages, cloned)
    }
}

impl<T> Clone for Runs<T> {
    fn clone(&self) -> Runs<T> {
        Runs {
            runs: Arc::clone(&self.runs),
            len: self.len,
        }
    }
}

/// The empty window.
impl<T> Default for Runs<T> {
    fn default() -> Runs<T> {
        Runs {
            runs: Arc::new([]),
            len: 0,
        }
    }
}

impl<T> Index<usize> for Runs<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        match self.get(index) {
            Some(item) => item,
            None => panic!("index {index} out of a window of {} elements", self.len),
        }
    }
}

/// One run: the page whole.
impl<T> From<Arc<[T]>> for Runs<T> {
    fn from(page: Arc<[T]>) -> Runs<T> {
        if page.is_empty() {
            return Runs::default();
        }
        let len = page.len();
        let run = Run::Page {
            page,
            start: 0,
            end: len,
        };
        Runs {
            runs: Arc::new([run]),
            len,
        }
    }
}

/// One run holding the elements.
impl<T> From<Vec<T>> for Runs<T> {
    fn from(items: Vec<T>) -> Runs<T> {
        Runs::from(Arc::<[T]>::from(items))
    }
}

impl<T> FromIterator<T> for Runs<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Runs<T> {
        Runs::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a, T> IntoIterator for &'a Runs<T> {
    type Item = &'a T;
    type IntoIter = RunsIter<'a, T>;

    fn into_iter(self) -> RunsIter<'a, T> {
        self.iter()
    }
}

/// Equal when they hold equal elements in the same order, however the
/// elements are split into runs.
impl<T: PartialEq> PartialEq for Runs<T> {
    fn eq(&self, other: &Runs<T>) -> bool {
        self.len == other.len && self.iter().eq(other)
    }
}

impl<T: fmt::Debug> fmt::Debug for Runs<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// Iterator over a [`Runs`] window, oldest first.
pub struct RunsIter<'a, T> {
    runs: std::slice::Iter<'a, Run<T>>,
    run: std::slice::Iter<'a, T>,
    left: usize,
}

impl<'a, T> Iterator for RunsIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.run.next() {
                self.left -= 1;
                return Some(item);
            }
            self.run = self.runs.next()?.items().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for RunsIter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingBuffer;
    use proptest::prelude::*;

    fn sample(ts: u64) -> NodePowerSample {
        NodePowerSample {
            hostname: "h".into(),
            timestamp_us: ts,
            // A reading that varies the JSON's length, so eviction's byte
            // count is checked against the right record.
            power_node_watts: Some((ts % 1000) as f64),
            power_cpu_watts: Default::default(),
            power_mem_watts: None,
            power_gpu_watts: Default::default(),
        }
    }

    fn log_of(capacity: usize, timestamps: impl IntoIterator<Item = u64>) -> PagedLog {
        let mut log = PagedLog::new(capacity);
        for ts in timestamps {
            log.push_sample(&sample(ts));
        }
        log
    }

    /// Both parts of [`PagedLog::power_in`] for a window, in order.
    fn window_power(log: &PagedLog, lo: u64, hi: u64) -> Vec<f64> {
        let (packed, pending) = log.power_in(log.find(lo, hi));
        packed.chain(pending.iter().copied()).collect()
    }

    /// The records the log itself keeps for a window, packed ones only.
    fn kept(log: &PagedLog, lo: u64, hi: u64) -> Vec<&PowerRecord> {
        log.records_in(log.find(lo, hi)).collect()
    }

    fn timestamps<'a>(records: impl IntoIterator<Item = &'a PowerRecord>) -> Vec<u64> {
        records.into_iter().map(PowerRecord::timestamp_us).collect()
    }

    /// An operation against the log / ring pair, as a node agent's life
    /// drives it: a sample some microseconds after the last one (0 repeats
    /// a timestamp), an outage gap, or a window query.
    #[derive(Debug, Clone)]
    enum Op {
        Tick(u64),
        NoteLoss(u64),
        Query(u64, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            12 => (0u64..5).prop_map(Op::Tick),
            1 => (1u64..30).prop_map(Op::NoteLoss),
            3 => (0u64..300, 0u64..120).prop_map(|(lo, width)| Op::Query(lo, lo + width)),
        ]
    }

    /// A sample some microseconds after the last one, an outage gap, or a
    /// fail/recover cycle that drops the history.
    #[derive(Debug, Clone)]
    enum ClockOp {
        Tick(u64),
        NoteLoss(u64),
        FailRecover,
    }

    fn clock_op_strategy() -> impl Strategy<Value = ClockOp> {
        prop_oneof![
            12 => (0u64..5).prop_map(ClockOp::Tick),
            2 => (1u64..30).prop_map(ClockOp::NoteLoss),
            1 => Just(ClockOp::FailRecover),
        ]
    }

    proptest! {
        /// The log keeps exactly what a ring of the same capacity keeps:
        /// every count, the oldest and newest record, the stored JSON's
        /// bytes, and every window — its node power read beside pending
        /// records, and its records by value and shared out of the log's
        /// own blocks. Capacities sit below, at and across multiples of
        /// `PAGE`; queries share pending records at any point of a block.
        #[test]
        fn log_matches_a_ring_oracle(
            capacity in 1usize..48,
            ops in prop::collection::vec(op_strategy(), 0..200),
        ) {
            let mut log = PagedLog::new(capacity);
            let mut ring: RingBuffer<PowerRecord> = RingBuffer::new(capacity);
            let mut now = 0u64;
            for op in &ops {
                match *op {
                    Op::Tick(dt) => {
                        now += dt;
                        ring.push(PowerRecord::new(sample(now)));
                        log.push_sample(&sample(now));
                    }
                    Op::NoteLoss(n) => {
                        log.note_loss(n);
                        ring.note_loss(n);
                    }
                    Op::Query(lo, hi) => {
                        let scanned: Vec<&PowerRecord> = ring
                            .iter()
                            .filter(|r| (lo..=hi).contains(&r.timestamp_us()))
                            .collect();
                        let power: Vec<f64> =
                            scanned.iter().map(|r| r.node_power_estimate()).collect();
                        prop_assert_eq!(window_power(&log, lo, hi), power);
                        let shared = log.share(lo, hi);
                        let got: Vec<&PowerRecord> = shared.iter().collect();
                        prop_assert_eq!(&got, &scanned);
                        prop_assert_eq!(shared.len(), scanned.len());
                        // A reply holds the very bytes the log keeps.
                        let kept = kept(&log, lo, hi);
                        prop_assert_eq!(kept.len(), got.len());
                        for (got, kept) in got.iter().zip(kept) {
                            prop_assert!(std::ptr::eq(got.raw_json(), kept.raw_json()));
                        }
                    }
                }
                prop_assert_eq!(log.len(), ring.len());
                prop_assert_eq!(log.overwritten(), ring.overwritten());
                prop_assert_eq!(log.total_pushed(), ring.total_pushed());
                prop_assert_eq!(log.noted_lost(), ring.noted_lost());
                prop_assert_eq!(
                    log.json_bytes(),
                    ring.iter().map(PowerRecord::stored_bytes).sum::<usize>()
                );
                prop_assert_eq!(log.oldest_timestamp(), ring.oldest().map(PowerRecord::timestamp_us));
                prop_assert_eq!(
                    log.newest(),
                    ring.newest().map(|r| (r.timestamp_us(), r.node_power_estimate()))
                );
            }
            prop_assert_eq!(log.records().collect::<Vec<_>>(), ring.iter().collect::<Vec<_>>());
        }

        /// The binary-searched window is exactly what a filter scan of the
        /// whole log returns, in the same order — on empty, unwrapped,
        /// wrapped, gap-noted and restarted logs, with repeated
        /// timestamps, at every step.
        #[test]
        fn range_by_key_matches_filter_scan(
            capacity in 1usize..24,
            ops in prop::collection::vec(clock_op_strategy(), 0..120),
            start in 0u64..300,
            width in 0u64..120,
        ) {
            let mut log = PagedLog::new(capacity);
            // The live timestamps, oldest first.
            let mut live = std::collections::VecDeque::new();
            let mut now = 0u64;
            let end = start + width;
            for op in &ops {
                match *op {
                    ClockOp::Tick(dt) => {
                        now += dt;
                        log.push_sample(&sample(now));
                        live.push_back(now);
                        if live.len() > capacity {
                            live.pop_front();
                        }
                    }
                    ClockOp::NoteLoss(n) => log.note_loss(n),
                    // A recovered node gets a fresh agent.
                    ClockOp::FailRecover => {
                        log = PagedLog::new(capacity);
                        live.clear();
                    }
                }
                let scanned: Vec<u64> = live
                    .iter()
                    .copied()
                    .filter(|t| (start..=end).contains(t))
                    .collect();
                let power: Vec<f64> = scanned.iter().map(|t| (t % 1000) as f64).collect();
                prop_assert_eq!(window_power(&log, start, end), power);
                prop_assert_eq!(timestamps(&log.share(start, end)), scanned);
            }
        }
    }

    /// A job's stats query as its life drives it: samples arrive, and the
    /// window keeps its start while its end moves on or back, or starts
    /// afresh elsewhere.
    #[derive(Debug, Clone)]
    enum FoldOp {
        Tick(u64),
        /// This many samples, a microsecond apart: enough, between two
        /// queries, to drop a page and move the head back to where the
        /// last window started.
        Burst(u64),
        Extend(u64),
        Shrink(u64),
        Restart(u64, u64),
    }

    fn fold_op_strategy() -> impl Strategy<Value = FoldOp> {
        prop_oneof![
            8 => (0u64..5).prop_map(FoldOp::Tick),
            2 => (0u64..40).prop_map(FoldOp::Burst),
            4 => (0u64..12).prop_map(FoldOp::Extend),
            1 => (1u64..12).prop_map(FoldOp::Shrink),
            1 => (0u64..200, 0u64..40).prop_map(|(lo, width)| FoldOp::Restart(lo, lo + width)),
        ]
    }

    /// A sample whose node power is not a whole number of watts, so a sum
    /// taken in another order would show in its bits.
    fn fractional(ts: u64) -> NodePowerSample {
        NodePowerSample {
            power_node_watts: Some((ts * 7919 % 1000) as f64 / 7.0 + 0.1),
            ..sample(ts)
        }
    }

    proptest! {
        /// Whatever the log kept of the last window it summed, every stats
        /// fold has the bits of a fresh sequential fold of the records a
        /// ring of the same capacity holds in the window: over a growing
        /// end, a shrinking end, a moved start, and a start evicted
        /// between two queries (capacities a page or two, so pages are
        /// sealed and dropped).
        #[test]
        fn a_kept_fold_matches_a_fresh_one(
            capacity in 1usize..40,
            ops in prop::collection::vec(fold_op_strategy(), 0..300),
        ) {
            let mut log = PagedLog::new(capacity);
            let mut ring: RingBuffer<PowerRecord> = RingBuffer::new(capacity);
            let (mut now, mut lo, mut hi) = (0u64, 0u64, 0u64);
            for op in &ops {
                let mut push = |dt: u64| {
                    now += dt;
                    log.push_sample(&fractional(now));
                    ring.push(PowerRecord::new(fractional(now)));
                };
                match *op {
                    FoldOp::Tick(dt) => {
                        push(dt);
                        continue;
                    }
                    FoldOp::Burst(n) => {
                        (0..n).for_each(|_| push(1));
                        continue;
                    }
                    FoldOp::Extend(d) => hi += d,
                    FoldOp::Shrink(d) => hi = hi.saturating_sub(d),
                    FoldOp::Restart(l, h) => (lo, hi) = (l, h),
                }
                let mut fresh = Fold::EMPTY;
                for r in ring.iter().filter(|r| (lo..=hi).contains(&r.timestamp_us())) {
                    fresh.add(r.node_power_estimate());
                }
                let got = log.window_fold(lo, hi);
                let bits = |f: Fold| {
                    let mean = f.sum / f.samples as f64;
                    (f.samples, mean.to_bits(), f.max.to_bits(), f.min.to_bits())
                };
                prop_assert_eq!(bits(got), bits(fresh), "window {}..={}", lo, hi);
            }
        }
    }

    /// A run of a test window: a page of `len` elements shared in part,
    /// from `skip` and `keep` short of its end, or one element alone.
    #[derive(Debug, Clone)]
    enum Piece {
        Page {
            len: usize,
            skip: usize,
            keep: usize,
        },
        One,
    }

    fn piece() -> impl Strategy<Value = Piece> {
        prop_oneof![
            3 => (1usize..9, 0usize..9, 0usize..9).prop_map(|(len, skip, keep)| Piece::Page {
                len,
                skip: skip % len,
                keep: keep % len,
            }),
            1 => Just(Piece::One),
        ]
    }

    proptest! {
        /// Whatever its runs, a window reads exactly as the flat vector of
        /// its elements: `len`, `iter` (and its exact size), `get`,
        /// indexing, `first`, `last` and equality.
        #[test]
        fn runs_read_like_a_flat_vec(pieces in prop::collection::vec(piece(), 0..12)) {
            let mut next = 0u32;
            let mut flat = Vec::new();
            let mut lineup = Vec::new();
            for piece in &pieces {
                match *piece {
                    Piece::Page { len, skip, keep } => {
                        let page: Arc<[u32]> = (next..next + len as u32).collect();
                        next += len as u32;
                        let end = len.saturating_sub(keep).max(skip + 1).min(len);
                        flat.extend_from_slice(&page[skip..end]);
                        lineup.push(Run::Page { page, start: skip, end });
                    }
                    Piece::One => {
                        flat.push(next);
                        lineup.push(Run::One(next));
                        next += 1;
                    }
                }
            }
            let runs = Runs::from_lineup(&mut lineup);
            prop_assert!(lineup.is_empty());
            prop_assert_eq!(runs.len(), flat.len());
            prop_assert_eq!(runs.is_empty(), flat.is_empty());
            prop_assert_eq!(runs.iter().len(), flat.len());
            prop_assert_eq!(runs.iter().copied().collect::<Vec<_>>(), flat.clone());
            for i in 0..flat.len() + 2 {
                prop_assert_eq!(runs.get(i), flat.get(i));
                if i < flat.len() {
                    prop_assert_eq!(runs[i], flat[i]);
                }
            }
            prop_assert_eq!(runs.first(), flat.first());
            prop_assert_eq!(runs.last(), flat.last());
            prop_assert_eq!(&runs, &Runs::from(flat.clone()));
            let mut it = runs.iter();
            for left in (0..flat.len()).rev() {
                it.next();
                prop_assert_eq!(it.len(), left);
            }
        }
    }

    #[test]
    fn range_by_key_spans_the_wrap() {
        // Retained: 38 40 … 78, the oldest page partly evicted.
        let mut log = log_of(21, (0..80u64).step_by(2));
        assert!(log.head > 0, "expected an evicted prefix");
        let mut range = |lo, hi| timestamps(&log.share(lo, hi));
        assert_eq!(range(0, 100), (38..80).step_by(2).collect::<Vec<_>>());
        assert_eq!(range(41, 46), vec![42, 44, 46], "bounds are inclusive");
        assert_eq!(range(63, 64), vec![64], "across a page boundary");
        assert_eq!(range(45, 45), Vec::<u64>::new(), "between two keys");
        assert_eq!(range(46, 41), Vec::<u64>::new(), "inverted window");
        assert_eq!(range(79, 90), Vec::<u64>::new(), "after the newest");
    }

    #[test]
    fn a_window_over_sealed_pages_shares_them() {
        // 40 records: pages 0..16 and 16..32 sealed, 32..40 open.
        let mut log = log_of(100, 0..40);
        let pages: Vec<Page> = log.pages().iter().map(|(_, p)| Arc::clone(p)).collect();
        assert_eq!(pages.len(), 2);
        let shared = log.share(5, 35);
        assert_eq!(timestamps(&shared), (5..=35).collect::<Vec<_>>());
        let (held, cloned) = shared.sharing();
        assert_eq!(held.len(), 2, "both sealed pages");
        assert!(Arc::ptr_eq(held[0].0, &pages[0]) && held[0].1 == 11);
        assert!(Arc::ptr_eq(held[1].0, &pages[1]) && held[1].1 == 16);
        // Only the open page's records are cloned, never more than a page
        // short of one.
        assert_eq!(cloned, 4);
        assert!(cloned < PAGE);
        // A clone of the window shares its run list.
        let copy = shared.clone();
        assert!(Arc::ptr_eq(&copy.runs, &shared.runs));
    }

    #[test]
    fn a_window_inside_the_open_page_copies_only_its_records() {
        let mut log = log_of(100, 0..20);
        let shared = log.share(17, 18);
        assert_eq!(timestamps(&shared), vec![17, 18]);
        let (held, cloned) = shared.sharing();
        assert!(held.is_empty(), "the open page is not shared");
        assert_eq!(cloned, 2, "just the two records");
        assert!(std::ptr::eq(shared[0].raw_json(), log.open[1].raw_json()));
    }

    #[test]
    fn records_index_and_ends_across_runs() {
        let mut log = log_of(100, 0..40);
        let shared = log.share(10, 37);
        assert_eq!(shared.len(), 28);
        assert_eq!(shared.iter().len(), 28);
        for (i, ts) in (10..=37).enumerate() {
            assert_eq!(shared[i].timestamp_us(), ts, "index {i}");
        }
        assert_eq!(shared.get(28), None);
        assert_eq!(shared.first().map(PowerRecord::timestamp_us), Some(10));
        assert_eq!(shared.last().map(PowerRecord::timestamp_us), Some(37));
        let through_page_end = log.share(10, 31);
        assert_eq!(
            through_page_end.last().map(PowerRecord::timestamp_us),
            Some(31)
        );
        assert_eq!(
            through_page_end.sharing().1,
            0,
            "nothing from the open page"
        );
        let mut it = shared.iter();
        it.nth(5);
        assert_eq!(it.len(), 22);
    }

    #[test]
    fn the_empty_window() {
        let mut log = log_of(100, 0..40);
        for (lo, hi) in [(100, 200), (20, 10), (40, 99)] {
            let shared = log.share(lo, hi);
            assert!(shared.is_empty());
            assert_eq!(shared.len(), 0);
            assert_eq!(shared.first(), None);
            assert_eq!(shared.last(), None);
            assert_eq!(shared.iter().next(), None);
            assert_eq!(shared, Records::default());
        }
        assert!(PagedLog::new(3).share(0, u64::MAX).is_empty());
    }

    #[test]
    fn records_compare_by_value_not_by_runs() {
        let mut log = log_of(100, 0..40);
        let shared = log.share(3, 33);
        let copied: Records = shared.iter().cloned().collect();
        assert_eq!(copied.sharing().0.len(), 1, "one run");
        assert_eq!(copied, shared);
        assert_ne!(copied, log.share(3, 32));
        assert_eq!(format!("{copied:?}"), format!("{shared:?}"));
    }

    #[test]
    fn storage_is_bounded_by_capacity_plus_two_pages() {
        for capacity in [1, 5, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE] {
            let mut log = PagedLog::new(capacity);
            for ts in 0..10 * PAGE as u64 {
                log.push_sample(&sample(ts));
                let held = log.packed() + log.pending.unshared().len();
                assert!(held <= capacity + 2 * PAGE, "capacity {capacity}: {held}");
                assert!(log.open.capacity() <= PAGE);
            }
        }
    }

    #[test]
    fn the_first_seal_gives_the_open_page_back_and_later_ones_keep_it() {
        let mut log = log_of(1000, 0..PAGE as u64);
        assert_eq!(log.open.capacity(), 0, "handed over with the first page");
        for ts in PAGE as u64..2 * PAGE as u64 {
            log.push_sample(&sample(ts));
        }
        assert_eq!(log.open.capacity(), PAGE, "kept from the second on");
    }

    #[test]
    fn a_sample_is_written_into_pending_bytes_and_packed_by_four() {
        let mut log = log_of(100, 0..3);
        assert!(log.open.is_empty(), "nothing packed yet");
        assert_eq!(log.pending.len, 3);
        let lens: Vec<usize> = (0..3)
            .map(|ts| PowerRecord::new(sample(ts)).stored_bytes() + TRAILER)
            .collect();
        assert_eq!(log.pending.bytes.len(), lens.iter().sum::<usize>());
        // Pending records answer every read that needs no record.
        assert_eq!(log.len(), 3);
        assert_eq!(log.oldest_timestamp(), Some(0));
        assert_eq!(log.newest(), Some((2, 2.0)));
        assert_eq!(window_power(&log, 1, 9), vec![1.0, 2.0]);
        assert_eq!(log.pending.len, 3, "reading them packs nothing");

        log.push_sample(&sample(3));
        assert_eq!(log.pending.len, 0);
        assert_eq!(log.open.len(), 4);
        let block = log.open[0].block();
        assert!(
            log.open.iter().all(|r| Arc::ptr_eq(r.block(), block)),
            "one block"
        );
        assert_eq!(
            block.len(),
            lens.iter().sum::<usize>() + log.open[3].stored_bytes() + TRAILER
        );
        for (ts, record) in (0..).zip(&log.open) {
            assert_eq!(*record, PowerRecord::new(sample(ts)));
        }

        // A reply reaching pending records shares them out of a block of
        // the bytes so far, which it holds.
        log.push_sample(&sample(4));
        log.push_sample(&sample(5));
        let shared = log.share(3, 9);
        assert_eq!(timestamps(&shared), vec![3, 4, 5]);
        assert_eq!((log.open.len(), log.pending.shared), (6, 2));
        assert!(Arc::ptr_eq(log.open[4].block(), log.open[5].block()));
        assert!(!Arc::ptr_eq(log.open[3].block(), log.open[4].block()));
        assert!(std::ptr::eq(shared[2].raw_json(), log.open[5].raw_json()));
        // One that does not reach them leaves them pending; one that
        // does copies only the records no reader holds yet.
        log.push_sample(&sample(6));
        assert_eq!(timestamps(&log.share(0, 5)).len(), 6);
        assert_eq!(log.pending.unshared(), 2..3);
        let again = log.share(6, 9);
        assert_eq!(
            again[0].block().len(),
            log.open[6].stored_bytes() + TRAILER,
            "record 6 alone"
        );
        assert!(Arc::ptr_eq(shared[2].block(), log.open[5].block()));
        // The fourth record closes the block: the shared records move into
        // it beside the other two, and the reply keeps the block it holds.
        log.push_sample(&sample(7));
        assert_eq!((log.open.len(), log.pending.len), (8, 0));
        let block = log.open[4].block();
        assert!(log.open[4..].iter().all(|r| Arc::ptr_eq(r.block(), block)));
        assert!(!Arc::ptr_eq(shared[2].block(), block));
        assert_eq!(shared[2], log.open[5]);
        assert_eq!(Arc::strong_count(shared[2].block()), 2, "the reply's alone");
    }

    #[test]
    fn pending_bytes_keep_no_spare_room_until_the_first_seal() {
        let mut log = PagedLog::new(1000);
        for ts in 0..PAGE as u64 {
            log.push_sample(&sample(ts));
            let bytes = &log.pending.bytes;
            if log.pending.len == 0 {
                assert_eq!(bytes.capacity(), 0, "a pack releases them");
            } else if ts > 0 {
                assert!(bytes.capacity() - bytes.len() <= SLACK, "after {ts}");
            }
        }
        assert!(log.sealed.is_some());
        let mut room = 0;
        for ts in PAGE as u64..4 * PAGE as u64 {
            log.push_sample(&sample(ts));
            let bytes = &log.pending.bytes;
            if log.pending.len == 0 && ts > PAGE as u64 + PACK as u64 {
                assert_eq!(bytes.capacity(), room, "kept once sealed, after {ts}");
            }
            room = bytes.capacity();
        }
        assert!(room >= PACK * PowerRecord::new(sample(0)).stored_bytes() + TRAILER);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        PagedLog::new(0);
    }
}
