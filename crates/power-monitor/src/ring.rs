//! Fixed-capacity circular buffer with overwrite accounting.
//!
//! The power manager's FPP keeps its per-GPU sample windows in one. The
//! node agent's record log keeps the same contract (and is tested against
//! this buffer): when it wraps, the oldest records are lost and any later
//! query that reaches before the retained window is flagged *partial* (the
//! paper's "complete or partial data set" CSV column).

/// A circular buffer of power records (or anything else).
///
/// ```
/// use fluxpm_monitor::RingBuffer;
///
/// let mut buf = RingBuffer::new(3);
/// for ts in [0u64, 2, 4, 6] {
///     buf.push(ts);
/// }
/// // Oldest record lost; the query layer will flag windows reaching
/// // before t=2 as "partial".
/// assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![2, 4, 6]);
/// assert_eq!(buf.overwritten(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the logical start (oldest element) within `buf`.
    head: usize,
    /// Total elements ever pushed.
    pushed: u64,
    /// Elements that were never captured at all (e.g. samples missed
    /// while the host node was down). They count toward
    /// [`RingBuffer::overwritten`] so the partial-data accounting treats
    /// an outage gap like a wrap.
    lost: u64,
}

impl<T> RingBuffer<T> {
    /// An empty buffer holding at most `capacity` elements. Allocates
    /// nothing: storage grows as elements arrive, never past `capacity`
    /// (most rings of a large fleet hold a handful of records).
    pub fn new(capacity: usize) -> RingBuffer<T> {
        assert!(capacity > 0, "ring buffer needs capacity >= 1");
        RingBuffer {
            buf: Vec::new(),
            capacity,
            head: 0,
            pushed: 0,
            lost: 0,
        }
    }

    /// Maximum element count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total elements ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Elements lost so far: overwritten by wrap, plus any recorded via
    /// [`RingBuffer::note_loss`] (never captured at all).
    pub fn overwritten(&self) -> u64 {
        self.pushed - self.buf.len() as u64 + self.lost
    }

    /// Record `n` elements that were never captured (an outage gap in an
    /// otherwise continuous history). The buffer contents are untouched;
    /// only the loss accounting moves, so later completeness checks flag
    /// windows that reach into the gap as partial.
    pub fn note_loss(&mut self, n: u64) {
        self.lost += n;
    }

    /// Elements recorded via [`RingBuffer::note_loss`] alone (excluding
    /// wrap evictions). Lets the caller compute how many elements an
    /// expected cadence has already accounted for (`total_pushed() +
    /// noted_lost()`) when noting a *new* gap.
    pub fn noted_lost(&self) -> u64 {
        self.lost
    }

    /// Append an element, overwriting (and returning) the oldest when
    /// full.
    pub fn push(&mut self, value: T) -> Option<T> {
        self.pushed += 1;
        if self.buf.len() < self.capacity {
            if self.buf.len() == self.buf.capacity() {
                // Double, but stop at `capacity`.
                let room = self.capacity - self.buf.len();
                self.buf.reserve_exact(self.buf.len().max(4).min(room));
            }
            self.buf.push(value);
            None
        } else {
            let evicted = std::mem::replace(&mut self.buf[self.head], value);
            self.head = (self.head + 1) % self.capacity;
            Some(evicted)
        }
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, front) = self.buf.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// The contents as two contiguous runs in logical (oldest → newest)
    /// order: `first` starts at the oldest element, `second` holds the
    /// wrapped remainder (empty until the buffer wraps). Chaining the two
    /// runs yields exactly [`RingBuffer::iter`]'s sequence — this is the
    /// zero-copy read path the FPP analytics use instead of collecting a
    /// `Vec` per GPU per epoch.
    pub fn as_slices(&self) -> (&[T], &[T]) {
        let (tail, front) = self.buf.split_at(self.head);
        (front, tail)
    }

    /// The oldest retained element.
    pub fn oldest(&self) -> Option<&T> {
        self.iter().next()
    }

    /// The newest element.
    pub fn newest(&self) -> Option<&T> {
        if self.head == 0 {
            self.buf.last()
        } else {
            self.buf.get(self.head - 1)
        }
    }

    /// Drop everything (capacity retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        // `pushed` keeps counting: overwrite accounting is lifetime-based.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_full_then_wrap() {
        let mut r = RingBuffer::new(3);
        for i in 0..3 {
            assert_eq!(r.push(i), None, "no eviction before full");
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.push(3), Some(0), "oldest evicted");
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(r.overwritten(), 1);
        r.push(4);
        r.push(5);
        r.push(6);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(r.overwritten(), 4);
        assert_eq!(r.total_pushed(), 7);
    }

    #[test]
    fn storage_grows_on_demand_and_stops_at_capacity() {
        let mut r = RingBuffer::new(100_000);
        assert_eq!(r.buf.capacity(), 0, "an empty ring holds no storage");
        r.push(0u64);
        assert_eq!(r.buf.capacity(), 4);
        let mut r = RingBuffer::new(6);
        for i in 0..20u64 {
            r.push(i);
            assert!(r.buf.capacity() <= 6, "push {i}: {}", r.buf.capacity());
        }
        assert_eq!(
            r.iter().copied().collect::<Vec<_>>(),
            (14..20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oldest_and_newest() {
        let mut r = RingBuffer::new(2);
        assert!(r.oldest().is_none());
        assert!(r.newest().is_none());
        r.push(10);
        assert_eq!(r.oldest(), Some(&10));
        assert_eq!(r.newest(), Some(&10));
        r.push(20);
        r.push(30);
        assert_eq!(r.oldest(), Some(&20));
        assert_eq!(r.newest(), Some(&30));
    }

    #[test]
    fn clear_keeps_capacity_and_counts() {
        let mut r = RingBuffer::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 2);
        assert_eq!(r.total_pushed(), 3);
        r.push(9);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn capacity_one() {
        let mut r = RingBuffer::new(1);
        r.push('a');
        r.push('b');
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!['b']);
        assert_eq!(r.overwritten(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        RingBuffer::<u8>::new(0);
    }

    #[test]
    fn noted_loss_counts_as_overwritten() {
        let mut r = RingBuffer::new(3);
        r.push(1);
        assert_eq!(r.overwritten(), 0);
        r.note_loss(4);
        assert_eq!(r.overwritten(), 4, "gap counts even without a wrap");
        assert_eq!(r.len(), 1, "contents untouched");
        r.push(2);
        r.push(3);
        r.push(4);
        assert_eq!(r.overwritten(), 5, "wrap and gap accumulate");
        assert_eq!(r.noted_lost(), 4, "wrap evictions are not noted loss");
        r.note_loss(2);
        assert_eq!(r.noted_lost(), 6, "repeated gaps accumulate");
        assert_eq!(r.overwritten(), 7);
    }

    #[test]
    fn as_slices_matches_iter_at_every_fill_level() {
        let mut r = RingBuffer::new(5);
        for i in 0..23 {
            let (a, b) = r.as_slices();
            let stitched: Vec<i32> = a.iter().chain(b.iter()).copied().collect();
            assert_eq!(stitched, r.iter().copied().collect::<Vec<_>>(), "push {i}");
            r.push(i);
        }
        // Wrapped state: second run non-empty.
        let (a, b) = r.as_slices();
        assert!(!b.is_empty(), "expected a wrapped second run");
        assert_eq!(
            a.iter().chain(b.iter()).copied().collect::<Vec<_>>(),
            vec![18, 19, 20, 21, 22]
        );
    }

    #[test]
    fn as_slices_unwrapped_second_is_empty() {
        let mut r = RingBuffer::new(4);
        r.push(1);
        r.push(2);
        let (a, b) = r.as_slices();
        assert_eq!(a, &[1, 2]);
        assert!(b.is_empty());
    }

    #[test]
    fn iteration_order_after_many_wraps() {
        let mut r = RingBuffer::new(5);
        for i in 0..23 {
            r.push(i);
        }
        assert_eq!(
            r.iter().copied().collect::<Vec<_>>(),
            vec![18, 19, 20, 21, 22]
        );
    }
}
