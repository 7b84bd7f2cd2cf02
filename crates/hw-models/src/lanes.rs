//! A fixed-capacity inline list for per-component values.
//!
//! Every per-node power value in the stack — demand, draw, throttle,
//! sensor reading, telemetry sample — is a short list with one entry per
//! socket or per GPU. The widest modelled node is Tioga with 8 GCDs, so
//! the list lives inline in its owner and is `Copy`: the values that flow
//! through every executor slice and every sampling tick own no heap (see
//! DESIGN.md §16).

use std::fmt;
use std::ops::{Deref, DerefMut};

const CAPACITY: usize = 8;

/// Up to [`Lanes::CAPACITY`] values stored inline, in order; reads like
/// a slice.
///
/// ```
/// use fluxpm_hw::{Lanes, Watts};
///
/// let gpus = Lanes::filled(Watts(250.0), 4);
/// assert_eq!(gpus.len(), 4);
/// assert_eq!(gpus.iter().copied().sum::<Watts>(), Watts(1000.0));
/// ```
#[derive(Clone, Copy)]
pub struct Lanes<T> {
    len: u8,
    items: [T; CAPACITY],
}

impl<T> Lanes<T> {
    /// Most entries a list can hold: Tioga's 8 GCDs, the widest
    /// component family of any modelled node.
    pub const CAPACITY: usize = CAPACITY;
}

impl<T: Copy + Default> Lanes<T> {
    /// The empty list.
    pub fn new() -> Lanes<T> {
        Lanes {
            len: 0,
            items: [T::default(); CAPACITY],
        }
    }

    /// `n` copies of `value`. Panics when `n` exceeds
    /// [`Lanes::CAPACITY`].
    pub fn filled(value: T, n: usize) -> Lanes<T> {
        let mut lanes = Lanes::new();
        for _ in 0..n {
            lanes.push(value);
        }
        lanes
    }

    /// Append a value. Panics when the list is full: a node wider than
    /// the capacity is a modelling error, refused at construction.
    pub fn push(&mut self, value: T) {
        assert!(
            self.try_push(value).is_some(),
            "a node has at most {} sockets or GPUs",
            Self::CAPACITY
        );
    }

    /// Append a value, or `None` when the list is full — the decode-path
    /// counterpart of [`Lanes::push`] for input from outside the program.
    pub fn try_push(&mut self, value: T) -> Option<()> {
        *self.items.get_mut(usize::from(self.len))? = value;
        self.len += 1;
        Some(())
    }
}

impl<T: Copy + Default> Default for Lanes<T> {
    fn default() -> Lanes<T> {
        Lanes::new()
    }
}

impl<T> Deref for Lanes<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T> DerefMut for Lanes<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<T: Copy + Default> FromIterator<T> for Lanes<T> {
    /// Collect up to [`Lanes::CAPACITY`] values; panics on more.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Lanes<T> {
        let mut lanes = Lanes::new();
        for value in iter {
            lanes.push(value);
        }
        lanes
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for Lanes<T> {
    fn from(values: [T; N]) -> Lanes<T> {
        values.into_iter().collect()
    }
}

impl<'a, T> IntoIterator for &'a Lanes<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut Lanes<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// Equality is over the live entries.
impl<T: PartialEq> PartialEq for Lanes<T> {
    fn eq(&self, other: &Lanes<T>) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Lanes<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{lassen, tioga};

    #[test]
    fn capacity_covers_every_modelled_node() {
        for arch in [lassen(), tioga()] {
            assert!(arch.gpus <= CAPACITY, "{}", arch.model);
            assert!(arch.sockets <= CAPACITY, "{}", arch.model);
        }
        assert_eq!(tioga().gpus, CAPACITY, "sized by Tioga");
    }

    #[test]
    fn reads_like_a_slice() {
        let mut l: Lanes<u32> = [3, 1, 2].into();
        assert_eq!(&*l, &[3, 1, 2]);
        l.sort_unstable();
        assert_eq!(l.iter().copied().collect::<Lanes<u32>>(), [1, 2, 3].into());
        assert_ne!(l, [1, 2].into());
        assert!(Lanes::<u32>::new().is_empty());
        assert_eq!(format!("{:?}", Lanes::filled(7u8, 2)), "[7, 7]");
    }

    #[test]
    fn decode_path_refuses_a_ninth_entry_without_panicking() {
        let mut l = Lanes::filled(0.5f64, 8);
        assert_eq!(l.try_push(1.0), None);
        assert_eq!(l.len(), 8);
    }

    #[test]
    #[should_panic(expected = "at most 8 sockets or GPUs")]
    fn construction_path_names_the_limit() {
        let _ = Lanes::filled(0u8, 9);
    }
}
