//! A fixed-capacity vector stored inline: the short lists translation
//! builds per guest instruction (register mentions, addressing-mode
//! tags, rule slots, host operands) live in their owner instead of on
//! the heap.
//!
//! The tail of the backing array past the length is padding —
//! `T::default()`, or whatever a since-shortened list held — and is
//! never observable: every view, comparison, hash and `Debug` goes
//! through the live slice, so an `InlineVec` compares, orders, hashes
//! and prints exactly like the `Vec` holding the same elements.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Up to `N` elements of `T`, stored by value. `N` is at most 255.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: u8,
    items: [T; N],
}

/// An element that did not fit: the list already held its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError;

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    const FITS_LEN: () = assert!(N <= u8::MAX as usize, "the length is a u8");

    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        let () = Self::FITS_LEN;
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends `item`, or says that the list is full. For lists sized by
    /// input from outside the program.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] when `N` elements are already held.
    pub fn try_push(&mut self, item: T) -> Result<(), CapacityError> {
        let slot = self.items.get_mut(usize::from(self.len));
        *slot.ok_or(CapacityError)? = item;
        self.len += 1;
        Ok(())
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// When `N` elements are already held: the caller's capacity was
    /// meant to bound the list by construction.
    pub fn push(&mut self, item: T) {
        self.try_push(item)
            .unwrap_or_else(|_| panic!("an inline list of {N} is full"));
    }

    /// The list holding `items`, or `None` if there are more than `N`.
    #[must_use]
    pub fn from_slice(items: &[T]) -> Option<Self> {
        let mut out = Self::new();
        out.items.get_mut(..items.len())?.copy_from_slice(items);
        out.len = items.len() as u8;
        Some(out)
    }

    /// Shortens the list to `len` elements; a no-op when it is shorter.
    pub fn truncate(&mut self, len: usize) {
        if len < usize::from(self.len) {
            self.len = len as u8;
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialOrd, const N: usize> PartialOrd for InlineVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Ord, const N: usize> Ord for InlineVec<T, N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for InlineVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        **self == other[..]
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == other[..]
    }
}

/// Collects at most `N` elements.
///
/// # Panics
///
/// On the `N + 1`th element, as [`InlineVec::push`] does.
impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        iter.into_iter().for_each(|item| out.push(item));
        out
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(usize::from(self.len))
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    type Four = InlineVec<u8, 4>;

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn behaves_like_the_vec_of_its_elements() {
        let lists: [&[u8]; 6] = [&[], &[0], &[1], &[0, 0], &[1, 2, 3], &[1, 2, 3, 0]];
        for a in lists {
            let ia = Four::from_slice(a).unwrap();
            assert_eq!(&*ia, a);
            assert_eq!(ia, a.to_vec());
            assert_eq!(format!("{ia:?}"), format!("{a:?}"));
            assert_eq!(hash_of(&ia), hash_of(&a.to_vec()));
            assert_eq!(ia.into_iter().collect::<Vec<_>>(), a);
            for b in lists {
                let ib = Four::from_slice(b).unwrap();
                assert_eq!(ia == ib, a == b, "{a:?} == {b:?}");
                assert_eq!(ia.cmp(&ib), a.cmp(b), "{a:?} cmp {b:?}");
            }
        }
    }

    #[test]
    fn padding_is_never_observable() {
        // Shrinking leaves no trace of what was held.
        let mut v: Four = [9, 8, 7].into_iter().collect();
        v.truncate(1);
        v.truncate(3);
        assert_eq!(v, [9]);
        assert_eq!(hash_of(&v), hash_of(&vec![9u8]));
        assert_eq!(v, Four::from_slice(&[9]).unwrap());
    }

    #[test]
    fn capacity_is_an_error_or_a_panic_never_a_truncation() {
        let mut v = Four::new();
        for i in 0..4 {
            assert_eq!(v.try_push(i), Ok(()));
        }
        assert_eq!(v.try_push(4), Err(CapacityError));
        assert_eq!(v, [0, 1, 2, 3]);
        assert_eq!(Four::from_slice(&[0; 5]), None);
        assert!(std::panic::catch_unwind(|| (0..5).collect::<Four>()).is_err());
    }
}
