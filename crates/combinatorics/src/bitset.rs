//! A compact growable bitset over `usize` indices.
//!
//! [`BitSet`] backs every node-set representation in the DAG model: the
//! predecessor/successor transitive closures, the sibling sets and the
//! `Par(v)` parallel sets of the paper's Algorithm 1 are all `BitSet`s, which
//! makes the set algebra in that algorithm (unions, differences) word-wide
//! rather than element-wide.
//!
//! The first 64 elements live in a word inside the set and only larger ones
//! in a heap vector, so a set whose elements are all below 64 (a node set of
//! a DAG of at most 64 nodes) never allocates: not when it is built, cloned
//! or combined with another set.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A growable set of small unsigned integers, stored one bit per element.
///
/// Elements below 64 are kept inline; larger ones in a heap vector that
/// grows as they arrive. Operations that combine two sets
/// ([`union_with`](BitSet::union_with),
/// [`difference_with`](BitSet::difference_with), …) grow the receiver as
/// needed, so sets of different capacities compose freely.
///
/// Equality compares the stored words: two sets with the same elements
/// compare equal when they store the same number of words past the inline
/// one, as sets built with the same capacity do. Sets built with a
/// capacity of at most 64 that never held an element past 63 therefore
/// compare by their elements alone.
///
/// # Example
///
/// ```
/// use rta_combinatorics::BitSet;
///
/// let mut parallel = BitSet::new();
/// parallel.insert(2);
/// parallel.insert(5);
/// assert!(parallel.contains(2));
/// assert_eq!(parallel.len(), 2);
/// assert_eq!(parallel.iter().collect::<Vec<_>>(), vec![2, 5]);
/// ```
#[derive(Clone, Default, Eq)]
pub struct BitSet {
    /// Elements `0..64`.
    first: u64,
    /// Elements from 64 on: word `i` holds `64 * (i + 1)..64 * (i + 2)`.
    rest: Vec<u64>,
}

/// The bit of `index` within its word.
#[inline]
fn mask(index: usize) -> u64 {
    1u64 << (index % WORD_BITS)
}

/// A word whose lowest `count` bits are set (all of them from 64 on).
fn low_bits(count: usize) -> u64 {
    if count >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            first: 0,
            rest: Vec::new(),
        }
    }

    /// Creates an empty set with capacity for elements `0..n` without
    /// reallocation (no allocation at all for `n ≤ 64`).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            first: 0,
            rest: vec![0; n.div_ceil(WORD_BITS).saturating_sub(1)],
        }
    }

    /// Creates a set containing every element of `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::with_capacity(n);
        s.first = low_bits(n);
        for (i, word) in s.rest.iter_mut().enumerate() {
            *word = low_bits(n - WORD_BITS * (i + 1));
        }
        s
    }

    /// The word holding `index`, if the set stores it.
    #[inline]
    fn word(&self, index: usize) -> Option<&u64> {
        match index / WORD_BITS {
            0 => Some(&self.first),
            w => self.rest.get(w - 1),
        }
    }

    /// The word holding `index`, if the set stores it, for writing.
    #[inline]
    fn word_mut(&mut self, index: usize) -> Option<&mut u64> {
        match index / WORD_BITS {
            0 => Some(&mut self.first),
            w => self.rest.get_mut(w - 1),
        }
    }

    /// Inserts `index`, returning `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let word = match index / WORD_BITS {
            0 => &mut self.first,
            w => self.heap_word(w),
        };
        let had = *word & mask(index) != 0;
        *word |= mask(index);
        !had
    }

    /// Heap word `w` (at least 1), growing the heap vector to hold it.
    /// Kept out of [`insert`](Self::insert), so the inline word's path
    /// stays small enough to inline.
    fn heap_word(&mut self, w: usize) -> &mut u64 {
        if w > self.rest.len() {
            self.rest.resize(w, 0);
        }
        &mut self.rest[w - 1]
    }

    /// Removes `index`, returning `true` if it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let Some(word) = self.word_mut(index) else {
            return false;
        };
        let had = *word & mask(index) != 0;
        *word &= !mask(index);
        had
    }

    /// Returns `true` if `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.word(index).is_some_and(|word| word & mask(index) != 0)
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.first.count_ones() as usize
            + self
                .rest
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.first == 0 && self.rest.iter().all(|&w| w == 0)
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.first = 0;
        // Not `fill`: see the note on `PartialEq`.
        self.rest.iter_mut().for_each(|w| *w = 0);
    }

    /// Adds every element of `other` to `self` (`self ∪= other`).
    pub fn union_with(&mut self, other: &BitSet) {
        self.first |= other.first;
        if other.rest.len() > self.rest.len() {
            self.rest.resize(other.rest.len(), 0);
        }
        for (dst, src) in self.rest.iter_mut().zip(&other.rest) {
            *dst |= src;
        }
    }

    /// Removes every element of `other` from `self` (`self \= other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        self.first &= !other.first;
        for (dst, src) in self.rest.iter_mut().zip(&other.rest) {
            *dst &= !src;
        }
    }

    /// Keeps only elements also in `other` (`self ∩= other`).
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.first &= other.first;
        for (i, dst) in self.rest.iter_mut().enumerate() {
            *dst &= other.rest.get(i).copied().unwrap_or(0);
        }
    }

    /// Returns `self ∪ other` as a new set.
    #[must_use]
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `self \ other` as a new set.
    #[must_use]
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Returns `self ∩ other` as a new set.
    #[must_use]
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.first & !other.first == 0
            && self
                .rest
                .iter()
                .enumerate()
                .all(|(i, &w)| w & !other.rest.get(i).copied().unwrap_or(0) == 0)
    }

    /// Returns `true` if the two sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.first & other.first == 0
            && self.rest.iter().zip(&other.rest).all(|(&a, &b)| a & b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rest: self.rest.iter(),
            base: 0,
            bits: self.first,
        }
    }

    /// Smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

// Equality means what deriving it would: the inline word and the heap
// words, element for element. It is written out because the derived
// equality compares the heap words with `memcmp`, and on an empty vector
// that call passes its dangling pointer; on an AVX-512 Xeon with glibc
// 2.36 such a zero-length `memcmp` (or `memset`) took about 180 ns against
// 3 ns for a one-word one, which made comparing two small sets 20 times
// slower. The element loop below makes no such call. `Hash` is the derived
// one, written out only because a derived `Hash` beside a manual
// `PartialEq` is refused by clippy (`derived_hash_with_manual_eq`).
impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.first == other.first && self.rest.iter().eq(&other.rest)
    }
}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.first.hash(state);
        self.rest.hash(state);
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    /// The heap words not yet reached.
    rest: std::slice::Iter<'a, u64>,
    /// The first element `bits` stands for.
    base: usize,
    /// The elements of the current word not yet returned.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.rest.next()?;
            self.base += WORD_BITS;
        }
        let tz = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_word_boundaries() {
        let mut s = BitSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1, 2, 3, 70].into_iter().collect();
        let b: BitSet = [2, 3, 4].into_iter().collect();
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 70]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 70]);
        assert_eq!(b.difference(&a).iter().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [1, 2, 3].into_iter().collect();
        let c: BitSet = [65].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        // Differently sized backing storage must still compare correctly.
        assert!(c.is_subset(&c.clone()));
        assert!(!c.is_subset(&a));
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(10);
        assert_eq!(s.len(), 10);
        assert!(s.contains(9));
        assert!(!s.contains(10));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn first_element() {
        let s: BitSet = [64, 5].into_iter().collect();
        assert_eq!(s.first(), Some(5));
        assert_eq!(BitSet::new().first(), None);
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", BitSet::new()), "{}");
        let s: BitSet = [1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
    }

    #[test]
    fn sets_within_the_inline_word_compare_by_their_elements() {
        assert_eq!(BitSet::new(), BitSet::with_capacity(64));
        assert_eq!(BitSet::full(0), BitSet::with_capacity(0));
        let mut small = BitSet::with_capacity(10);
        small.insert(3);
        assert_eq!(small, [3].into_iter().collect());
        // A word past the inline one is part of the stored form.
        assert_ne!(BitSet::new(), BitSet::with_capacity(65));
        let full = BitSet::full(130);
        assert_eq!(full.len(), 130);
        assert_eq!(full.iter().last(), Some(129));
        assert_eq!(full, (0..130).collect());
    }

    #[test]
    fn extend_and_from_iter_agree() {
        let mut a = BitSet::new();
        a.extend([9, 1, 9, 3]);
        let b: BitSet = [1, 3, 9].into_iter().collect();
        assert_eq!(a, b);
    }
}
