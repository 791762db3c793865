//! Dense, id-indexed arena maps — the hash-free entity tables behind
//! the audit indexes.
//!
//! The newtype ids ([`crate::ids`]) are small integers handed out in
//! sequence, so in every trace the simulator or a real platform
//! produces they are *dense*: worker 0, worker 1, …. A
//! `BTreeMap<WorkerId, _>` (or a hash map) pays a pointer chase or a
//! hash per probe for what is morally an array index. [`DenseIdMap`]
//! stores values in a `Vec` indexed directly by the raw id, turning the
//! per-event probes of the audit hot paths (the A1/A2 pair scans, the
//! live monitor's per-event folds) into one bounds check and a branch.
//!
//! Untrusted traces can legally carry *sparse* ids (a platform that
//! shards its id space, a tampered file). A plain `Vec` would let one
//! record with id `4_000_000_000` allocate gigabytes, so the arena
//! bounds its dense region: a key may only grow the `Vec` while the new
//! size stays within `16 × (occupied + 64)` slots; keys beyond that
//! land in a `BTreeMap` spill. Dense traces never touch the spill;
//! hostile ones degrade to tree probes instead of exhausting memory.
//!
//! Iteration is always in ascending id order (the dense region first,
//! then the spill, whose keys are invariantly larger), so encoders and
//! reports that used to iterate a `BTreeMap` stay byte-identical.
//!
//! ```
//! use faircrowd_model::arena::DenseIdMap;
//! use faircrowd_model::ids::WorkerId;
//!
//! let mut earnings: DenseIdMap<WorkerId, i64> = DenseIdMap::new();
//! earnings.insert(WorkerId::new(3), 250);
//! *earnings.entry(WorkerId::new(3)) += 50;
//! assert_eq!(earnings.get(WorkerId::new(3)), Some(&300));
//! assert_eq!(earnings.get(WorkerId::new(7)), None);
//! ```
//!
//! [`IdSet`] is the same idea for sets: one bit per raw id in `u64`
//! words under the same growth rule, outliers in a `BTreeSet` spill. It
//! holds the Axiom 1–2 access sets (a worker's visible tasks, a task's
//! audience), so replaying a `TaskVisible` event sets two bits instead
//! of inserting into two trees.
//!
//! ```
//! use faircrowd_model::arena::IdSet;
//! use faircrowd_model::ids::TaskId;
//!
//! let mut seen: IdSet<TaskId> = IdSet::new();
//! assert!(seen.insert(TaskId::new(9)));
//! assert!(!seen.insert(TaskId::new(9)), "already a member");
//! seen.insert(TaskId::new(2));
//! assert_eq!(seen.iter().collect::<Vec<_>>(), [TaskId::new(2), TaskId::new(9)]);
//! assert!(seen.contains(TaskId::new(2)) && !seen.contains(TaskId::new(3)));
//! ```

use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::marker::PhantomData;

use crate::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};

/// A key type backed by a raw `u32` — every newtype id in
/// [`crate::ids`] qualifies. The two conversions must be inverses.
pub trait ArenaKey: Copy + Ord + std::fmt::Debug {
    /// The raw integer behind the id.
    fn raw_index(self) -> u32;
    /// Rebuild the id from its raw integer.
    fn from_raw_index(raw: u32) -> Self;
}

macro_rules! arena_key {
    ($($id:ty),* $(,)?) => {$(
        impl ArenaKey for $id {
            fn raw_index(self) -> u32 {
                self.raw()
            }
            fn from_raw_index(raw: u32) -> Self {
                <$id>::new(raw)
            }
        }
    )*};
}

arena_key!(
    WorkerId,
    TaskId,
    RequesterId,
    SkillId,
    CampaignId,
    SubmissionId
);

/// How far the dense region may grow relative to its occupancy: a new
/// key may extend the `Vec` while `key < 16 × (len + 64)`. Dense id
/// spaces (the only ones honest traces produce) always pass; a hostile
/// outlier id goes to the spill instead of allocating the gap.
fn dense_bound(occupied: usize) -> usize {
    16 * (occupied + 64)
}

/// A map from a dense integer id to `V`: `Vec`-backed for the dense id
/// region, with a `BTreeMap` spill for outlier keys. See the module
/// docs for the growth rule and the ordering guarantee.
#[derive(Clone)]
pub struct DenseIdMap<K, V> {
    slots: Vec<Option<V>>,
    /// Invariant: every spill key is `>= slots.len()`, so chaining the
    /// dense region and the spill iterates in ascending key order.
    spill: BTreeMap<u32, V>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: ArenaKey, V> DenseIdMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        DenseIdMap {
            slots: Vec::new(),
            spill: BTreeMap::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, if present — one bounds check and a branch
    /// for dense keys.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        let raw = key.raw_index() as usize;
        match self.slots.get(raw) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(&key.raw_index()),
        }
    }

    /// Insert `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let raw = key.raw_index() as usize;
        if raw < self.slots.len() {
            let old = self.slots[raw].replace(value);
            if old.is_none() {
                self.len += 1;
            }
            return old;
        }
        if raw < dense_bound(self.len) {
            self.grow_to(raw + 1);
            debug_assert!(self.slots[raw].is_none());
            self.slots[raw] = Some(value);
            self.len += 1;
            return None;
        }
        let old = self.spill.insert(key.raw_index(), value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `key`, inserting `f()` first when absent — the
    /// arena's `entry(...).or_insert_with(...)`.
    pub(crate) fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &mut V {
        let raw = key.raw_index() as usize;
        if raw >= self.slots.len() {
            if raw < dense_bound(self.len) {
                self.grow_to(raw + 1);
            } else {
                let len = &mut self.len;
                return self.spill.entry(key.raw_index()).or_insert_with(|| {
                    *len += 1;
                    f()
                });
            }
        }
        let slot = &mut self.slots[raw];
        if slot.is_none() {
            *slot = Some(f());
            self.len += 1;
        }
        slot.as_mut().expect("slot was just filled")
    }

    /// The value at `key`, defaulting it in first when absent.
    pub fn entry(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.get_or_insert_with(key, V::default)
    }

    /// Grow the dense region to `new_len` slots, absorbing any spill
    /// keys the region now covers (restores the ordering invariant).
    fn grow_to(&mut self, new_len: usize) {
        if new_len <= self.slots.len() {
            return;
        }
        self.slots.resize_with(new_len, || None);
        // `BTreeMap` has no drain-range; split at the boundary and put
        // the still-spilled tail back.
        let still_spilled = self.spill.split_off(&(new_len as u32));
        for (raw, value) in std::mem::replace(&mut self.spill, still_spilled) {
            self.slots[raw as usize] = Some(value);
        }
    }

    /// Iterate `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(raw, slot)| Some((K::from_raw_index(raw as u32), slot.as_ref()?)))
            .chain(
                self.spill
                    .iter()
                    .map(|(&raw, v)| (K::from_raw_index(raw), v)),
            )
    }

    /// Iterate the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The whole map as an owned `BTreeMap` (for callers that promise a
    /// tree-map view, e.g. [`crate::trace::Trace::payment_by_submission`]).
    pub(crate) fn to_btree_map(&self) -> BTreeMap<K, V>
    where
        V: Clone,
    {
        self.iter().map(|(k, v)| (k, v.clone())).collect()
    }
}

impl<K: ArenaKey, V> Default for DenseIdMap<K, V> {
    fn default() -> Self {
        DenseIdMap::new()
    }
}

impl<K: ArenaKey, V: PartialEq> PartialEq for DenseIdMap<K, V> {
    /// Content equality: same keys, same values — how the backing is
    /// split between dense region and spill is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: ArenaKey, V: std::fmt::Debug> std::fmt::Debug for DenseIdMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: ArenaKey, V> FromIterator<(K, V)> for DenseIdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DenseIdMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A set of dense integer ids: one bit per raw id in `u64` words for
/// the dense region, with a `BTreeSet` spill for outlier ids. The bit
/// region grows under the same occupancy bound as [`DenseIdMap`], the
/// member count is a field, iteration is ascending, and equality is by
/// content. See the module docs.
#[derive(Clone)]
pub struct IdSet<T> {
    words: Vec<u64>,
    /// Invariant: every spilled id is `>= 64 × words.len()`, so the bit
    /// region followed by the spill iterates in ascending order.
    spill: BTreeSet<u32>,
    len: usize,
    _id: PhantomData<T>,
}

impl<T: ArenaKey> IdSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        IdSet {
            words: Vec::new(),
            spill: BTreeSet::new(),
            len: 0,
            _id: PhantomData,
        }
    }

    /// An empty set whose bit region already covers every raw id up to
    /// `largest`, so filling it from a universe whose largest id that is
    /// never grows or spills it. Use it for sets drawn from a small
    /// window of a large id space (the open tasks of a late round): the
    /// growth rule alone would spill their ids while the set is small.
    /// The region is granted only while it stays within `16 × (members
    /// + 64)` words — one word per id the growth rule would allow — so a
    /// hostile `largest` gets a plain empty set, not a huge allocation.
    pub fn with_region(largest: T, members: usize) -> Self {
        let mut set = IdSet::new();
        set.reset_region(largest, members);
        set
    }

    /// Empty the set and give it [`IdSet::with_region`]'s region for
    /// `largest` and `members`, keeping its allocation: the set equals
    /// a fresh `with_region(largest, members)`, bit region included.
    pub fn reset_region(&mut self, largest: T, members: usize) {
        let words = largest.raw_index() as usize / 64 + 1;
        self.words.clear();
        if words <= dense_bound(members) {
            self.words.resize(words, 0);
        }
        self.spill.clear();
        self.len = 0;
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add every member of `other`, calling `fresh` with each id that
    /// was not a member yet, in ascending order: a word-wise OR over the
    /// bit regions (growing `self`'s to cover `other`'s), then inserts
    /// for `other`'s spilled ids.
    pub fn union_with(&mut self, other: &IdSet<T>, mut fresh: impl FnMut(T)) {
        if other.words.len() > self.words.len() {
            self.grow_to(other.words.len());
        }
        for (at, (mine, &theirs)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let mut new = theirs & !*mine;
            *mine |= theirs;
            self.len += new.count_ones() as usize;
            while new != 0 {
                fresh(T::from_raw_index((at * 64) as u32 + new.trailing_zeros()));
                new &= new - 1;
            }
        }
        // Every spilled id of `other` is above its whole bit region, so
        // the ascending order holds across the two passes.
        for &raw in &other.spill {
            if self.insert(T::from_raw_index(raw)) {
                fresh(T::from_raw_index(raw));
            }
        }
    }

    /// Keep only the members `other` also has: a word-wise AND over the
    /// shared bit region, probes of `other` for the rest.
    pub fn intersect_with(&mut self, other: &IdSet<T>) {
        let shared = self.words.len().min(other.words.len());
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine &= theirs;
        }
        // Past `other`'s bit region a member survives only if `other`
        // spilled it.
        for (at, word) in self.words.iter_mut().enumerate().skip(shared) {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                if !other.spill.contains(&((at * 64) as u32 + bit)) {
                    *word &= !(1u64 << bit);
                }
                bits &= bits - 1;
            }
        }
        self.spill
            .retain(|&raw| other.contains(T::from_raw_index(raw)));
        self.len = self
            .words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.spill.len();
    }

    /// Is `id` a member? A shift and a mask for ids in the bit region.
    #[inline]
    pub fn contains(&self, id: T) -> bool {
        let raw = id.raw_index() as usize;
        match self.words.get(raw / 64) {
            Some(word) => word >> (raw % 64) & 1 != 0,
            None => self.spill.contains(&id.raw_index()),
        }
    }

    /// Add `id`; `true` when it was not a member yet (as
    /// `BTreeSet::insert`).
    #[inline]
    pub fn insert(&mut self, id: T) -> bool {
        let raw = id.raw_index() as usize;
        let at = raw / 64;
        if at >= self.words.len() {
            if raw >= dense_bound(self.len) {
                let fresh = self.spill.insert(id.raw_index());
                self.len += usize::from(fresh);
                return fresh;
            }
            self.grow_to(at + 1);
        }
        let word = &mut self.words[at];
        let bit = 1u64 << (raw % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Grow the bit region to `words` words, moving every spilled id it
    /// now covers into it (restores the ordering invariant).
    fn grow_to(&mut self, words: usize) {
        self.words.resize(words, 0);
        if self.spill.is_empty() {
            return;
        }
        let still_spilled = match u32::try_from(words * 64) {
            Ok(covered) => self.spill.split_off(&covered),
            Err(_) => BTreeSet::new(),
        };
        for raw in std::mem::replace(&mut self.spill, still_spilled) {
            self.words[raw as usize / 64] |= 1u64 << (raw % 64);
        }
    }

    /// `|self ∩ other|`, without materialising the intersection: a
    /// popcount over the shared bit region plus probes for spilled ids.
    pub fn intersection_len(&self, other: &IdSet<T>) -> usize {
        let shared: usize = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum();
        // A common member outside the shared region is spilled on at
        // least one side: count it from `self`'s spill, or from
        // `other`'s when it sits in `self`'s bit region.
        let self_region = self.words.len() * 64;
        let mine = self
            .spill
            .iter()
            .filter(|&&raw| other.contains(T::from_raw_index(raw)));
        let theirs = other
            .spill
            .iter()
            .filter(|&&raw| (raw as usize) < self_region && self.contains(T::from_raw_index(raw)));
        shared + mine.count() + theirs.count()
    }

    /// Iterate the members in ascending order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            words: &self.words,
            next_word: 0,
            bits: 0,
            base: 0,
            spill: self.spill.iter(),
            remaining: self.len,
            _id: PhantomData,
        }
    }
}

/// Ascending iterator over an [`IdSet`]: set bits word by word, then
/// the spill.
pub struct Iter<'a, T> {
    words: &'a [u64],
    next_word: usize,
    /// The current word with the bits already yielded cleared.
    bits: u64,
    /// Raw id of the current word's bit 0.
    base: usize,
    spill: btree_set::Iter<'a, u32>,
    remaining: usize,
    _id: PhantomData<T>,
}

impl<T: ArenaKey> Iterator for Iter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        while self.bits == 0 {
            let Some(&word) = self.words.get(self.next_word) else {
                let raw = *self.spill.next()?;
                self.remaining -= 1;
                return Some(T::from_raw_index(raw));
            };
            self.bits = word;
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
        let raw = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        self.remaining -= 1;
        Some(T::from_raw_index(raw as u32))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: ArenaKey> ExactSizeIterator for Iter<'_, T> {}

impl<T: ArenaKey> Default for IdSet<T> {
    fn default() -> Self {
        IdSet::new()
    }
}

impl<T: ArenaKey> PartialEq for IdSet<T> {
    /// Content equality: the same members, however they are split
    /// between the bit region and the spill.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: ArenaKey> std::fmt::Debug for IdSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: ArenaKey> FromIterator<T> for IdSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = IdSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(raw: u32) -> WorkerId {
        WorkerId::new(raw)
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m: DenseIdMap<WorkerId, &str> = DenseIdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(w(2), "a"), None);
        assert_eq!(m.insert(w(0), "b"), None);
        assert_eq!(m.insert(w(2), "c"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(w(2)), Some(&"c"));
        assert_eq!(m.get(w(1)), None);
        assert_eq!(m.get(w(0)), Some(&"b"));
    }

    #[test]
    fn entry_defaults_like_a_map_entry() {
        let mut m: DenseIdMap<TaskId, Vec<u32>> = DenseIdMap::new();
        m.entry(TaskId::new(5)).push(1);
        m.entry(TaskId::new(5)).push(2);
        assert_eq!(m.get(TaskId::new(5)), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_and_merges_the_spill() {
        let mut m: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        // An outlier far past the growth bound spills…
        let outlier = u32::MAX - 1;
        m.insert(w(outlier), 99);
        m.insert(w(3), 3);
        m.insert(w(0), 0);
        let keys: Vec<u32> = m.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, vec![0, 3, outlier]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![0, 3, 99]);
        assert_eq!(m.get(w(outlier)), Some(&99));
    }

    #[test]
    fn hostile_outlier_does_not_allocate_the_gap() {
        let mut m: DenseIdMap<SubmissionId, u8> = DenseIdMap::new();
        m.insert(SubmissionId::new(4_000_000_000), 1);
        m.insert(SubmissionId::new(0), 2);
        // The dense region never grew to cover the outlier.
        assert!(m.slots.len() < 1024, "slots = {}", m.slots.len());
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(SubmissionId::new(4_000_000_000)), Some(&1));
    }

    #[test]
    fn growth_absorbs_spilled_keys_and_keeps_order() {
        let mut m: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        // 3000 is past the empty map's bound (16 × 64 = 1024) → spill.
        m.insert(w(3000), 1);
        assert_eq!(m.spill.len(), 1);
        // 300 occupied keys raise the bound past 3000; the next growth
        // must absorb the spilled key into the dense region.
        for i in 0..300 {
            m.insert(w(i), 0);
        }
        m.insert(w(3100), 2);
        assert!(m.spill.is_empty() || m.spill.keys().all(|&k| k as usize >= m.slots.len()));
        let keys: Vec<u32> = m.iter().map(|(k, _)| k.raw()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "iteration stays ascending");
        assert_eq!(m.get(w(3000)), Some(&1));
        assert_eq!(m.get(w(3100)), Some(&2));
        assert_eq!(m.len(), 302);
    }

    #[test]
    fn equality_is_by_content_not_backing() {
        // Same content reached via different histories (one spilled,
        // one dense from the start) compares equal.
        let mut a: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        a.insert(w(2000), 7);
        for i in 0..200 {
            a.insert(w(i), i);
        }
        let mut b: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        for i in 0..200 {
            b.insert(w(i), i);
        }
        b.insert(w(2000), 7);
        assert_eq!(a, b);
        b.insert(w(2000), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn btree_view_matches_iteration() {
        let m: DenseIdMap<WorkerId, u32> = [(w(4), 4), (w(1), 1)].into_iter().collect();
        let tree = m.to_btree_map();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[&w(1)], 1);
        assert_eq!(tree[&w(4)], 4);
    }

    fn t(raw: u32) -> TaskId {
        TaskId::new(raw)
    }

    #[test]
    fn id_set_insert_reports_freshness_like_a_btree_set() {
        let mut set: IdSet<TaskId> = IdSet::new();
        let mut model = BTreeSet::new();
        for raw in [5, 0, 5, 63, 64, 5_000, 0, 5_000, u32::MAX] {
            assert_eq!(set.insert(t(raw)), model.insert(raw), "insert {raw}");
            assert_eq!(set.len(), model.len());
        }
        for raw in [0, 1, 5, 63, 64, 65, 4_999, 5_000, u32::MAX - 1, u32::MAX] {
            assert_eq!(set.contains(t(raw)), model.contains(&raw), "contains {raw}");
        }
        assert!(!set.is_empty());
        assert!(IdSet::<TaskId>::new().is_empty());
    }

    #[test]
    fn id_set_iterates_ascending_across_bits_and_spill() {
        // 3000 is past the empty set's bound (16 × 64 = 1024) and
        // spills; the dense ids land in the bit region.
        let set: IdSet<TaskId> = [3000, 7, 1023, 0, 64, 2_000_000]
            .map(t)
            .into_iter()
            .collect();
        assert!(
            !set.spill.is_empty(),
            "the fixture must straddle the boundary"
        );
        let members: Vec<u32> = set.iter().map(|id| id.raw()).collect();
        assert_eq!(members, [0, 7, 64, 1023, 3000, 2_000_000]);
        assert_eq!(set.iter().len(), 6);
        let mut it = set.iter();
        it.next();
        assert_eq!(it.len(), 5, "the iterator counts down exactly");
    }

    #[test]
    fn id_set_equality_ignores_the_bits_spill_split() {
        // `a` sees the outlier first, so it spills and is migrated into
        // the bit region once 300 members raise the bound past it; `b`
        // sees it last, when it lands in the bit region directly.
        let mut a: IdSet<WorkerId> = IdSet::new();
        a.insert(w(3000));
        assert_eq!(a.spill.len(), 1);
        for i in 0..300 {
            a.insert(w(i));
        }
        a.insert(w(3100));
        assert!(a
            .spill
            .iter()
            .all(|&raw| raw as usize >= 64 * a.words.len()));
        let mut b: IdSet<WorkerId> = (0..300).map(w).collect();
        b.insert(w(3100));
        b.insert(w(3000));
        assert_eq!(a, b);
        assert!(a.contains(w(3000)) && b.contains(w(3000)));
        b.insert(w(3001));
        assert_ne!(a, b);
        // Backfilling dense ids raises the bound but not the region, so
        // an outlier inserted first can stay spilled while the same id
        // inserted last is a bit: still equal.
        let mut spilled: IdSet<WorkerId> = IdSet::new();
        spilled.insert(w(5000));
        for i in 0..400 {
            spilled.insert(w(i));
        }
        let mut dense: IdSet<WorkerId> = (0..400).map(w).collect();
        dense.insert(w(5000));
        assert_eq!(spilled.spill.len(), 1);
        assert!(dense.spill.is_empty());
        assert_eq!(spilled, dense);
    }

    #[test]
    fn id_set_ids_near_u32_max_stay_bounded() {
        let mut set: IdSet<SubmissionId> = IdSet::new();
        for raw in (u32::MAX - 9..=u32::MAX).chain(0..10) {
            set.insert(SubmissionId::new(raw));
        }
        assert!(set.words.len() <= 16, "words = {}", set.words.len());
        assert_eq!(set.spill.len(), 10);
        assert_eq!(set.len(), 20);
        assert_eq!(set.iter().last(), Some(SubmissionId::new(u32::MAX)));
    }

    #[test]
    fn id_set_with_region_fills_a_late_window_without_spilling() {
        // Ten members in a window far above the empty set's bound.
        let mut set: IdSet<TaskId> = IdSet::with_region(t(5_009), 10);
        for raw in 5_000..5_010 {
            set.insert(t(raw));
        }
        assert!(set.spill.is_empty(), "the window lands in the bit region");
        assert_eq!(
            set.iter().map(|x| x.raw()).collect::<Vec<_>>(),
            (5_000..5_010).collect::<Vec<_>>()
        );
        // A hostile `largest` is refused a region: no allocation.
        let hostile: IdSet<TaskId> = IdSet::with_region(t(u32::MAX), 10);
        assert!(hostile.words.is_empty() && hostile.is_empty());
        assert_eq!(hostile, IdSet::new());
    }

    #[test]
    fn id_set_reset_region_is_a_fresh_with_region_in_the_old_allocation() {
        // A set with bits and spilled ids, reset to a smaller, a larger
        // and a refused region.
        let mut set: IdSet<TaskId> = [1, 700, 2_000_000].map(t).into_iter().collect();
        assert!(!set.spill.is_empty());
        for (largest, members) in [(t(90), 3), (t(5_009), 10), (t(u32::MAX), 10), (t(0), 1)] {
            let capacity = set.words.capacity();
            set.reset_region(largest, members);
            let fresh = IdSet::with_region(largest, members);
            assert_eq!(set.words, fresh.words, "{largest:?}: the same region");
            assert!(set.spill.is_empty() && set.is_empty());
            assert!(set.words.capacity() >= capacity, "the allocation is kept");
            set.insert(largest);
            assert_eq!(set.iter().collect::<Vec<_>>(), vec![largest]);
        }
    }

    /// Model-check `union_with` and `intersect_with` against `BTreeSet`
    /// over operands that straddle the bits/spill split on both sides.
    #[test]
    fn id_set_union_and_intersection_match_btree_sets() {
        let operands: [IdSet<TaskId>; 4] = [
            [1, 2, 3000, 70, 2_000_000].map(t).into_iter().collect(),
            (0..300)
                .map(t)
                .chain([3000, 2_000_000, 7_000].map(t))
                .collect(),
            IdSet::new(),
            {
                let mut late = IdSet::with_region(t(4_100), 4);
                for raw in [4_000, 4_050, 4_100, 9_999_999] {
                    late.insert(t(raw));
                }
                late
            },
        ];
        for a in &operands {
            for b in &operands {
                let model_a: BTreeSet<u32> = a.iter().map(|x| x.raw()).collect();
                let model_b: BTreeSet<u32> = b.iter().map(|x| x.raw()).collect();

                let mut union = a.clone();
                let mut fresh = Vec::new();
                union.union_with(b, |id| fresh.push(id.raw()));
                let expected: Vec<u32> = model_a.union(&model_b).copied().collect();
                assert_eq!(union.iter().map(|x| x.raw()).collect::<Vec<_>>(), expected);
                assert_eq!(union.len(), expected.len());
                let new: Vec<u32> = model_b.difference(&model_a).copied().collect();
                assert_eq!(fresh, new, "fresh ids, ascending");

                let mut meet = a.clone();
                meet.intersect_with(b);
                let expected: Vec<u32> = model_a.intersection(&model_b).copied().collect();
                assert_eq!(meet.iter().map(|x| x.raw()).collect::<Vec<_>>(), expected);
                assert_eq!(meet.len(), expected.len());
                assert_eq!(a.intersection_len(b), expected.len());
            }
        }
    }

    #[test]
    fn id_set_intersection_len_counts_across_the_split() {
        let a: IdSet<TaskId> = [1, 2, 3000, 70, 2_000_000].map(t).into_iter().collect();
        let mut b: IdSet<TaskId> = (0..300).map(t).collect();
        b.insert(t(3000));
        b.insert(t(2_000_000));
        let model: BTreeSet<u32> = a.iter().map(|x| x.raw()).collect();
        let other: BTreeSet<u32> = b.iter().map(|x| x.raw()).collect();
        let expected = model.intersection(&other).count();
        assert_eq!(expected, 5);
        assert_eq!(a.intersection_len(&b), expected);
        assert_eq!(b.intersection_len(&a), expected);
    }
}
