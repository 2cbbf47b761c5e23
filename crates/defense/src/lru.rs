//! A fixed-capacity LRU cache.
//!
//! The serve-mode bound on provider-wide state: [`IpReputation`] keys
//! its per-IP activity by this cache so memory stays O(capacity) no
//! matter how many distinct addresses a login stream touches. The
//! implementation is the classic intrusive doubly-linked recency list
//! over a slot arena plus a `HashMap` index — `get`/insert/evict are
//! all O(1) (amortized), with no per-operation allocation once the
//! arena is full. The index hashes with a [`KeyedState`]: one folded
//! multiply per integer key, keyed per cache, because the keys (source
//! addresses) are attacker-chosen.
//!
//! [`IpReputation`]: crate::signals::IpReputation

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use mhw_types::keyed_hash::KeyedState;
use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Towards the most-recently-used end.
    prev: usize,
    /// Towards the least-recently-used end.
    next: usize,
}

/// A bounded map that evicts the least-recently-used entry on overflow.
///
/// Recency is updated by [`get_mut`](LruCache::get_mut) and
/// [`get_or_insert_with`](LruCache::get_or_insert_with);
/// [`peek`](LruCache::peek) reads without touching the recency order.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize, KeyedState>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot (NIL when empty).
    head: usize,
    /// Least recently used slot (NIL when empty).
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Copy, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), KeyedState::new()),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rough retained bytes: the live slots, their index entries (with
    /// control bytes) and `heap(v)` for each value's own allocations.
    /// Hash-table slack is not counted, which keeps the figure
    /// deterministic: the table's growth points depend on its random
    /// hash key.
    pub fn approx_bytes(&self, heap: impl Fn(&V) -> usize) -> usize {
        self.slots.len() * std::mem::size_of::<Slot<K, V>>()
            + self.map.len() * (std::mem::size_of::<(K, usize)>() + 1)
            + self.slots.iter().map(|s| heap(&s.value)).sum::<usize>()
    }

    /// Unlink slot `i` from the recency list.
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Link slot `i` in at the most-recently-used end.
    fn attach_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Mutable access, marking the entry most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.detach(i);
            self.attach_front(i);
        }
        Some(&mut self.slots[i].value)
    }

    /// Read-only access that does NOT touch the recency order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slots[i].value)
    }

    /// Drop every entry, keeping the configured capacity. The slot
    /// arena is released too (a wiped cache rebuilds it on demand) —
    /// this is the serve tier's `cache-wipe` fault, so it must model a
    /// genuinely cold cache, not a warm arena with empty entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Fetch `key` (touching it) or insert `default()`, evicting the
    /// least-recently-used entry if the cache is at capacity. Returns
    /// the entry's value.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if let Some(&i) = self.map.get(&key) {
            if self.head != i {
                self.detach(i);
                self.attach_front(i);
            }
            return &mut self.slots[i].value;
        }
        let i = if self.slots.len() < self.capacity {
            // Arena not yet full: allocate a fresh slot.
            self.slots.push(Slot { key, value: default(), prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Reuse the least-recently-used slot in place.
            let i = self.tail;
            self.detach(i);
            self.map.remove(&self.slots[i].key);
            self.slots[i].key = key;
            self.slots[i].value = default();
            i
        };
        self.map.insert(key, i);
        self.attach_front(i);
        &mut self.slots[i].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_reads_back() {
        let mut c: LruCache<u32, &str> = LruCache::new(4);
        *c.get_or_insert_with(1, || "a") = "a";
        c.get_or_insert_with(2, || "b");
        assert_eq!(c.peek(&1), Some(&"a"));
        assert_eq!(c.peek(&2), Some(&"b"));
        assert_eq!(c.peek(&3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 0..3 {
            c.get_or_insert_with(k, || k * 10);
        }
        // Touch 0 so 1 becomes the LRU entry.
        c.get_mut(&0);
        c.get_or_insert_with(3, || 30);
        assert_eq!(c.peek(&1), None, "untouched entry evicted");
        assert_eq!(c.peek(&0), Some(&0));
        assert_eq!(c.peek(&2), Some(&20));
        assert_eq!(c.peek(&3), Some(&30));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let mut c: LruCache<u64, u64> = LruCache::new(64);
        for k in 0..100_000u64 {
            *c.get_or_insert_with(k, || 0) = k;
        }
        assert_eq!(c.len(), 64);
        // The survivors are exactly the most recent 64 keys.
        for k in 100_000 - 64..100_000 {
            assert_eq!(c.peek(&k), Some(&k));
        }
        assert_eq!(c.peek(&0), None);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(2, || 2);
        c.peek(&1); // no touch: 1 is still the LRU entry
        c.get_or_insert_with(3, || 3);
        assert_eq!(c.peek(&1), None);
        assert_eq!(c.peek(&2), Some(&2));
    }

    #[test]
    fn reinserting_existing_key_touches_instead_of_growing() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(2, || 2);
        c.get_or_insert_with(1, || 99); // existing: value kept, touched
        assert_eq!(c.peek(&1), Some(&1));
        c.get_or_insert_with(3, || 3); // evicts 2, not 1
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&1), Some(&1));
    }

    #[test]
    fn single_slot_cache_works() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(2, || 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), None);
        assert_eq!(c.peek(&2), Some(&2));
    }
}
