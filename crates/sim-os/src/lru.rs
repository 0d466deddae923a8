//! A compact O(1) LRU map: a doubly-linked list over a `Vec` of slots
//! with a free list, indexed by a `HashMap`.
//!
//! Two caches share it. The simulator's page cache
//! (`LruMap<PageKey, ()>`) tracks which pages are resident so reads
//! can be classified as hits or misses and evicted dirty pages charged
//! as writebacks — page *contents* live in the inodes. Waldo's query
//! caches carry memoized traversal results as values.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU map holding at most `capacity` entries.
pub struct LruMap<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates a map holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is resident (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks `key` up, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Inserts or replaces `key` as the most recently used entry. If
    /// the map was full, the least recently used entry is evicted and
    /// returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let evicting = self.map.len() >= self.capacity;
        if evicting {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            self.map.remove(&self.nodes[victim].key);
            self.free.push(victim);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        // An eviction pushed its victim's slot last, so it is the slot
        // reused here.
        let (idx, evicted) = match self.free.pop() {
            Some(idx) => {
                let old = std::mem::replace(&mut self.nodes[idx], node);
                (idx, evicting.then_some((old.key, old.value)))
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1, None)
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key` if resident.
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        Some(std::mem::take(&mut self.nodes[idx].value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_recency_order() {
        let mut m: LruMap<u32, &str> = LruMap::new(2);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.get(&1), Some(&"a")); // 2 becomes LRU
        assert_eq!(m.insert(3, "c"), Some((2, "b")));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&3), Some(&"c"));
        assert!(m.contains(&1) && !m.contains(&2));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn replacing_a_key_promotes_it_and_evicts_nothing() {
        let mut m: LruMap<u32, u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.insert(1, 11), None); // 2 becomes LRU
        assert_eq!(m.insert(3, 30), Some((2, 20)));
        assert_eq!(m.get(&1), Some(&11));
    }

    #[test]
    fn remove_frees_a_slot_without_reporting_an_eviction() {
        let mut m: LruMap<u32, u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!(m.remove(&3), None);
        assert_eq!(m.insert(3, 30), None, "the freed slot is reused");
        assert_eq!(m.insert(4, 40), Some((2, 20)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.remove(&4), Some(40));
        assert!(m.is_empty());
    }

    #[test]
    fn reuses_slots() {
        let mut m: LruMap<u32, u32> = LruMap::new(2);
        for i in 0..100 {
            m.insert(i, i);
        }
        assert_eq!(m.len(), 2);
        // Internal node storage does not grow past the capacity.
        assert!(m.nodes.len() <= 2);
    }

    #[test]
    fn capacity_one_always_evicts_previous() {
        let mut m: LruMap<u32, ()> = LruMap::new(1);
        m.insert(1, ());
        assert_eq!(m.insert(2, ()), Some((1, ())));
        assert_eq!(m.insert(3, ()), Some((2, ())));
        assert_eq!(m.len(), 1);
    }
}
