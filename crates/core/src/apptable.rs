//! Arena storage for per-service hot state.
//!
//! The scheduler used to keep its [`AppRecord`]s in a `BTreeMap<AppId, _>`,
//! scattering the per-tick hot state (cooldown deadlines, blocked lists,
//! predictions) across heap-allocated tree nodes. [`AppTable`] keeps the
//! records in one contiguous slot arena with a free list, plus one id → slot
//! index that preserves the `BTreeMap`'s id-ordered iteration — which the
//! bandwidth repartitioner's float summation and the snapshot writer both
//! rely on for determinism. A lookup by id descends the index, O(log n); a
//! lookup by [`Slot`] is one bounds check and one id comparison. The tick
//! resolves a whole fleet's slots in one walk of the index
//! ([`AppTable::resolve_into`]) and reaches its records through them;
//! iteration walks a dense slab.
//!
//! [`AppRecord`]: crate::OsmlScheduler

use osml_platform::AppId;
use std::collections::BTreeMap;

/// Where a record sat in the arena when the handle was made. A hint, never
/// trusted: [`AppTable::at`] hands the record back only while the slot still
/// holds the id it is asked for, so a handle that outlives its record — the
/// slot freed, or reused by another service — reads as "no record".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(usize);

impl Slot {
    /// The handle of an id that has no record.
    pub(crate) const VACANT: Slot = Slot(usize::MAX);
}

/// A slot arena keyed by [`AppId`] with id-ordered iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct AppTable<T> {
    slots: Vec<Option<(AppId, T)>>,
    index: BTreeMap<AppId, usize>,
    free: Vec<usize>,
    /// Bumped whenever an id gains or loses its record: equal counts mean
    /// every handle resolved in between is still authoritative.
    membership_changes: u64,
    /// Test builds only: by-id descents of `index` so far (the reference
    /// suite's lookup budget).
    #[cfg(test)]
    descents: std::cell::Cell<u64>,
}

impl<T> AppTable<T> {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        AppTable {
            slots: Vec::new(),
            index: BTreeMap::new(),
            free: Vec::new(),
            membership_changes: 0,
            #[cfg(test)]
            descents: std::cell::Cell::new(0),
        }
    }

    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// How many times an id has gained or lost its record.
    pub(crate) fn membership_changes(&self) -> u64 {
        self.membership_changes
    }

    /// One descent of the index.
    fn lookup(&self, id: &AppId) -> Option<usize> {
        #[cfg(test)]
        self.descents.set(self.descents.get() + 1);
        self.index.get(id).copied()
    }

    /// Whether `id` has a record.
    pub(crate) fn contains_key(&self, id: &AppId) -> bool {
        self.lookup(id).is_some()
    }

    /// Borrow of `id`'s record.
    pub(crate) fn get(&self, id: &AppId) -> Option<&T> {
        self.at(self.slot_of(id), *id)
    }

    /// Mutable borrow of `id`'s record.
    pub(crate) fn get_mut(&mut self, id: &AppId) -> Option<&mut T> {
        self.at_mut(self.slot_of(id), *id)
    }

    /// The handle of `id`'s record ([`Slot::VACANT`] if it has none).
    pub(crate) fn slot_of(&self, id: &AppId) -> Slot {
        self.lookup(id).map_or(Slot::VACANT, Slot)
    }

    /// Borrow of the record `slot` was resolved to, if it is still `id`'s.
    pub(crate) fn at(&self, slot: Slot, id: AppId) -> Option<&T> {
        match self.slots.get(slot.0)? {
            Some((held, value)) if *held == id => Some(value),
            _ => None,
        }
    }

    /// Mutable borrow of the record `slot` was resolved to, if it is still
    /// `id`'s.
    pub(crate) fn at_mut(&mut self, slot: Slot, id: AppId) -> Option<&mut T> {
        match self.slots.get_mut(slot.0)? {
            Some((held, value)) if *held == id => Some(value),
            _ => None,
        }
    }

    /// Resolves every id of `ids` to its handle, in order, into `out`
    /// (cleared first). Ids that arrive ascending — what every substrate's
    /// `apps()` hands out — are matched against the index in one tandem
    /// walk, with no descent; an id smaller than one already seen is behind
    /// the walk and costs one lookup by id instead.
    pub(crate) fn resolve_into(&self, ids: &[AppId], out: &mut Vec<Slot>) {
        out.clear();
        let mut walk = self.index.iter().peekable();
        let mut reached: Option<AppId> = None;
        for &id in ids {
            if reached.is_some_and(|r| id < r) {
                out.push(self.slot_of(&id));
                continue;
            }
            reached = Some(id);
            while walk.next_if(|&(&key, _)| key < id).is_some() {}
            out.push(match walk.peek() {
                Some(&(&key, &slot)) if key == id => Slot(slot),
                _ => Slot::VACANT,
            });
        }
    }

    /// Inserts (or replaces) `id`'s record, returning the old one if any.
    pub(crate) fn insert(&mut self, id: AppId, value: T) -> Option<T> {
        if let Some(slot) = self.lookup(&id) {
            return self.slots[slot].replace((id, value)).map(|(_, old)| old);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some((id, value));
                s
            }
            None => {
                self.slots.push(Some((id, value)));
                self.slots.len() - 1
            }
        };
        self.index.insert(id, slot);
        self.membership_changes += 1;
        None
    }

    /// Removes `id`'s record, freeing its slot for reuse.
    pub(crate) fn remove(&mut self, id: &AppId) -> Option<T> {
        #[cfg(test)]
        self.descents.set(self.descents.get() + 1);
        let slot = self.index.remove(id)?;
        self.free.push(slot);
        self.membership_changes += 1;
        self.slots[slot].take().map(|(_, value)| value)
    }

    /// Iterates `(id, record)` in ascending id order — the order the
    /// `BTreeMap` this replaced iterated in, which float summations and
    /// snapshots depend on.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&AppId, &T)> {
        self.index.iter().map(|(id, &s)| {
            let (_, value) = self.slots[s].as_ref().expect("indexed slot is occupied");
            (id, value)
        })
    }

    /// Iterates records mutably in slot (arena) order. Only for uses where
    /// order is irrelevant: dropping every probe memo when the timer wheel
    /// is rebuilt.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten().map(|(_, value)| value)
    }

    /// Test builds only: by-id descents of the index so far.
    #[cfg(test)]
    pub(crate) fn descents(&self) -> u64 {
        self.descents.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t: AppTable<u32> = AppTable::new();
        assert_eq!(t.insert(AppId(3), 30), None);
        assert_eq!(t.insert(AppId(1), 10), None);
        assert_eq!(t.insert(AppId(3), 31), Some(30));
        assert_eq!(t.get(&AppId(3)), Some(&31));
        assert!(t.contains_key(&AppId(1)));
        assert_eq!(t.len(), 2);
        *t.get_mut(&AppId(1)).unwrap() += 1;
        assert_eq!(t.remove(&AppId(1)), Some(11));
        assert_eq!(t.remove(&AppId(1)), None);
        assert_eq!(t.len(), 1);
        // Two arrivals and one departure; the replacement and the miss are
        // not membership changes.
        assert_eq!(t.membership_changes(), 3);
    }

    #[test]
    fn iteration_is_id_ordered_and_slots_are_reused() {
        let mut t: AppTable<&str> = AppTable::new();
        t.insert(AppId(5), "e");
        t.insert(AppId(2), "b");
        t.insert(AppId(9), "i");
        t.remove(&AppId(2));
        // The freed slot is reused; order must still follow ids.
        t.insert(AppId(1), "a");
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 5, 9]);
        assert_eq!(t.slots.len(), 3, "arena must reuse freed slots");
        assert_eq!(t.values_mut().count(), 3);
    }

    #[test]
    fn a_handle_that_outlives_its_record_reads_as_no_record() {
        let mut t: AppTable<&str> = AppTable::new();
        t.insert(AppId(5), "e");
        t.insert(AppId(2), "b");
        let b = t.slot_of(&AppId(2));
        assert_eq!(t.at(b, AppId(2)), Some(&"b"));
        assert_eq!(t.at(b, AppId(5)), None, "a handle answers only for its own id");
        t.remove(&AppId(2));
        assert_eq!(t.at(b, AppId(2)), None, "freed");
        t.insert(AppId(7), "g");
        assert_eq!(t.slot_of(&AppId(7)), b, "the freed slot is reused");
        assert_eq!(t.at(b, AppId(2)), None, "reused: never the neighbour's record");
        assert_eq!(t.at_mut(b, AppId(2)), None);
        assert_eq!(t.at(b, AppId(7)), Some(&"g"));
        assert_eq!(t.at(Slot::VACANT, AppId(7)), None);
        assert_eq!(t.slot_of(&AppId(2)), Slot::VACANT);
    }

    #[test]
    fn resolve_walks_ascending_ids_and_looks_up_the_rest() {
        let mut t: AppTable<u64> = AppTable::new();
        for id in [4, 8, 15, 16, 23, 42] {
            t.insert(AppId(id), id * 10);
        }
        t.remove(&AppId(15));
        let by_id = |t: &AppTable<u64>, ids: &[u64]| -> Vec<Slot> {
            ids.iter().map(|&id| t.slot_of(&AppId(id))).collect()
        };
        let resolve = |t: &AppTable<u64>, ids: &[u64]| -> (Vec<Slot>, u64) {
            let ids: Vec<AppId> = ids.iter().map(|&id| AppId(id)).collect();
            let (mut out, before) = (vec![Slot::VACANT; 3], t.descents());
            t.resolve_into(&ids, &mut out);
            (out, t.descents() - before)
        };
        // Ascending (one id twice), with ids the table has never seen or no
        // longer holds before, between and after its keys: no descent at all.
        let ascending = [1, 4, 4, 8, 9, 15, 16, 42, 43, 99];
        let (slots, descents) = resolve(&t, &ascending);
        assert_eq!(slots, by_id(&t, &ascending));
        assert_eq!(descents, 0);
        // Out of order: one descent per id behind the walk.
        let shuffled = [8, 4, 23, 16, 15, 42, 1, 99];
        let (slots, descents) = resolve(&t, &shuffled);
        assert_eq!(slots, by_id(&t, &shuffled));
        assert_eq!(descents, 4, "4, 16, 15 and 1 are behind the walk");
        for (slot, id) in slots.iter().zip(shuffled) {
            assert_eq!(t.at(*slot, AppId(id)).copied(), t.get(&AppId(id)).copied());
        }
        assert_eq!(resolve(&t, &[]), (Vec::new(), 0));
    }
}
