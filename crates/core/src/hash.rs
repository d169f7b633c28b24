//! The linear-probing hash table of Algorithm 5, executed functionally.
//!
//! Column indices are keys; `hash = (key * HASH_SCAL) & (t_size - 1)`
//! (the paper keeps `t_size` a power of two so the modulo is a mask);
//! collisions linear-probe to the next slot; on the device the claim of
//! an empty slot is an `atomicCAS`, and the numeric phase accumulates
//! values with an atomic add.
//!
//! The table *observes* its own cost: every probe step is counted, so
//! the kernels charge the virtual GPU for the collision chains that
//! actually happened rather than an estimate. The table is reused across
//! rows via a stamp (no O(t_size) clearing per row — matching the device
//! code, where each block re-initializes only its own shared array; the
//! initialization cost is charged separately by the kernels).

use sparse::Scalar;

/// The multiplicative scrambling constant of Algorithm 5. The published
/// nsparse implementation uses 107.
pub const HASH_SCAL: u32 = 107;

/// Outcome of a symbolic insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// Key was not present: a slot was claimed.
    New,
    /// Key already present.
    Duplicate,
    /// Table is full and the key is not in it — the row overflows this
    /// group's table (drives the count phase's global-memory fallback).
    Overflow,
}

/// Aggregated hash-table observations, collected only when
/// [`HashTable::observe_probes`] turned the observer on (telemetry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Slot inspections per insert/lookup chain (1 = no collision).
    pub probe_len: obs::Log2Histogram,
    /// Distinct keys per row, sampled at [`HashTable::take_probes`].
    pub row_occupancy: obs::Log2Histogram,
    /// Row load factor in permille (`occupied × 1000 / capacity`),
    /// sampled at [`HashTable::take_probes`].
    pub load_permille: obs::Log2Histogram,
}

/// A reusable hash table with observed probe counts.
#[derive(Debug, Clone)]
pub struct HashTable<T> {
    stamp: Vec<u32>,
    keys: Vec<u32>,
    vals: Vec<T>,
    mask: usize,
    epoch: u32,
    occupied: usize,
    /// Total probe steps since the last `probes_taken` reset (one step =
    /// one slot inspection, i.e. one shared/global load + compare).
    probes: u64,
    /// Whether the multiplicative hash is applied (ablation switch).
    scramble: bool,
    /// Probe-distribution observer; `None` (the default) keeps the
    /// non-telemetry path free of histogram work.
    observer: Option<Box<ProbeStats>>,
    /// Reused gather buffer of [`HashTable::gather_sorted_into`].
    gather: Vec<(u32, T)>,
}

impl<T: Scalar> HashTable<T> {
    /// Table with `capacity` slots (power of two).
    pub fn new(capacity: usize, scramble: bool) -> Self {
        assert!(capacity.is_power_of_two(), "t_size must be a power of two (§III-D)");
        HashTable {
            stamp: vec![0; capacity],
            keys: vec![0; capacity],
            vals: vec![T::ZERO; capacity],
            mask: capacity - 1,
            epoch: 0,
            occupied: 0,
            probes: 0,
            scramble,
            observer: None,
            gather: Vec::new(),
        }
    }

    /// Turn the probe-distribution observer on or off. Observations
    /// accumulate across rows until [`HashTable::take_probe_stats`].
    pub fn observe_probes(&mut self, on: bool) {
        if on {
            if self.observer.is_none() {
                self.observer = Some(Box::default());
            }
        } else {
            self.observer = None;
        }
    }

    /// Take the accumulated observations, leaving a fresh observer in
    /// place (so per-group draining keeps observing). `None` when the
    /// observer was never enabled.
    pub fn take_probe_stats(&mut self) -> Option<ProbeStats> {
        self.observer.as_mut().map(|o| std::mem::take(&mut **o))
    }

    /// Record the chain length of the access that started at probe
    /// count `p0` (observer only).
    #[inline]
    fn note_chain(&mut self, p0: u64) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.probe_len.record(self.probes - p0);
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Reset for a new row with exactly `capacity` slots (rounded up to
    /// a power of two). Probing uses *this* capacity's mask, so collision
    /// behaviour matches the group's real `t_size` even though the
    /// backing storage is reused across groups. Amortized O(1).
    pub fn reset(&mut self, capacity: usize) {
        let cap = capacity.next_power_of_two();
        if cap > self.stamp.len() {
            self.stamp = vec![0; cap];
            self.keys = vec![0; cap];
            self.vals = vec![T::ZERO; cap];
            self.epoch = 1;
        } else {
            self.epoch += 1;
            if self.epoch == 0 {
                // Stamp wrapped: hard-clear once every 2^32 rows.
                self.stamp.fill(0);
                self.epoch = 1;
            }
        }
        self.mask = cap - 1;
        self.occupied = 0;
        self.probes = 0;
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        let h = if self.scramble { key.wrapping_mul(HASH_SCAL) } else { key };
        h as usize & self.mask
    }

    /// Symbolic insert (count phase): record `key`, counting probes.
    ///
    /// `Overflow` is returned only when the key is absent *and* no empty
    /// slot exists (the probe may walk the whole table once to establish
    /// that — exactly what the device kernel pays before a row is
    /// declared too big for its group).
    #[inline]
    pub fn insert_symbolic(&mut self, key: u32) -> Insert {
        self.insert_bounded_symbolic(key, self.capacity())
    }

    /// Symbolic insert that gives up after `max_probes` slot inspections
    /// — models designs (Demouth's cuSPARSE kernel) that abandon the
    /// shared table after a short probe budget and spill to global.
    #[inline]
    pub fn insert_bounded_symbolic(&mut self, key: u32, max_probes: usize) -> Insert {
        let p0 = self.probes;
        let mut slot = self.slot_of(key);
        for _ in 0..max_probes {
            self.probes += 1;
            if self.stamp[slot] != self.epoch {
                // Empty: claim it (the device's atomicCAS).
                self.stamp[slot] = self.epoch;
                self.keys[slot] = key;
                self.occupied += 1;
                self.note_chain(p0);
                return Insert::New;
            }
            if self.keys[slot] == key {
                self.note_chain(p0);
                return Insert::Duplicate;
            }
            slot = (slot + 1) & self.mask;
        }
        self.note_chain(p0);
        Insert::Overflow
    }

    /// Numeric insert (calc phase): accumulate `value` under `key`.
    #[inline]
    pub fn insert_numeric(&mut self, key: u32, value: T) -> Insert {
        self.insert_bounded_numeric(key, value, self.capacity())
    }

    /// Numeric insert with a probe budget (see
    /// [`HashTable::insert_bounded_symbolic`]). On `Overflow` nothing is
    /// accumulated — the caller routes the product to its global table.
    #[inline]
    pub fn insert_bounded_numeric(&mut self, key: u32, value: T, max_probes: usize) -> Insert {
        let p0 = self.probes;
        let mut slot = self.slot_of(key);
        for _ in 0..max_probes {
            self.probes += 1;
            if self.stamp[slot] != self.epoch {
                self.stamp[slot] = self.epoch;
                self.keys[slot] = key;
                self.vals[slot] = value;
                self.occupied += 1;
                self.note_chain(p0);
                return Insert::New;
            }
            if self.keys[slot] == key {
                self.vals[slot] += value; // the device's atomicAdd
                self.note_chain(p0);
                return Insert::Duplicate;
            }
            slot = (slot + 1) & self.mask;
        }
        self.note_chain(p0);
        Insert::Overflow
    }

    /// Lookup-only accumulate: add `value` to `key`'s slot if present,
    /// return whether it was. Never claims empty slots (masked-SpGEMM
    /// semantics: a miss means the column is masked out). Probes are
    /// counted like any other access.
    #[inline]
    pub fn lookup_accumulate(&mut self, key: u32, value: T) -> bool {
        let p0 = self.probes;
        let mut slot = self.slot_of(key);
        for _ in 0..=self.mask {
            self.probes += 1;
            if self.stamp[slot] != self.epoch {
                self.note_chain(p0);
                return false; // empty slot: key not in the mask
            }
            if self.keys[slot] == key {
                self.vals[slot] += value;
                self.note_chain(p0);
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
        self.note_chain(p0);
        false
    }

    /// Distinct keys inserted since the last reset (the row's nnz).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Take and clear the probe counter. Called once per row by the
    /// kernels, so the observer samples row occupancy and load factor
    /// here.
    pub fn take_probes(&mut self) -> u64 {
        let (occupied, mask) = (self.occupied as u64, self.mask as u64);
        if let Some(o) = self.observer.as_deref_mut() {
            let load = occupied * 1000 / (mask + 1);
            o.row_occupancy.record(occupied);
            o.load_permille.record(load);
        }
        std::mem::take(&mut self.probes)
    }

    /// Write this row's entries sorted by column into `cols`/`vals` —
    /// the functional equivalent of the paper's gather + count-sort
    /// phases (§III-C) — through the table's reused gather buffer, so a
    /// row costs no allocation. Returns `false`, writing nothing, when
    /// the row's distinct count differs from the slices' length (the
    /// caller sized them from a symbolic nnz the table disagrees with).
    pub fn gather_sorted_into(&mut self, cols: &mut [u32], vals: &mut [T]) -> bool {
        if self.occupied != cols.len() || cols.len() != vals.len() {
            return false;
        }
        let buf = &mut self.gather;
        buf.clear();
        let live = self.stamp[..=self.mask].iter().zip(&self.keys).zip(&self.vals);
        buf.extend(live.filter(|((&s, _), _)| s == self.epoch).map(|((_, &k), &v)| (k, v)));
        buf.sort_unstable_by_key(|&(c, _)| c);
        for ((c, v), &(k, x)) in cols.iter_mut().zip(vals.iter_mut()).zip(buf.iter()) {
            *c = k;
            *v = x;
        }
        true
    }

    /// Extract this row's entries sorted by column as owned vectors
    /// (for callers that merge rows before writing them out). Returns
    /// `(columns, values)`.
    pub fn extract_sorted(&self) -> (Vec<u32>, Vec<T>) {
        let mut entries: Vec<(u32, T)> = (0..self.capacity())
            .filter(|&s| self.stamp[s] == self.epoch)
            .map(|s| (self.keys[s], self.vals[s]))
            .collect();
        entries.sort_unstable_by_key(|&(c, _)| c);
        (entries.iter().map(|&(c, _)| c).collect(), entries.iter().map(|&(_, v)| v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_counts_distinct_keys() {
        let mut t = HashTable::<f64>::new(16, true);
        t.reset(16);
        assert_eq!(t.insert_symbolic(5), Insert::New);
        assert_eq!(t.insert_symbolic(9), Insert::New);
        assert_eq!(t.insert_symbolic(5), Insert::Duplicate);
        assert_eq!(t.occupied(), 2);
    }

    #[test]
    fn numeric_accumulates() {
        let mut t = HashTable::<f64>::new(8, true);
        t.reset(8);
        t.insert_numeric(3, 1.5);
        t.insert_numeric(3, 2.0);
        t.insert_numeric(7, 1.0);
        let (cols, vals) = t.extract_sorted();
        assert_eq!(cols, vec![3, 7]);
        assert_eq!(vals, vec![3.5, 1.0]);
    }

    #[test]
    fn extract_is_sorted_regardless_of_probe_order() {
        let mut t = HashTable::<f32>::new(32, true);
        t.reset(32);
        for k in [31u32, 2, 17, 4, 29, 0, 11] {
            t.insert_numeric(k, k as f32);
        }
        let (cols, _) = t.extract_sorted();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
        assert_eq!(cols.len(), 7);
    }

    #[test]
    fn gather_matches_extract_and_checks_the_row_length() {
        let mut t = HashTable::<f64>::new(32, true);
        t.reset(32);
        for k in [31u32, 2, 17, 2, 4, 31, 0] {
            t.insert_numeric(k, k as f64 + 0.5);
        }
        let (want_c, want_v) = t.extract_sorted();
        let (mut c, mut v) = (vec![0u32; 5], vec![0.0f64; 5]);
        assert!(t.gather_sorted_into(&mut c, &mut v));
        assert_eq!((c, v), (want_c, want_v));
        // A slice sized from a different nnz is refused, not truncated.
        let (mut c, mut v) = (vec![9u32; 4], vec![0.0f64; 4]);
        assert!(!t.gather_sorted_into(&mut c, &mut v));
        assert_eq!(c, vec![9; 4]);
        // Gathering does not disturb probe accounting.
        t.take_probes();
        assert!(t.gather_sorted_into(&mut [0; 5], &mut [0.0; 5]));
        assert_eq!(t.take_probes(), 0);
    }

    #[test]
    fn collisions_increase_probes() {
        // Keys that collide under the mask after scrambling: with
        // capacity 8 and scramble off, 0 and 8 map to slot 0.
        let mut t = HashTable::<f64>::new(8, false);
        t.reset(8);
        t.insert_symbolic(0);
        let before = t.take_probes();
        assert_eq!(before, 1);
        t.insert_symbolic(8); // collides, probes slot 0 then 1
        assert_eq!(t.take_probes(), 2);
    }

    #[test]
    fn overflow_detected_when_full() {
        let mut t = HashTable::<f64>::new(4, true);
        t.reset(4);
        for k in 0..4 {
            assert_ne!(t.insert_symbolic(k), Insert::Overflow);
        }
        assert_eq!(t.insert_symbolic(99), Insert::Overflow);
        // Re-inserting an existing key still works when full.
        assert_eq!(t.insert_symbolic(2), Insert::Duplicate);
    }

    #[test]
    fn reset_reuses_without_clearing() {
        let mut t = HashTable::<f64>::new(8, true);
        t.reset(8);
        t.insert_numeric(1, 1.0);
        t.reset(8);
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.insert_numeric(1, 2.0), Insert::New);
        let (_, vals) = t.extract_sorted();
        assert_eq!(vals, vec![2.0]); // old value gone
    }

    #[test]
    fn reset_grows_capacity() {
        let mut t = HashTable::<f64>::new(4, true);
        t.reset(100);
        assert_eq!(t.capacity(), 128);
        for k in 0..100 {
            assert_eq!(t.insert_symbolic(k), Insert::New);
        }
        assert_eq!(t.occupied(), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_capacity() {
        HashTable::<f64>::new(12, true);
    }

    #[test]
    fn scramble_and_identity_agree_on_contents() {
        // The hash function changes probe counts, never results.
        let keys = [5u32, 123, 3000, 5, 77, 123, 9999, 64, 128];
        let mut ident = HashTable::<f64>::new(64, false);
        ident.reset(64);
        let mut scram = HashTable::<f64>::new(64, true);
        scram.reset(64);
        for &k in &keys {
            ident.insert_numeric(k, 1.0);
            scram.insert_numeric(k, 1.0);
        }
        assert_eq!(ident.extract_sorted(), scram.extract_sorted());
        assert_eq!(ident.occupied(), scram.occupied());
    }

    #[test]
    fn observer_collects_chain_and_row_stats() {
        let mut t = HashTable::<f64>::new(8, false);
        assert!(t.take_probe_stats().is_none()); // off by default
        t.observe_probes(true);
        t.reset(8);
        t.insert_symbolic(0); // chain length 1
        t.insert_symbolic(8); // collides with slot 0: chain length 2
        let probes = t.take_probes();
        let s = t.take_probe_stats().unwrap();
        assert_eq!(s.probe_len.count(), 2);
        assert_eq!(s.probe_len.sum(), probes); // chains partition the probes
        assert_eq!(s.row_occupancy.count(), 1);
        assert_eq!(s.row_occupancy.sum(), 2);
        assert_eq!(s.load_permille.sum(), 250); // 2 of 8 slots
                                                // Taking leaves a fresh observer in place.
        t.insert_symbolic(1);
        t.take_probes();
        let s2 = t.take_probe_stats().unwrap();
        assert_eq!(s2.probe_len.count(), 1);
        t.observe_probes(false);
        assert!(t.take_probe_stats().is_none());
    }

    #[test]
    fn scramble_breaks_clustered_runs() {
        // Consecutive runs that straddle a wrap: identity fills a dense
        // run of slots so later keys probe long chains; scrambling (odd
        // multiplier) disperses consecutive keys (stride 107 mod size).
        let mut ident = HashTable::<f64>::new(64, false);
        ident.reset(64);
        let mut scram = HashTable::<f64>::new(64, true);
        scram.reset(64);
        // Two overlapping-after-mask runs: 0..32 and 64..96 alias under
        // identity (both land in slots 0..32) but not under scrambling.
        for k in (0..32u32).chain(64..96) {
            ident.insert_symbolic(k);
            scram.insert_symbolic(k);
        }
        assert_eq!(ident.occupied(), 64);
        assert_eq!(scram.occupied(), 64);
        assert!(scram.take_probes() < ident.take_probes());
    }
}
