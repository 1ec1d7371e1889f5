//! Bucket-id assignment (paper Alg. 2, lines 5–14 and the `GetBucketID`
//! function).
//!
//! After sampling, every key of the current subproblem maps to a bucket:
//!
//! * the key range is split into `2^γ` *MSD zones* by the current digit;
//! * every MSD zone owns one *light* bucket;
//! * every detected heavy key owns its own bucket, placed immediately after
//!   the light bucket of its zone and ordered by key within the zone;
//! * optionally, one *overflow* bucket at the very end collects keys above
//!   the sampled key range (Section 5).
//!
//! The paper's `L` array is [`BucketTable::light_ids`], indexed by the MSD;
//! one extra end entry holds the overflow bucket's id, so a key above the
//! effective range reaches it by clamping its zone instead of by a branch.
//! The paper's hash table `H` is a [`HeavyMap`] with a fixed probe window:
//! every heavy key sits within `window` slots of its home slot, the arrays
//! are padded so a window never wraps, and empty slots repeat one real
//! `(key, id)` pair.  A lookup is therefore `window` compare-and-selects
//! starting from the zone's light id, with no data-dependent branch, which
//! is what the distribution step pays once per record.

use crate::key::low_mask;

/// Probe window a [`HeavyMap`] build aims for.  A build whose linear-probe
/// displacement needs a longer window doubles the table, at most
/// [`MAX_DOUBLINGS`] times.
pub const MAX_PROBE_WINDOW: usize = 8;

/// Most times a [`HeavyMap`] build doubles its table past the initial load
/// factor of at most 0.5, which keeps it under 16 slots per key.  Keys
/// that still crowd one home slot after that (only a set built against the
/// hash multiplier does) get a window longer than [`MAX_PROBE_WINDOW`]: the
/// lookup stays exact and only scans more slots.
pub const MAX_DOUBLINGS: u32 = 2;

/// Fibonacci-hashing multiplier (`2^64 / φ`, odd).  The home slot is the
/// *top* bits of `key · HASH_MUL`, which depend on every key bit: keys that
/// share their low bits (Bit-Exponential keys do) still spread out.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A small open-addressing map from `u64` keys to bucket ids with a fixed,
/// branch-free probe window.
///
/// The number of heavy keys per subproblem is at most `~2^γ ≤ 4096`, so the
/// table is tiny and stays in cache.  It starts at load factor ≤ 0.5 and
/// doubles until every key lands within [`MAX_PROBE_WINDOW`] slots of its
/// home slot, or [`MAX_DOUBLINGS`] times.  Empty slots hold a copy of the
/// first inserted pair, with its real id, so no key value has to be
/// reserved as a sentinel.
#[derive(Debug, Clone)]
pub struct HeavyMap {
    /// Slot keys: `capacity + window - 1` entries, so a window starting at
    /// any home slot stays in bounds.
    keys: Vec<u64>,
    /// Slot ids, parallel to `keys`.
    ids: Vec<u32>,
    /// `64 - log2(capacity)`.
    shift: u32,
    /// Probe window: the largest insert displacement plus one (0 when empty).
    window: usize,
    len: usize,
}

impl HeavyMap {
    /// Builds the map from distinct `(key, id)` pairs.
    pub fn new(pairs: &[(u64, u32)]) -> Self {
        let Some(&fill) = pairs.first() else {
            // Two slots: shift 63 puts every home slot at 0 or 1, where an
            // empty window slices in bounds.
            return Self {
                keys: vec![0; 2],
                ids: vec![0; 2],
                shift: 63,
                window: 0,
                len: 0,
            };
        };
        let first = (2 * pairs.len()).next_power_of_two().trailing_zeros();
        let mut log_cap = first;
        loop {
            let map = Self::build_at(pairs, fill, log_cap);
            if map.window <= MAX_PROBE_WINDOW || log_cap == first + MAX_DOUBLINGS {
                return map;
            }
            log_cap += 1;
        }
    }

    /// Places every pair in a table of `2^log_cap` slots by linear probing
    /// without wrap-around.  A key lands at most as many slots from home as
    /// keys placed before it, so `2^log_cap + len - 1` slots always suffice.
    fn build_at(pairs: &[(u64, u32)], fill: (u64, u32), log_cap: u32) -> Self {
        let cap = 1usize << log_cap;
        let shift = 64 - log_cap;
        let mut slots: Vec<Option<(u64, u32)>> = vec![None; cap + pairs.len() - 1];
        let mut window = 1;
        for &(key, id) in pairs {
            let home = home_slot(key, shift);
            let probe = &mut slots[home..];
            debug_assert!(
                probe
                    .iter()
                    .map_while(|s| s.map(|(k, _)| k))
                    .all(|k| k != key),
                "duplicate heavy key inserted"
            );
            let d = probe
                .iter()
                .position(Option::is_none)
                .expect("fewer keys placed than padding slots");
            probe[d] = Some((key, id));
            window = window.max(d + 1);
        }
        slots.truncate(cap + window - 1);
        let (keys, ids) = slots.iter().map(|s| s.unwrap_or(fill)).unzip();
        Self {
            keys,
            ids,
            shift,
            window,
            len: pairs.len(),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots every lookup scans: at most [`MAX_PROBE_WINDOW`]
    /// unless [`MAX_DOUBLINGS`] doublings did not spread the keys that far.
    pub fn probe_window(&self) -> usize {
        self.window
    }

    /// The bucket id of `key`, or `default` if it is not a heavy key: a
    /// fixed-length loop of compare-and-select, with no branch on the key.
    #[inline]
    pub fn get_or(&self, key: u64, default: u32) -> u32 {
        let home = home_slot(key, self.shift);
        let keys = &self.keys[home..home + self.window];
        let ids = &self.ids[home..home + self.window];
        let mut id = default;
        for (&k, &i) in keys.iter().zip(ids) {
            // A plain `if` here is turned back into a branch inside the
            // caller's loop, which mispredicts on every heavy/light mix.
            id = std::hint::select_unpredictable(k == key, i, id);
        }
        id
    }

    /// Looks up the bucket id of `key`, if it is a heavy key.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let home = home_slot(key, self.shift);
        (home..home + self.window)
            .find(|&s| self.keys[s] == key)
            .map(|s| self.ids[s])
    }
}

#[inline]
fn home_slot(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(HASH_MUL) >> shift) as usize
}

/// The keys `j · HASH_MUL⁻¹` for `j < n`: each hashes to the product `j`,
/// whose top bits are 0, so all of them share home slot 0 at every table
/// size that does not exceed `2^64 / n` slots.
#[cfg(test)]
pub(crate) fn keys_sharing_home_slot(n: u64) -> Vec<u64> {
    // Newton's iteration for the inverse modulo 2^64; each step doubles the
    // correct low bits, starting from 3 (HASH_MUL² ≡ 1 mod 8).
    let mut inv = HASH_MUL;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(HASH_MUL.wrapping_mul(inv)));
    }
    debug_assert_eq!(HASH_MUL.wrapping_mul(inv), 1);
    (0..n).map(|j| j.wrapping_mul(inv)).collect()
}

/// Description of one heavy bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyBucket {
    /// The (masked) heavy key all records in this bucket share.
    pub key: u64,
    /// The bucket id assigned to it.
    pub id: u32,
}

/// The complete bucket table of one recursive call: zone → light bucket id,
/// heavy key → heavy bucket id, plus the optional overflow bucket.
#[derive(Debug, Clone)]
pub struct BucketTable {
    /// Radix width γ of this level.
    pub gamma: u32,
    /// Effective number of key bits considered at this level (≤ remaining
    /// bits; smaller when the overflow optimization shrank the range).
    pub eff_bits: u32,
    /// Mask selecting the `eff_bits` low bits.
    pub eff_mask: u64,
    /// Shift that brings the current digit to the low bits: `eff_bits - γ`.
    pub digit_shift: u32,
    /// Light bucket id of each MSD zone (`2^γ` entries), then one end
    /// entry: the first id past the last zone, which is the overflow
    /// bucket's id when there is one.
    pub light_ids: Vec<u32>,
    /// Heavy buckets in bucket-id order.
    pub heavy: Vec<HeavyBucket>,
    /// Hash table from heavy key to bucket id.
    pub heavy_map: HeavyMap,
    /// Bucket id of the overflow bucket, if enabled.
    pub overflow_id: Option<u32>,
    /// Total number of buckets.
    pub num_buckets: usize,
}

impl BucketTable {
    /// Builds the bucket table.
    ///
    /// * `bits` — number of remaining (low) key bits of this subproblem.
    /// * `eff_bits` — effective bits after the key-range estimation
    ///   (`= bits` when the overflow optimization is off).
    /// * `gamma` — radix width for this level.
    /// * `heavy_keys` — detected heavy keys, already masked to `bits` bits,
    ///   sorted and deduplicated.
    /// * `with_overflow` — whether to append an overflow bucket.
    pub fn build(
        bits: u32,
        eff_bits: u32,
        gamma: u32,
        heavy_keys: &[u64],
        with_overflow: bool,
    ) -> Self {
        debug_assert!(gamma >= 1 && gamma <= eff_bits);
        debug_assert!(eff_bits <= bits);
        let num_zones = 1usize << gamma;
        let digit_shift = eff_bits - gamma;
        let eff_mask = low_mask(eff_bits);

        let mut light_ids = vec![0u32; num_zones + 1];
        let mut heavy = Vec::with_capacity(heavy_keys.len());

        // Heavy keys are sorted, hence grouped by zone in increasing order:
        // walk zones and heavy keys in lockstep, assigning ids serially
        // (light bucket first, then that zone's heavy buckets by key).
        let mut next_id = 0u32;
        let mut hi = 0usize;
        for zone in 0..num_zones {
            light_ids[zone] = next_id;
            next_id += 1;
            while hi < heavy_keys.len() {
                let hk = heavy_keys[hi];
                debug_assert!(hk <= eff_mask, "heavy key outside effective range");
                let hzone = (hk >> digit_shift) as usize;
                debug_assert!(hzone >= zone, "heavy keys must be sorted");
                if hzone != zone {
                    break;
                }
                heavy.push(HeavyBucket {
                    key: hk,
                    id: next_id,
                });
                next_id += 1;
                hi += 1;
            }
        }
        debug_assert_eq!(hi, heavy_keys.len(), "all heavy keys must be placed");
        light_ids[num_zones] = next_id;
        let pairs: Vec<(u64, u32)> = heavy.iter().map(|h| (h.key, h.id)).collect();
        let heavy_map = HeavyMap::new(&pairs);

        let overflow_id = if with_overflow && eff_bits < bits {
            let id = next_id;
            next_id += 1;
            Some(id)
        } else {
            None
        };

        Self {
            gamma,
            eff_bits,
            eff_mask,
            digit_shift,
            light_ids,
            heavy,
            heavy_map,
            overflow_id,
            num_buckets: next_id as usize,
        }
    }

    /// Number of MSD zones (`2^γ`).
    #[inline]
    pub fn num_zones(&self) -> usize {
        self.light_ids.len() - 1
    }

    /// The `GetBucketID` function of Alg. 2: maps a key (masked to the
    /// subproblem's remaining bits) to its bucket id.  Branch-free: a key
    /// above the effective range clamps to the end entry of `light_ids`
    /// (the overflow bucket), and the heavy lookup selects over a fixed
    /// window.
    #[inline]
    pub fn bucket_id(&self, masked_key: u64) -> usize {
        debug_assert!(masked_key <= self.eff_mask || self.overflow_id.is_some());
        let zone = (masked_key >> self.digit_shift).min(self.num_zones() as u64) as usize;
        self.heavy_map.get_or(masked_key, self.light_ids[zone]) as usize
    }

    /// The half-open range of bucket ids belonging to MSD zone `z`
    /// (its light bucket plus its heavy buckets).
    pub fn zone_bucket_ids(&self, z: usize) -> std::ops::Range<usize> {
        self.light_ids[z] as usize..self.light_ids[z + 1] as usize
    }

    /// Heavy buckets of zone `z`, in key order.
    pub fn zone_heavy(&self, z: usize) -> &[HeavyBucket] {
        // Zone z's light id is z plus the number of heavy buckets of earlier
        // zones, which is where its own heavy buckets start in `heavy`.
        let ids = self.zone_bucket_ids(z);
        &self.heavy[ids.start - z..ids.end - z - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlay::random::Rng;

    #[test]
    fn heavy_map_insert_and_get() {
        let pairs: Vec<(u64, u32)> = (0..10u64).map(|i| (i * 1_000_003, i as u32)).collect();
        let m = HeavyMap::new(&pairs);
        assert_eq!(m.len(), 10);
        for i in 0..10u64 {
            assert_eq!(m.get(i * 1_000_003), Some(i as u32));
            assert_eq!(m.get_or(i * 1_000_003, 99), i as u32);
        }
        assert_eq!(m.get(7), None);
        assert_eq!(m.get(u64::MAX), None);
        assert_eq!(m.get_or(7, 99), 99);
    }

    #[test]
    fn heavy_map_empty() {
        let m = HeavyMap::new(&[]);
        assert!(m.is_empty());
        assert_eq!(m.probe_window(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.get_or(0, 5), 5);
        assert_eq!(m.get_or(u64::MAX, 5), 5);
    }

    #[test]
    fn bucket_table_no_heavy_no_overflow() {
        // 8 remaining bits, γ = 2 → 4 zones, 4 light buckets only.
        let t = BucketTable::build(8, 8, 2, &[], false);
        assert_eq!(t.num_buckets, 4);
        assert_eq!(t.num_zones(), 4);
        assert_eq!(t.overflow_id, None);
        // Keys 0..=63 are zone 0, 64..=127 zone 1, ...
        assert_eq!(t.bucket_id(0), 0);
        assert_eq!(t.bucket_id(63), 0);
        assert_eq!(t.bucket_id(64), 1);
        assert_eq!(t.bucket_id(255), 3);
        assert_eq!(t.zone_bucket_ids(2), 2..3);
        assert!(t.zone_heavy(2).is_empty());
    }

    #[test]
    fn bucket_table_matches_paper_figure_2() {
        // Paper Fig. 2: r = 16 (4 bits), γ = 2, heavy keys {4, 6, 9}.
        // Expected buckets: 0 light(00), 1 light(01), 2 heavy(4), 3 heavy(6),
        // 4 light(10), 5 heavy(9), 6 light(11).
        let t = BucketTable::build(4, 4, 2, &[4, 6, 9], false);
        assert_eq!(t.num_buckets, 7);
        assert_eq!(t.bucket_id(0), 0);
        assert_eq!(t.bucket_id(3), 0);
        assert_eq!(t.bucket_id(5), 1);
        assert_eq!(t.bucket_id(7), 1);
        assert_eq!(t.bucket_id(4), 2);
        assert_eq!(t.bucket_id(6), 3);
        assert_eq!(t.bucket_id(8), 4);
        assert_eq!(t.bucket_id(10), 4);
        assert_eq!(t.bucket_id(11), 4);
        assert_eq!(t.bucket_id(9), 5);
        assert_eq!(t.bucket_id(12), 6);
        assert_eq!(t.bucket_id(15), 6);
        // Zone structure.
        assert_eq!(t.zone_bucket_ids(0), 0..1);
        assert_eq!(t.zone_bucket_ids(1), 1..4);
        assert_eq!(t.zone_bucket_ids(2), 4..6);
        assert_eq!(t.zone_bucket_ids(3), 6..7);
        let h1 = t.zone_heavy(1);
        assert_eq!(h1.len(), 2);
        assert_eq!(h1[0].key, 4);
        assert_eq!(h1[1].key, 6);
        assert_eq!(t.zone_heavy(2)[0].key, 9);
    }

    #[test]
    fn overflow_bucket_assignment() {
        // 16 remaining bits but effective range only 8 bits.
        let t = BucketTable::build(16, 8, 4, &[], true);
        assert_eq!(t.num_buckets, 16 + 1);
        assert_eq!(t.overflow_id, Some(16));
        assert_eq!(t.bucket_id(255), 15);
        assert_eq!(t.bucket_id(256), 16);
        assert_eq!(t.bucket_id(65_535), 16);
    }

    #[test]
    fn no_overflow_bucket_when_range_not_shrunk() {
        let t = BucketTable::build(8, 8, 4, &[], true);
        assert_eq!(t.overflow_id, None);
        assert_eq!(t.num_buckets, 16);
    }

    #[test]
    fn heavy_bucket_ids_are_serial_within_zone() {
        // γ = 3 over 6 effective bits: zones are key >> 3.
        let heavy = vec![1u64, 2, 17, 40, 41, 42];
        let t = BucketTable::build(6, 6, 3, &heavy, false);
        // ids: zone0 light=0, heavy 1->1, 2->2; zone1 light=3; zone2 light=4,
        // heavy 17->5; zone3 light=6; zone4 light=7; zone5 light=8,
        // heavy 40->9,41->10,42->11; zone6 light=12; zone7 light=13.
        assert_eq!(t.bucket_id(1), 1);
        assert_eq!(t.bucket_id(2), 2);
        assert_eq!(t.bucket_id(0), 0);
        assert_eq!(t.bucket_id(17), 5);
        assert_eq!(t.bucket_id(16), 4);
        assert_eq!(t.bucket_id(40), 9);
        assert_eq!(t.bucket_id(41), 10);
        assert_eq!(t.bucket_id(42), 11);
        assert_eq!(t.bucket_id(43), 8);
        assert_eq!(t.num_buckets, 8 + 6);
    }

    /// `GetBucketID` spelled out: overflow check, zone shift, binary search
    /// over the sorted heavy keys.  Zone `z`'s light id is `z` plus the
    /// number of heavy keys in earlier zones; heavy key `i` of zone `z` has
    /// id `z + i + 1`.
    fn reference_bucket_id(t: &BucketTable, heavy_keys: &[u64], key: u64) -> usize {
        if key > t.eff_mask {
            return t.overflow_id.expect("key above range needs overflow") as usize;
        }
        let zone = (key >> t.digit_shift) as usize;
        match heavy_keys.binary_search(&key) {
            Ok(i) => zone + i + 1,
            Err(_) => {
                zone + heavy_keys.partition_point(|&h| ((h >> t.digit_shift) as usize) < zone)
            }
        }
    }

    /// Builds a table over `heavy_keys` and compares `bucket_id` with the
    /// reference on the heavy keys, their neighbours, the fill pair's key,
    /// `u64::MAX` (when in range) and random queries.
    fn check_lookup(bits: u32, eff_bits: u32, gamma: u32, mut heavy_keys: Vec<u64>, rng: Rng) {
        heavy_keys.sort_unstable();
        heavy_keys.dedup();
        let t = BucketTable::build(bits, eff_bits, gamma, &heavy_keys, true);
        assert!(t.heavy_map.probe_window() <= MAX_PROBE_WINDOW);
        assert_eq!(t.heavy_map.is_empty(), heavy_keys.is_empty());
        let mask = low_mask(bits);
        let mut queries: Vec<u64> = heavy_keys
            .iter()
            .flat_map(|&h| [h, h.wrapping_sub(1) & mask, h.wrapping_add(1) & mask])
            .collect();
        queries.extend([0, t.eff_mask, mask]);
        queries.extend((0..2_000).map(|i| rng.ith(i) & mask));
        queries.extend((0..2_000).map(|i| rng.ith(i) & t.eff_mask));
        for q in queries {
            assert_eq!(
                t.bucket_id(q),
                reference_bucket_id(&t, &heavy_keys, q),
                "key {q:#x}, bits {bits}, eff_bits {eff_bits}, gamma {gamma}, heavy {}",
                heavy_keys.len()
            );
        }
    }

    #[test]
    fn bucket_id_matches_reference_on_random_tables() {
        let rng = Rng::new(11);
        for round in 0..60u64 {
            let r = rng.fork(round);
            let bits = if round % 2 == 0 { 32 } else { 64 };
            let eff_bits = bits - r.ith_in(0, 8) as u32;
            let gamma = 1 + r.ith_in(1, 12) as u32;
            let num_heavy = r.ith_in(2, 600) as usize;
            let heavy: Vec<u64> = (0..num_heavy as u64)
                .map(|i| r.ith(100 + i) & low_mask(eff_bits))
                .collect();
            check_lookup(bits, eff_bits, gamma, heavy, r.fork(7));
        }
    }

    #[test]
    fn bucket_id_matches_reference_on_shared_low_bits() {
        // Bit-Exponential-shaped heavy keys: all share their low 16 bits, so
        // a hash of the low bits would send them to one slot.
        let rng = Rng::new(12);
        for bits in [32u32, 64] {
            for num_heavy in [1u64, 12, 270, 4096] {
                let heavy: Vec<u64> = (0..num_heavy)
                    .map(|i| ((rng.ith(i) << 16) | 0xBEEF) & low_mask(bits))
                    .collect();
                check_lookup(bits, bits, 10, heavy.clone(), rng.fork(num_heavy));
                // Consecutive high parts, the densest sharing pattern.
                let dense: Vec<u64> = (0..num_heavy).map(|i| (i << 16) | 0xBEEF).collect();
                check_lookup(bits, bits, 12, dense, rng.fork(num_heavy + 1));
            }
        }
    }

    #[test]
    fn bucket_id_handles_fill_key_max_key_and_empty_heavy_set() {
        // The fill pair is the first (smallest) heavy key: it must still map
        // to its own id from every slot that repeats it.
        let t = BucketTable::build(64, 64, 4, &[0, 5, u64::MAX], false);
        assert_eq!(t.bucket_id(0), 1);
        assert_eq!(t.bucket_id(5), 2);
        assert_eq!(t.bucket_id(u64::MAX), t.num_buckets - 1);
        assert_eq!(t.bucket_id(u64::MAX - 1), t.num_buckets - 2);
        assert_eq!(t.bucket_id(1), 0);
        check_lookup(64, 64, 4, vec![0, 5, u64::MAX], Rng::new(13));
        // No heavy keys: light ids only, overflow above the range.
        check_lookup(64, 40, 8, Vec::new(), Rng::new(14));
        check_lookup(32, 32, 8, Vec::new(), Rng::new(15));
        let t = BucketTable::build(64, 40, 8, &[], true);
        assert_eq!(t.bucket_id(u64::MAX), t.overflow_id.unwrap() as usize);
    }

    #[test]
    fn heavy_map_window_stays_within_bound() {
        let rng = Rng::new(16);
        for n in [1u64, 2, 100, 1000, 4096] {
            for shape in 0..4u64 {
                let pairs: Vec<(u64, u32)> = (0..n)
                    .map(|i| {
                        let k = match shape {
                            0 => i,
                            1 => i << 32,
                            2 => (i << 16) | 0xFFFF,
                            _ => rng.ith(i),
                        };
                        (k, i as u32)
                    })
                    .collect();
                let m = HeavyMap::new(&pairs);
                assert!(m.probe_window() >= 1 && m.probe_window() <= MAX_PROBE_WINDOW);
                for &(k, id) in &pairs {
                    assert_eq!(m.get(k), Some(id));
                    assert_eq!(m.get_or(k, u32::MAX), id);
                }
            }
        }
    }

    #[test]
    fn heavy_map_stays_bounded_and_exact_when_every_key_shares_a_home_slot() {
        // No number of doublings reaches the window bound for these keys.
        for n in [9u64, 100, 4096] {
            let keys = keys_sharing_home_slot(n + 1);
            let pairs: Vec<(u64, u32)> = (0..n).map(|j| (keys[j as usize], j as u32)).collect();
            let m = HeavyMap::new(&pairs);
            let cap = 1usize << (64 - m.shift);
            assert!(
                cap < 16 * n as usize,
                "table grew to {cap} slots for {n} keys"
            );
            assert_eq!(m.keys.len(), cap + m.probe_window() - 1);
            assert_eq!(m.probe_window(), n as usize);
            for &(k, id) in &pairs {
                assert_eq!(m.get(k), Some(id));
                assert_eq!(m.get_or(k, u32::MAX), id);
            }
            let rng = Rng::new(n);
            for q in (0..1_000)
                .map(|i| rng.ith(i))
                .chain([keys[n as usize], u64::MAX])
            {
                if pairs.iter().all(|&(k, _)| k != q) {
                    assert_eq!(m.get(q), None);
                    assert_eq!(m.get_or(q, u32::MAX), u32::MAX);
                }
            }
        }
    }
}
