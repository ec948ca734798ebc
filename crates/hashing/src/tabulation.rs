//! Simple tabulation hashing (Zobrist / Carter–Wegman).
//!
//! Splits a 64-bit key into 8 bytes and XORs together one random 64-bit
//! table entry per byte. Simple tabulation is 3-wise independent, which is
//! the independence level the paper's implementation uses (Appendix B:
//! *"our implementation simply uses fast, 3-wise independent tabulation
//! hashing. In our experiments, we did not observe any significant
//! degradation in performance from this choice."*).
//!
//! A sketch hashes every feature under all of its `depth` rows, so the
//! tables of a sketch's rows are stored **row-interleaved**
//! (`TabulationRows`): entry `(chunk, byte, row)` sits at
//! `(chunk·256 + byte)·depth + row`. The `depth` entries one key byte
//! selects are then one contiguous run, and one pass over a few such
//! runs yields the key's hash in every row.
//!
//! Every learner feature id is a `u32`, whose four high bytes are zero.
//! Each row therefore also stores the XOR of its four high chunks' byte-0
//! entries, so a key below `2^32` needs only the four low-chunk lookups
//! plus that constant. Keys at or above `2^32` use all eight chunks; the
//! result is the same simple-tabulation hash for every `u64` either way.

use crate::mix::SplitMix64;

const NUM_CHUNKS: usize = 8;
const TABLE_SIZE: usize = 256;
/// Chunks a key below `2^32` can make nonzero.
const LOW_CHUNKS: usize = 4;

/// `depth` independent simple-tabulation functions `u64 -> u64`, stored
/// row-interleaved so that one key's hashes under every row come from one
/// contiguous pass ([`TabulationRows::hash_rows`]). Crate-internal: the
/// sketches reach it through `RowHashers`.
///
/// Row `r` is filled from its own `SplitMix64` stream seeded with
/// `seeds[r]`, chunk by chunk and byte by byte, exactly as a
/// [`TabulationHash`] with that seed is: row `r` of a `TabulationRows`
/// and `TabulationHash::new(seeds[r])` are the same function.
///
/// Resident cost is 8 × 256 words (16 KiB) plus one folding constant
/// (8 B) per row.
#[derive(Clone)]
pub(crate) struct TabulationRows {
    depth: usize,
    /// `[chunk][byte][row]`, flattened.
    table: Box<[u64]>,
    /// Per row, the XOR of chunks 4..8's byte-0 entries: the contribution
    /// of the four zero high bytes of every key below `2^32`.
    high_zero: Box<[u64]>,
}

impl std::fmt::Debug for TabulationRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabulationRows")
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

impl TabulationRows {
    /// Builds one tabulation function per seed, filled deterministically
    /// from that seed and laid out row-interleaved.
    ///
    /// # Panics
    /// Panics if `seeds` is empty.
    #[must_use]
    pub fn new(seeds: &[u64]) -> Self {
        let depth = seeds.len();
        assert!(depth > 0, "tabulation needs at least one row");
        let mut table = vec![0u64; NUM_CHUNKS * TABLE_SIZE * depth].into_boxed_slice();
        for (row, &seed) in seeds.iter().enumerate() {
            let mut stream = SplitMix64::new(seed ^ 0x7AB0_1A7E_0000_0001);
            for entry in table.iter_mut().skip(row).step_by(depth) {
                *entry = stream.next_u64();
            }
        }
        let high_zero = (0..depth)
            .map(|row| {
                (LOW_CHUNKS..NUM_CHUNKS)
                    .fold(0, |h, chunk| h ^ table[chunk * TABLE_SIZE * depth + row])
            })
            .collect();
        Self {
            depth,
            table,
            high_zero,
        }
    }

    /// Number of rows (independent functions).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Heap bytes the table owns: 16 KiB plus 8 B per row.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        (self.table.len() + self.high_zero.len()) * std::mem::size_of::<u64>()
    }

    /// The `len` contiguous entries of rows `first..first + len` that
    /// `byte` selects in `chunk`.
    #[inline]
    fn rows_of(&self, chunk: usize, byte: u8, first: usize, len: usize) -> &[u64] {
        let lo = (chunk * TABLE_SIZE + usize::from(byte)) * self.depth + first;
        &self.table[lo..lo + len]
    }

    /// Row `row`'s hash of `key`.
    ///
    /// # Panics
    /// Panics if `row >= depth`.
    #[inline]
    #[must_use]
    pub fn hash(&self, row: usize, key: u64) -> u64 {
        let bytes = key.to_le_bytes();
        // Indexed first for every key: it is the bounds check on `row`.
        let high = self.high_zero[row];
        let (mut h, chunks) = if key >> 32 == 0 {
            (high, LOW_CHUNKS)
        } else {
            (0, NUM_CHUNKS)
        };
        for (chunk, &b) in bytes.iter().enumerate().take(chunks) {
            h ^= self.rows_of(chunk, b, row, 1)[0];
        }
        h
    }

    /// Writes the hashes of `key` under rows `first..first + out.len()`
    /// into `out`, in row order: one pass over four contiguous runs (plus
    /// the folding constants) for a key below `2^32`, over eight runs
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `first + out.len() > depth`.
    #[inline(always)]
    pub fn hash_rows(&self, key: u64, first: usize, out: &mut [u64]) {
        let n = out.len();
        let b = key.to_le_bytes();
        // Sliced first for every key: it is the bounds check on the rows.
        let high = &self.high_zero[first..first + n];
        if key >> 32 == 0 {
            let t0 = self.rows_of(0, b[0], first, n);
            let t1 = self.rows_of(1, b[1], first, n);
            let t2 = self.rows_of(2, b[2], first, n);
            let t3 = self.rows_of(3, b[3], first, n);
            for (r, o) in out.iter_mut().enumerate() {
                *o = high[r] ^ t0[r] ^ t1[r] ^ t2[r] ^ t3[r];
            }
        } else {
            out.copy_from_slice(self.rows_of(0, b[0], first, n));
            for (chunk, &byte) in b.iter().enumerate().skip(1) {
                for (o, &t) in out.iter_mut().zip(self.rows_of(chunk, byte, first, n)) {
                    *o ^= t;
                }
            }
        }
    }
}

/// A single 3-wise independent hash function `u64 -> u64` via simple
/// tabulation: a one-row `TabulationRows`.
///
/// Construction cost is 8 × 256 random words (16 KiB); evaluation is four
/// table lookups and XORs for a key below `2^32` and eight otherwise,
/// independent of key distribution.
#[derive(Clone, Debug)]
pub struct TabulationHash {
    rows: TabulationRows,
}

impl TabulationHash {
    /// Builds a tabulation hash function with tables filled deterministically
    /// from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rows: TabulationRows::new(&[seed]),
        }
    }

    /// Heap bytes this function owns: the 8 × 256-word lookup table
    /// (16 KiB) and its folding constant. Dominates the resident cost of
    /// small sketches, so memory-governed fleets must account for it
    /// explicitly.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.rows.resident_bytes()
    }

    /// Hashes a 64-bit key.
    #[inline]
    #[must_use]
    pub fn hash(&self, key: u64) -> u64 {
        self.rows.hash(0, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple tabulation written out in full: all eight chunks, no fold.
    fn reference(seed: u64, key: u64) -> u64 {
        let mut stream = SplitMix64::new(seed ^ 0x7AB0_1A7E_0000_0001);
        let tables: Vec<Vec<u64>> = (0..NUM_CHUNKS)
            .map(|_| (0..TABLE_SIZE).map(|_| stream.next_u64()).collect())
            .collect();
        key.to_le_bytes()
            .iter()
            .enumerate()
            .fold(0, |h, (chunk, &b)| h ^ tables[chunk][usize::from(b)])
    }

    #[test]
    fn interleaved_rows_match_plain_tabulation() {
        let seeds = [3u64, 99, 0, u64::MAX, 17];
        let rows = TabulationRows::new(&seeds);
        let keys = [
            0u64,
            1,
            255,
            256,
            1 << 24,
            u64::from(u32::MAX),
            1 << 32,
            1 << 56,
            u64::MAX,
        ];
        for &key in &keys {
            let mut out = [0u64; 5];
            rows.hash_rows(key, 0, &mut out);
            let mut tail = [0u64; 2];
            rows.hash_rows(key, 3, &mut tail);
            for (r, &seed) in seeds.iter().enumerate() {
                let expect = reference(seed, key);
                assert_eq!(rows.hash(r, key), expect, "row {r} key {key}");
                assert_eq!(out[r], expect, "row {r} key {key}");
                assert_eq!(TabulationHash::new(seed).hash(key), expect);
            }
            assert_eq!(tail, out[3..]);
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn row_past_depth_panics_for_keys_above_2_pow_32() {
        // Such a key skips the folding constant, whose lookup is the row
        // check for smaller keys; the row must be checked all the same.
        let _ = TabulationRows::new(&[1, 2]).hash(2, 1 << 40);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TabulationHash::new(7);
        let b = TabulationHash::new(7);
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = TabulationHash::new(1);
        let b = TabulationHash::new(2);
        let differs = (0..64u64).any(|k| a.hash(k) != b.hash(k));
        assert!(differs);
    }

    #[test]
    fn few_collisions_on_sequential_keys() {
        let h = TabulationHash::new(3);
        let mut seen = std::collections::HashSet::new();
        for k in 0..100_000u64 {
            seen.insert(h.hash(k));
        }
        // With 100k keys into 2^64 outputs, collisions should be absent.
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn output_bits_are_balanced() {
        let h = TabulationHash::new(9);
        let n = 100_000u64;
        let mut ones = [0u32; 64];
        for k in 0..n {
            let v = h.hash(k);
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((v >> bit) & 1) as u32;
            }
        }
        for (bit, &c) in ones.iter().enumerate() {
            let frac = f64::from(c) / n as f64;
            assert!(
                (frac - 0.5).abs() < 0.02,
                "bit {bit} set fraction {frac:.4}"
            );
        }
    }
}
