//! Per-row bucket-and-sign hashing for Count-Sketch-style structures.
//!
//! A sketch of depth `s` and width `w` keeps, for each row `j ∈ [s]`, a pair
//! `(h_j, σ_j)` with `h_j(i) ∈ [w]` and `σ_j(i) ∈ {-1, +1}`. We derive both
//! from a single 64-bit hash per row: bit 63 selects the sign and the low 63
//! bits (shifted up so the multiply-shift range reduction sees uniform top
//! bits) select the bucket, which costs one table-hash evaluation per row
//! per feature.
//!
//! [`RowHashers`] stores the rows *monomorphized by family* — one
//! row-interleaved tabulation table or a `Vec<PolyHash>`, never a
//! vector of enums. The batch entry points ([`RowHashers::fill_plan`],
//! [`RowHashers::plan_push`], [`RowHashers::for_each_coord`],
//! [`RowHashers::for_each_bucket`]) dispatch on the family once per call
//! and hash a key under all of its rows in one pass into a block buffer —
//! under tabulation, four contiguous row-vector lookups for a key below
//! `2^32`. The planning calls reuse a buffer the [`CoordPlan`] owns; the
//! single-key visitors use one on the stack.
//!
//! The single-hash update pipeline in `wmsketch-core` builds a
//! [`CoordPlan`] per example and replays it for the margin, the gradient
//! scatter, and heap re-estimation, paying the hash cost exactly once per
//! `(feature, row)` pair.

use crate::mix::{fast_range, SplitMix64};
use crate::poly::PolyHash;
use crate::tabulation::{TabulationHash, TabulationRows};

/// Which hash family backs a sketch's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashFamilyKind {
    /// 3-wise independent simple tabulation (the paper's implementation
    /// choice, Appendix B). Fast; the default.
    #[default]
    Tabulation,
    /// k-wise independent polynomial hashing over `2^61 - 1` with the given
    /// independence level (theory-faithful; slower).
    Polynomial(usize),
}

/// Spreads `PolyHash`'s 61-bit field element over 64 bits so the
/// multiply-shift reduction sees uniform top bits.
const POLY_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A bucket index together with a ±1 sign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSign {
    /// Bucket index in `[0, width)`.
    pub bucket: u32,
    /// Sign flip: `+1.0` or `-1.0`.
    pub sign: f64,
}

/// Splits a raw 64-bit hash into the paper's `(h_j, σ_j)` pair. Bit 63 is
/// the sign; the low 63 bits choose the bucket. Using disjoint bits keeps
/// `h` and `σ` independent of each other.
///
/// The sign is built by copying bit 63 onto `1.0` rather than with an
/// `if`: when the sign feeds a multiply directly (as in
/// `signed_median_estimate`), LLVM turns the `if` into a branch on a
/// fair coin, which mispredicts on half the rows.
#[inline]
fn split_bucket_sign(h: u64, width: u64) -> BucketSign {
    let sign = f64::from_bits(1.0f64.to_bits() | (h & (1 << 63)));
    let bucket = fast_range(h << 1, width) as u32;
    BucketSign { bucket, sign }
}

enum RowFn {
    Tab(TabulationHash),
    Poly(PolyHash),
}

impl RowFn {
    #[inline]
    fn raw(&self, key: u64) -> u64 {
        match self {
            RowFn::Tab(t) => t.hash(key),
            RowFn::Poly(p) => p.hash(key).wrapping_mul(POLY_SPREAD),
        }
    }
}

/// The hash functions for a single sketch row.
pub struct RowHasher {
    f: RowFn,
    width: u32,
}

impl std::fmt::Debug for RowHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHasher")
            .field("width", &self.width)
            .finish()
    }
}

impl RowHasher {
    /// Builds one row's `(h, σ)` pair deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(kind: HashFamilyKind, width: u32, seed: u64) -> Self {
        assert!(width > 0, "sketch row width must be nonzero");
        let f = match kind {
            HashFamilyKind::Tabulation => RowFn::Tab(TabulationHash::new(seed)),
            HashFamilyKind::Polynomial(k) => RowFn::Poly(PolyHash::new(k, seed)),
        };
        Self { f, width }
    }

    /// Row width this hasher maps into.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the bucket and sign for feature `key`.
    #[inline]
    #[must_use]
    pub fn bucket_sign(&self, key: u64) -> BucketSign {
        split_bucket_sign(self.f.raw(key), u64::from(self.width))
    }

    /// Returns only the bucket (for unsigned sketches such as Count-Min).
    ///
    /// Uses the same disjoint-bit range reduction as
    /// [`RowHasher::bucket_sign`]: the sign bit (bit 63) never feeds the
    /// bucket choice, so `bucket(k) == bucket_sign(k).bucket` always holds.
    #[inline]
    #[must_use]
    pub fn bucket(&self, key: u64) -> u32 {
        fast_range(self.f.raw(key) << 1, u64::from(self.width)) as u32
    }
}

/// Row storage, one concrete representation per family, so a key is
/// hashed under a block of rows without dispatching per row.
#[derive(Clone)]
enum Rows {
    Tab(TabulationRows),
    Poly(Vec<PolyHash>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Tab(t) => t.depth(),
            Rows::Poly(v) => v.len(),
        }
    }

    #[inline]
    fn raw(&self, j: usize, key: u64) -> u64 {
        match self {
            Rows::Tab(t) => t.hash(j, key),
            Rows::Poly(v) => v[j].hash(key).wrapping_mul(POLY_SPREAD),
        }
    }
}

/// A family's rows, hashed one block of rows at a time. Implemented by
/// each concrete row representation, so the block loops below are
/// monomorphized per family.
trait RowBlock {
    /// Writes `key`'s raw hashes under rows `first..first + out.len()`.
    fn hash_rows(&self, key: u64, first: usize, out: &mut [u64]);
}

impl RowBlock for TabulationRows {
    #[inline(always)]
    fn hash_rows(&self, key: u64, first: usize, out: &mut [u64]) {
        TabulationRows::hash_rows(self, key, first, out);
    }
}

impl RowBlock for [PolyHash] {
    #[inline]
    fn hash_rows(&self, key: u64, first: usize, out: &mut [u64]) {
        for (o, p) in out.iter_mut().zip(&self[first..]) {
            *o = p.hash(key).wrapping_mul(POLY_SPREAD);
        }
    }
}

/// Rows hashed per block; sketches deeper than this hash a key in several
/// blocks.
const BLOCK: usize = 64;

/// Hashes `key` under all `depth` rows, [`BLOCK`] rows at a time through
/// `buf` (at least `min(depth, BLOCK)` long), and calls
/// `f(first_row, hashes)` for each block in row order.
#[inline(always)]
fn hash_blocks<R: RowBlock + ?Sized>(
    rows: &R,
    depth: usize,
    key: u64,
    buf: &mut [u64],
    mut f: impl FnMut(usize, &[u64]),
) {
    // One block covers every sketch shape in use. Without this separate
    // path the block loop's bookkeeping costs a third of `fill_plan`.
    if depth <= BLOCK {
        let out = &mut buf[..depth];
        rows.hash_rows(key, 0, out);
        f(0, out);
        return;
    }
    for first in (0..depth).step_by(BLOCK) {
        let out = &mut buf[..BLOCK.min(depth - first)];
        rows.hash_rows(key, first, out);
        f(first, out);
    }
}

/// Writes `key`'s flat offsets and signs under every row into one slot's
/// `offsets` and `signs` (each `depth` long).
#[inline(always)]
fn write_slot<R: RowBlock + ?Sized>(
    rows: &R,
    width: u32,
    key: u64,
    offsets: &mut [u32],
    signs: &mut [f64],
    buf: &mut [u64],
) {
    let w = u64::from(width);
    let width = width as usize;
    hash_blocks(rows, offsets.len(), key, buf, |first, hashes| {
        let offsets = &mut offsets[first..first + hashes.len()];
        for (j, (o, &h)) in offsets.iter_mut().zip(hashes).enumerate() {
            *o = ((first + j) * width + split_bucket_sign(h, w).bucket as usize) as u32;
        }
        for (s, &h) in signs[first..].iter_mut().zip(hashes) {
            *s = split_bucket_sign(h, w).sign;
        }
    });
}

/// Fills a freshly reset `plan` with one slot per key, in key order,
/// writing each slot in place (`reset` sized the buffers; growing them
/// per key costs a sixth of `fill_plan` more).
#[inline(always)]
fn fill_slots<R: RowBlock + ?Sized>(rows: &R, width: u32, plan: &mut CoordPlan, keys: &[u32]) {
    let depth = plan.depth;
    let slots = plan
        .offsets
        .chunks_exact_mut(depth)
        .zip(plan.signs.chunks_exact_mut(depth));
    for (&key, (offsets, signs)) in keys.iter().zip(slots) {
        write_slot(
            rows,
            width,
            u64::from(key),
            offsets,
            signs,
            &mut plan.hashes,
        );
    }
    plan.nnz = keys.len();
}

/// Appends `key`'s coordinates under every row to `plan` as a new slot,
/// pushing them (for one key this beats resizing and writing in place).
#[inline(always)]
fn push_slot<R: RowBlock + ?Sized>(rows: &R, width: u32, plan: &mut CoordPlan, key: u64) -> usize {
    let w = u64::from(width);
    let width = width as usize;
    let slot = plan.nnz;
    plan.nnz += 1;
    let CoordPlan {
        offsets,
        signs,
        hashes,
        depth,
        ..
    } = plan;
    hash_blocks(rows, *depth, key, hashes, |first, hashes| {
        for (j, &h) in (first..).zip(hashes) {
            let bs = split_bucket_sign(h, w);
            offsets.push((j * width + bs.bucket as usize) as u32);
            signs.push(bs.sign);
        }
    });
    slot
}

/// The full set of row hashers for a depth-`s` sketch.
///
/// Under tabulation the rows share one row-interleaved table
/// (see [`crate::tabulation`]), so a key's bucket and sign in every row come
/// from one contiguous pass — four lookups per row-vector for keys below
/// `2^32` — instead of one table walk per row. Row `j` hashes exactly as
/// `RowHasher::new(kind, width, seed_j)` does for the `j`-th seed drawn
/// from `SplitMix64::new(seed)`.
///
/// Cloning copies the row hash functions byte for byte, so a clone assigns
/// every key the same cells and signs — the property sharded learners rely
/// on to keep per-shard sketches merge-compatible.
#[derive(Clone)]
pub struct RowHashers {
    rows: Rows,
    width: u32,
}

impl std::fmt::Debug for RowHashers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHashers")
            .field("depth", &self.depth())
            .field("width", &self.width)
            .finish()
    }
}

impl RowHashers {
    /// Builds `depth` independent row hashers of the given `width`,
    /// deterministically seeded from `seed`.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`, or if `depth × width`
    /// overflows the `u32` cell-offset space used by [`CoordPlan`].
    #[must_use]
    pub fn new(kind: HashFamilyKind, depth: u32, width: u32, seed: u64) -> Self {
        assert!(depth > 0, "sketch depth must be nonzero");
        assert!(width > 0, "sketch row width must be nonzero");
        assert!(
            u64::from(depth) * u64::from(width) <= u64::from(u32::MAX),
            "sketch cell count {depth}×{width} exceeds the u32 offset space"
        );
        let mut seeds = SplitMix64::new(seed);
        let rows = match kind {
            HashFamilyKind::Tabulation => {
                let row_seeds: Vec<u64> = (0..depth).map(|_| seeds.next_u64()).collect();
                Rows::Tab(TabulationRows::new(&row_seeds))
            }
            HashFamilyKind::Polynomial(k) => Rows::Poly(
                (0..depth)
                    .map(|_| PolyHash::new(k, seeds.next_u64()))
                    .collect(),
            ),
        };
        Self { rows, width }
    }

    /// Number of rows (sketch depth).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Row width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Heap bytes the row hash functions own. For the tabulation default
    /// this is 16 KiB *per row* (plus an 8-byte folding constant) —
    /// typically far more than a small sketch's cell array, and the
    /// reason a memory-governed registry must not cost models by the
    /// paper's §7.1 figure alone (hashers rebuild deterministically from
    /// the config seed, so spilling a model to disk reclaims this in
    /// full).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        match &self.rows {
            Rows::Tab(t) => t.resident_bytes(),
            Rows::Poly(v) => {
                v.capacity() * std::mem::size_of::<PolyHash>()
                    + v.iter().map(PolyHash::resident_bytes).sum::<usize>()
            }
        }
    }

    /// The bucket and sign row `j` assigns to `key`.
    ///
    /// # Panics
    /// Panics if `j >= depth`.
    #[inline]
    #[must_use]
    pub fn bucket_sign(&self, j: usize, key: u64) -> BucketSign {
        split_bucket_sign(self.rows.raw(j, key), u64::from(self.width))
    }

    /// The bucket row `j` assigns to `key` (unsigned sketches). Matches
    /// [`RowHashers::bucket_sign`]'s bucket: the sign bit is excluded from
    /// the reduction.
    #[inline]
    #[must_use]
    pub fn bucket(&self, j: usize, key: u64) -> u32 {
        fast_range(self.rows.raw(j, key) << 1, u64::from(self.width)) as u32
    }

    /// Iterates over `(row_index, BucketSign)` for a feature key.
    ///
    /// This is the *reference* path: it hashes each row separately. The
    /// batch entry points below hash all of a key's rows in one pass; the
    /// fused sketch updates and the learners' margins use those.
    #[inline]
    pub fn bucket_signs(&self, key: u64) -> impl Iterator<Item = (usize, BucketSign)> + '_ {
        (0..self.rows.len()).map(move |j| (j, self.bucket_sign(j, key)))
    }

    /// Hashes one key under every row through a per-call buffer; see
    /// [`hash_blocks`].
    #[inline(always)]
    fn hash_key(&self, key: u64, f: impl FnMut(usize, &[u64])) {
        let buf = &mut [0; BLOCK];
        let depth = self.rows.len();
        match &self.rows {
            Rows::Tab(t) => hash_blocks(t, depth, key, buf, f),
            Rows::Poly(p) => hash_blocks(p.as_slice(), depth, key, buf, f),
        }
    }

    /// Calls `f(flat_offset, sign)` for every row's cell of `key`, in row
    /// order, where `flat_offset = row × width + bucket` indexes a
    /// row-major cell array. All rows come from one hashing pass.
    #[inline]
    pub fn for_each_coord<F: FnMut(usize, f64)>(&self, key: u64, mut f: F) {
        let width = self.width as usize;
        let w = u64::from(self.width);
        self.hash_key(key, |first, hashes| {
            for (j, &h) in (first..).zip(hashes) {
                let bs = split_bucket_sign(h, w);
                f(j * width + bs.bucket as usize, bs.sign);
            }
        });
    }

    /// Calls `f(flat_offset)` for every row's cell of `key` (unsigned
    /// sketches), in row order. Buckets match [`RowHashers::bucket`].
    #[inline]
    pub fn for_each_bucket<F: FnMut(usize)>(&self, key: u64, mut f: F) {
        let width = self.width as usize;
        let w = u64::from(self.width);
        self.hash_key(key, |first, hashes| {
            for (j, &h) in (first..).zip(hashes) {
                f(j * width + fast_range(h << 1, w) as usize);
            }
        });
    }

    /// Rebuilds `plan` to cover `keys`, hashing each key's rows in one
    /// pass. The family dispatch happens once per call, not per key, and
    /// the plan's buffers are reused, so steady-state calls do not
    /// allocate.
    pub fn fill_plan(&self, plan: &mut CoordPlan, keys: &[u32]) {
        plan.reset(self.rows.len(), keys.len());
        match &self.rows {
            Rows::Tab(t) => fill_slots(t, self.width, plan, keys),
            Rows::Poly(p) => fill_slots(p.as_slice(), self.width, plan, keys),
        }
    }

    /// Starts an empty plan for incremental [`RowHashers::plan_push`] use
    /// (the AWM-Sketch plans only the features outside its active set).
    pub fn begin_plan(&self, plan: &mut CoordPlan) {
        plan.reset(self.rows.len(), 0);
    }

    /// Appends one key's coordinates to `plan`, returning its slot index.
    pub fn plan_push(&self, plan: &mut CoordPlan, key: u64) -> usize {
        match &self.rows {
            Rows::Tab(t) => push_slot(t, self.width, plan, key),
            Rows::Poly(p) => push_slot(p.as_slice(), self.width, plan, key),
        }
    }
}

/// Cached per-example sketch coordinates — the heart of the single-hash
/// update pipeline.
///
/// For each planned key ("slot") the plan stores, per sketch row, the flat
/// cell offset `row × width + bucket` and the ±1 sign, laid out
/// slot-major so one slot's coordinates are a contiguous run. A sketch
/// update builds the plan once per example ([`RowHashers::fill_plan`]) and
/// then replays it for the margin dot-product, the gradient scatter, and
/// the post-scatter median re-estimation, instead of re-hashing the
/// example's features for each pass.
///
/// The plan also owns the median scratch buffer, so estimate recovery
/// during updates never allocates — including at depths past the stack
/// buffer limit of the cold-path [`wmsketch-sketch`] helper.
///
/// All buffers are retained across [`CoordPlan::reset`] calls; steady-state
/// updates do no allocation at all.
///
/// # Bit identity
///
/// The plan's coordinates are the per-row ones: row `j` of a slot holds
/// exactly [`RowHashers::bucket_sign`]`(j, key)`, although the batch
/// paths compute all rows at once from the row-interleaved table and, for
/// keys below `2^32`, fold the four zero high bytes into one per-row
/// constant (the `known_answer` tests of `wmsketch-hashing` pin the hash
/// values).
///
/// The WM- and AWM-Sketch fused updates replay a plan through the slot
/// methods below and must leave state bit-identical to their naive
/// per-row traversals (the golden `fused ≡ naive` tests in
/// `wmsketch-core` pin this). The slot loops keep that only while:
///
/// * the projection folds `acc += s * c` in row order, never in partial
///   sums or another association;
/// * per-element values use exactly `scale * s * c` (left-associated)
///   and scatters exactly `c + s * delta`;
/// * no multiply-add is contracted into one rounding (`f64::mul_add`
///   or an FMA), which changes the low bits.
#[derive(Default, Clone)]
pub struct CoordPlan {
    /// `nnz × depth` flat cell offsets, slot-major.
    offsets: Vec<u32>,
    /// `nnz × depth` signs, parallel to `offsets`.
    signs: Vec<f64>,
    /// Rows per slot.
    depth: usize,
    /// Number of planned keys.
    nnz: usize,
    /// Depth-sized scratch for median recovery.
    scratch: Vec<f64>,
    /// One block of raw row hashes of the key being planned. Owned by the
    /// plan so that [`RowHashers::plan_push`], called once per key, does
    /// not zero a fresh stack buffer per key: at depth 1 that zeroing cost
    /// more than the hashing it served.
    hashes: Vec<u64>,
}

impl std::fmt::Debug for CoordPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordPlan")
            .field("depth", &self.depth)
            .field("nnz", &self.nnz)
            .finish()
    }
}

impl CoordPlan {
    /// An empty plan; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the plan and reserves room for `nnz` keys of `depth` rows.
    ///
    /// The buffers are sized to `nnz` slots up front, without clearing:
    /// every slot is overwritten when its key is planned, so only growth
    /// past the previous length writes fill values.
    fn reset(&mut self, depth: usize, nnz: usize) {
        self.depth = depth;
        self.nnz = 0;
        self.offsets.resize(depth * nnz, 0);
        self.signs.resize(depth * nnz, 0.0);
        self.hashes.resize(depth.min(BLOCK), 0);
    }

    /// Number of planned keys.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Heap bytes the plan's retained buffers own (offsets, signs, the
    /// median scratch, and the row-hash block) — instance-owned working state that the §7.1
    /// memory model deliberately excludes but truthful resident
    /// accounting must include.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.signs.capacity() * std::mem::size_of::<f64>()
            + self.scratch.capacity() * std::mem::size_of::<f64>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
    }

    /// Rows per key.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The flat offsets and signs of slot `slot`, each of length `depth`.
    ///
    /// # Panics
    /// Panics if `slot >= nnz`.
    #[inline]
    #[must_use]
    pub fn coords(&self, slot: usize) -> (&[u32], &[f64]) {
        let lo = slot * self.depth;
        let hi = lo + self.depth;
        (&self.offsets[lo..hi], &self.signs[lo..hi])
    }

    /// The sign-corrected dot of slot `slot` against a cell array:
    /// `Σ_j signs[j] · cells[offsets[j]]`, accumulated in row order.
    ///
    /// # Panics
    /// Panics if `slot >= nnz` or `cells` is shorter than the sketch.
    #[inline]
    #[must_use]
    pub fn slot_projection(&self, slot: usize, cells: &[f64]) -> f64 {
        let (offsets, signs) = self.coords(slot);
        let mut acc = 0.0;
        for (&o, &s) in offsets.iter().zip(signs) {
            acc += s * cells[o as usize];
        }
        acc
    }

    /// Adds `signs[j] · delta` to each of slot `slot`'s cells, in row
    /// order.
    ///
    /// # Panics
    /// Panics if `slot >= nnz` or `cells` is shorter than the sketch.
    #[inline]
    pub fn slot_scatter(&self, slot: usize, cells: &mut [f64], delta: f64) {
        let (offsets, signs) = self.coords(slot);
        for (&o, &s) in offsets.iter().zip(signs) {
            cells[o as usize] += s * delta;
        }
    }

    /// Fills the plan-owned scratch with slot `slot`'s sign-corrected
    /// scaled cell values — `scale · signs[j] · cells[offsets[j]]` for each
    /// row `j` — and returns it mutably, ready for in-place median
    /// selection. No allocation at any depth once the scratch has grown.
    ///
    /// The median itself lives in `wmsketch-sketch` (`median_inplace`);
    /// keeping it there avoids duplicating the estimator's tie/ordering
    /// conventions across crates.
    #[inline]
    pub fn slot_values(&mut self, slot: usize, cells: &[f64], scale: f64) -> &mut [f64] {
        let lo = slot * self.depth;
        let hi = lo + self.depth;
        self.scratch.clear();
        self.scratch.resize(self.depth, 0.0);
        let coords = self.offsets[lo..hi].iter().zip(&self.signs[lo..hi]);
        for ((&o, &s), v) in coords.zip(&mut self.scratch) {
            *v = scale * s * cells[o as usize];
        }
        &mut self.scratch
    }

    /// Fused scatter + re-estimation gather: adds `signs[j] · delta` to
    /// each of slot `slot`'s cells and, in the same pass, fills the
    /// plan-owned scratch with the *post-update* sign-corrected scaled
    /// values (`scale · signs[j] · cells[offsets[j]]`), returning the
    /// scratch for in-place median selection.
    ///
    /// A slot's offsets land in distinct sketch rows and therefore distinct
    /// cells, so reading each cell immediately after its own write is
    /// bit-identical to a separate [`CoordPlan::slot_scatter`] followed by
    /// [`CoordPlan::slot_values`].
    #[inline]
    pub fn slot_scatter_and_values(
        &mut self,
        slot: usize,
        cells: &mut [f64],
        delta: f64,
        scale: f64,
    ) -> &mut [f64] {
        let lo = slot * self.depth;
        let hi = lo + self.depth;
        self.scratch.clear();
        self.scratch.resize(self.depth, 0.0);
        let coords = self.offsets[lo..hi].iter().zip(&self.signs[lo..hi]);
        for ((&o, &s), v) in coords.zip(&mut self.scratch) {
            let cell = &mut cells[o as usize];
            *cell += s * delta;
            *v = scale * s * *cell;
        }
        &mut self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_in_range_and_signs_unit() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let h = RowHasher::new(kind, 37, 12);
            for key in 0..5000u64 {
                let bs = h.bucket_sign(key);
                assert!(bs.bucket < 37);
                assert!(bs.sign == 1.0 || bs.sign == -1.0);
            }
        }
    }

    #[test]
    fn signs_are_balanced() {
        let h = RowHasher::new(HashFamilyKind::Tabulation, 64, 5);
        let n = 100_000u64;
        let pos = (0..n).filter(|&k| h.bucket_sign(k).sign > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive-sign fraction {frac}");
    }

    #[test]
    fn buckets_are_balanced() {
        let w = 32u32;
        let h = RowHasher::new(HashFamilyKind::Tabulation, w, 77);
        let n = 320_000u64;
        let mut counts = vec![0u32; w as usize];
        for k in 0..n {
            counts[h.bucket_sign(k).bucket as usize] += 1;
        }
        let expected = n as f64 / f64::from(w);
        for &c in &counts {
            assert!((f64::from(c) - expected).abs() / expected < 0.05);
        }
    }

    #[test]
    fn bucket_matches_bucket_sign_bucket() {
        // Regression test: `bucket` once fed the sign bit into the range
        // reduction, so unsigned and signed users of the same row disagreed
        // on bucket assignment.
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let h = RowHasher::new(kind, 53, 21);
            for key in 0..20_000u64 {
                assert_eq!(h.bucket(key), h.bucket_sign(key).bucket, "key {key}");
            }
            let hs = RowHashers::new(kind, 3, 53, 21);
            for key in 0..2_000u64 {
                for j in 0..3 {
                    assert_eq!(hs.bucket(j, key), hs.bucket_sign(j, key).bucket);
                }
            }
        }
    }

    #[test]
    fn rows_are_mutually_independent_looking() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 4, 256, 3);
        // Two distinct rows should disagree on buckets for most keys.
        let agree = (0..10_000u64)
            .filter(|&k| hs.bucket_sign(0, k).bucket == hs.bucket_sign(1, k).bucket)
            .count();
        // Chance agreement is 1/256 ≈ 39 of 10k.
        assert!(agree < 200, "rows agree on {agree} of 10000 keys");
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = RowHashers::new(HashFamilyKind::Tabulation, 3, 128, 99);
        let b = RowHashers::new(HashFamilyKind::Tabulation, 3, 128, 99);
        for k in 0..100u64 {
            for j in 0..3 {
                assert_eq!(a.bucket_sign(j, k), b.bucket_sign(j, k));
            }
        }
    }

    #[test]
    fn rowhashers_match_single_row_hashers() {
        // RowHashers must agree with RowHasher built from the same derived
        // seeds — i.e. the typed-storage refactor preserved the seeding.
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(3)] {
            let hs = RowHashers::new(kind, 4, 64, 123);
            let mut seeds = SplitMix64::new(123);
            for j in 0..4usize {
                let single = RowHasher::new(kind, 64, seeds.next_u64());
                for k in 0..500u64 {
                    assert_eq!(hs.bucket_sign(j, k), single.bucket_sign(k));
                }
            }
        }
    }

    #[test]
    fn for_each_coord_matches_bucket_signs() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            let hs = RowHashers::new(kind, 5, 48, 9);
            for key in 0..1000u64 {
                let mut coords = Vec::new();
                hs.for_each_coord(key, |offset, sign| coords.push((offset, sign)));
                let expect: Vec<(usize, f64)> = hs
                    .bucket_signs(key)
                    .map(|(j, bs)| (j * 48 + bs.bucket as usize, bs.sign))
                    .collect();
                assert_eq!(coords, expect);
                let mut buckets = Vec::new();
                hs.for_each_bucket(key, |offset| buckets.push(offset));
                let expect: Vec<usize> = expect.iter().map(|&(offset, _)| offset).collect();
                assert_eq!(buckets, expect);
            }
        }
    }

    #[test]
    fn plan_matches_reference_traversal() {
        for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
            for depth in [1u32, 3, 7, 80] {
                let hs = RowHashers::new(kind, depth, 96, 4);
                let keys: Vec<u32> = vec![0, 5, 17, 96, 1000, u32::MAX];
                let mut plan = CoordPlan::new();
                hs.fill_plan(&mut plan, &keys);
                assert_eq!(plan.nnz(), keys.len());
                assert_eq!(plan.depth(), depth as usize);
                for (slot, &key) in keys.iter().enumerate() {
                    let (offsets, signs) = plan.coords(slot);
                    for (j, bs) in hs.bucket_signs(u64::from(key)) {
                        assert_eq!(
                            offsets[j] as usize,
                            j * 96 + bs.bucket as usize,
                            "kind {kind:?} depth {depth} key {key} row {j}"
                        );
                        assert_eq!(signs[j], bs.sign);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_plan_matches_batch_plan() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 4, 64, 77);
        let keys: Vec<u32> = vec![3, 9, 81, 6561];
        let mut batch = CoordPlan::new();
        hs.fill_plan(&mut batch, &keys);
        let mut inc = CoordPlan::new();
        hs.begin_plan(&mut inc);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(hs.plan_push(&mut inc, u64::from(k)), i);
        }
        assert_eq!(inc.nnz(), batch.nnz());
        for slot in 0..keys.len() {
            assert_eq!(inc.coords(slot), batch.coords(slot));
        }
    }

    #[test]
    fn slot_helpers_project_scatter_and_fill_scratch() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 5, 32, 8);
        let mut plan = CoordPlan::new();
        hs.fill_plan(&mut plan, &[7]);
        let mut cells = vec![0.0f64; 5 * 32];
        plan.slot_scatter(0, &mut cells, 2.5);
        // Projection undoes the signs: 5 rows × 2.5.
        assert_eq!(plan.slot_projection(0, &cells), 12.5);
        // Sign-corrected scaled values are all 2 × 2.5.
        assert_eq!(plan.slot_values(0, &cells, 2.0), &[5.0; 5]);
    }

    #[test]
    fn fused_scatter_and_values_matches_separate_calls() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 7, 64, 5);
        let mut plan_a = CoordPlan::new();
        let mut plan_b = CoordPlan::new();
        hs.fill_plan(&mut plan_a, &[11, 22, 33]);
        hs.fill_plan(&mut plan_b, &[11, 22, 33]);
        let mut cells_a: Vec<f64> = (0..7 * 64).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut cells_b = cells_a.clone();
        for slot in 0..3 {
            let delta = 0.25 * (slot as f64 + 1.0);
            let fused: Vec<f64> = plan_a
                .slot_scatter_and_values(slot, &mut cells_a, delta, 2.5)
                .to_vec();
            plan_b.slot_scatter(slot, &mut cells_b, delta);
            let separate = plan_b.slot_values(slot, &cells_b, 2.5).to_vec();
            assert_eq!(fused, separate);
        }
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn plan_is_reusable_without_leaking_previous_contents() {
        let hs = RowHashers::new(HashFamilyKind::Tabulation, 2, 64, 1);
        let mut plan = CoordPlan::new();
        hs.fill_plan(&mut plan, &[1, 2, 3, 4, 5]);
        hs.fill_plan(&mut plan, &[9]);
        assert_eq!(plan.nnz(), 1);
        let (offsets, signs) = plan.coords(0);
        assert_eq!(offsets.len(), 2);
        assert_eq!(signs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "width must be nonzero")]
    fn zero_width_panics() {
        let _ = RowHasher::new(HashFamilyKind::Tabulation, 0, 1);
    }

    #[test]
    #[should_panic(expected = "depth must be nonzero")]
    fn zero_depth_panics() {
        let _ = RowHashers::new(HashFamilyKind::Tabulation, 0, 4, 1);
    }
}
