//! Tight scan kernels over column slices.
//!
//! These loops are the "fast scans" the paper's setting assumes. All of
//! them take *inclusive* value bounds `[lo, hi]`, matching how zonemap
//! `(min, max)` metadata is compared against predicates, and walk the
//! slice in 64-row blocks (`LANES`) plus one short tail block.
//!
//! ## One family, generic over liveness and by-product
//!
//! Every aggregate has one body ([`count`], [`sum`], [`aggregate`],
//! [`collect`]), generic over two things the caller picks per scan:
//!
//! * a [`Liveness`] source plus the row of `data[0]` in its coordinates:
//!   [`AllLive`] answers with constants, so the masking folds away and
//!   the kernel compiles to the bare loop; a `&DeleteVector` costs one
//!   [`DeleteVector::live_window`] load per block, and only blocks that
//!   hold a tombstone do any extra work;
//! * a [`ByProduct`] fed **every** row of the slice — what a skipping
//!   index can earn from a scan the query had to run anyway: [`Bounds`]
//!   (exact `(min, max)`), [`Bins`] (a 64-bin value mask), both as a
//!   pair, or [`NoByProduct`], whose hook is empty so only the answer is
//!   computed. The fold is not free — the `i64` count loop runs at
//!   roughly 0.2 ns/row lean and 0.45 with `Bounds` — which is why it is
//!   the caller's choice and not a fixed part of the loop.
//!
//! The `(data, lo, hi)` functions ([`count_in_range`],
//! [`count_in_range_with_minmax`], [`aggregate_in_range`], ...) are the
//! all-live shorthands of the same bodies with a by-product plugged in.
//! Under deletes the answer — count, sum, MIN/MAX of the matches,
//! positions — covers **live** qualifying rows, while by-products still
//! cover *all* rows, so zonemap bounds stay sound-but-conservative over
//! tombstones until compaction re-tightens them.
//!
//! ## Formulations, chosen by measurement
//!
//! The fastest loop shape depends on the aggregate, the value width, the
//! selectivity and the instruction set. On x86-64 the workspace is built
//! for x86-64-v3 (AVX2, BMI2, FMA: Haswell / Zen or newer; the root
//! `.cargo/config.toml`), which compares and shifts four 64-bit lanes at
//! a time, and each body uses what `kernels_json` measured fastest there.
//! That bench fails when a production cell drops below 0.9x the per-row
//! [`scalar`] reference. Any other target compiles the same code and gets
//! the same answers (a baseline x86-64 build is tested for that); it is
//! just not what the shapes were chosen on.
//!
//! * **One compare per row.** A range test is `v - lo <= hi - lo` on
//!   unsigned key offsets ([`DataValue::in_span_total`]), with `lo <= hi`
//!   checked once per block.
//! * **Counting never builds a mask.** [`count`] adds the test results
//!   of a block up in packed lanes (`InRange::count`). Tombstones are
//!   un-counted afterwards, one dead qualifier at a time.
//! * **Mask consumers test branch-free at every selectivity**
//!   (`InRange::mask`) and consume the mask in word units. SUM and
//!   MIN/MAX of the matches fold the selected rows by their set bits when
//!   the mask is sparse and row by row, with a select, when it is dense
//!   (`for_each_selected`); either way in ascending row order, so `f64`
//!   sums are bit-identical to the reference.
//! * **By-products get a pass of their own** over each 4096-row stretch,
//!   just before its blocks are tested (`for_each_block!`): a packed
//!   `(min, max)` fold is then reduced once per stretch, not once per
//!   block, and the block pass reads the stretch from L1.
//! * **MIN/MAX folds run in key space** ([`DataValue::total_key`]): an
//!   integer compare-and-select per row, never a float `total_cmp` on the
//!   loop-carried value.

use crate::bitmap::Bitmap;
use crate::mutation::DeleteVector;
use crate::types::DataValue;
use std::mem::size_of;

/// Lanes per block: one qualifying bit per lane fills exactly one `u64`.
const LANES: usize = 64;

/// One past the largest row position representable in the `u32` position
/// lists ([`collect_in_range`], [`Bitmap::to_positions`]). Columns at or
/// above this row count must grow the position type before they can use
/// positional kernels; the guard asserts instead of silently truncating.
const MAX_ADDRESSABLE_ROWS: usize = u32::MAX as usize + 1;

/// Guards the `u32` position encoding: `base + len` rows must stay within
/// [`MAX_ADDRESSABLE_ROWS`].
#[inline]
fn assert_positions_addressable(base: usize, len: usize) {
    assert!(
        base + len <= MAX_ADDRESSABLE_ROWS,
        "rows {base}..{} exceed the u32 position ceiling ({MAX_ADDRESSABLE_ROWS} rows)",
        base + len
    );
}

// ------------------------------------------------------------- liveness

/// Which rows of a column are live. The kernels are generic over this, so
/// the all-live case costs nothing and the masked case shares the body.
pub trait Liveness: Copy {
    /// True when the source can never report a dead row.
    const ALL_LIVE: bool;

    /// The 64-row liveness window starting at row `bit`: result bit `i`
    /// is `1` iff row `bit + i` is live.
    fn window(self, bit: usize) -> u64;

    /// Number of live rows in `start..end`.
    fn live_count(self, start: usize, end: usize) -> usize;

    /// Panics unless the source addresses rows `base..base + len`.
    fn assert_covers(self, base: usize, len: usize);
}

/// The liveness source of a column without tombstones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllLive;

impl Liveness for AllLive {
    const ALL_LIVE: bool = true;

    #[inline(always)]
    fn window(self, _bit: usize) -> u64 {
        u64::MAX
    }

    #[inline(always)]
    fn live_count(self, start: usize, end: usize) -> usize {
        end - start
    }

    #[inline(always)]
    fn assert_covers(self, _base: usize, _len: usize) {}
}

impl Liveness for &DeleteVector {
    const ALL_LIVE: bool = false;

    #[inline(always)]
    fn window(self, bit: usize) -> u64 {
        self.live_window(bit)
    }

    #[inline]
    fn live_count(self, start: usize, end: usize) -> usize {
        self.live_count_in_range(start, end)
    }

    #[inline]
    fn assert_covers(self, base: usize, len: usize) {
        assert!(
            base + len <= self.len(),
            "rows {base}..{} exceed delete vector of {} rows",
            base + len,
            self.len()
        );
    }
}

// -------------------------------------------------------- block helpers

/// Bits `0..n` set, for `1 <= n <= 64`.
#[inline(always)]
fn low_bits(n: usize) -> u64 {
    u64::MAX >> (LANES - n)
}

/// Rows per stretch: the unit a by-product is folded over, in a pass of
/// its own ahead of the stretch's blocks. Long enough that the packed
/// accumulators of a `(min, max)` fold are reduced rarely, short enough
/// (32 KB of 8-byte values) that the block pass after it reads the
/// stretch from L1. A multiple of [`LANES`], so blocks never straddle two
/// stretches.
const STRETCH: usize = 64 * LANES;

/// Feeds every row of `$data` to the by-product `$by`, then runs `$body`
/// for every full 64-row block and once more for the short tail block,
/// if any (blocks are never empty). In `$body`, `$block` is the block's
/// rows, `$bit` its first row in `$live`'s coordinates (`$base` is the
/// row of `data[0]`), and `$dead` has bit `i` set iff `block[i]` is
/// tombstoned — zero at and past `block.len()`, and the constant zero for
/// [`AllLive`]. A macro rather than a closure so that both copies of the
/// body are inlined by construction and the full-block copy sees a
/// compile-time length of 64.
///
/// The by-product is folded stretch by stretch ([`STRETCH`]) in its own
/// loop: fused into the block loop, its packed accumulators were reduced
/// once per 64 rows, and that reduction cost more than reading the
/// stretch twice. With [`NoByProduct`] the fold is empty.
macro_rules! for_each_block {
    ($data:expr, $base:expr, $live:expr, $by:expr, |$block:ident, $bit:ident, $dead:ident| $body:block) => {{
        let (data, live, by) = ($data, $live, $by);
        live.assert_covers($base, data.len());
        let mut $bit: usize = $base;
        for stretch in data.chunks(STRETCH) {
            stretch.iter().for_each(|&v| by.push(v));
            let mut chunks = stretch.chunks_exact(LANES);
            for $block in chunks.by_ref() {
                let $dead: u64 = !live.window($bit);
                $body
                $bit += LANES;
            }
            let $block = chunks.remainder();
            if !$block.is_empty() {
                let $dead: u64 = !live.window($bit) & low_bits($block.len());
                $body
            }
        }
    }};
}

/// Calls `f(i)` for every set bit `i` of `mask`, ascending.
#[inline(always)]
fn for_each_set(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1; // clear lowest set bit
    }
}

/// The inclusive range `[lo, hi]` prepared for row tests in offset form
/// ([`DataValue::in_span_total`]): one subtract and one unsigned compare
/// per row instead of two compares. An equality predicate is the same
/// single compare, so point queries need no separate path.
#[derive(Clone, Copy)]
struct InRange<T: DataValue> {
    lo: T,
    hi: T,
    /// `lo <= hi`; the offset test is only meaningful when it holds, so
    /// the block helpers answer an empty range without looking at rows.
    nonempty: bool,
}

impl<T: DataValue> InRange<T> {
    #[inline(always)]
    fn new(lo: T, hi: T) -> Self {
        InRange {
            lo,
            hi,
            nonempty: lo.le_total(&hi),
        }
    }

    /// The offset test alone: correct for a non-empty range.
    #[inline(always)]
    fn holds_unchecked(&self, v: T) -> bool {
        v.in_span_total(&self.lo, &self.hi)
    }

    /// `lo <= v <= hi` under the total order.
    #[inline(always)]
    fn holds(&self, v: T) -> bool {
        self.nonempty & self.holds_unchecked(v)
    }

    /// Qualifying rows of one block, without materialising a mask: the
    /// test results are added up in packed lanes. The counter is as wide
    /// as the lanes, so compare and add stay in the same register shape.
    #[inline(always)]
    fn count(&self, block: &[T]) -> usize {
        if !self.nonempty {
            return 0;
        }
        if size_of::<T>() >= 8 {
            block
                .iter()
                .map(|&v| self.holds_unchecked(v) as usize)
                .sum()
        } else {
            block
                .iter()
                .map(|&v| self.holds_unchecked(v) as u32)
                .sum::<u32>() as usize
        }
    }

    /// The per-block predicate mask of the rows `dead` does not
    /// tombstone: bit `i` of the result is set when `block[i]` lies in the
    /// range; bits at and past `block.len()` are zero.
    ///
    /// The mask is built branch-free at every selectivity, in the shape
    /// that packs the compare results fastest for the lane width. 8-byte
    /// lanes shift each result to its bit and OR them together, which
    /// x86-64-v3 does four lanes at a time (`vpsllvq`). Narrower lanes
    /// write one 0/1 byte per lane first — a loop with no
    /// cross-iteration dependency, eight or more packed compares per
    /// instruction — and then eight multiply-packs fold each 8-byte group
    /// into 8 mask bits; widening their results to 64-bit shift lanes
    /// measured 1.3-1.4x slower.
    #[inline(always)]
    fn mask(&self, block: &[T], dead: u64) -> u64 {
        debug_assert!((1..=LANES).contains(&block.len()));
        if !self.nonempty {
            return 0;
        }
        let mut mask = 0u64;
        if size_of::<T>() >= 8 {
            for (i, &v) in block.iter().enumerate() {
                mask |= (self.holds_unchecked(v) as u64) << i;
            }
        } else {
            let mut lanes = [0u8; LANES];
            for (b, &v) in lanes.iter_mut().zip(block) {
                *b = self.holds_unchecked(v) as u8;
            }
            for (w, group) in lanes.chunks_exact(8).enumerate() {
                // invariant: chunks_exact(8) yields exactly 8 bytes per group.
                let word = u64::from_le_bytes(group.try_into().expect("chunks_exact(8)"));
                mask |= (word.wrapping_mul(PACK_MUL) >> 56) << (8 * w);
            }
        }
        mask & !dead
    }
}

/// Multiplier for the SWAR byte→bit pack: with eight 0/1 bytes packed
/// little-endian in a `u64`, `(w * PACK_MUL) >> 56` places byte `i`'s
/// value at bit `i` of the top byte (the portable movemask trick).
const PACK_MUL: u64 = 0x0102_0408_1020_4080;

/// What a scan computes over **every** row of the slice — qualifying or
/// not, live or not — beside its answer: the zone metadata a skipping
/// index earns from a scan the query had to run anyway. The kernels are
/// generic over this like they are over [`Liveness`]: with [`NoByProduct`]
/// the per-row hook folds away and the kernel compiles to the bare
/// answer loop, so metadata construction is paid only where the index
/// asked for it. `(A, B)` collects both by-products in the one pass.
pub trait ByProduct<T: DataValue> {
    /// Folds one row in.
    fn push(&mut self, v: T);
}

/// The by-product of a scan nobody can learn from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoByProduct;

impl<T: DataValue> ByProduct<T> for NoByProduct {
    #[inline(always)]
    fn push(&mut self, _v: T) {}
}

/// A running `(min, max)` over rows — as a by-product, the exact bounds
/// of the scanned slice. Folded in key space ([`DataValue::total_key`]):
/// one integer compare-and-select per row and bound, where folding the
/// values themselves would put a float `total_cmp` on the loop-carried
/// accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Bounds<T: DataValue> {
    min: T::Key,
    max: T::Key,
}

impl<T: DataValue> Bounds<T> {
    /// The fold identity `(MAX_VALUE, MIN_VALUE)`.
    #[inline(always)]
    pub fn new() -> Self {
        Bounds {
            min: T::MAX_VALUE.total_key(),
            max: T::MIN_VALUE.total_key(),
        }
    }

    /// Folds `v` in when `q` holds, with a select rather than a branch.
    #[inline(always)]
    fn push_if(&mut self, v: T, q: bool) {
        let key = v.total_key();
        self.min = if q { self.min.min(key) } else { self.min };
        self.max = if q { self.max.max(key) } else { self.max };
    }

    /// The folded `(min, max)` as values; the identity when no row was
    /// pushed.
    #[inline(always)]
    pub fn min_max(&self) -> (T, T) {
        (T::from_total_key(self.min), T::from_total_key(self.max))
    }
}

impl<T: DataValue> Default for Bounds<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: DataValue> ByProduct<T> for Bounds<T> {
    #[inline(always)]
    fn push(&mut self, v: T) {
        self.push_if(v, true);
    }
}

/// A 64-bit value-presence mask: bit `b` is set when some row's value
/// falls into equal-width bin `b` of `[bin_lo, bin_hi]` (in `to_f64`
/// space; values outside clamp to the edge bins). Dead rows feed it like
/// they feed [`Bounds`] — both are conservative-only metadata, and a dead
/// row's bin bit can at worst under-skip, never corrupt.
#[derive(Debug, Clone, Copy)]
pub struct Bins {
    lo: f64,
    scale: f64,
    mask: u64,
}

impl Bins {
    /// An empty mask over the layout `[bin_lo, bin_hi]`; a zero or
    /// negative span puts every value in bin 0.
    #[inline]
    pub fn new(bin_lo: f64, bin_hi: f64) -> Self {
        let span = bin_hi - bin_lo;
        Bins {
            lo: bin_lo,
            scale: if span > 0.0 { 64.0 / span } else { 0.0 },
            mask: 0,
        }
    }

    /// Bin index of `v` under this layout, clamped to `0..64`. The one
    /// definition of the binning: the side that tests a predicate against
    /// a collected mask must bin with this too, or a value on a bin edge
    /// could land one bin away from where the scan recorded it. Monotone
    /// in `v`, so a predicate's bins cover the bin of every value inside
    /// it.
    #[inline(always)]
    pub fn bin(&self, v: f64) -> u32 {
        // narrowing: clamp(0, 63) bounds the bin index below 64.
        ((v - self.lo) * self.scale).clamp(0.0, 63.0) as u32
    }

    /// The bins seen so far.
    #[inline(always)]
    pub fn mask(&self) -> u64 {
        self.mask
    }
}

impl<T: DataValue> ByProduct<T> for Bins {
    #[inline(always)]
    fn push(&mut self, v: T) {
        self.mask |= 1u64 << self.bin(v.to_f64());
    }
}

impl<T: DataValue, A: ByProduct<T>, B: ByProduct<T>> ByProduct<T> for (A, B) {
    #[inline(always)]
    fn push(&mut self, v: T) {
        self.0.push(v);
        self.1.push(v);
    }
}

/// Folds the rows of `block` that `mask` selects into `f`, in ascending
/// row order — the order the scalar reference adds in. `f(v, q)` must
/// fold `v` only when `q` holds, as a select and not a branch: a dense
/// mask (at least 7 of 8 rows) is consumed row by row with `q` read off
/// its bit, where finding the set bits one by one would put a bit
/// extraction in front of each dependent `f64` add; a sparse one visits
/// its set bits only, always with `q` true. A fully selected block takes
/// the plain loop. An `f64` sum accumulated either way is bit-identical
/// to the reference: the accumulator can never become `-0.0`, so adding
/// `+0.0` for a row that does not qualify is the same as skipping it.
#[inline(always)]
fn for_each_selected<T: DataValue>(block: &[T], mask: u64, mut f: impl FnMut(T, bool)) {
    if mask == low_bits(block.len()) {
        block.iter().for_each(|&v| f(v, true));
    } else if mask.count_ones() as usize * 8 >= block.len() * 7 {
        for (i, &v) in block.iter().enumerate() {
            f(v, mask >> i & 1 != 0);
        }
    } else {
        for_each_set(mask, |i| f(block[i], true));
    }
}

/// Appends `bit + i` for every set bit `i` of `mask` to `out`.
#[inline(always)]
fn push_positions(mask: u64, bit: usize, out: &mut Vec<u32>) {
    // narrowing: bit + 63 < MAX_ADDRESSABLE_ROWS by the callers' guard.
    let first = bit as u32;
    if mask == u64::MAX {
        out.extend(first..=first + (LANES as u32 - 1));
    } else {
        for_each_set(mask, |i| out.push(first + i as u32));
    }
}

// -------------------------------------------------------------- kernels

/// Counts the **live** values `v` of `data` with `lo <= v <= hi`, feeding
/// every row to `by`. `base` is the row of `data[0]` in `live`'s
/// coordinates.
///
/// With [`Bounds`] as the by-product this is the kernel adaptive zonemaps
/// materialise zone metadata with *as a by-product of a scan the query
/// had to perform anyway*; with [`NoByProduct`] it is the bare count.
///
/// # Panics
/// Panics if `live` does not address rows `base..base + data.len()`.
#[inline]
pub fn count<T: DataValue, L: Liveness, B: ByProduct<T>>(
    data: &[T],
    lo: T,
    hi: T,
    live: L,
    base: usize,
    by: &mut B,
) -> usize {
    let range = InRange::new(lo, hi);
    let mut count = 0usize;
    for_each_block!(data, base, live, by, |block, _bit, dead| {
        count += range.count(block);
        // Tombstones are rare: un-count the dead qualifiers one by one
        // instead of masking every row.
        for_each_set(dead, |i| count -= range.holds(block[i]) as usize);
    });
    count
}

/// [`count`] over an all-live slice, nothing else computed.
#[inline]
pub fn count_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> usize {
    count(data, lo, hi, AllLive, 0, &mut NoByProduct)
}

/// [`count`] over an all-live slice with the exact `(min, max)` over all
/// its rows: `(count, min, max)`, for an empty slice
/// `(0, MAX_VALUE, MIN_VALUE)`.
#[inline]
pub fn count_in_range_with_minmax<T: DataValue>(data: &[T], lo: T, hi: T) -> (usize, T, T) {
    let mut bounds = Bounds::new();
    let count = count(data, lo, hi, AllLive, 0, &mut bounds);
    let (min, max) = bounds.min_max();
    (count, min, max)
}

/// Appends the positions (`base + offset`) of **live** qualifying rows to
/// `out`, feeding every row to `by`; returns how many were appended.
///
/// # Panics
/// Panics if `base + data.len()` exceeds `MAX_ADDRESSABLE_ROWS` or the
/// rows `live` addresses.
#[inline]
pub fn collect<T: DataValue, L: Liveness, B: ByProduct<T>>(
    data: &[T],
    lo: T,
    hi: T,
    live: L,
    base: usize,
    out: &mut Vec<u32>,
    by: &mut B,
) -> usize {
    assert_positions_addressable(base, data.len());
    let range = InRange::new(lo, hi);
    let before = out.len();
    for_each_block!(data, base, live, by, |block, bit, dead| {
        push_positions(range.mask(block, dead), bit, out);
    });
    out.len() - before
}

/// [`collect`] over an all-live slice, nothing else computed.
#[inline]
pub fn collect_in_range<T: DataValue>(data: &[T], base: usize, lo: T, hi: T, out: &mut Vec<u32>) {
    collect(data, lo, hi, AllLive, base, out, &mut NoByProduct);
}

/// [`collect`] over an all-live slice with the exact `(min, max)` over
/// all its rows: `(appended, min, max)`.
#[inline]
pub fn collect_in_range_with_minmax<T: DataValue>(
    data: &[T],
    base: usize,
    lo: T,
    hi: T,
    out: &mut Vec<u32>,
) -> (usize, T, T) {
    let mut bounds = Bounds::new();
    let appended = collect(data, lo, hi, AllLive, base, out, &mut bounds);
    let (min, max) = bounds.min_max();
    (appended, min, max)
}

/// Sets the bits (`base + offset`) of qualifying values in `bm`, one
/// word-OR per 64-row block, feeding every row to `by`; returns how many
/// qualified.
#[inline]
fn fill_bitmap<T: DataValue, B: ByProduct<T>>(
    data: &[T],
    base: usize,
    lo: T,
    hi: T,
    bm: &mut Bitmap,
    by: &mut B,
) -> usize {
    assert!(
        base + data.len() <= bm.len(),
        "bitmap too small for scan output"
    );
    let range = InRange::new(lo, hi);
    let mut count = 0usize;
    for_each_block!(data, base, AllLive, by, |block, bit, dead| {
        let mask = range.mask(block, dead);
        bm.or_mask_at(bit, mask);
        count += mask.count_ones() as usize;
    });
    count
}

/// Sets the bits (`base + offset`) of qualifying values in `bm`.
///
/// # Panics
/// Panics if `base + data.len()` exceeds the bitmap length.
#[inline]
pub fn fill_bitmap_in_range<T: DataValue>(data: &[T], base: usize, lo: T, hi: T, bm: &mut Bitmap) {
    fill_bitmap(data, base, lo, hi, bm, &mut NoByProduct);
}

/// Like [`fill_bitmap_in_range`] but also returns `(qualifying, min, max)`
/// over the slice, for multi-column scans that must both produce a
/// combinable bitmap and feed index observations.
///
/// # Panics
/// Panics if `base + data.len()` exceeds the bitmap length.
#[inline]
pub fn fill_bitmap_in_range_with_minmax<T: DataValue>(
    data: &[T],
    base: usize,
    lo: T,
    hi: T,
    bm: &mut Bitmap,
) -> (usize, T, T) {
    let mut bounds = Bounds::new();
    let count = fill_bitmap(data, base, lo, hi, bm, &mut bounds);
    let (min, max) = bounds.min_max();
    (count, min, max)
}

/// The mask-consuming pass every value-reading aggregate shares: folds
/// each **live** qualifying row into `hit` in ascending row order
/// ([`for_each_selected`], which also says what `hit(v, q)` must do with
/// `q`), feeds every row to `by`, and returns the number of hits.
#[inline(always)]
fn for_each_match<T: DataValue, L: Liveness, B: ByProduct<T>>(
    data: &[T],
    (lo, hi): (T, T),
    live: L,
    base: usize,
    by: &mut B,
    mut hit: impl FnMut(T, bool),
) -> usize {
    let range = InRange::new(lo, hi);
    let mut count = 0usize;
    for_each_block!(data, base, live, by, |block, _bit, dead| {
        let mask = range.mask(block, dead);
        for_each_selected(block, mask, &mut hit);
        count += mask.count_ones() as usize;
    });
    count
}

/// Sums the **live** qualifying values as `f64` and counts them, feeding
/// every row to `by`; returns `(count, sum)`.
///
/// `f64` accumulation keeps one kernel for all value types; integer columns
/// up to 2^53 sum exactly, which covers the workloads in this repository.
///
/// # Panics
/// Panics if `live` does not address rows `base..base + data.len()`.
#[inline]
pub fn sum<T: DataValue, L: Liveness, B: ByProduct<T>>(
    data: &[T],
    lo: T,
    hi: T,
    live: L,
    base: usize,
    by: &mut B,
) -> (usize, f64) {
    let mut sum = 0.0f64;
    let count = for_each_match(data, (lo, hi), live, base, by, |v, q| {
        sum += if q { v.to_f64() } else { 0.0 }
    });
    (count, sum)
}

/// [`sum`] over an all-live slice, nothing else computed.
#[inline]
pub fn sum_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> (usize, f64) {
    sum(data, lo, hi, AllLive, 0, &mut NoByProduct)
}

/// Sums the **live** rows of the slice as `f64` and returns `(live count,
/// sum)` — the no-predicate kernel for ranges already proven to fully
/// match, where re-evaluating the predicate per row (as [`sum_in_range`]
/// with `[MIN, MAX]` bounds would) wastes the compare.
///
/// # Panics
/// Panics if `live` does not address rows `base..base + data.len()`.
#[inline]
pub fn sum_rows<T: DataValue, L: Liveness>(data: &[T], live: L, base: usize) -> (usize, f64) {
    let mut count = 0usize;
    let mut sum = 0.0f64;
    for_each_block!(data, base, live, &mut NoByProduct, |block, _bit, dead| {
        let mask = !dead & low_bits(block.len());
        count += mask.count_ones() as usize;
        for_each_selected(block, mask, |v, q| sum += if q { v.to_f64() } else { 0.0 });
    });
    (count, sum)
}

/// COUNT, SUM, MIN and MAX of the **live** qualifying rows of one scanned
/// range, produced in a single pass by [`aggregate`].
#[derive(Debug, Clone, Copy)]
pub struct MatchAggregates<T: DataValue> {
    /// Live qualifying rows.
    pub count: usize,
    /// Their sum as `f64`.
    pub sum: f64,
    /// Their minimum (MAX_VALUE when none qualify).
    pub min: T,
    /// Their maximum (MIN_VALUE when none qualify).
    pub max: T,
}

/// Computes every aggregate of [`MatchAggregates`] in one pass, feeding
/// every row to `by`.
///
/// # Panics
/// Panics if `live` does not address rows `base..base + data.len()`.
#[inline]
pub fn aggregate<T: DataValue, L: Liveness, B: ByProduct<T>>(
    data: &[T],
    lo: T,
    hi: T,
    live: L,
    base: usize,
    by: &mut B,
) -> MatchAggregates<T> {
    let mut sum = 0.0f64;
    let mut matched = Bounds::new();
    let count = for_each_match(data, (lo, hi), live, base, by, |v, q| {
        sum += if q { v.to_f64() } else { 0.0 };
        matched.push_if(v, q);
    });
    let (min, max) = matched.min_max();
    MatchAggregates {
        count,
        sum,
        min,
        max,
    }
}

/// [`MatchAggregates`] of an all-live slice beside the exact
/// `(range_min, range_max)` over all its rows.
#[derive(Debug, Clone, Copy)]
pub struct RangeAggregates<T: DataValue> {
    /// Qualifying rows.
    pub count: usize,
    /// Sum of qualifying rows as `f64`.
    pub sum: f64,
    /// Minimum over all rows of the slice.
    pub range_min: T,
    /// Maximum over all rows of the slice.
    pub range_max: T,
    /// Minimum over qualifying rows (MAX_VALUE when none qualify).
    pub match_min: T,
    /// Maximum over qualifying rows (MIN_VALUE when none qualify).
    pub match_max: T,
}

/// [`aggregate`] over an all-live slice with the exact `(min, max)` over
/// all its rows.
#[inline]
pub fn aggregate_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> RangeAggregates<T> {
    let mut bounds = Bounds::new();
    let m = aggregate(data, lo, hi, AllLive, 0, &mut bounds);
    let (range_min, range_max) = bounds.min_max();
    RangeAggregates {
        count: m.count,
        sum: m.sum,
        range_min,
        range_max,
        match_min: m.min,
        match_max: m.max,
    }
}

/// `(min, max)` of the **live** rows under the total order, or `None`
/// when the slice is empty or every row is tombstoned. Exact for every
/// input except a slice whose live rows all sort outside
/// `[MIN_VALUE, MAX_VALUE]` (floats: NaN only), where the fold identity
/// stands in — still a sound bound, which is all zone metadata needs.
///
/// # Panics
/// Panics if `live` does not address rows `base..base + data.len()`.
#[inline]
pub fn min_max_rows<T: DataValue, L: Liveness>(data: &[T], live: L, base: usize) -> Option<(T, T)> {
    let mut found = false;
    let mut bounds = Bounds::new();
    for_each_block!(data, base, live, &mut NoByProduct, |block, _bit, dead| {
        let mask = !dead & low_bits(block.len());
        found |= mask != 0;
        for_each_selected(block, mask, |v, q| bounds.push_if(v, q));
    });
    found.then(|| bounds.min_max())
}

/// [`min_max_rows`] over an all-live slice.
#[inline]
pub fn min_max<T: DataValue>(data: &[T]) -> Option<(T, T)> {
    min_max_rows(data, AllLive, 0)
}

/// Minimum and maximum of the qualifying values only; `None` if nothing
/// qualifies. Used by MIN/MAX aggregates.
#[inline]
pub fn min_max_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> Option<(T, T)> {
    let range = InRange::new(lo, hi);
    let mut found = false;
    let mut matched = Bounds::new();
    for_each_block!(data, 0, AllLive, &mut NoByProduct, |block, _bit, dead| {
        let mask = range.mask(block, dead);
        found |= mask != 0;
        for_each_selected(block, mask, |v, q| matched.push_if(v, q));
    });
    found.then(|| matched.min_max())
}

/// Appends the row positions in `start..end` that are live to `out` — the
/// full-match POSITIONS path, where no value needs reading.
///
/// # Panics
/// Panics if `end` exceeds `MAX_ADDRESSABLE_ROWS` or the rows `live`
/// addresses.
#[inline]
pub fn live_positions<L: Liveness>(live: L, start: usize, end: usize, out: &mut Vec<u32>) {
    assert_positions_addressable(start, end - start);
    live.assert_covers(start, end - start);
    let mut bit = start;
    while bit < end {
        let span = (end - bit).min(LANES);
        push_positions(live.window(bit) & low_bits(span), bit, out);
        bit += span;
    }
}

/// The per-row reference kernels.
///
/// Two consumers keep these alive: the property tests assert every
/// production kernel is result-identical (bit-identical for `f64` sums)
/// to its reference over randomised and adversarial inputs, and the
/// kernel benchmark (`kernels_json`) reports every production kernel
/// against this baseline and fails when one falls below 0.9x of it. They
/// evaluate the predicate per element with short-circuit compares and
/// leave everything else to the compiler.
pub mod scalar {
    use super::{Bitmap, DataValue, RangeAggregates};

    /// Scalar reference for [`super::count_in_range`].
    #[inline]
    pub fn count_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> usize {
        let mut count = 0usize;
        for &v in data {
            count += (v.ge_total(&lo) && v.le_total(&hi)) as usize;
        }
        count
    }

    /// Scalar reference for [`super::count_in_range_with_minmax`].
    #[inline]
    pub fn count_in_range_with_minmax<T: DataValue>(data: &[T], lo: T, hi: T) -> (usize, T, T) {
        let mut count = 0usize;
        let mut min = T::MAX_VALUE;
        let mut max = T::MIN_VALUE;
        for &v in data {
            count += (v.ge_total(&lo) && v.le_total(&hi)) as usize;
            min = min.min_total(v);
            max = max.max_total(v);
        }
        (count, min, max)
    }

    /// Scalar reference for [`super::collect_in_range`].
    #[inline]
    pub fn collect_in_range<T: DataValue>(
        data: &[T],
        base: usize,
        lo: T,
        hi: T,
        out: &mut Vec<u32>,
    ) {
        super::assert_positions_addressable(base, data.len());
        for (i, &v) in data.iter().enumerate() {
            if v.ge_total(&lo) && v.le_total(&hi) {
                out.push((base + i) as u32);
            }
        }
    }

    /// Scalar reference for [`super::fill_bitmap_in_range`].
    ///
    /// # Panics
    /// Panics if `base + data.len()` exceeds the bitmap length.
    #[inline]
    pub fn fill_bitmap_in_range<T: DataValue>(
        data: &[T],
        base: usize,
        lo: T,
        hi: T,
        bm: &mut Bitmap,
    ) {
        assert!(
            base + data.len() <= bm.len(),
            "bitmap too small for scan output"
        );
        for (i, &v) in data.iter().enumerate() {
            if v.ge_total(&lo) && v.le_total(&hi) {
                bm.set(base + i);
            }
        }
    }

    /// Scalar reference for [`super::sum_in_range`].
    #[inline]
    pub fn sum_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> (usize, f64) {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        for &v in data {
            let q = v.ge_total(&lo) && v.le_total(&hi);
            count += q as usize;
            sum += if q { v.to_f64() } else { 0.0 };
        }
        (count, sum)
    }

    /// Scalar reference for [`super::aggregate_in_range`].
    #[inline]
    pub fn aggregate_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> RangeAggregates<T> {
        let mut agg = RangeAggregates {
            count: 0,
            sum: 0.0,
            range_min: T::MAX_VALUE,
            range_max: T::MIN_VALUE,
            match_min: T::MAX_VALUE,
            match_max: T::MIN_VALUE,
        };
        for &v in data {
            let q = v.ge_total(&lo) && v.le_total(&hi);
            agg.count += q as usize;
            agg.sum += if q { v.to_f64() } else { 0.0 };
            agg.range_min = agg.range_min.min_total(v);
            agg.range_max = agg.range_max.max_total(v);
            if q {
                agg.match_min = agg.match_min.min_total(v);
                agg.match_max = agg.match_max.max_total(v);
            }
        }
        agg
    }

    /// Scalar reference for [`super::collect_in_range_with_minmax`].
    #[inline]
    pub fn collect_in_range_with_minmax<T: DataValue>(
        data: &[T],
        base: usize,
        lo: T,
        hi: T,
        out: &mut Vec<u32>,
    ) -> (usize, T, T) {
        super::assert_positions_addressable(base, data.len());
        let before = out.len();
        let mut min = T::MAX_VALUE;
        let mut max = T::MIN_VALUE;
        for (i, &v) in data.iter().enumerate() {
            if v.ge_total(&lo) && v.le_total(&hi) {
                out.push((base + i) as u32);
            }
            min = min.min_total(v);
            max = max.max_total(v);
        }
        (out.len() - before, min, max)
    }

    /// Scalar reference for [`super::fill_bitmap_in_range_with_minmax`].
    ///
    /// # Panics
    /// Panics if `base + data.len()` exceeds the bitmap length.
    #[inline]
    pub fn fill_bitmap_in_range_with_minmax<T: DataValue>(
        data: &[T],
        base: usize,
        lo: T,
        hi: T,
        bm: &mut Bitmap,
    ) -> (usize, T, T) {
        assert!(
            base + data.len() <= bm.len(),
            "bitmap too small for scan output"
        );
        let mut count = 0usize;
        let mut min = T::MAX_VALUE;
        let mut max = T::MIN_VALUE;
        for (i, &v) in data.iter().enumerate() {
            if v.ge_total(&lo) && v.le_total(&hi) {
                bm.set(base + i);
                count += 1;
            }
            min = min.min_total(v);
            max = max.max_total(v);
        }
        (count, min, max)
    }

    /// Scalar reference for [`super::min_max_in_range`].
    #[inline]
    pub fn min_max_in_range<T: DataValue>(data: &[T], lo: T, hi: T) -> Option<(T, T)> {
        let mut found = false;
        let mut min = T::MAX_VALUE;
        let mut max = T::MIN_VALUE;
        for &v in data {
            if v.ge_total(&lo) && v.le_total(&hi) {
                min = min.min_total(v);
                max = max.max_total(v);
                found = true;
            }
        }
        found.then_some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_basic() {
        let data = [1i64, 5, 3, 9, 5];
        assert_eq!(count_in_range(&data, 3, 5), 3);
        assert_eq!(count_in_range(&data, 10, 20), 0);
        assert_eq!(count_in_range(&data, i64::MIN, i64::MAX), 5);
    }

    #[test]
    fn count_empty_slice() {
        assert_eq!(count_in_range::<i64>(&[], 0, 10), 0);
    }

    #[test]
    fn count_with_minmax() {
        let data = [4i64, -2, 8, 0];
        let (c, min, max) = count_in_range_with_minmax(&data, 0, 5);
        assert_eq!(c, 2);
        assert_eq!((min, max), (-2, 8));
    }

    #[test]
    fn count_with_minmax_empty() {
        let (c, min, max) = count_in_range_with_minmax::<i64>(&[], 0, 5);
        assert_eq!(c, 0);
        assert_eq!(min, i64::MAX);
        assert_eq!(max, i64::MIN);
    }

    #[test]
    fn collect_positions_with_base() {
        let data = [10i64, 20, 30, 40];
        let mut out = Vec::new();
        collect_in_range(&data, 100, 20, 30, &mut out);
        assert_eq!(out, vec![101, 102]);
    }

    #[test]
    fn fill_bitmap_sets_expected_bits() {
        let data = [1i64, 7, 3, 7];
        let mut bm = Bitmap::new(10);
        fill_bitmap_in_range(&data, 4, 7, 7, &mut bm);
        assert_eq!(bm.to_positions(), vec![5, 7]);
    }

    #[test]
    #[should_panic(expected = "bitmap too small")]
    fn fill_bitmap_bounds_checked() {
        let data = [1i64, 2];
        let mut bm = Bitmap::new(1);
        fill_bitmap_in_range(&data, 0, 0, 10, &mut bm);
    }

    #[test]
    fn sum_kernel() {
        let data = [1.0f64, 2.5, 4.0, 8.0];
        let (c, s) = sum_in_range(&data, 2.0, 8.0);
        assert_eq!(c, 3);
        assert!((s - 14.5).abs() < 1e-12);
    }

    #[test]
    fn sum_kernel_int() {
        let data = [1i32, 2, 3];
        let (c, s) = sum_in_range(&data, 2, 3);
        assert_eq!(c, 2);
        assert_eq!(s, 5.0);
    }

    #[test]
    fn min_max_slice() {
        assert_eq!(min_max(&[3i64, 1, 2]), Some((1, 3)));
        assert_eq!(min_max::<i64>(&[]), None);
        assert_eq!(min_max(&[7i64]), Some((7, 7)));
    }

    #[test]
    fn min_max_of_qualifying_only() {
        let data = [1i64, 50, 10, 99];
        assert_eq!(min_max_in_range(&data, 5, 60), Some((10, 50)));
        assert_eq!(min_max_in_range(&data, 200, 300), None);
    }

    #[test]
    fn aggregate_in_range_all_fields() {
        let data = [5i64, -3, 10, 7];
        let a = aggregate_in_range(&data, 0, 8);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 12.0);
        assert_eq!((a.range_min, a.range_max), (-3, 10));
        assert_eq!((a.match_min, a.match_max), (5, 7));
    }

    #[test]
    fn aggregate_in_range_no_matches() {
        let data = [1i64, 2];
        let a = aggregate_in_range(&data, 100, 200);
        assert_eq!(a.count, 0);
        assert_eq!(a.sum, 0.0);
        assert_eq!((a.range_min, a.range_max), (1, 2));
        assert_eq!(a.match_min, i64::MAX);
        assert_eq!(a.match_max, i64::MIN);
    }

    #[test]
    fn collect_with_minmax() {
        let data = [4i64, 9, 1];
        let mut out = vec![7u32]; // pre-existing content preserved
        let (n, min, max) = collect_in_range_with_minmax(&data, 10, 2, 5, &mut out);
        assert_eq!(n, 1);
        assert_eq!(out, vec![7, 10]);
        assert_eq!((min, max), (1, 9));
    }

    /// COUNT with `(min, max)` and the [`Bins`] mask over `[bin_lo,
    /// bin_hi]` in one pass.
    fn count_with_mask(
        data: &[i64],
        lo: i64,
        hi: i64,
        bin_lo: f64,
        bin_hi: f64,
    ) -> (usize, i64, i64, u64) {
        let mut by = (Bounds::new(), Bins::new(bin_lo, bin_hi));
        let count = count(data, lo, hi, AllLive, 0, &mut by);
        let (min, max) = by.0.min_max();
        (count, min, max, by.1.mask())
    }

    #[test]
    fn mask_kernel_sets_expected_bins() {
        let data = [0i64, 50, 99];
        let (c, min, max, mask) = count_with_mask(&data, 0, 99, 0.0, 100.0);
        assert_eq!(c, 3);
        assert_eq!((min, max), (0, 99));
        assert_eq!(mask.count_ones(), 3);
        assert!(mask & 1 != 0, "value 0 in bin 0");
        assert!(mask & (1 << 32) != 0, "value 50 in bin 32");
        assert!(mask & (1 << 63) != 0, "value 99 in bin 63");
    }

    #[test]
    fn mask_kernel_clamps_out_of_layout_values() {
        let data = [-100i64, 500];
        let (_, _, _, mask) = count_with_mask(&data, 0, 0, 0.0, 100.0);
        assert!(mask & 1 != 0, "below-layout clamps to bin 0");
        assert!(mask & (1 << 63) != 0, "above-layout clamps to bin 63");
    }

    #[test]
    fn mask_kernel_degenerate_layout() {
        let data = [7i64, 7];
        let (_, _, _, mask) = count_with_mask(&data, 0, 10, 7.0, 7.0);
        assert_eq!(mask, 1, "zero span puts everything in bin 0");
    }

    #[test]
    fn inclusive_bounds_on_both_ends() {
        let data = [5i64, 10];
        assert_eq!(count_in_range(&data, 5, 10), 2);
        assert_eq!(count_in_range(&data, 6, 9), 0);
    }

    fn mask(lo: i64, hi: i64, block: &[i64]) -> u64 {
        InRange::new(lo, hi).mask(block, 0)
    }

    #[test]
    fn range_mask_places_each_lane_at_its_bit() {
        for i in 0..LANES {
            let mut block = vec![0i64; LANES];
            block[i] = 5;
            assert_eq!(mask(5, 5, &block), 1u64 << i, "lane {i}");
        }
        let all = vec![7i64; LANES];
        assert_eq!(mask(0, 10, &all), u64::MAX);
        assert_eq!(mask(8, 10, &all), 0);
        // An inverted range is empty, not "everything the offsets wrap to".
        assert_eq!(mask(10, 0, &all), 0);
        assert_eq!(InRange::new(10, 0).count(&all), 0);
        assert!(!InRange::new(10, 0).holds(7));
        // The tail block: bits at and past its length stay clear.
        assert_eq!(mask(0, 10, &all[..3]), 0b111);
    }

    #[test]
    #[should_panic(expected = "exceed delete vector")]
    fn masked_kernel_rejects_short_delete_vector() {
        let data = [1i64, 2, 3];
        let live = DeleteVector::new(2, 0);
        count(&data, 0, 10, &live, 0, &mut NoByProduct);
    }

    #[test]
    #[should_panic(expected = "u32 position ceiling")]
    fn collect_rejects_positions_past_u32() {
        // Documents the row-count ceiling: positions are u32, so a scan
        // whose base offset pushes rows past 2^32 must fail loudly
        // instead of silently truncating.
        let data = [1i64];
        let mut out = Vec::new();
        collect_in_range(&data, MAX_ADDRESSABLE_ROWS, 0, 10, &mut out);
    }

    #[test]
    fn collect_accepts_positions_up_to_the_ceiling() {
        let data = [1i64];
        let mut out = Vec::new();
        collect_in_range(&data, MAX_ADDRESSABLE_ROWS - 1, 0, 10, &mut out);
        assert_eq!(out, vec![u32::MAX]);
    }
}
