//! Known-answer and batch-equivalence tests for the tabulation row hashers.
//!
//! The `(bucket, sign)` values below were recorded from the per-table
//! tabulation layout that preceded the row-interleaved one, so any change
//! to the hash values a sketch assigns — a different fill order, a broken
//! 32-bit fold, an off-by-one block boundary — fails here rather than
//! silently reshuffling every stored model. Seed 7; depths 1, 14 and 80
//! (past one 64-row hashing block); widths 128 and 37.

use wmsketch_hashing::{CoordPlan, HashFamilyKind, RowHashers, SplitMix64};

const SEED: u64 = 7;

/// Keys on both sides of every chunk boundary the layout cares about,
/// including both sides of the `2^32` fold.
const KEYS: [u64; 8] = [
    0,
    1,
    255,
    1 << 16,
    u32::MAX as u64,
    1 << 32,
    (1 << 40) + 7,
    u64::MAX,
];

/// FNV-1a over `(bucket << 1) | sign_bit`, one row after another.
fn digest(coords: impl IntoIterator<Item = (u32, f64)>) -> u64 {
    coords
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |d, (bucket, sign)| {
            let v = (u64::from(bucket) << 1) | u64::from(sign < 0.0);
            (d ^ v).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn per_row(h: &RowHashers, key: u64) -> Vec<(u32, f64)> {
    h.bucket_signs(key)
        .map(|(_, bs)| (bs.bucket, bs.sign))
        .collect()
}

/// The batch path's `(bucket, sign)` per row, recovered from flat offsets.
fn batch(h: &RowHashers, key: u64) -> Vec<(u32, f64)> {
    let width = h.width() as usize;
    let mut coords = Vec::new();
    h.for_each_coord(key, |offset, sign| {
        coords.push(((offset % width) as u32, sign));
    });
    coords
}

/// `(depth, width, digest per key)`.
const DIGESTS: [(u32, u32, [u64; 8]); 6] = [
    (
        1,
        128,
        [
            0xAF63AD4C86019CAF,
            0xAF64654C8602D557,
            0xAF648A4C86031436,
            0xAF64684C8602DA70,
            0xAF64674C8602D8BD,
            0xAF64494C8602A5C3,
            0xAF63E94C860202A3,
            0xAF63CF4C8601D675,
        ],
    ),
    (
        1,
        37,
        [
            0xAF63C34C8601C211,
            0xAF63FF4C86022805,
            0xAF63B24C8601A52E,
            0xAF63FA4C86021F86,
            0xAF63FF4C86022805,
            0xAF63A74C8601927D,
            0xAF639D4C8601817F,
            0xAF63B94C8601B113,
        ],
    ),
    (
        14,
        128,
        [
            0xD92E7F8B386F8262,
            0xD3E04F8171B4C7DB,
            0x88ED391F07B84315,
            0x1C44A91AB828339A,
            0x72B7AEFEFD35330D,
            0x5E6C02271C64324B,
            0x18BF5DA40E05EC9D,
            0x77F4F11365CC1E17,
        ],
    ),
    (
        14,
        37,
        [
            0x34ADDA8B5EE5E30C,
            0xD14662F27963B9D7,
            0xC609A5C13675151B,
            0x30497EE09A46CB04,
            0xA79B48920CB2C42D,
            0xC8831D3AF752D7D7,
            0xC2458FF8D83D3DD3,
            0x7B5026448B361F71,
        ],
    ),
    (
        80,
        128,
        [
            0x763BD4DAB1C7F6DA,
            0xACDB0B2F733DE50A,
            0xE16E8A9ED82AEE73,
            0x3369280980F8F470,
            0xC4DCE2D8A3FE045F,
            0xC45D2B5C7D044C38,
            0x534818688316A245,
            0xA88A537755AE7604,
        ],
    ),
    (
        80,
        37,
        [
            0x927FCDF95B098DE6,
            0x40B21C82F1EC80CE,
            0x10DFCE888B0B1501,
            0xA828C1A75EB59644,
            0xF070636DA96B7395,
            0x69D043C81DBED83C,
            0xD8A970D6EAC6FEE7,
            0x735FEC3E6D9AA5AA,
        ],
    ),
];
const ROWS_D1_W128: [[(u32, i8); 1]; 8] = [
    [(24, 1)],
    [(116, 1)],
    [(107, -1)],
    [(122, -1)],
    [(117, 1)],
    [(74, 1)],
    [(58, 1)],
    [(9, 1)],
];
const ROWS_D1_W37: [[(u32, i8); 1]; 8] = [
    [(7, 1)],
    [(33, 1)],
    [(31, -1)],
    [(35, -1)],
    [(33, 1)],
    [(21, 1)],
    [(16, 1)],
    [(2, 1)],
];
const ROWS_D14_W128: [[(u32, i8); 14]; 8] = [
    [
        (24, 1),
        (14, -1),
        (97, -1),
        (35, -1),
        (54, 1),
        (8, -1),
        (44, 1),
        (93, 1),
        (20, 1),
        (84, 1),
        (35, -1),
        (57, -1),
        (62, 1),
        (67, -1),
    ],
    [
        (116, 1),
        (91, -1),
        (89, 1),
        (42, 1),
        (127, -1),
        (113, -1),
        (82, 1),
        (18, 1),
        (81, -1),
        (75, -1),
        (121, 1),
        (30, -1),
        (43, 1),
        (17, 1),
    ],
    [
        (107, -1),
        (115, 1),
        (124, -1),
        (105, 1),
        (42, 1),
        (67, 1),
        (64, -1),
        (99, 1),
        (28, 1),
        (34, -1),
        (46, -1),
        (29, -1),
        (74, 1),
        (30, 1),
    ],
    [
        (122, -1),
        (112, -1),
        (114, 1),
        (74, 1),
        (120, 1),
        (64, 1),
        (52, -1),
        (72, -1),
        (63, -1),
        (32, -1),
        (104, -1),
        (4, -1),
        (84, 1),
        (113, -1),
    ],
    [
        (117, 1),
        (1, -1),
        (120, -1),
        (27, 1),
        (9, 1),
        (115, 1),
        (77, 1),
        (15, -1),
        (17, -1),
        (106, 1),
        (51, -1),
        (91, 1),
        (32, 1),
        (23, -1),
    ],
    [
        (74, 1),
        (125, -1),
        (77, 1),
        (14, 1),
        (113, -1),
        (93, -1),
        (124, -1),
        (116, 1),
        (120, 1),
        (33, -1),
        (44, 1),
        (126, 1),
        (44, -1),
        (57, 1),
    ],
    [
        (58, 1),
        (36, 1),
        (32, -1),
        (58, -1),
        (34, -1),
        (27, 1),
        (67, 1),
        (7, 1),
        (89, -1),
        (21, -1),
        (34, 1),
        (102, -1),
        (104, -1),
        (21, -1),
    ],
    [
        (9, 1),
        (64, 1),
        (10, -1),
        (52, -1),
        (126, -1),
        (121, 1),
        (57, -1),
        (39, 1),
        (107, -1),
        (50, -1),
        (21, 1),
        (91, 1),
        (74, -1),
        (93, -1),
    ],
];

#[test]
fn digests_match_recorded_values() {
    for (depth, width, expect) in DIGESTS {
        let h = RowHashers::new(HashFamilyKind::Tabulation, depth, width, SEED);
        for (&key, &want) in KEYS.iter().zip(&expect) {
            assert_eq!(
                digest(per_row(&h, key)),
                want,
                "per-row depth {depth} width {width} key {key}"
            );
            assert_eq!(
                digest(batch(&h, key)),
                want,
                "batch depth {depth} width {width} key {key}"
            );
        }
    }
}

#[test]
fn rows_match_recorded_values() {
    fn check<const D: usize>(width: u32, table: &[[(u32, i8); D]; 8]) {
        let h = RowHashers::new(HashFamilyKind::Tabulation, D as u32, width, SEED);
        for (&key, rows) in KEYS.iter().zip(table) {
            let want: Vec<(u32, f64)> = rows.iter().map(|&(b, s)| (b, f64::from(s))).collect();
            assert_eq!(per_row(&h, key), want, "depth {D} width {width} key {key}");
            assert_eq!(batch(&h, key), want, "depth {D} width {width} key {key}");
        }
    }
    check(128, &ROWS_D1_W128);
    check(37, &ROWS_D1_W37);
    check(128, &ROWS_D14_W128);
}

/// Every batch entry point agrees with the per-row reference on seeded
/// random keys below and above `2^32`, at depths on both sides of the
/// 64-row block.
#[test]
fn batch_paths_match_per_row_reference() {
    let mut rng = SplitMix64::new(0xC0FF_EE00);
    for kind in [HashFamilyKind::Tabulation, HashFamilyKind::Polynomial(4)] {
        for depth in [1u32, 2, 14, 63, 64, 65, 80, 130] {
            for width in [128u32, 37, 1] {
                let h = RowHashers::new(kind, depth, width, rng.next_u64());
                let small: Vec<u32> = (0..40).map(|_| rng.next_u64() as u32).collect();
                let large: Vec<u64> = (0..40).map(|_| rng.next_u64() | (1 << 32)).collect();
                let mut plan = CoordPlan::new();
                h.fill_plan(&mut plan, &small);
                let mut pushed = CoordPlan::new();
                h.begin_plan(&mut pushed);
                let keys = small
                    .iter()
                    .map(|&k| u64::from(k))
                    .chain(large.iter().copied());
                for (slot, key) in keys.enumerate() {
                    let ctx = format!("{kind:?} depth {depth} width {width} key {key}");
                    let want: Vec<(usize, f64)> = h
                        .bucket_signs(key)
                        .map(|(j, bs)| (j * width as usize + bs.bucket as usize, bs.sign))
                        .collect();
                    let mut coords = Vec::new();
                    h.for_each_coord(key, |o, s| coords.push((o, s)));
                    assert_eq!(coords, want, "for_each_coord {ctx}");
                    let mut buckets = Vec::new();
                    h.for_each_bucket(key, |o| buckets.push(o));
                    let want_buckets: Vec<usize> = (0..depth as usize)
                        .map(|j| j * width as usize + h.bucket(j, key) as usize)
                        .collect();
                    assert_eq!(buckets, want_buckets, "for_each_bucket {ctx}");
                    assert_eq!(h.plan_push(&mut pushed, key), slot);
                    let from_plan = |p: &CoordPlan| {
                        let (o, s) = p.coords(slot);
                        o.iter()
                            .map(|&o| o as usize)
                            .zip(s.iter().copied())
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(from_plan(&pushed), want, "plan_push {ctx}");
                    if slot < small.len() {
                        assert_eq!(from_plan(&plan), want, "fill_plan {ctx}");
                    }
                }
            }
        }
    }
}
