//! Test-case enumeration: exhaustive cartesian products, capped at a
//! pseudo-random sample.
//!
//! Paper protocol: "testing was capped at 5000 randomly selected test
//! cases per MuT ... the same pseudorandom sampling of test cases was
//! performed in the same order for each system call or C function tested
//! across the different Windows variants". The sample is therefore seeded
//! from the *MuT name only* — identical dimensions + identical name ⇒
//! identical case list on every variant, which is what makes the Figure 2
//! voting well-defined.
//!
//! # Plans by prefix
//!
//! The sampler draws distinct linear (lexicographic) indices from a
//! generator seeded by the MuT's name and stops at the cap. Every capped
//! plan of a MuT signature — its name and pool sizes — is therefore a
//! prefix of one stream. [`plan`] keeps that stream once per signature,
//! process-wide, as the cases drawn so far, each stored as its pool
//! indices (two bytes per parameter); it only grows, continuing from the
//! saved generator state, up to the largest cap asked. A [`Plan`] is the
//! stream's first `cap` cases, or, when the cap covers the product, the
//! plain lexicographic range, which stores nothing. So planning a new cap
//! below the largest one asked draws and stores nothing, and memory is
//! bounded by the catalog times the largest cap. Engines walk a plan with
//! [`Plan::cases`], which copies a stored case and steps a lexicographic
//! one from the case before it, so running a plan in order divides
//! nothing.
//!
//! [`enumerate`] is the uncached reference sampler, and
//! [`enumerate_shared`] materialises a [`Plan`] as an explicit
//! [`CaseSet`] for callers that want every combination at once.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// The paper's per-MuT cap.
pub const PAPER_CAP: usize = 5000;

/// A test case: one pool index per parameter.
pub type Combo = Vec<usize>;

/// The selected case list for one MuT, every combination explicit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSet {
    /// Pool sizes per parameter.
    pub dims: Vec<usize>,
    /// The selected combinations, in execution order.
    pub cases: Vec<Combo>,
    /// Whether every combination is present.
    pub exhaustive: bool,
}

/// Total number of combinations for the given pool sizes.
#[must_use]
pub fn combination_count(dims: &[usize]) -> u64 {
    dims.iter().map(|&d| d as u64).product()
}

/// Decodes a linear (lexicographic) index into a combination — the
/// inverse of [`encode`]. Public for the adaptive explorer's
/// collision-probe fallback, which walks linear indices directly.
#[must_use]
pub fn decode(linear: u64, dims: &[usize]) -> Combo {
    let mut combo = vec![0; dims.len()];
    decode_into(linear, dims, &mut combo);
    combo
}

/// Mixed-radix decode of `linear` into `combo` (one slot per dimension),
/// least-significant dimension last (lexicographic).
pub(crate) fn decode_into(mut linear: u64, dims: &[usize], combo: &mut [usize]) {
    for (slot, &d) in combo.iter_mut().zip(dims).rev() {
        *slot = (linear % d as u64) as usize;
        linear /= d as u64;
    }
}

/// Advances `combo` to the next combination in lexicographic order.
fn step(combo: &mut [usize], dims: &[usize]) {
    for (slot, &d) in combo.iter_mut().zip(dims).rev() {
        *slot += 1;
        if *slot < d {
            return;
        }
        *slot = 0;
    }
}

/// The linear (lexicographic) index of a combination — the exact inverse
/// of the mixed-radix decode [`enumerate`] uses, with the *last*
/// dimension least significant. The adaptive explorer keys its
/// pinned-case dedup set on this index, so the encoding must stay in
/// lock-step with the decode above.
///
/// # Panics
///
/// Debug-asserts that the combo matches the dims (same length, every
/// index in range); release builds produce a nonsensical index for a
/// mismatched combo rather than panicking.
#[must_use]
pub fn encode(combo: &[usize], dims: &[usize]) -> u64 {
    debug_assert_eq!(combo.len(), dims.len());
    let mut linear = 0u64;
    for (&c, &d) in combo.iter().zip(dims) {
        debug_assert!(c < d);
        linear = linear * d as u64 + c as u64;
    }
    linear
}

/// Draws one index from a finite distribution given by integer
/// `weights`, via cumulative inverse sampling on the caller's RNG —
/// the deterministic weighted sampler behind the adaptive explorer.
/// Zero-weight entries are never drawn unless *every* weight is zero,
/// in which case the draw degrades to uniform (a campaign must not
/// wedge because a weighting rule zeroed out).
///
/// # Panics
///
/// Panics when `weights` is empty.
pub fn weighted_index(rng: &mut impl RngExt, weights: &[u64]) -> usize {
    weighted_index_in(rng, weights, weights.iter().sum())
}

/// [`weighted_index`] for a caller that keeps `total`, the sum of
/// `weights`, current itself: the same draw, without summing the pool.
pub(crate) fn weighted_index_in(rng: &mut impl RngExt, weights: &[u64], total: u64) -> usize {
    assert!(!weights.is_empty(), "weighted draw over an empty pool");
    debug_assert_eq!(total, weights.iter().sum::<u64>());
    if total == 0 {
        return rng.random_range(0..weights.len() as u64) as usize;
    }
    let mut r = rng.random_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

/// Deterministic FNV-1a over the seed name (stable across runs and
/// platforms, unlike `DefaultHasher`).
#[must_use]
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A set of linear indices, hashed by one multiply-xorshift instead of
/// SipHash: the keys are the generator's own output or its neighbours,
/// never chosen by an outsider, so the set needs no keyed hash. The
/// sampler's dedup set is one.
type LinearSet = HashSet<u64, BuildHasherDefault<LinearHasher>>;

/// The hasher behind [`LinearSet`]: folds the high half of the index
/// into the low half, multiplies, and folds again, so the bucket bits
/// and the tag bits both depend on every input bit.
#[derive(Default)]
struct LinearHasher(u64);

impl Hasher for LinearHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, linear: u64) {
        let x = self.0.rotate_left(5) ^ linear;
        let h = (x ^ (x >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The sampler's one draw loop: the linear indices below `total` that
/// `rng` draws, in draw order, each yielded the first time it is drawn
/// and not if `seen` already holds it. `seen` records every index
/// yielded.
fn fresh<'a>(
    rng: &'a mut StdRng,
    total: u64,
    seen: &'a mut LinearSet,
) -> impl Iterator<Item = u64> + 'a {
    std::iter::repeat_with(move || rng.random_range(0..total))
        .filter(move |&linear| seen.insert(linear))
}

fn check_dims(dims: &[usize], seed_name: &str) {
    assert!(
        !dims.is_empty(),
        "MuT with no parameters has one (empty) case"
    );
    assert!(dims.iter().all(|&d| d > 0), "empty pool for {seed_name}");
}

/// Enumerates the case set for pools of the given sizes: exhaustive when
/// the product is within `cap`, otherwise `cap` distinct pseudo-random
/// combinations seeded by `seed_name`. The uncached reference: every
/// [`Plan`] from [`plan`] equals it case for case.
///
/// # Panics
///
/// Panics when `dims` is empty or contains a zero (an empty pool is a
/// catalog wiring bug).
#[must_use]
pub fn enumerate(dims: &[usize], cap: usize, seed_name: &str) -> CaseSet {
    check_dims(dims, seed_name);
    let total = combination_count(dims);
    if total <= cap as u64 {
        let cases = (0..total).map(|i| decode(i, dims)).collect();
        return CaseSet {
            dims: dims.to_vec(),
            cases,
            exhaustive: true,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed_from_name(seed_name));
    let mut seen = LinearSet::with_capacity_and_hasher(cap, Default::default());
    let mut cases = Vec::with_capacity(cap);
    cases.extend(
        fresh(&mut rng, total, &mut seen)
            .take(cap)
            .map(|linear| decode(linear, dims)),
    );
    CaseSet {
        dims: dims.to_vec(),
        cases,
        exhaustive: false,
    }
}

/// One pool index of a stored case. A stored plan keeps a case as its
/// pool indices, so running it copies them and divides nothing; a pool
/// of a stored plan therefore holds at most 65 536 values.
type Digit = u16;

fn check_storable(dims: &[usize]) {
    assert!(
        dims.iter().all(|&d| d <= usize::from(Digit::MAX) + 1),
        "a stored plan's pools hold at most 65 536 values, got {dims:?}"
    );
}

/// The linear index of a stored case.
fn linear_of(row: &[Digit], dims: &[usize]) -> u64 {
    row.iter()
        .zip(dims)
        .fold(0, |linear, (&c, &d)| linear * d as u64 + u64::from(c))
}

/// Appends the pool indices of the case at `linear` to `rows`, through
/// the scratch `combo` (one slot per dimension).
fn push_row(linear: u64, dims: &[usize], combo: &mut [usize], rows: &mut Vec<Digit>) {
    decode_into(linear, dims, combo);
    rows.extend(combo.iter().map(|&c| c as Digit));
}

/// A MuT's case list: the lexicographic range of an exhaustive plan
/// (nothing stored), or a prefix of a shared table of stored cases — a
/// signature's sample stream, or an adaptive pin. Cheap to clone; walk
/// it in order with [`Plan::cases`].
#[derive(Debug, Clone)]
pub struct Plan {
    dims: Vec<usize>,
    order: Order,
}

#[derive(Debug, Clone)]
enum Order {
    /// Every combination in lexicographic order: case `i` is index `i`.
    Range(usize),
    /// The first `len` cases of a shared table, `dims.len()` pool
    /// indices per case.
    Rows(Arc<[Digit]>, usize),
}

impl Plan {
    /// The plan of a zero-parameter MuT: one empty case.
    #[must_use]
    pub fn single() -> Plan {
        Plan {
            dims: Vec::new(),
            order: Order::Range(1),
        }
    }

    /// An explicit plan over `dims`: the cases at the given linear
    /// indices, in order (an adaptive pin).
    ///
    /// # Panics
    ///
    /// Panics when a pool holds more than 65 536 values; debug-asserts
    /// every index is below the product of `dims`.
    #[must_use]
    pub fn pinned(dims: &[usize], indices: &[u64]) -> Plan {
        check_storable(dims);
        debug_assert!(indices.iter().all(|&l| l < combination_count(dims)));
        let mut combo = vec![0; dims.len()];
        let mut rows = Vec::with_capacity(indices.len() * dims.len());
        for &linear in indices {
            push_row(linear, dims, &mut combo, &mut rows);
        }
        Plan {
            dims: dims.to_vec(),
            order: Order::Rows(rows.into(), indices.len()),
        }
    }

    /// Cases in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.order {
            Order::Range(len) | Order::Rows(_, len) => len,
        }
    }

    /// Whether the plan has no case (only a zero cap on a sampled MuT).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pool sizes per parameter.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Whether the plan is every combination in lexicographic order.
    #[must_use]
    pub fn exhaustive(&self) -> bool {
        matches!(self.order, Order::Range(_))
    }

    /// Case `i`'s stored pool indices (`None` for a lexicographic plan).
    fn row(&self, i: usize) -> Option<&[Digit]> {
        assert!(i < self.len(), "case {i} of a {}-case plan", self.len());
        match &self.order {
            Order::Range(_) => None,
            Order::Rows(rows, _) => {
                let k = self.dims.len();
                Some(&rows[i * k..(i + 1) * k])
            }
        }
    }

    /// Case `i`'s linear index.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn linear(&self, i: usize) -> u64 {
        self.row(i)
            .map_or(i as u64, |row| linear_of(row, &self.dims))
    }

    /// Writes case `i` into `combo`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn case(&self, i: usize, combo: &mut Combo) {
        combo.resize(self.dims.len(), 0);
        match self.row(i) {
            None => decode_into(i as u64, &self.dims, combo),
            Some(row) => {
                for (slot, &c) in combo.iter_mut().zip(row) {
                    *slot = usize::from(c);
                }
            }
        }
    }

    /// Case `i` as a fresh combination.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn combo(&self, i: usize) -> Combo {
        let mut combo = Vec::new();
        self.case(i, &mut combo);
        combo
    }

    /// A walk over the plan's cases, each written into one reused
    /// buffer.
    #[must_use]
    pub fn cases(&self) -> Cases<'_> {
        Cases {
            plan: self,
            combo: vec![0; self.dims.len()],
            at: None,
        }
    }

    /// Every case decoded, as an explicit [`CaseSet`].
    #[must_use]
    pub fn to_case_set(&self) -> CaseSet {
        let mut cases = self.cases();
        CaseSet {
            dims: self.dims.clone(),
            cases: (0..self.len()).map(|i| cases.get(i).to_vec()).collect(),
            exhaustive: self.exhaustive(),
        }
    }
}

/// Two plans are equal when they run the same cases in the same order.
impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        self.dims == other.dims
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.linear(i) == other.linear(i))
    }
}

impl Eq for Plan {}

/// A plan's cases, one at a time, in one buffer: a stored case is
/// copied, and a lexicographic case that follows the one before it is
/// stepped to, so walking a plan in order divides nothing.
pub struct Cases<'p> {
    plan: &'p Plan,
    combo: Combo,
    /// The case `combo` holds.
    at: Option<usize>,
}

impl Cases<'_> {
    /// Case `i`: one pool index per parameter.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn get(&mut self, i: usize) -> &[usize] {
        match self.plan.order {
            Order::Range(len) if self.at.is_some_and(|at| at + 1 == i) => {
                assert!(i < len, "case {i} of a {len}-case plan");
                step(&mut self.combo, &self.plan.dims);
            }
            _ => self.plan.case(i, &mut self.combo),
        }
        self.at = Some(i);
        &self.combo
    }
}

/// One signature's sample stream: the distinct cases drawn so far, in
/// draw order, stored as pool indices, and the generator state after the
/// last draw.
struct Stream {
    rows: Arc<[Digit]>,
    rng: StdRng,
}

/// Every signature's stream, keyed by `(seed name, dims)`.
type Streams = HashMap<(String, Vec<usize>), Stream>;

fn streams() -> &'static Mutex<Streams> {
    static STREAMS: OnceLock<Mutex<Streams>> = OnceLock::new();
    STREAMS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The plan for pools of the given sizes at `cap`: the lexicographic
/// range when the product is within `cap`, else the first `cap` cases
/// of the `(seed_name, dims)` sample stream, grown first if it is
/// shorter. Case for case equal to [`enumerate`].
///
/// # Panics
///
/// Same conditions as [`enumerate`], and a sampled plan's pools hold at
/// most 65 536 values.
#[must_use]
pub fn plan(dims: &[usize], cap: usize, seed_name: &str) -> Plan {
    check_dims(dims, seed_name);
    let total = combination_count(dims);
    if total <= cap as u64 {
        return Plan {
            dims: dims.to_vec(),
            order: Order::Range(total as usize),
        };
    }
    check_storable(dims);
    let k = dims.len();
    let mut streams = streams().lock().expect("sample streams poisoned");
    let stream = streams
        .entry((seed_name.to_owned(), dims.to_vec()))
        .or_insert_with(|| Stream {
            rows: Arc::new([]),
            rng: StdRng::seed_from_u64(seed_from_name(seed_name)),
        });
    let drawn = stream.rows.len() / k;
    if drawn < cap {
        let mut rows = Vec::with_capacity(cap * k);
        rows.extend_from_slice(&stream.rows);
        let mut seen = LinearSet::with_capacity_and_hasher(cap, Default::default());
        seen.extend(rows.chunks_exact(k).map(|row| linear_of(row, dims)));
        let mut combo = vec![0; k];
        for linear in fresh(&mut stream.rng, total, &mut seen).take(cap - drawn) {
            push_row(linear, dims, &mut combo, &mut rows);
        }
        stream.rows = rows.into();
    }
    Plan {
        dims: dims.to_vec(),
        order: Order::Rows(Arc::clone(&stream.rows), cap),
    }
}

/// [`plan`], materialised as an explicit [`CaseSet`]. Decodes every case
/// on each call and keeps no cache of its own: engines hold [`Plan`]s,
/// and this serves callers that want the combinations themselves.
///
/// # Panics
///
/// Same conditions as [`enumerate`].
#[must_use]
pub fn enumerate_shared(dims: &[usize], cap: usize, seed_name: &str) -> Arc<CaseSet> {
    Arc::new(plan(dims, cap, seed_name).to_case_set())
}

/// Case list for a zero-parameter MuT: one empty case.
#[must_use]
pub fn single_case() -> CaseSet {
    CaseSet {
        dims: Vec::new(),
        cases: vec![Vec::new()],
        exhaustive: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_under_cap() {
        let set = enumerate(&[3, 2], 100, "small");
        assert!(set.exhaustive);
        assert_eq!(set.cases.len(), 6);
        assert_eq!(set.cases[0], vec![0, 0]);
        assert_eq!(set.cases[1], vec![0, 1]);
        assert_eq!(set.cases[5], vec![2, 1]);
    }

    #[test]
    fn capped_sampling_is_deterministic_and_distinct() {
        let a = enumerate(&[10, 10, 10, 10], 500, "CreateFile");
        let b = enumerate(&[10, 10, 10, 10], 500, "CreateFile");
        assert_eq!(a, b, "same seed name → same order (cross-variant rule)");
        assert!(!a.exhaustive);
        assert_eq!(a.cases.len(), 500);
        let distinct: HashSet<_> = a.cases.iter().collect();
        assert_eq!(distinct.len(), 500);
        // Different MuT name → different sample.
        let c = enumerate(&[10, 10, 10, 10], 500, "ReadFile");
        assert_ne!(a.cases, c.cases);
    }

    #[test]
    fn indices_in_range() {
        let set = enumerate(&[4, 7, 3], 50, "ranged");
        for case in &set.cases {
            assert_eq!(case.len(), 3);
            assert!(case[0] < 4 && case[1] < 7 && case[2] < 3);
        }
    }

    #[test]
    fn combination_counts() {
        assert_eq!(combination_count(&[10, 10, 10, 10]), 10_000);
        assert_eq!(combination_count(&[1]), 1);
        assert_eq!(combination_count(&[9, 9, 9, 9, 9]), 59_049);
    }

    #[test]
    fn paper_scale_sample() {
        // A 5-parameter call over 9-value pools (59 049 combos) capped at
        // the paper's 5000.
        let set = enumerate(&[9, 9, 9, 9, 9], PAPER_CAP, "MsgWaitForMultipleObjects");
        assert_eq!(set.cases.len(), PAPER_CAP);
        assert!(!set.exhaustive);
    }

    #[test]
    fn zero_param_mut() {
        let set = single_case();
        assert_eq!(set.cases.len(), 1);
        assert!(set.cases[0].is_empty());
    }

    #[test]
    fn seed_is_stable() {
        // Guards the cross-run determinism the experiments depend on.
        assert_eq!(seed_from_name("strlen"), seed_from_name("strlen"));
        assert_ne!(seed_from_name("strlen"), seed_from_name("strcpy"));
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn empty_pool_panics() {
        let _ = enumerate(&[3, 0], 10, "broken");
    }

    #[test]
    fn encode_inverts_decode() {
        let dims = [4, 7, 3];
        for linear in 0..combination_count(&dims) {
            let combo = decode(linear, &dims);
            assert_eq!(encode(&combo, &dims), linear);
        }
        // And over the sampled (capped) path too.
        let set = enumerate(&[9, 9, 9, 9], 100, "encode_roundtrip");
        let seen: HashSet<u64> = set.cases.iter().map(|c| encode(c, &set.dims)).collect();
        assert_eq!(seen.len(), set.cases.len(), "linear indices stay distinct");
    }

    #[test]
    fn a_smaller_cap_slices_the_stream_a_larger_one_drew() {
        let dims = [9, 9, 9, 9];
        let big = plan(&dims, 1000, "prefix");
        let small = plan(&dims, 100, "prefix");
        assert_eq!(small.len(), 100);
        assert!((0..100).all(|i| small.linear(i) == big.linear(i)));
        assert_eq!(small.to_case_set(), enumerate(&dims, 100, "prefix"));
        assert_eq!(big.to_case_set(), enumerate(&dims, 1000, "prefix"));
        // A cap covering the product is the lexicographic range.
        let all = plan(&[3, 2], 6, "small");
        assert!(all.exhaustive());
        assert_eq!(all.combo(5), vec![2, 1]);
        assert_eq!(Plan::single().to_case_set(), single_case());
    }

    #[test]
    fn walking_a_plan_matches_random_access() {
        // In order, out of order and repeated: the walk agrees with
        // `decode` on a lexicographic plan and on a stored one.
        let order = [0, 1, 2, 3, 7, 8, 8, 0, 1, 11, 12, 23, 5, 6];
        for plan in [plan(&[2, 3, 4], 24, "walk"), plan(&[2, 3, 4], 12, "walk")] {
            let mut cases = plan.cases();
            for &i in order.iter().filter(|&&i| i < plan.len()) {
                assert_eq!(cases.get(i), decode(plan.linear(i), plan.dims()));
            }
        }
        let pin = Plan::pinned(&[19, 12, 8], &[1823, 0, 5, 1000]);
        assert_eq!(pin.combo(0), decode(1823, &[19, 12, 8]));
        assert_eq!(
            (0..pin.len()).map(|i| pin.linear(i)).collect::<Vec<_>>(),
            [1823, 0, 5, 1000]
        );
    }

    #[test]
    fn weighted_draw_is_deterministic_and_biased() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            assert_eq!(
                weighted_index(&mut a, &[1, 64, 1]),
                weighted_index(&mut b, &[1, 64, 1])
            );
        }
        // The heavy entry dominates the draw.
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            counts[weighted_index(&mut rng, &[1, 64, 1])] += 1;
        }
        assert!(counts[1] > 500, "{counts:?}");
        // Zero weights never win unless all weights are zero.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(weighted_index(&mut rng, &[0, 0, 7, 0]), 2);
        }
        let uniform = weighted_index(&mut rng, &[0, 0, 0]);
        assert!(uniform < 3);
    }
}
