//! The weak-label matrix `W` with `W[i][j] = λ_j(x_i)` (paper §2.1), and
//! its exact LF-moment ledger.
//!
//! # Layout
//!
//! Votes are `i8` (`-1` = abstain; every paper task is binary and class
//! counts stay below 128), stored row-major with a row *stride* of at
//! least `m`: row `i` is `data[i·stride .. i·stride + m]`, and the slots
//! past `m` are spare LF columns, filled with abstains. A new LF
//! ([`LabelMatrix::push_lf`]) writes one vote into each row's next spare
//! slot; only when the spare columns run out does the stride double, with
//! one copy of the matrix. A session that grows to 100 LFs therefore
//! copies its votes four times (at 8, 16, 32 and 64 LFs) instead of at
//! every push. Row-major keeps
//! [`LabelMatrix::row`] a borrowed slice for the row-wise label models and
//! for the snapshot codec, which sees the same packed row-major bytes
//! ([`LabelMatrix::votes`]) whatever the stride.
//!
//! # The moment ledger
//!
//! [`LfMoments`] holds the sufficient statistics of the triplet label
//! model: per-LF fire counts, the signed pair sums `Σ_i s(W[i][j])·s(W[i][k])`
//! for `j < k` (with `s(abstain) = 0`, `s(0) = −1`, `s(v) = +1` otherwise),
//! and each LF's largest vote. Invariant: when a matrix holds a ledger, it
//! equals exactly (as `i64` integers) what a scan of the current votes
//! gives. It is kept up to date, never approximated:
//!
//! * an n×0 matrix ([`LabelMatrix::empty`]) starts with its (empty) ledger,
//!   and [`LabelMatrix::push_lf`] extends the ledger over the new LF's
//!   firing rows, in O(coverage × m), scanning the votes first when the
//!   matrix holds none yet (a resumed session's first push);
//! * [`LabelMatrix::select_columns`] carries the selected sub-block,
//!   re-indexed to the new column order, in O(|cols|²);
//! * [`LabelMatrix::set`] adjusts it exactly;
//! * a matrix built from votes ([`LabelMatrix::from_votes`],
//!   [`LabelMatrix::from_lfs`], [`LabelMatrix::from_raw`],
//!   [`LabelMatrix::select_rows`]) has none until [`LabelMatrix::moments`]
//!   or a push first asks, which scans the votes once. A snapshot decode
//!   therefore never builds one.
//!
//! The ledger is derived data: equality compares the shape and the votes
//! only.

use crate::error::LfError;
use crate::lf::{LabelFunction, ABSTAIN};
use adp_data::Dataset;
use adp_linalg::parallel::{self, Execution};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Instances per parallel chunk when evaluating LFs over a dataset.
const APPLY_CHUNK: usize = 1024;
/// Minimum instance count before threads pay for themselves.
const MIN_PARALLEL: usize = 4096;
/// Row stride an n×0 matrix grows to at its first LF.
const MIN_STRIDE: usize = 8;

/// A vote's ±1 encoding in the moment sums (`0` for an abstain).
#[inline]
fn sign(v: i8) -> i64 {
    match v {
        ABSTAIN => 0,
        0 => -1,
        _ => 1,
    }
}

/// A vote's rank in [`LfMoments`]' largest-vote record: its `u8` bit
/// pattern, so a negative non-abstain vote outranks every class; `None`
/// for an abstain.
#[inline]
fn rank(v: i8) -> Option<u8> {
    (v != ABSTAIN).then_some(v as u8)
}

/// An LF's largest vote by [`rank`] (`None` while it never fires) and how
/// many of its votes share that rank, so overwriting one of several
/// maxima needs no rescan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Top {
    rank: Option<u8>,
    count: i64,
}

impl Top {
    /// Counts one more vote of rank `r`.
    fn add(&mut self, r: Option<u8>) {
        match r.cmp(&self.rank) {
            std::cmp::Ordering::Greater => *self = Top { rank: r, count: 1 },
            std::cmp::Ordering::Equal if r.is_some() => self.count += 1,
            _ => {}
        }
    }

    /// The record of a column of votes.
    fn of(votes: impl Iterator<Item = i8>) -> Self {
        let mut top = Top::default();
        votes.for_each(|v| top.add(rank(v)));
        top
    }
}

/// Offset of LF `k`'s pair sums in the packed triangle: its sums with the
/// LFs `j < k` sit at `tri(k) + j`, so appending an LF appends its row.
#[inline]
fn tri(k: usize) -> usize {
    k * k.saturating_sub(1) / 2
}

/// Where the pair sum of LFs `j != k` sits in the packed triangle.
#[inline]
fn slot(j: usize, k: usize) -> usize {
    if j < k {
        tri(k) + j
    } else {
        tri(j) + k
    }
}

/// The exact `i64` moment ledger of a [`LabelMatrix`] (see the module
/// docs for its invariant): per-LF fire counts, the signed pair sums over
/// every LF pair, and each LF's largest vote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LfMoments {
    /// Instances each LF fires on.
    fire: Vec<i64>,
    /// Signed pair sums, packed by [`tri`].
    pairs: Vec<i64>,
    /// Each LF's largest vote.
    top: Vec<Top>,
}

impl LfMoments {
    /// The ledger of `matrix`, from one scan of its votes. Each row's
    /// firing LFs are gathered once as `(index, ±1)`, so only firing pairs
    /// are visited.
    fn scan(matrix: &LabelMatrix) -> Self {
        let m = matrix.m;
        let mut ledger = LfMoments {
            fire: vec![0; m],
            pairs: vec![0; tri(m)],
            top: vec![Top::default(); m],
        };
        let mut firing: Vec<(usize, i64)> = Vec::with_capacity(m);
        for i in 0..matrix.n {
            firing.clear();
            for (k, &v) in matrix.row(i).iter().enumerate() {
                if v != ABSTAIN {
                    firing.push((k, sign(v)));
                    ledger.fire[k] += 1;
                    ledger.top[k].add(rank(v));
                }
            }
            for (b, &(k, sk)) in firing.iter().enumerate() {
                let row = &mut ledger.pairs[tri(k)..tri(k) + k];
                for &(j, sj) in &firing[..b] {
                    row[j] += sj * sk;
                }
            }
        }
        ledger
    }

    /// The ledger of the columns `cols` (in order, repeats allowed) of the
    /// matrix this ledger describes.
    fn select(&self, cols: &[usize]) -> Self {
        let mut pairs = Vec::with_capacity(tri(cols.len()));
        for (b, &k) in cols.iter().enumerate() {
            pairs.extend(cols[..b].iter().map(|&j| self.pair_sum(j, k)));
        }
        LfMoments {
            fire: cols.iter().map(|&c| self.fire[c]).collect(),
            pairs,
            top: cols.iter().map(|&c| self.top[c]).collect(),
        }
    }

    /// Instances each LF fires on.
    pub fn fire_counts(&self) -> &[i64] {
        &self.fire
    }

    /// `Σ_i s(W[i][j])·s(W[i][k])`; symmetric, and LF `j`'s fire count
    /// when `j == k`.
    pub fn pair_sum(&self, j: usize, k: usize) -> i64 {
        if j == k {
            self.fire[j]
        } else {
            self.pairs[slot(j, k)]
        }
    }

    /// A non-abstain vote that is not a class of an `n_classes`-class task
    /// (`v as usize >= n_classes`), if any LF casts one: the largest such
    /// by `u8` bit pattern.
    pub fn vote_outside(&self, n_classes: usize) -> Option<i8> {
        let largest = self.top.iter().filter_map(|t| t.rank).max()?;
        (largest as usize >= n_classes).then_some(largest as i8)
    }
}

/// Dense n×m matrix of weak labels (`-1` = abstain), row-major in `i8`
/// with spare LF columns, plus its optional moment ledger (module docs).
#[derive(Debug, Clone)]
pub struct LabelMatrix {
    n: usize,
    m: usize,
    /// Row stride, `>= m`; slots `m..stride` of each row hold abstains.
    stride: usize,
    data: Vec<i8>,
    moments: OnceLock<LfMoments>,
}

impl PartialEq for LabelMatrix {
    /// Shape and votes only: the stride is storage and the ledger derived.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.m == other.m && (0..self.n).all(|i| self.row(i) == other.row(i))
    }
}

impl LabelMatrix {
    /// Packed (stride = m) matrix without a ledger.
    fn packed(n: usize, m: usize, data: Vec<i8>) -> Self {
        LabelMatrix {
            n,
            m,
            stride: m,
            data,
            moments: OnceLock::new(),
        }
    }

    /// An n×0 matrix (no LFs yet), holding its (empty) ledger from the
    /// start so every [`LabelMatrix::push_lf`] keeps it current.
    pub fn empty(n: usize) -> Self {
        LabelMatrix {
            moments: OnceLock::from(LfMoments::default()),
            ..Self::packed(n, 0, vec![])
        }
    }

    /// Builds a matrix directly from vote rows (all rows must share a
    /// length). Useful for tests and for models that synthesise votes.
    pub fn from_votes(rows: &[Vec<i8>]) -> Result<Self, LfError> {
        let n = rows.len();
        let m = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n * m);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != m {
                return Err(LfError::BadMatrix {
                    reason: format!("row {i} has {} votes, expected {m}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self::packed(n, m, data))
    }

    /// Evaluates `lfs` on every instance of `dataset`. LF application is
    /// embarrassingly parallel over instances, so large datasets run
    /// chunk-parallel (identical output either way — votes are integers).
    pub fn from_lfs(lfs: &[LabelFunction], dataset: &Dataset) -> Self {
        Self::from_lfs_exec(lfs, dataset, parallel::auto(dataset.len(), MIN_PARALLEL))
    }

    /// [`LabelMatrix::from_lfs`] with explicit scheduling (benches and the
    /// behaviour-identity tests drive both paths).
    pub fn from_lfs_exec(lfs: &[LabelFunction], dataset: &Dataset, exec: Execution) -> Self {
        let n = dataset.len();
        let m = lfs.len();
        let chunks = parallel::map_chunks(n, APPLY_CHUNK, exec, |rows| {
            let mut part = Vec::with_capacity(rows.len() * m);
            for i in rows {
                part.extend(lfs.iter().map(|lf| lf.apply(dataset, i)));
            }
            part
        });
        let mut data = Vec::with_capacity(n * m);
        for part in chunks {
            data.extend_from_slice(&part);
        }
        Self::packed(n, m, data)
    }

    /// Rebuilds a matrix from its raw parts (the inverse of
    /// [`LabelMatrix::votes`]), for snapshot decoding. The multiply is
    /// checked: decoded dimensions may be hostile, and an overflow must be
    /// the same typed error as any other shape mismatch, not a panic (or,
    /// worse, a wrapped product that happens to match `data.len()`).
    pub fn from_raw(n: usize, m: usize, data: Vec<i8>) -> Result<Self, LfError> {
        if n.checked_mul(m) != Some(data.len()) {
            return Err(LfError::BadMatrix {
                reason: format!("{} votes cannot fill an {n}x{m} matrix", data.len()),
            });
        }
        Ok(Self::packed(n, m, data))
    }

    /// The votes packed row-major (length `n_instances × n_lfs`, no spare
    /// columns), for snapshot encoding. Borrowed when the storage has no
    /// spare columns, else packed into a copy.
    pub fn votes(&self) -> Cow<'_, [i8]> {
        if self.stride == self.m {
            Cow::Borrowed(&self.data)
        } else {
            Cow::Owned((0..self.n).flat_map(|i| self.row(i)).copied().collect())
        }
    }

    /// The moment ledger, scanned from the votes on first demand when the
    /// matrix does not carry one (module docs).
    pub fn moments(&self) -> &LfMoments {
        self.moments.get_or_init(|| LfMoments::scan(self))
    }

    /// The ledger if the matrix already holds one, without scanning.
    pub fn carried_moments(&self) -> Option<&LfMoments> {
        self.moments.get()
    }

    /// Number of instances.
    pub fn n_instances(&self) -> usize {
        self.n
    }

    /// Number of LFs.
    pub fn n_lfs(&self) -> usize {
        self.m
    }

    /// Row `i`: one vote per LF.
    #[inline]
    pub fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.stride..i * self.stride + self.m]
    }

    /// Vote of LF `j` on instance `i`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i8 {
        self.row(i)[j]
    }

    /// Overwrites a vote (used by the Revising-LF baseline, which corrects
    /// LF outputs on user-labelled instances), adjusting a present ledger
    /// by the vote's change in each of its sums.
    pub fn set(&mut self, i: usize, j: usize, v: i8) -> Result<(), LfError> {
        if i >= self.n {
            return Err(LfError::IndexOutOfRange {
                index: i,
                len: self.n,
            });
        }
        if j >= self.m {
            return Err(LfError::IndexOutOfRange {
                index: j,
                len: self.m,
            });
        }
        let row_start = i * self.stride;
        let old = std::mem::replace(&mut self.data[row_start + j], v);
        let Some(ledger) = self.moments.get_mut() else {
            return Ok(());
        };
        let delta = sign(v) - sign(old);
        if delta != 0 {
            for (k, &u) in self.data[row_start..row_start + self.m].iter().enumerate() {
                if k != j && u != ABSTAIN {
                    ledger.pairs[slot(j, k)] += delta * sign(u);
                }
            }
        }
        ledger.fire[j] += i64::from(v != ABSTAIN) - i64::from(old != ABSTAIN);
        let top = &mut ledger.top[j];
        if old != ABSTAIN && rank(old) == top.rank {
            if top.count == 1 {
                // The overwritten vote was the column's only maximum.
                *top = Top::of((0..self.n).map(|r| self.data[r * self.stride + j]));
                return Ok(());
            }
            top.count -= 1;
        }
        top.add(rank(v));
        Ok(())
    }

    /// Appends one LF evaluated on `dataset` as a new column: one vote per
    /// row into a spare slot, and the ledger extended over the LF's firing
    /// rows.
    pub fn push_lf(&mut self, lf: &LabelFunction, dataset: &Dataset) -> Result<(), LfError> {
        if dataset.len() != self.n {
            return Err(LfError::BadMatrix {
                reason: format!("dataset has {} rows, matrix has {}", dataset.len(), self.n),
            });
        }
        // The LF evaluation dominates, and it is independent per instance —
        // run it chunk-parallel on large splits.
        let votes: Vec<i8> = parallel::map_chunks(
            self.n,
            APPLY_CHUNK,
            parallel::auto(self.n, MIN_PARALLEL),
            |rows| rows.map(|i| lf.apply(dataset, i)).collect::<Vec<_>>(),
        )
        .into_iter()
        .flatten()
        .collect();
        // A matrix built from votes (a resumed session's) scans once here,
        // so every later push and selection carries the ledger.
        self.moments();
        let mut fire = 0;
        let mut pair_row = vec![0i64; self.m];
        // Each firing row adds −1, 0 or +1 to each old LF's sum, so
        // `i16` partials over blocks of `i16::MAX` rows are exact, and
        // narrow enough for the branch-free inner loop to vectorise.
        let mut partial = vec![0i16; self.m];
        for (b, block) in votes.chunks(i16::MAX as usize).enumerate() {
            for (r, &v) in block.iter().enumerate() {
                if v == ABSTAIN {
                    continue;
                }
                fire += 1;
                let s = sign(v) as i16;
                let row = self.row(b * i16::MAX as usize + r);
                for (p, &u) in partial.iter_mut().zip(row) {
                    *p += s * (i16::from(u != ABSTAIN) - 2 * i16::from(u == 0));
                }
            }
            for (total, p) in pair_row.iter_mut().zip(&mut partial) {
                *total += i64::from(std::mem::take(p));
            }
        }
        let ledger = self.moments.get_mut().expect("initialised above");
        ledger.fire.push(fire);
        ledger.pairs.extend(pair_row);
        ledger.top.push(Top::of(votes.iter().copied()));
        if self.m == self.stride {
            self.widen();
        }
        for (i, v) in votes.into_iter().enumerate() {
            self.data[i * self.stride + self.m] = v;
        }
        self.m += 1;
        Ok(())
    }

    /// Doubles the row stride (at least [`MIN_STRIDE`]), copying each row
    /// once.
    fn widen(&mut self) {
        let stride = (2 * self.stride).max(MIN_STRIDE);
        let mut data = vec![ABSTAIN; self.n * stride];
        for (i, dst) in data.chunks_exact_mut(stride).enumerate() {
            dst[..self.m].copy_from_slice(self.row(i));
        }
        self.data = data;
        self.stride = stride;
    }

    /// New matrix keeping only the columns in `cols` (in order), carrying
    /// the matching sub-block of a present ledger.
    pub fn select_columns(&self, cols: &[usize]) -> Result<LabelMatrix, LfError> {
        for &c in cols {
            if c >= self.m {
                return Err(LfError::IndexOutOfRange {
                    index: c,
                    len: self.m,
                });
            }
        }
        let m = cols.len();
        let mut data = Vec::with_capacity(self.n * m);
        for i in 0..self.n {
            let row = self.row(i);
            data.extend(cols.iter().map(|&c| row[c]));
        }
        Ok(LabelMatrix {
            moments: self
                .moments
                .get()
                .map_or_else(OnceLock::new, |l| OnceLock::from(l.select(cols))),
            ..Self::packed(self.n, m, data)
        })
    }

    /// New matrix keeping only the rows in `rows` (in order).
    pub fn select_rows(&self, rows: &[usize]) -> Result<LabelMatrix, LfError> {
        for &r in rows {
            if r >= self.n {
                return Err(LfError::IndexOutOfRange {
                    index: r,
                    len: self.n,
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * self.m);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Ok(Self::packed(rows.len(), self.m, data))
    }

    /// `true` when at least one LF fires on instance `i`.
    #[inline]
    pub fn has_vote(&self, i: usize) -> bool {
        self.row(i).iter().any(|&v| v != ABSTAIN)
    }

    /// Fraction of instances with at least one non-abstain vote.
    pub fn coverage(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n).filter(|&i| self.has_vote(i)).count() as f64 / self.n as f64
    }

    /// Fraction of instances LF `j` fires on.
    pub fn lf_coverage(&self, j: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n).filter(|&i| self.get(i, j) != ABSTAIN).count() as f64 / self.n as f64
    }

    /// Accuracy of LF `j` against `labels` over its covered instances;
    /// `None` when it never fires.
    pub fn lf_accuracy(&self, j: usize, labels: &[usize]) -> Option<f64> {
        let mut fired = 0usize;
        let mut correct = 0usize;
        for i in 0..self.n {
            let v = self.get(i, j);
            if v != ABSTAIN {
                fired += 1;
                if v as usize == labels[i] {
                    correct += 1;
                }
            }
        }
        (fired > 0).then(|| correct as f64 / fired as f64)
    }

    /// Fraction of instances where ≥2 LFs fire (overlap, Snorkel's metric).
    pub fn overlap(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n)
            .filter(|&i| self.row(i).iter().filter(|&&v| v != ABSTAIN).count() >= 2)
            .count() as f64
            / self.n as f64
    }

    /// Fraction of instances where two firing LFs disagree.
    pub fn conflict(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n)
            .filter(|&i| {
                let mut first: Option<i8> = None;
                self.row(i).iter().any(|&v| {
                    if v == ABSTAIN {
                        return false;
                    }
                    match first {
                        None => {
                            first = Some(v);
                            false
                        }
                        Some(f) => v != f,
                    }
                })
            })
            .count() as f64
            / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lf::StumpOp;
    use adp_data::{FeatureSet, Task};
    use adp_linalg::Matrix;

    #[test]
    fn from_raw_roundtrips_and_rejects_bad_shapes() {
        let m = LabelMatrix::from_votes(&[vec![1, ABSTAIN], vec![0, 1]]).unwrap();
        let back = LabelMatrix::from_raw(2, 2, m.votes().to_vec()).unwrap();
        assert_eq!(m, back);
        assert!(LabelMatrix::from_raw(2, 2, vec![1; 3]).is_err());
        // Hostile decoded dimensions must be the same typed error, not a
        // multiply overflow — and never a wrapped product that passes.
        assert!(LabelMatrix::from_raw(usize::MAX, 2, vec![]).is_err());
        assert!(LabelMatrix::from_raw(1 << 40, 1 << 40, vec![]).is_err());
    }

    fn dataset() -> Dataset {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        Dataset {
            name: "tab".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(x),
            labels: vec![0, 0, 1, 1],
            texts: None,
            encoded_docs: None,
        }
    }

    fn lfs() -> Vec<LabelFunction> {
        vec![
            LabelFunction::Stump {
                feature: 0,
                threshold: 2.0,
                op: StumpOp::Ge,
                label: 1,
            },
            LabelFunction::Stump {
                feature: 0,
                threshold: 1.0,
                op: StumpOp::Le,
                label: 0,
            },
            // Deliberately wrong LF: fires on everything voting 1.
            LabelFunction::Stump {
                feature: 0,
                threshold: -10.0,
                op: StumpOp::Ge,
                label: 1,
            },
        ]
    }

    #[test]
    fn from_lfs_layout() {
        let m = LabelMatrix::from_lfs(&lfs(), &dataset());
        assert_eq!(m.n_instances(), 4);
        assert_eq!(m.n_lfs(), 3);
        assert_eq!(m.row(0), &[ABSTAIN, 0, 1]);
        assert_eq!(m.row(3), &[1, ABSTAIN, 1]);
    }

    #[test]
    fn coverage_overlap_conflict() {
        let m = LabelMatrix::from_lfs(&lfs(), &dataset());
        assert_eq!(m.coverage(), 1.0); // LF3 fires everywhere
        assert_eq!(m.overlap(), 1.0); // every row has >= 2 votes
                                      // rows 0,1: votes {0,1} conflict; rows 2,3: votes {1,1} agree.
        assert!((m.conflict() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lf_stats() {
        let m = LabelMatrix::from_lfs(&lfs(), &dataset());
        let labels = dataset().labels;
        assert!((m.lf_coverage(0) - 0.5).abs() < 1e-12);
        assert_eq!(m.lf_accuracy(0, &labels), Some(1.0));
        assert_eq!(m.lf_accuracy(2, &labels), Some(0.5));
    }

    #[test]
    fn push_lf_appends_column() {
        let d = dataset();
        let mut m = LabelMatrix::empty(4);
        assert_eq!(m.n_lfs(), 0);
        assert!(!m.has_vote(0));
        m.push_lf(&lfs()[0], &d).unwrap();
        m.push_lf(&lfs()[1], &d).unwrap();
        assert_eq!(m.n_lfs(), 2);
        assert_eq!(m.row(3), &[1, ABSTAIN]);
        let full = LabelMatrix::from_lfs(&lfs()[..2], &d);
        assert_eq!(m, full);
    }

    /// Pushing LFs across several stride doublings keeps every vote: the
    /// grown matrix equals a packed one built in one pass, packs to the
    /// same row-major bytes, and carries the ledger the packed one scans.
    #[test]
    fn push_lf_across_widenings_matches_a_packed_build() {
        let d = dataset();
        let pool: Vec<LabelFunction> = (0..3 * MIN_STRIDE + 1)
            .map(|k| LabelFunction::Stump {
                feature: 0,
                threshold: (k % 5) as f64 - 0.5,
                op: if k % 2 == 0 { StumpOp::Ge } else { StumpOp::Le },
                label: k % 2,
            })
            .collect();
        let mut grown = LabelMatrix::empty(4);
        for (k, lf) in pool.iter().enumerate() {
            grown.push_lf(lf, &d).unwrap();
            let packed = LabelMatrix::from_lfs(&pool[..=k], &d);
            assert_eq!(grown, packed, "after {} LFs", k + 1);
            assert_eq!(grown.votes(), packed.votes());
            assert!(
                packed.moments.get().is_none(),
                "a packed build scans lazily"
            );
            assert_eq!(grown.moments.get(), Some(packed.moments()));
        }
        assert!(
            grown.stride > grown.n_lfs(),
            "spare columns after a widening"
        );
        assert!(matches!(grown.votes(), Cow::Owned(_)));
        let back = LabelMatrix::from_raw(4, pool.len(), grown.votes().into_owned()).unwrap();
        assert_eq!(back, grown);
        assert!(matches!(back.votes(), Cow::Borrowed(_)));
    }

    /// The `i16` partials of the ledger extension flush every `i16::MAX`
    /// rows: a push over several blocks, with every row firing the same
    /// way (the largest partial a block can reach), still equals a scan.
    #[test]
    fn ledger_extension_is_exact_across_partial_blocks() {
        let n = 2 * i16::MAX as usize + 5;
        let x = Matrix::from_fn(n, 1, |i, _| (i % 3) as f64);
        let big = Dataset {
            name: "blocks".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(x),
            labels: vec![0; n],
            texts: None,
            encoded_docs: None,
        };
        let stump = |threshold: f64, label: usize| LabelFunction::Stump {
            feature: 0,
            threshold,
            op: StumpOp::Ge,
            label,
        };
        let lfs = [
            stump(-1.0, 1),
            stump(-1.0, 1),
            stump(1.0, 0),
            stump(-1.0, 0),
        ];
        let mut grown = LabelMatrix::empty(n);
        for lf in &lfs {
            grown.push_lf(lf, &big).unwrap();
        }
        let scanned = LabelMatrix::from_lfs(&lfs, &big);
        assert_eq!(grown.moments.get(), Some(scanned.moments()));
        assert_eq!(grown.moments().pair_sum(0, 1), n as i64);
        assert_eq!(grown.moments().pair_sum(1, 3), -(n as i64));
    }

    #[test]
    fn select_columns_and_rows() {
        let m = LabelMatrix::from_lfs(&lfs(), &dataset());
        let sub = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(sub.n_lfs(), 2);
        assert_eq!(sub.row(3), &[1, 1]);
        assert!(m.select_columns(&[5]).is_err());
        let rows = m.select_rows(&[3, 0]).unwrap();
        assert_eq!(rows.n_instances(), 2);
        assert_eq!(rows.row(0), m.row(3));
        assert!(m.select_rows(&[9]).is_err());
    }

    #[test]
    fn set_overwrites_votes() {
        let mut m = LabelMatrix::from_lfs(&lfs(), &dataset());
        m.set(0, 2, 0).unwrap();
        assert_eq!(m.get(0, 2), 0);
        assert!(m.set(9, 0, 0).is_err());
        assert!(m.set(0, 9, 0).is_err());
    }

    #[test]
    fn empty_matrix_stats_are_zero() {
        let m = LabelMatrix::empty(0);
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.overlap(), 0.0);
        assert_eq!(m.conflict(), 0.0);
    }

    #[test]
    fn from_votes_roundtrip_and_validation() {
        let m = LabelMatrix::from_votes(&[vec![1, ABSTAIN], vec![0, 1]]).unwrap();
        assert_eq!(m.n_instances(), 2);
        assert_eq!(m.n_lfs(), 2);
        assert_eq!(m.row(0), &[1, ABSTAIN]);
        assert!(LabelMatrix::from_votes(&[vec![1], vec![0, 1]]).is_err());
        let empty = LabelMatrix::from_votes(&[]).unwrap();
        assert_eq!(empty.n_instances(), 0);
    }

    #[test]
    fn from_lfs_serial_matches_parallel() {
        // Several apply-chunks, awkward length.
        let n = 3 * APPLY_CHUNK + 91;
        let x = Matrix::from_fn(n, 1, |i, _| (i % 17) as f64);
        let big = Dataset {
            name: "big".into(),
            task: Task::OccupancyPrediction,
            n_classes: 2,
            features: FeatureSet::Dense(x),
            labels: (0..n).map(|i| usize::from(i % 17 >= 8)).collect(),
            texts: None,
            encoded_docs: None,
        };
        let serial = LabelMatrix::from_lfs_exec(&lfs(), &big, adp_linalg::Execution::Serial);
        let parallel = LabelMatrix::from_lfs_exec(&lfs(), &big, adp_linalg::Execution::parallel());
        assert_eq!(serial, parallel);
        // push_lf (auto-parallel at this size) agrees with from_lfs.
        let mut pushed = LabelMatrix::empty(n);
        for lf in lfs() {
            pushed.push_lf(&lf, &big).unwrap();
        }
        assert_eq!(pushed, LabelMatrix::from_lfs(&lfs(), &big));
    }

    #[test]
    fn accuracy_none_for_never_firing() {
        let d = dataset();
        let never = LabelFunction::Stump {
            feature: 0,
            threshold: 100.0,
            op: StumpOp::Ge,
            label: 1,
        };
        let m = LabelMatrix::from_lfs(&[never], &d);
        assert_eq!(m.lf_accuracy(0, &d.labels), None);
        assert_eq!(m.lf_coverage(0), 0.0);
    }
}
