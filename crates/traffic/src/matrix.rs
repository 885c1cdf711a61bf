//! Source-destination traffic rate matrices, stored as fill rows.
//!
//! Each row of a [`TrafficMatrix`] holds one *fill* rate, which every
//! off-diagonal column takes, plus a sorted list of *exceptions*: the
//! `(column, rate)` pairs whose rate differs bitwise from the fill. The
//! diagonal is always zero (self-traffic is dropped on write).
//!
//! * Uniform rows are one fill and no exceptions: 64 B per row whatever
//!   the mesh size.
//! * Transpose and complement rows are a zero fill plus one exception;
//!   hotspot rows are the background fill plus the corner exceptions.
//! * Rows with a distinct rate per pair (Soteriou, NPB-shaped) store
//!   every nonzero pair as an exception: a `u16` column and an `f64`
//!   rate, 10 B per pair where a dense row took 8 B.
//!
//! Every query answers exactly what a dense `N × N` array of the same
//! writes would: [`rate`](TrafficMatrix::rate) returns the stored value,
//! [`injection_rate`](TrafficMatrix::injection_rate) and
//! [`total_injection`](TrafficMatrix::total_injection) add the rates in
//! dense (row-major) order, [`demands`](TrafficMatrix::demands) lists
//! them in that order, and `==` compares pair by pair. Rates are finite
//! and non-negative (debug-asserted on every write).

use hyppi_topology::NodeId;
use serde::{Deserialize, Serialize};

/// An N×N matrix of flit rates (flits per cycle) between node pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    rows: Vec<Row>,
}

/// One source's rates: `fill` on every off-diagonal column except the
/// exceptions in `cols` (ascending, never the diagonal), whose rates sit
/// at the same index of `rates` and differ bitwise from `fill`.
#[derive(Debug, Clone, Default)]
struct Row {
    fill: f64,
    cols: Vec<u16>,
    rates: Vec<f64>,
    /// Exceptions whose rate is not positive. While this is 0, the
    /// row's positive columns are either every off-diagonal column (a
    /// positive fill) or exactly the exceptions (a zero fill).
    zeros: u32,
}

impl Row {
    /// The rate at off-diagonal column `col`.
    #[inline]
    fn get(&self, col: usize) -> f64 {
        match self.cols.binary_search(&(col as u16)) {
            Ok(i) => self.rates[i],
            Err(_) => self.fill,
        }
    }

    /// Stores `rate` at off-diagonal column `col`, keeping an exception
    /// only while the rate differs bitwise from the fill.
    fn put(&mut self, col: usize, rate: f64) {
        let col = col as u16;
        let is_fill = rate.to_bits() == self.fill.to_bits();
        match self.cols.binary_search(&col) {
            Ok(i) => {
                self.zeros -= u32::from(self.rates[i] <= 0.0);
                if is_fill {
                    self.cols.remove(i);
                    self.rates.remove(i);
                } else {
                    self.rates[i] = rate;
                    self.zeros += u32::from(rate <= 0.0);
                }
            }
            Err(i) if !is_fill => {
                self.cols.insert(i, col);
                self.rates.insert(i, rate);
                self.zeros += u32::from(rate <= 0.0);
            }
            Err(_) => {}
        }
    }
}

impl TrafficMatrix {
    /// Creates an all-zero matrix for `n` nodes.
    pub fn zero(n: usize) -> Self {
        Self::filled(n, 0.0)
    }

    /// Creates a matrix for `n` nodes whose every off-diagonal pair
    /// carries `rate`: one fill per row, no per-pair storage.
    pub fn filled(n: usize, rate: f64) -> Self {
        debug_assert!(rate >= 0.0 && rate.is_finite());
        let row = Row {
            fill: rate,
            ..Row::default()
        };
        TrafficMatrix {
            n,
            rows: vec![row; n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Rate from `src` to `dst`, flits per cycle.
    #[inline]
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        debug_assert!(dst.index() < self.n, "destination {dst} out of range");
        if src == dst {
            0.0
        } else {
            self.rows[src.index()].get(dst.index())
        }
    }

    /// Sets the rate for a pair. Self-traffic is silently dropped.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        debug_assert!(rate >= 0.0 && rate.is_finite());
        debug_assert!(dst.index() < self.n, "destination {dst} out of range");
        if src != dst {
            self.rows[src.index()].put(dst.index(), rate);
        }
    }

    /// Adds to the rate for a pair. Self-traffic is silently dropped.
    pub fn add(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        debug_assert!(rate >= 0.0 && rate.is_finite());
        debug_assert!(dst.index() < self.n, "destination {dst} out of range");
        if src != dst {
            let row = &mut self.rows[src.index()];
            row.put(dst.index(), row.get(dst.index()) + rate);
        }
    }

    /// Scales every rate by a finite, non-negative factor (e.g. sweeping
    /// the injection rate).
    pub fn scaled(&self, factor: f64) -> Self {
        // -0.0 would turn the implicit zero diagonal negative.
        debug_assert!(factor.is_sign_positive() && factor.is_finite());
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut out = Row {
                    fill: row.fill * factor,
                    ..Row::default()
                };
                for (&col, &rate) in row.cols.iter().zip(&row.rates) {
                    out.put(usize::from(col), rate * factor);
                }
                out
            })
            .collect();
        TrafficMatrix { n: self.n, rows }
    }

    /// Iterates over all nonzero `(src, dst, rate)` demands, row by row
    /// in column order.
    pub fn demands(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |s| {
            let src = NodeId(s as u16);
            self.row_demands(src)
                .map(move |(dst, rate)| (src, dst, rate))
        })
    }

    /// The positive-rate destinations of `src` with their rates, in
    /// column order.
    pub fn row_demands(&self, src: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let s = src.index();
        let row = &self.rows[s];
        // A row without a positive fill sends only to its exceptions;
        // otherwise every column is a candidate.
        let dense = row.fill > 0.0;
        let every = (0..if dense { self.n } else { 0 })
            .map(move |d| (d, if d == s { 0.0 } else { row.get(d) }));
        let listed = row
            .cols
            .iter()
            .zip(&row.rates)
            .take(if dense { 0 } else { row.cols.len() })
            .map(|(&d, &rate)| (usize::from(d), rate));
        every
            .chain(listed)
            .filter(|&(_, rate)| rate > 0.0)
            .map(|(d, rate)| (NodeId(d as u16), rate))
    }

    /// The `k`-th positive-rate destination of `src` in column order
    /// (`k` counts from 0): the node a draw landing in the `k`-th slot
    /// of `src`'s destination distribution picks. O(1) unless the row
    /// holds a zero-rate exception.
    ///
    /// # Panics
    ///
    /// If the row has `k` or fewer positive rates.
    #[inline]
    pub fn destination(&self, src: NodeId, k: usize) -> NodeId {
        let s = src.index();
        let row = &self.rows[s];
        let col = if row.zeros > 0 {
            self.row_demands(src)
                .nth(k)
                .expect("destination index out of range")
                .0
                .index()
        } else if row.fill > 0.0 {
            // Every off-diagonal column: step over the diagonal.
            let col = k + usize::from(k >= s);
            assert!(col < self.n, "destination index out of range");
            col
        } else {
            usize::from(row.cols[k])
        };
        NodeId(col as u16)
    }

    /// Whether rows `a` and `b` list bitwise the same rates in the same
    /// order once each skips its own diagonal — so they have the same
    /// injection rate and the same destination distribution. Compares
    /// the stored fills and exceptions, O(exceptions): rows that hold
    /// the same rates in different stored forms answer `false`.
    pub fn rows_alike(&self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (&self.rows[a.index()], &self.rows[b.index()]);
        // An exception's place in its row once the diagonal is skipped.
        let rank = |col: u16, diag: usize| {
            let col = usize::from(col);
            col - usize::from(col > diag)
        };
        ra.fill.to_bits() == rb.fill.to_bits()
            && ra.cols.len() == rb.cols.len()
            && ra
                .cols
                .iter()
                .zip(&rb.cols)
                .all(|(&x, &y)| rank(x, a.index()) == rank(y, b.index()))
            && ra
                .rates
                .iter()
                .zip(&rb.rates)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Total injection rate of a node, flits per cycle.
    pub fn injection_rate(&self, src: NodeId) -> f64 {
        // Dense column order, visiting only the positive rates: a zero
        // term never changes a sum that has seen a positive rate, and
        // the first positive rate replaces a zero sum exactly. A row
        // without one sums to +0.0 densely too: its diagonal is +0.0.
        self.row_demands(src).fold(0.0, |sum, (_, rate)| sum + rate)
    }

    /// Total flits injected per cycle across the network.
    pub fn total_injection(&self) -> f64 {
        // Dense row-major order; zeros skipped as in `injection_rate`.
        self.demands().fold(0.0, |sum, (_, _, rate)| sum + rate)
    }

    /// Mean per-node injection rate.
    pub fn mean_injection(&self) -> f64 {
        self.total_injection() / self.n as f64
    }

    /// FNV-1a over the stored rows (size, then each row's fill and
    /// exceptions), O(N + exceptions): a cache key. Matrices that store
    /// the same rows hash alike; equal matrices built different ways
    /// (a fill vs. the same rate set pair by pair) may not.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.n as u64);
        for row in &self.rows {
            eat(row.fill.to_bits());
            eat(row.cols.len() as u64);
            for (&col, &rate) in row.cols.iter().zip(&row.rates) {
                eat(u64::from(col));
                eat(rate.to_bits());
            }
        }
        h
    }
}

impl PartialEq for TrafficMatrix {
    /// Pair-by-pair `==` of the rates, as on a dense array: rows stored
    /// alike compare in O(exceptions), others column by column.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .enumerate()
                .all(|(s, (a, b))| {
                    (a.fill == b.fill && a.cols == b.cols && a.rates == b.rates)
                        || (0..self.n)
                            .filter(|&d| d != s)
                            .all(|d| a.get(d) == b.get(d))
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut m = TrafficMatrix::zero(4);
        m.set(NodeId(0), NodeId(3), 0.25);
        assert_eq!(m.rate(NodeId(0), NodeId(3)), 0.25);
        assert_eq!(m.rate(NodeId(3), NodeId(0)), 0.0);
    }

    #[test]
    fn self_traffic_dropped() {
        let mut m = TrafficMatrix::zero(4);
        m.set(NodeId(1), NodeId(1), 0.9);
        m.add(NodeId(2), NodeId(2), 0.9);
        assert_eq!(m.total_injection(), 0.0);
    }

    #[test]
    fn injection_sums_per_row() {
        let mut m = TrafficMatrix::zero(3);
        m.set(NodeId(0), NodeId(1), 0.1);
        m.set(NodeId(0), NodeId(2), 0.2);
        m.set(NodeId(1), NodeId(0), 0.4);
        assert!((m.injection_rate(NodeId(0)) - 0.3).abs() < 1e-12);
        assert!((m.total_injection() - 0.7).abs() < 1e-12);
        assert!((m.mean_injection() - 0.7 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_is_linear() {
        let mut m = TrafficMatrix::zero(3);
        m.set(NodeId(0), NodeId(1), 0.1);
        let s = m.scaled(3.0);
        assert!((s.rate(NodeId(0), NodeId(1)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn demands_iterates_nonzero() {
        let mut m = TrafficMatrix::zero(3);
        m.set(NodeId(2), NodeId(0), 0.5);
        let d: Vec<_> = m.demands().collect();
        assert_eq!(d, vec![(NodeId(2), NodeId(0), 0.5)]);
    }

    /// The representation this module replaced: a row-major `N × N`
    /// array with the same write semantics.
    #[derive(Clone)]
    struct Dense {
        n: usize,
        rates: Vec<f64>,
    }

    impl Dense {
        fn filled(n: usize, rate: f64) -> Self {
            let mut rates = vec![rate; n * n];
            for i in 0..n {
                rates[i * n + i] = 0.0;
            }
            Dense { n, rates }
        }

        fn row(&self, s: usize) -> &[f64] {
            &self.rates[s * self.n..(s + 1) * self.n]
        }
    }

    /// Rates that hit the fill (0 and the shared constants), signed
    /// zeros, and arbitrary values.
    fn pick(choice: usize, random: f64) -> f64 {
        [0.0, -0.0, 0.25, 1e-3, 1.0 / 3.0, random, random * 1e-300][choice % 7]
    }

    /// Replays `ops` on both forms: kind 0 = `set`, 1 = `add`,
    /// 2 = `scaled` by a factor in [0, 4) (or exactly 0 or 1).
    fn build(
        n: usize,
        fill: f64,
        ops: &[(u8, usize, usize, usize, f64)],
    ) -> (TrafficMatrix, Dense) {
        let mut m = TrafficMatrix::filled(n, fill);
        let mut d = Dense::filled(n, fill);
        for &(kind, s, t, choice, random) in ops {
            let (s, t) = (s % n, t % n);
            let i = s * n + t;
            let v = pick(choice, random);
            match kind {
                0 => {
                    m.set(NodeId(s as u16), NodeId(t as u16), v);
                    if s != t {
                        d.rates[i] = v;
                    }
                }
                1 => {
                    m.add(NodeId(s as u16), NodeId(t as u16), v);
                    if s != t {
                        d.rates[i] += v;
                    }
                }
                _ => {
                    let f = [0.0, 1.0, 4.0 * random][choice % 3];
                    m = m.scaled(f);
                    d.rates.iter_mut().for_each(|r| *r *= f);
                }
            }
        }
        (m, d)
    }

    fn check(m: &TrafficMatrix, d: &Dense) -> Result<(), TestCaseError> {
        let n = d.n;
        let bits = |x: f64| x.to_bits();
        for s in 0..n {
            let src = NodeId(s as u16);
            for t in 0..n {
                prop_assert_eq!(bits(m.rate(src, NodeId(t as u16))), bits(d.row(s)[t]));
            }
            let dense_sum: f64 = d.row(s).iter().sum();
            prop_assert_eq!(bits(m.injection_rate(src)), bits(dense_sum));
            // The k-th positive column, as the destination CDF slots it.
            let positive: Vec<usize> = (0..n).filter(|&t| d.row(s)[t] > 0.0).collect();
            for (k, &t) in positive.iter().enumerate() {
                prop_assert_eq!(m.destination(src, k), NodeId(t as u16));
            }
            // Rows called alike hold the same diagonal-free sequence.
            let off = |s: usize| -> Vec<u64> {
                (0..n)
                    .filter(|&t| t != s)
                    .map(|t| bits(d.row(s)[t]))
                    .collect()
            };
            for a in 0..n {
                if m.rows_alike(NodeId(a as u16), src) {
                    prop_assert_eq!(off(a), off(s));
                }
            }
        }
        let dense_total: f64 = d.rates.iter().sum();
        prop_assert_eq!(bits(m.total_injection()), bits(dense_total));
        let demands: Vec<(NodeId, NodeId, u64)> =
            m.demands().map(|(s, t, r)| (s, t, bits(r))).collect();
        let dense_demands: Vec<(NodeId, NodeId, u64)> = (0..n * n)
            .filter(|&i| d.rates[i] > 0.0)
            .map(|i| {
                (
                    NodeId((i / n) as u16),
                    NodeId((i % n) as u16),
                    bits(d.rates[i]),
                )
            })
            .collect();
        prop_assert_eq!(demands, dense_demands);
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every query of a matrix built by random fill/`set`/`add`/
        /// `scaled` sequences answers bitwise what the dense array of
        /// the same writes does, and `==` agrees with the arrays' `==`.
        #[test]
        fn matches_the_dense_model(
            n in 1usize..10,
            fill in (0usize..7, 0.0f64..1.0),
            ops in proptest::collection::vec((0u8..3, 0usize..10, 0usize..10, 0usize..7, 0.0f64..1.0), 0..40),
            other in proptest::collection::vec((0u8..3, 0usize..10, 0usize..10, 0usize..7, 0.0f64..1.0), 0..6),
        ) {
            let fill = pick(fill.0, fill.1).abs();
            let (m, d) = build(n, fill, &ops);
            check(&m, &d)?;
            prop_assert!(m == m.clone());
            prop_assert_eq!(m.fingerprint(), m.clone().fingerprint());
            // The same rates written pair by pair into a zero matrix: a
            // different stored form, equal pair for pair.
            let mut pairwise = TrafficMatrix::zero(n);
            for s in 0..n {
                for t in 0..n {
                    pairwise.set(NodeId(s as u16), NodeId(t as u16), d.row(s)[t]);
                }
            }
            check(&pairwise, &d)?;
            prop_assert!(m == pairwise);
            prop_assert!(pairwise == m);
            // A few more writes: `==` iff the dense arrays are `==`.
            let mut both = ops.clone();
            both.extend(&other);
            let (m2, d2) = build(n, fill, &both);
            prop_assert_eq!(m == m2, d.rates == d2.rates);
        }
    }
}
