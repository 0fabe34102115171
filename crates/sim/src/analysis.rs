//! Trace analysis: reuse distances and miss-rate-vs-capacity curves.
//!
//! The paper's miss-rate figures show *what* each granularity does; this
//! module computes *why*: the trace's *byte reuse-distance* profile — for
//! each access, how many distinct superblock bytes were touched since the
//! previous access to the same superblock. By the Mattson stack property,
//! an access whose reuse distance exceeds the capacity can never hit
//! under LRU — an *exact* miss-rate floor for the recency baseline — and
//! because FIFO retention is driven by intervening insertions (which the
//! reuse distance upper-bounds), the same CDF is a tight heuristic floor
//! for the FIFO-family policies. Its knee locates the capacity cliff each
//! benchmark sits on (the "bimodal" behaviour of §4.2).
//!
//! The exact distances are computed with a Fenwick tree over access
//! timestamps — O(n log n), fine for millions of events.

use cce_core::SuperblockId;
use cce_dbt::{TraceEvent, TraceLog};
use std::collections::HashMap;

/// Fenwick (binary indexed) tree over access positions, weighted by
/// superblock bytes.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of weights at positions `0..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The reuse-distance profile of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseProfile {
    /// Sorted byte reuse distances of all non-cold accesses.
    distances: Vec<u64>,
    /// Number of cold (first-touch) accesses.
    pub cold_accesses: u64,
    /// Total accesses.
    pub total_accesses: u64,
}

impl ReuseProfile {
    /// Fraction of all accesses whose reuse distance is at most
    /// `capacity` bytes — an exact upper bound on LRU's hit rate at that
    /// capacity, and a heuristic one for FIFO-family policies (cold
    /// accesses can never hit under anything).
    #[must_use]
    pub fn hit_rate_bound(&self, capacity: u64) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        let fitting = self.distances.partition_point(|&d| d <= capacity);
        fitting as f64 / self.total_accesses as f64
    }

    /// The corresponding lower bound on the miss rate.
    #[must_use]
    pub fn miss_rate_bound(&self, capacity: u64) -> f64 {
        1.0 - self.hit_rate_bound(capacity)
    }

    /// Quantile of the non-cold reuse distances (`q` in 0..=1).
    ///
    /// Returns `None` when every access is cold.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        if self.distances.is_empty() {
            return None;
        }
        let idx = ((self.distances.len() - 1) as f64 * q).round() as usize;
        Some(self.distances[idx])
    }

    /// The miss-rate lower bound evaluated at `maxCache / pressure` for
    /// each pressure — the analytic floor under Figure 7's curves.
    #[must_use]
    pub fn pressure_floor(&self, max_cache: u64, pressures: &[u32]) -> Vec<(u32, f64)> {
        pressures
            .iter()
            .map(|&p| (p, self.miss_rate_bound(max_cache / u64::from(p.max(1)))))
            .collect()
    }
}

/// Computes the byte reuse-distance profile of `trace`.
#[must_use]
pub fn reuse_profile(trace: &TraceLog) -> ReuseProfile {
    let sizes: HashMap<SuperblockId, u64> = trace
        .superblocks
        .iter()
        .map(|s| (s.id, u64::from(s.size)))
        .collect();
    let n = trace.events.len();
    let mut fen = Fenwick::new(n);
    let mut last_pos: HashMap<SuperblockId, usize> = HashMap::new();
    let mut distances = Vec::with_capacity(n);
    let mut cold = 0u64;

    for (pos, ev) in trace.events.iter().enumerate() {
        let TraceEvent::Access { id, .. } = *ev;
        let size = sizes.get(&id).copied().unwrap_or(0);
        match last_pos.get(&id) {
            None => cold += 1,
            Some(&prev) => {
                // Distinct bytes touched strictly between prev and pos:
                // prefix sums over live "latest occurrence" markers.
                let between = fen.prefix(pos.saturating_sub(1)) - fen.prefix(prev);
                distances.push(between);
                // The block's marker moves from prev to pos.
                fen.add(prev, -(size as i64));
            }
        }
        fen.add(pos, size as i64);
        last_pos.insert(id, pos);
    }
    distances.sort_unstable();
    ReuseProfile {
        distances,
        cold_accesses: cold,
        total_accesses: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_dbt::SuperblockInfo;
    use cce_tinyvm::program::Pc;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    fn make_trace(sizes: &[u32], accesses: &[u64]) -> TraceLog {
        let mut log = TraceLog::new("t");
        for (i, &s) in sizes.iter().enumerate() {
            log.record_superblock(SuperblockInfo {
                id: sb(i as u64),
                head_pc: Pc(i as u64 * 100),
                size: s,
                guest_blocks: 1,
                exits: 1,
            });
        }
        for &a in accesses {
            log.record_access(sb(a), None);
        }
        log
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let t = make_trace(&[100, 100], &[0, 0, 0]);
        let p = reuse_profile(&t);
        assert_eq!(p.cold_accesses, 1);
        assert_eq!(p.distances, vec![0, 0]);
        assert_eq!(p.hit_rate_bound(0), 2.0 / 3.0);
    }

    #[test]
    fn interleaved_reuse_counts_distinct_bytes() {
        // A B A: the re-access of A has distance = size(B) = 70.
        let t = make_trace(&[100, 70], &[0, 1, 0]);
        let p = reuse_profile(&t);
        assert_eq!(p.distances, vec![70]);
        assert_eq!(p.miss_rate_bound(69), 1.0);
        assert!((p.miss_rate_bound(70) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_intervening_block_counts_once() {
        // A B B B A: distance for the second A is still 70 (distinct).
        let t = make_trace(&[100, 70], &[0, 1, 1, 1, 0]);
        let p = reuse_profile(&t);
        // B's re-accesses have distance 0; A's is 70.
        assert_eq!(p.distances, vec![0, 0, 70]);
    }

    #[test]
    fn cyclic_scan_distances_equal_working_set() {
        // 0 1 2 0 1 2: every reuse distance is the other two blocks.
        let t = make_trace(&[50, 50, 50], &[0, 1, 2, 0, 1, 2]);
        let p = reuse_profile(&t);
        assert_eq!(p.distances, vec![100, 100, 100]);
        // A 99-byte cache can never hit; a 100-byte one could.
        assert_eq!(p.hit_rate_bound(99), 0.0);
        assert_eq!(p.hit_rate_bound(100), 0.5);
    }

    #[test]
    fn quantiles_and_pressure_floor() {
        let t = make_trace(&[50, 50, 50], &[0, 1, 2, 0, 1, 2]);
        let p = reuse_profile(&t);
        assert_eq!(p.quantile(0.5), Some(100));
        let floor = p.pressure_floor(300, &[2, 3, 4]);
        // 300/2=150 ≥ 100 ⇒ misses only the 3 cold accesses.
        assert!((floor[0].1 - 0.5).abs() < 1e-12);
        // 300/4=75 < 100 ⇒ nothing can hit.
        assert!((floor[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_is_exact_for_lru_and_holds_for_fifo_here() {
        // Mattson: the bound provably floors LRU's misses. For the
        // FIFO-family it is heuristic; on these deterministic traces it
        // holds as well (checked, not assumed).
        use crate::pressure::capacity_for_pressure;
        use crate::replay::Replay;
        use crate::simulator::SimConfig;
        use cce_core::{CodeCache, Granularity, LruCache};
        let trace = cce_workloads::by_name("gzip").unwrap().trace(0.2, 4);
        let profile = reuse_profile(&trace);
        for pressure in [2u32, 6] {
            let cap = capacity_for_pressure(trace.max_cache_bytes(), pressure);
            let bound = profile.miss_rate_bound(cap);
            let lru = Replay::new(&trace)
                .session(CodeCache::new(Box::new(LruCache::new(cap).unwrap())), "LRU")
                .run()
                .unwrap()
                .into_solo();
            assert!(
                lru.stats.miss_rate() >= bound - 1e-9,
                "LRU@{pressure}: {} beat the Mattson bound {bound}",
                lru.stats.miss_rate()
            );
            for g in [
                Granularity::Flush,
                Granularity::units(8),
                Granularity::Superblock,
            ] {
                let r = Replay::new(&trace)
                    .config(&SimConfig::default())
                    .granularity(g)
                    .pressure(pressure)
                    .run()
                    .unwrap()
                    .into_solo();
                assert!(
                    r.stats.miss_rate() >= bound - 1e-9,
                    "{g}@{pressure}: policy {} beat the reuse floor {bound}",
                    r.stats.miss_rate()
                );
            }
        }
    }

    #[test]
    fn empty_trace_profile() {
        let t = make_trace(&[], &[]);
        let p = reuse_profile(&t);
        assert_eq!(p.total_accesses, 0);
        assert_eq!(p.hit_rate_bound(1000), 0.0);
        assert_eq!(p.quantile(0.5), None);
    }
}
