//! Order statistics, timing and the result digest.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-pass totals of per-item sample lists: `times[i][p]` is item
/// `i`'s time in pass `p`; passes every item lacks are dropped.
pub fn pass_totals(times: &[Vec<f64>]) -> Vec<f64> {
    let passes = times.iter().map(Vec::len).min().unwrap_or(0);
    (0..passes)
        .map(|p| times.iter().map(|t| t[p]).sum())
        .collect()
}

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// FNV-1a over a sequence of values' `Debug` renderings: a digest of
/// every simulated statistic, so a speed-only change can be seen to
/// leave results bit-identical. `f64` fields render in their shortest
/// round-trip form, so equal digests mean equal bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_pass_totals_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(
            pass_totals(&[vec![1.0, 2.0], vec![3.0, 4.0, 5.0]]),
            vec![4.0, 6.0]
        );
    }

    #[test]
    fn digest_tells_values_and_boundaries_apart() {
        let d = |xs: &[&str]| {
            let mut d = Digest::default();
            xs.iter().for_each(|x| d.add(x));
            d.hex()
        };
        assert_eq!(d(&["a", "b"]), d(&["a", "b"]));
        assert_ne!(d(&["a", "b"]), d(&["b", "a"]));
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
    }
}
