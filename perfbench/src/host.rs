//! Host-speed normalisation of the end-to-end times.
//!
//! On a shared host, other tenants slow the ops of this benchmark by up
//! to ~1.4× for seconds to minutes at a time, while a pure ALU loop and
//! hypervisor steal barely move. Ten runs of the same code then spread
//! past any useful bound, whatever statistic a run reports. So every
//! timed op runs between two runs of a fixed probe that does the kind of
//! work the simulator does (a small FIFO cache in a hash map, run over a
//! fixed key stream; code and data belong to the benchmark, not to the
//! program), and the end-to-end figures scale the op's time by
//! `PROBE_REF_S / mean probe time`: seconds on a host where the probe
//! takes `PROBE_REF_S`. A change to the program moves the op and not the
//! probe, so it shows in full; a slow phase of the host moves both. The
//! raw times stay in the run record.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The probe time the normalised figures are scaled to: a fixed scale,
/// not a measurement.
pub const PROBE_REF_S: f64 = 0.020;
/// Keys one probe looks up, about 10–30 ms.
const PROBE_KEYS: usize = 300_000;
/// FIFO capacity of the probe's cache, in keys.
const PROBE_CAPACITY: usize = 1 << 14;

/// Fixed keys, so the map's layout is the same in every process.
type FixedMap = HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>;

pub struct HostProbe {
    keys: Vec<u32>,
    /// Every probe's seconds, for the run record.
    times: Mutex<Vec<f64>>,
}

impl HostProbe {
    /// Draws the key stream from a fixed generator, so every run (and
    /// every seed) probes with the same keys: three in four from a hot
    /// set the size of the cache, one in four from a set 16× wider.
    pub fn new() -> HostProbe {
        let mut state = 0x243f_6a88_85a3_08d3_u64;
        let keys = (0..PROBE_KEYS)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(0x1405_7b7e_f767_814f);
                let r = (state >> 33) as u32;
                if r.is_multiple_of(4) {
                    r % (16 * PROBE_CAPACITY as u32)
                } else {
                    r % PROBE_CAPACITY as u32
                }
            })
            .collect();
        HostProbe {
            keys,
            times: Mutex::new(Vec::new()),
        }
    }

    /// Seconds one probe takes now: a FIFO cache of `PROBE_CAPACITY`
    /// keys in a hash map, run over the key stream.
    pub fn probe(&self) -> f64 {
        let t0 = Instant::now();
        let mut map = FixedMap::with_capacity_and_hasher(2 * PROBE_CAPACITY, Default::default());
        let mut fifo = VecDeque::with_capacity(PROBE_CAPACITY);
        let mut misses = 0_u64;
        for &key in black_box(&self.keys) {
            if let Some(hits) = map.get_mut(&key) {
                *hits += 1;
                continue;
            }
            misses += 1;
            if fifo.len() == PROBE_CAPACITY {
                if let Some(old) = fifo.pop_front() {
                    map.remove(&old);
                }
            }
            fifo.push_back(key);
            map.insert(key, 1);
        }
        black_box(misses);
        let secs = t0.elapsed().as_secs_f64();
        self.times
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(secs);
        secs
    }

    /// Runs `op` between two probes. Returns its result, its seconds
    /// and its seconds normalised by the mean of the two probes to the
    /// reference probe time.
    pub fn timed<T>(&self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.probe();
        let t0 = Instant::now();
        let out = op();
        let secs = t0.elapsed().as_secs_f64();
        let after = self.probe();
        (out, secs, secs * PROBE_REF_S * 2.0 / (before + after))
    }

    /// Every probe's seconds so far.
    pub fn times(&self) -> Vec<f64> {
        self.times
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_scales_by_the_probe() {
        let host = HostProbe::new();
        let (v, secs, norm) = host.timed(|| black_box(7_u64) * 6);
        assert_eq!(v, 42);
        let probes = host.times();
        assert_eq!(probes.len(), 2);
        let mean = (probes[0] + probes[1]) / 2.0;
        assert!(mean > 0.0);
        assert!((norm - secs * PROBE_REF_S / mean).abs() <= 1e-15);
    }
}
