//! Interleaving stress for the `ConcurrentCache` lock paths.
//!
//! The lock-graph lint proves the hierarchy **arbiter → tenant
//! (ascending)** is acyclic on every static call path (its model is
//! cross-checked against this very file's subject in
//! `crates/analyze/tests/golden.rs`,
//! `lock_model_matches_the_real_concurrent_cache`). This test attacks
//! the same property dynamically: the arbiter's review runs every
//! [`REVIEW_PERIOD`] accesses — so the arbiter-then-every-tenant
//! descent executes hundreds of times per run, re-sizing lanes under
//! the other threads — while every thread hammers accesses, cross-shard
//! links (both shard orders, each inside one tenant's lock) and
//! flushes. A deadlock would show up as a watchdog timeout here rather
//! than a hung CI job.
//!
//! Workloads are seed-pinned xorshift streams, and the thread sweep is
//! pinned with `CCE_TEST_THREADS=<T>` exactly as in
//! `concurrent_conformance.rs` (CI runs 1 and 4).

use std::sync::mpsc;
use std::time::Duration;

use cce_core::{
    ArbiterConfig, CacheError, CacheOrg, CacheSession, ConcurrentSession, EventBuffer,
    InsertRequest, LruCache, OrgFactory, SuperblockId, TenantConfig, TenantId,
};

/// Per-tenant byte budget.
const CAPACITY: u64 = 2048;
/// Global accesses between arbiter reviews — tiny, so reviews fire
/// continuously under contention.
const REVIEW_PERIOD: u64 = 32;
/// Accesses per serving thread.
const ACCESSES: u64 = 2_000;
/// Generous bound for one thread's workload; only a lost lock ever
/// gets near it.
const WATCHDOG: Duration = Duration::from_secs(120);

fn factory() -> OrgFactory {
    Box::new(|c| Ok(Box::new(LruCache::new(c)?) as Box<dyn CacheOrg>))
}

fn arbiter() -> ArbiterConfig {
    ArbiterConfig {
        review_period: REVIEW_PERIOD,
        ..ArbiterConfig::default()
    }
}

fn session(tenants: usize, shards: u32) -> ConcurrentSession {
    let configs = (0..tenants)
        .map(|_| TenantConfig::new(CAPACITY, factory()))
        .collect();
    ConcurrentSession::new(configs, shards, Some(arbiter())).expect("geometry is valid")
}

fn thread_counts() -> Vec<usize> {
    match std::env::var("CCE_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("CCE_TEST_THREADS must be an integer")],
        Err(_) => vec![1, 2, 4],
    }
}

/// Seed-pinned workload over a wide id range so consecutive ids land on
/// different shards: accesses with occasional hints, links between the
/// last two touched blocks (both shard orders occur), periodic flushes.
fn drive<S: CacheSession>(s: &mut S, seed: u64, buf: &mut EventBuffer) {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (seed.wrapping_mul(0x0100_0000_01b3) | 1);
    let mut last: Option<SuperblockId> = None;
    for step in 0..ACCESSES {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let id = SuperblockId(rng % 97);
        let size = 24 + ((rng >> 9) % 101) as u32;
        let hint = if rng & 0x40 != 0 { last } else { None };
        match s.access_or_insert(InsertRequest::new(id, size).with_hint(hint), buf) {
            Ok(_) | Err(CacheError::BlockTooLarge { .. }) => {}
            Err(e) => panic!("unexpected cache error: {e}"),
        }
        if rng & 0x3 == 0 {
            if let Some(from) = last {
                if from != id && s.is_resident(from) && s.is_resident(id) {
                    s.link(from, id).expect("both endpoints are resident");
                }
            }
        }
        if step % 512 == 511 {
            s.flush(buf);
        }
        last = Some(id);
    }
    s.flush(buf);
}

#[test]
fn arbiter_reviews_interleave_with_serving_without_deadlock() {
    for threads in thread_counts() {
        for shards in [2u32, 4] {
            let sess = session(threads, shards);
            let (tx, rx) = mpsc::channel();
            let mut workers = Vec::new();
            for t in 0..threads {
                let mut tenant = sess.tenant(TenantId(t as u32));
                let tx = tx.clone();
                workers.push(std::thread::spawn(move || {
                    let mut buf = EventBuffer::new();
                    drive(&mut tenant, 0xC0FF_EE00 | t as u64, &mut buf);
                    tx.send(t).expect("main thread is waiting");
                    buf.events().len()
                }));
            }
            drop(tx);
            for _ in 0..threads {
                rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
                    panic!(
                        "watchdog: a serving thread stalled \
                         ({threads} threads, {shards} shards) — possible deadlock"
                    )
                });
            }
            for w in workers {
                assert!(
                    w.join().expect("worker panicked") > 0,
                    "events were settled"
                );
            }

            // The arbiter really ran, and every decision conserved the
            // total budget while respecting the per-tenant floor.
            let total: u64 = CAPACITY * threads as u64;
            let cfg = arbiter();
            for d in sess.decisions() {
                assert_eq!(
                    d.capacities.iter().sum::<u64>(),
                    total,
                    "re-partitioning must conserve total capacity"
                );
                assert!(d.capacities.iter().all(|&c| c >= cfg.floor_bytes));
                assert!(d.bytes_moved > 0);
            }
            let assigned: u64 = (0..threads)
                .map(|t| sess.tenant_capacity(TenantId(t as u32)))
                .sum();
            assert_eq!(assigned, total, "final budgets sum to the initial total");
        }
    }
}

#[test]
fn single_threaded_interleave_is_reproducible() {
    // With one serving thread the whole run — arbiter decisions
    // included — must be bit-reproducible from the seed: if the lock
    // paths leaked any scheduling dependence into the serving results,
    // identical seeds would diverge.
    let run = || {
        let sess = session(1, 4);
        let mut tenant = sess.tenant(TenantId(0));
        let mut buf = EventBuffer::new();
        drive(&mut tenant, 0x00DE_C0DE, &mut buf);
        (buf.events().to_vec(), sess.decisions())
    };
    let (events_a, decisions_a) = run();
    let (events_b, decisions_b) = run();
    assert_eq!(events_a, events_b, "event streams must be identical");
    assert_eq!(
        decisions_a, decisions_b,
        "arbiter decisions must be identical"
    );
}
