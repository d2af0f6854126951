//! E22 — allocation discipline on the serving hot path: thread-local
//! frame-buffer arenas vs malloc-per-frame.
//!
//! The paper prices resilience mechanisms by the joules they burn; the
//! allocator is a tax every mechanism pays on every frame. This
//! experiment runs the closed-loop kvstore mix
//! ([`cells::closed_loop`]) twice through the **identical** code path —
//! the per-thread [`arena::set_thread_pooling`] switch toggles only
//! whether `FrameBuf::acquire` recycles worker-local storage or falls
//! through to a fresh heap allocation; the runtime always pools, so the
//! unpooled cell's handler factory switches its worker's arena off
//! again — and counts worker-thread heap allocations per served request
//! with the [`CountingAlloc`] harness (workers opt in from the same
//! factory, so the load generator's allocations are never charged to
//! the serving path). Counting spans only the post-warm-up window:
//! domain-pool setup, kv-store growth and arena prefill land in the
//! `WARMUP` trips before it. The binary that runs this scenario must
//! install `CountingAlloc` as its global allocator.
//!
//! Each arm runs three times. Allocation counts are near-deterministic,
//! but an amortized growth spike in one run must not
//! become the number, so the alloc rows come from the run with the
//! fewest allocations; the tail comparison takes each arm's least-noise
//! p99 across the same three runs.
//!
//! Hard assertions: pooled allocs-per-request under half the unpooled
//! figure on the identical code path, a majority of pooled acquires
//! served from recycled storage, balanced arena books in every run
//! (`acquires == reuses + fresh`), pooling off never recycles, and a
//! pooled p99 inside a generous band of the unpooled tail (allocation
//! discipline must not buy its savings with latency). The arena's
//! cross-thread return channel is covered by the runtime's
//! `lockfree_queue.rs` no-alias property.
//!
//! [`CountingAlloc`]: sdrad_nolock::CountingAlloc

use std::time::Duration;

use sdrad_nolock::arena;
use sdrad_runtime::{IsolationMode, KvHandler, RuntimeConfig, RuntimeStats};

use crate::cells::{self, fmt_us};
use crate::Report;

/// Closed-loop round trips served before the counted window.
const WARMUP: usize = 500;
/// The acceptance bound: pooled allocs/request must be under half the
/// unpooled figure.
const RATIO_BOUND: f64 = 0.5;
/// Generous latency band: the pooled p99 may not exceed this multiple
/// of the unpooled p99 (closed-loop µs-scale tails are noisy on a
/// loaded host; this guards against collapse, not jitter).
const P99_BAND: f64 = 3.0;

/// One arm: the fewest-allocations run's books and allocs/request, and
/// the least-noise p99 across all three runs.
fn arm(pooling: bool, requests: usize) -> (RuntimeStats, f64, Duration) {
    let config = RuntimeConfig::new(4, IsolationMode::PerClientDomain);
    let runs: Vec<(RuntimeStats, u64)> = (0..3)
        .map(|_| {
            let factory = move |_| {
                // Runs on the worker's own thread, after the runtime
                // armed its arena: the unpooled cell disarms it again,
                // and every allocation this worker makes from here on
                // is charged to the serving path.
                arena::set_thread_pooling(pooling);
                arena::count_allocs_on_this_thread(true);
                KvHandler::default()
            };
            let (stats, allocs) = cells::closed_loop(config, factory, WARMUP, requests);
            assert!(allocs > 0, "no allocation counted: CountingAlloc missing");
            assert_eq!(
                stats.arena_acquires(),
                stats.arena_reuses() + stats.arena_fresh_allocs(),
                "arena books must balance (pooling={pooling})"
            );
            (stats, allocs)
        })
        .collect();
    let p99 = runs.iter().map(|(stats, _)| stats.ok_latency().p99()).min();
    let (stats, allocs) = runs
        .into_iter()
        .min_by_key(|(_, allocs)| *allocs)
        .expect("three runs");
    (
        stats,
        allocs as f64 / requests as f64,
        p99.expect("three runs"),
    )
}

/// Runs both arms at `size` counted round trips per run.
#[must_use]
pub fn run(size: usize) -> Report {
    let (pooled, pooled_apr, pooled_p99) = arm(true, size);
    let (unpooled, unpooled_apr, unpooled_p99) = arm(false, size);

    let alloc_ratio = pooled_apr / unpooled_apr.max(f64::EPSILON);
    assert!(
        alloc_ratio < RATIO_BOUND,
        "allocation discipline regressed: pooled {pooled_apr:.2} vs unpooled {unpooled_apr:.2} \
         allocs/request ({alloc_ratio:.2}x, bound {RATIO_BOUND})"
    );
    let reuse_ratio = pooled.arena_reuses() as f64 / pooled.arena_acquires().max(1) as f64;
    assert!(
        reuse_ratio > 0.5,
        "a warmed arena must serve most acquires from recycled storage, got {reuse_ratio:.2}"
    );
    assert_eq!(unpooled.arena_reuses(), 0, "pooling off must never recycle");
    let tail_ratio = pooled_p99.as_secs_f64() / unpooled_p99.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        tail_ratio <= P99_BAND,
        "pooling may not tax the tail: pooled p99 {tail_ratio:.2}x the unpooled p99 \
         (band {P99_BAND})"
    );

    let mut r = Report::new("e22", "frame-buffer arena vs malloc-per-frame");
    r.begin_table(
        format!(
            "{size} counted round trips after {WARMUP} warm-up, 8 conns, 4 workers, best of 3 \
             runs per arm"
        ),
        &[
            "arena",
            "allocs/req",
            "acquires",
            "reuses",
            "fresh",
            "returns",
            "ok p99",
        ],
    );
    for (label, stats, apr, p99) in [
        ("pooled", &pooled, pooled_apr, pooled_p99),
        ("malloc", &unpooled, unpooled_apr, unpooled_p99),
    ] {
        r.row(&[
            label.into(),
            format!("{apr:.2}"),
            stats.arena_acquires().to_string(),
            stats.arena_reuses().to_string(),
            stats.arena_fresh_allocs().to_string(),
            stats.arena_returns().to_string(),
            fmt_us(p99),
        ]);
    }
    r.exact(
        "crashes",
        (pooled.crashes() + unpooled.crashes()) as f64,
        "count",
    )
    .exact(
        "pool_conserves",
        f64::from(u8::from(
            pooled.arena_acquires() == pooled.arena_reuses() + pooled.arena_fresh_allocs(),
        )),
        "bool",
    )
    .guarded("allocs_per_request", pooled_apr, "allocs", false)
    .guarded("alloc_ratio", alloc_ratio, "ratio", false)
    .guarded("reuse_ratio", reuse_ratio, "ratio", true)
    .info("allocs_per_request_unpooled", unpooled_apr, "allocs")
    .note(format!(
        "pooled serving path makes {pooled_apr:.2} allocs/request vs {unpooled_apr:.2} with \
         pooling off ({alloc_ratio:.2}x, bound {RATIO_BOUND}); {:.0}% of pooled acquires reused \
         recycled storage",
        reuse_ratio * 100.0
    ))
    .note(format!(
        "pooled p99 {} vs unpooled {} ({tail_ratio:.2}x, band {P99_BAND})",
        fmt_us(pooled_p99),
        fmt_us(unpooled_p99),
    ))
    .note(format!(
        "conclusion: identical code path, one thread-local switch — recycling worker-local \
         frame storage removes {:.0}% of serving-path heap allocations on the e17 mix",
        (1.0 - alloc_ratio) * 100.0
    ));
    r
}
