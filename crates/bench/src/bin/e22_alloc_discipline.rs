//! E22 — allocation discipline on the serving hot path: runs
//! [`sdrad_bench::scenarios::e22`] at its full size.

/// The scenario counts worker-thread heap allocations.
#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

fn main() {
    sdrad_bench::scenarios::run_full("e22");
}
