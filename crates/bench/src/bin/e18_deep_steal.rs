//! E18 — deep work stealing under a hot-shard skew: runs
//! [`sdrad_bench::scenarios::e18`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e18");
}
