//! E16 — connection-level serving: runs
//! [`sdrad_bench::scenarios::e16`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e16");
}
