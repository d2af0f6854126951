//! E23 — zero-pause pool rebuilds: runs
//! [`sdrad_bench::scenarios::e23`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e23");
}
