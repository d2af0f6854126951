//! E20 — the flight-recorder post-mortem: runs
//! [`sdrad_bench::scenarios::e20`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e20");
}
