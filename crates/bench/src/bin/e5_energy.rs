//! E5 — energy and carbon per availability strategy: runs
//! [`sdrad_bench::scenarios::e5`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e5");
}
