//! E4 — availability per recovery mechanism: runs
//! [`sdrad_bench::scenarios::e4`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e4");
}
