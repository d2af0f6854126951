//! E1 — runtime overhead of per-request domain isolation: runs
//! [`sdrad_bench::scenarios::e1`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e1");
}
