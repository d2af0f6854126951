//! Seeded model test for the bulk-copy pipe: random-sized writes and
//! every read path interleaved through one `duplex()`, checked step by
//! step against a plain `Vec<u8>` model — bytes, order, `NetStats` and
//! waker-edge counts.
//!
//! The mix keeps the pipe non-empty almost all the time (partial reads
//! outnumber full drains) and moves far more bytes than the ring ever
//! holds, so the buffered bytes regularly straddle the ring's end and
//! reads see the two-slice case. A read path that drops either slice of
//! a wrapped buffer loses bytes against the model and fails here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdrad_net::{duplex, NetStats};

/// xorshift64*: deterministic per seed, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What the reader side must have observed so far.
#[derive(Default)]
struct Model {
    /// Bytes written and not yet read, in order.
    pending: Vec<u8>,
    writer: NetStats,
    reader: NetStats,
    edges: u64,
}

impl Model {
    /// Removes and returns the first `n` pending bytes, charging the
    /// reader's stats like an `Endpoint` read that returned them.
    fn take(&mut self, n: usize) -> Vec<u8> {
        let taken: Vec<u8> = self.pending.drain(..n).collect();
        self.reader.bytes_received += n as u64;
        self.reader.reads += 1;
        taken
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let (mut writer, mut reader) = duplex();
    let edges = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&edges);
    reader.set_ready_callback(Arc::new(move || {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let mut model = Model::default();
    let mut next_byte = 0u8;
    // Reused across steps, like a serving loop's staging buffer: the
    // `_into` paths must append, never overwrite.
    let mut staged: Vec<u8> = Vec::new();
    let mut staged_model: Vec<u8> = Vec::new();

    for step in 0..steps {
        let context = format!("seed {seed} step {step}");
        match rng.below(64) {
            // Writes: 0..=700 bytes, a rolling counter with a newline
            // every so often so `read_line` has lines to find.
            0..=23 => {
                let len = rng.below(701);
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        next_byte = next_byte.wrapping_add(1);
                        if rng.below(40) == 0 {
                            b'\n'
                        } else {
                            next_byte
                        }
                    })
                    .collect();
                writer.write(&data);
                model.pending.extend_from_slice(&data);
                model.writer.bytes_sent += len as u64;
                model.writer.writes += 1;
                if len > 0 {
                    model.edges += 1;
                }
            }
            24..=39 => {
                let mut buf = vec![0u8; 1 + rng.below(700)];
                let got = reader.read(&mut buf);
                let want = buf.len().min(model.pending.len());
                assert_eq!(got, want, "{context}: read length");
                if want > 0 {
                    assert_eq!(&buf[..got], model.take(want), "{context}: read bytes");
                }
            }
            40..=49 => {
                let n = 1 + rng.below(500);
                let got = reader.read_exact(n);
                if model.pending.len() < n {
                    assert_eq!(got, None, "{context}: read_exact is all-or-nothing");
                } else {
                    assert_eq!(got, Some(model.take(n)), "{context}: read_exact bytes");
                }
            }
            50..=59 => {
                let got = reader.read_line();
                match model.pending.iter().position(|&b| b == b'\n') {
                    None => assert_eq!(got, None, "{context}: no line pending"),
                    Some(pos) => {
                        assert_eq!(got, Some(model.take(pos + 1)), "{context}: read_line bytes");
                    }
                }
            }
            60 => {
                let n = model.pending.len();
                assert_eq!(
                    reader.read_available_into(&mut staged),
                    n,
                    "{context}: read_available_into count"
                );
                if n > 0 {
                    staged_model.extend(model.take(n));
                }
                assert_eq!(staged, staged_model, "{context}: staged bytes");
            }
            _ => {
                staged.clear();
                staged_model.clear();
            }
        }
        assert_eq!(
            reader.pending(),
            model.pending.len(),
            "{context}: pending bytes"
        );
        assert_eq!(writer.stats(), model.writer, "{context}: writer stats");
        assert_eq!(reader.stats(), model.reader, "{context}: reader stats");
        assert_eq!(
            edges.load(Ordering::SeqCst),
            model.edges,
            "{context}: one waker edge per non-empty write"
        );
    }

    // Close is one more edge, and whatever is still buffered stays
    // readable after it.
    writer.close();
    assert_eq!(edges.load(Ordering::SeqCst), model.edges + 1);
    assert!(!reader.is_open());
    assert_eq!(reader.read_available(), model.pending);
}

#[test]
fn every_read_path_matches_the_vec_model_across_ring_wraps() {
    for seed in 1..=24 {
        run(seed, 6_000);
    }
}
