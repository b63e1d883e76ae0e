//! A fixed piece of work timed beside every measured pass, to tell the
//! machine's speed from the program's.
//!
//! The reference container is a 2-vCPU virtual machine on a shared host.
//! With no change to the program its speed moves by ±5 % from minute to
//! minute and, when a neighbour is busy, drops by 30–60 % for minutes at
//! a time — far more than any bound a regression gate could use. The
//! slow phases are not steal time (`/proc/stat` shows none); they are
//! contention for the shared cache and memory, so code that walks the
//! heap slows most.
//!
//! The kernel below does the engines' kind of memory work in miniature:
//! it overwrites rows of a ring that does not fit the private caches,
//! probes scattered older rows with a few float comparisons, collects
//! the ones that pass in a `Vec` and counts keys in a table. Its work is
//! a constant, so its wall time is a reading of the machine's speed. It
//! is run between the passes and reps of a run; the run's *slowness* is
//! its best reading ÷ [`NOMINAL_NS`], and every reported time is
//! divided, every rate multiplied, by it. Across the slow phases seen
//! while this was written the engines slowed more than the kernel read
//! (1.4–1.8× against 1.3–1.6×): the division leaves a residue, not the
//! whole swing.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference container at its fastest.
/// Only a scale: it makes a slowness of 1.0 mean "as fast as that", so
/// normalised and raw numbers agree there.
pub const NOMINAL_NS: f64 = 18e6;

/// 2¹⁸ rows of 32 bytes: 8 MiB, past the private caches.
const RING: usize = 1 << 18;
const STEPS: usize = 100_000;
const PROBES: usize = 16;
const KEYS: usize = 4096;

pub struct RefKernel {
    ring: Vec<[f64; 4]>,
    counts: Vec<u32>,
    out: Vec<u32>,
}

impl RefKernel {
    pub fn new() -> RefKernel {
        RefKernel {
            ring: (0..RING)
                .map(|i| [(i % 1000) as f64, (i * 7 % 1000) as f64, 0.5, 0.0])
                .collect(),
            counts: vec![0; KEYS],
            out: Vec::with_capacity(64 * PROBES),
        }
    }

    /// Runs the kernel once; returns the machine's slowness during it.
    /// Every run makes the same accesses in the same order and allocates
    /// nothing, so that a reading depends on the machine alone, not on
    /// where the allocator happened to put things.
    pub fn slowness(&mut self) -> f64 {
        let t = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut kept = 0u64;
        for step in 1..=STEPS {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = state;
            let fresh = [
                (r % 1000) as f64,
                ((r >> 10) % 1000) as f64,
                0.25,
                step as f64,
            ];
            let slot = (r >> 20) as usize % RING;
            for k in 0..PROBES {
                let at = (slot + k * 7919) % RING;
                let other = &self.ring[at];
                if other[0] < fresh[0] && other[1] < fresh[1] && other[3] != fresh[3] {
                    self.out.push(at as u32);
                }
            }
            self.counts[r as usize % KEYS] += 1;
            self.ring[slot] = fresh;
            if step % 64 == 0 {
                kept += self.out.len() as u64;
                self.out.clear();
            }
        }
        black_box((kept, &self.counts));
        t.elapsed().as_nanos() as f64 / NOMINAL_NS
    }
}
