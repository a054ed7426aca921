//! Calibration: two kernels that touch no product code, read between
//! the slices of timed work, and the seeded generator every schedule in
//! the bench is drawn from.
//!
//! On the sandbox this was written on, an ALU-only loop repeats within
//! ±4% while a dependent pointer chase over 8 MiB swings between 1× and
//! 2.5× (steal = 0, thread CPU time tracks wall): the noise is
//! memory-subsystem interference from neighbours, not scheduling, it
//! comes in stretches that outlast a run, and product code slows with
//! it by 1.3–1.6×. So every slice of timed work has a reading of both
//! kernels on either side, and its wall-clock is reported scaled to
//! what the two readings say the box's speed was (README, Noise). The
//! parent also re-runs a round whose chase reads slow — selecting on
//! the calibration value only, never on the measured metric.

use std::hint::black_box;
use std::time::Instant;

/// xorshift64* — small, seedable, and good enough for request
/// schedules and permutations. Never seeded with 0.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 finalizer, so seeds 1 and 2 give unrelated streams.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// ≈6 ms of dependent xorshift steps: registers only.
fn alu_ms() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(black_box(7));
    let mut acc = 0u64;
    for _ in 0..3_000_000u32 {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// An 8 MiB random cycle (Sattolo), built once per process: a walk from
/// any slot visits every slot before repeating, so no prefetcher helps
/// and every load misses the caches this box has.
struct Chase {
    next: Vec<u32>,
}

impl Chase {
    fn new() -> Chase {
        Chase::with_words(8 * 1024 * 1024 / 4)
    }

    fn with_words(words: usize) -> Chase {
        let mut next: Vec<u32> = (0..words as u32).collect();
        let mut rng = Rng::new(11);
        for i in (1..words).rev() {
            next.swap(i, rng.below(i));
        }
        Chase { next }
    }

    /// ≈35 ms of dependent loads: the memory subsystem's latency under
    /// whatever the neighbours are doing.
    fn ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..500_000u32 {
            at = self.next[at as usize];
        }
        black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// How many ALU readings a calibration reading adds to one chase
/// reading. At 2.5 the quiet box spends 70 % of a reading on dependent
/// loads and 30 % in registers, and that is the mix at which the reading
/// slows by the factor the product code slows by when the box gets busy
/// (README, Noise: the chase alone over-corrects, the ALU loop alone
/// does not move).
pub const ALU_WEIGHT: f64 = 2.5;

/// What a reading is on the sandbox this was written on while its
/// neighbours are quiet. Times are reported scaled to this speed, so on
/// the quiet box a reported millisecond is a measured one.
pub const REFERENCE_MS: f64 = 50.0;

/// One reading of both kernels.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub chase_ms: f64,
    pub alu_ms: f64,
}

impl Reading {
    /// The box's speed as one number: lower is faster.
    pub fn ms(self) -> f64 {
        self.chase_ms + ALU_WEIGHT * self.alu_ms
    }
}

/// Takes the readings of one process and keeps them.
pub struct Calibrator {
    chase: Chase,
    readings: Vec<Reading>,
}

impl Calibrator {
    /// Builds the chase's 8 MiB cycle.
    pub fn new() -> Calibrator {
        Calibrator {
            chase: Chase::new(),
            readings: Vec::new(),
        }
    }

    /// Runs both kernels, ≈40 ms.
    pub fn read(&mut self) -> Reading {
        let reading = Reading {
            alu_ms: alu_ms(),
            chase_ms: self.chase.ms(),
        };
        self.readings.push(reading);
        reading
    }

    /// Takes the reading that closes a slice of work begun at the
    /// previous reading, and returns the factor that scales the slice's
    /// wall-clock to the reference speed: the reference over the mean of
    /// the readings on either side.
    pub fn close_slice(&mut self) -> f64 {
        let before = self.readings.last().map_or(REFERENCE_MS, |r| r.ms());
        let after = self.read().ms();
        REFERENCE_MS / ((before + after) / 2.0)
    }

    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        let mut r = Rng::new(5);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn a_slice_is_scaled_by_the_readings_on_either_side() {
        let mut cal = Calibrator {
            chase: Chase::with_words(1024),
            readings: vec![Reading {
                chase_ms: 2.0 * REFERENCE_MS,
                alu_ms: 0.0,
            }],
        };
        // Opened at half the reference speed, closed at whatever this
        // box reads now.
        let factor = cal.close_slice();
        assert_eq!(cal.readings().len(), 2);
        let after = cal.readings()[1].ms();
        let mean = (2.0 * REFERENCE_MS + after) / 2.0;
        assert!((factor - REFERENCE_MS / mean).abs() < 1e-12);
        let quiet = Reading {
            chase_ms: 35.0,
            alu_ms: 6.0,
        };
        assert_eq!(quiet.ms(), REFERENCE_MS);
    }

    #[test]
    fn chase_cycle_visits_every_slot() {
        let next = Chase::with_words(1024).next;
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 1024);
    }
}
