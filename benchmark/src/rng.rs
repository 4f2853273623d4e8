//! The benchmark's own deterministic generator (SplitMix64): schedules
//! must be a pure function of `(workload, seed, round)`, so nothing
//! here reads the clock or the process state.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream for one `(workload, seed, round, lane)`; lanes keep the
    /// clients of one round independent of each other.
    pub fn stream(workload: &str, seed: u64, round: u64, lane: u64) -> Rng {
        let mut h = mix(seed ^ 0x9e37_79b9_7f4a_7c15);
        for b in workload.bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ round.wrapping_mul(0xd134_2543_de82_ef95));
        h = mix(h ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        Rng(h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, round, lane| {
            let mut r = Rng::stream("wire_small", seed, round, lane);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0, 0), draw(1, 0, 0));
        assert_ne!(draw(1, 0, 0), draw(2, 0, 0));
        assert_ne!(draw(1, 0, 0), draw(1, 1, 0));
        assert_ne!(draw(1, 0, 0), draw(1, 0, 1));
    }
}
