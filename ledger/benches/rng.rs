//! Seeded input generation. Everything a workload feeds the program —
//! payload bytes, size mix, op mix, QoS-spec order, kill schedule — comes
//! from one `--seed`, so equal seeds give equal inputs.

use std::time::Duration;

/// SplitMix64: small, fast, and good enough to spread a seed over inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`lane`) of one seed, so adding
    /// a draw to one stream never shifts another.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }
}

/// Invocation mode of one `rpc_load` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Deferred,
    Oneway,
    Twoway,
}

/// The three `rpc_load` payload sizes.
pub const LOAD_SIZES: [usize; 3] = [64, 1024, 16 * 1024];

/// The `rpc_load` op stream: 70 % deferred / 20 % one-way / 10 % two-way,
/// sizes 64 B 60 % / 1 KiB 25 % / 16 KiB 15 %.
#[derive(Debug, Clone)]
pub struct LoadMix(Rng);

impl LoadMix {
    pub fn new(seed: u64, caller: u64) -> Self {
        LoadMix(Rng::lane(seed, 0x10 + caller))
    }

    /// `(kind, index into LOAD_SIZES)`.
    pub fn next_op(&mut self) -> (OpKind, usize) {
        let kind = match self.0.below(100) {
            0..=69 => OpKind::Deferred,
            70..=89 => OpKind::Oneway,
            _ => OpKind::Twoway,
        };
        let size = match self.0.below(100) {
            0..=59 => 0,
            60..=84 => 1,
            _ => 2,
        };
        (kind, size)
    }
}

/// The `qos_churn` spec order: pairs `(spec_i, spec_j)` of indices into the
/// workload's spec table, `j != i` so the second `set_qos_parameter` always
/// asks for something else. Every ordered pair comes once, in seeded order,
/// before any comes again: how long a cycle takes depends on its two specs,
/// and pairs drawn independently would make a window's rate a property of
/// the seed's mix.
#[derive(Debug, Clone)]
pub struct SpecOrder {
    rng: Rng,
    pairs: Vec<(usize, usize)>,
    /// How many of `pairs` the present pass has handed out.
    dealt: usize,
}

impl SpecOrder {
    pub fn new(seed: u64, specs: usize) -> Self {
        let pairs = (0..specs)
            .flat_map(|i| (0..specs).filter(move |j| *j != i).map(move |j| (i, j)))
            .collect();
        let mut order = SpecOrder {
            rng: Rng::lane(seed, 0x20),
            pairs,
            dealt: 0,
        };
        order.shuffle();
        order
    }

    /// Fisher-Yates.
    fn shuffle(&mut self) {
        for last in (1..self.pairs.len()).rev() {
            let pick = self.rng.below(last as u64 + 1) as usize;
            self.pairs.swap(last, pick);
        }
    }

    pub fn next_pair(&mut self) -> (usize, usize) {
        if self.dealt == self.pairs.len() {
            self.shuffle();
            self.dealt = 0;
        }
        self.dealt += 1;
        self.pairs[self.dealt - 1]
    }
}

/// The `replica_failover` kill schedule: one kill every `period` (±20 %),
/// the killed replica restarted 100–200 ms later.
#[derive(Debug, Clone)]
pub struct KillSchedule {
    rng: Rng,
    period: Duration,
    next_kill: Duration,
}

impl KillSchedule {
    pub fn new(seed: u64, period: Duration) -> Self {
        let mut s = KillSchedule {
            rng: Rng::lane(seed, 0x30),
            period,
            next_kill: Duration::ZERO,
        };
        s.next_kill = s.jittered();
        s
    }

    fn jittered(&mut self) -> Duration {
        let permille = 800 + self.rng.below(401);
        self.period.mul_f64(permille as f64 / 1000.0)
    }

    /// Offset from window start of the next kill, and how long the killed
    /// replica stays down.
    pub fn next_event(&mut self) -> (Duration, Duration) {
        let at = self.next_kill;
        let down = Duration::from_millis(100 + self.rng.below(101));
        self.next_kill = at + self.jittered();
        (at, down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64) -> Vec<(OpKind, usize)> {
        let mut m = LoadMix::new(seed, 0);
        (0..512).map(|_| m.next_op()).collect()
    }

    fn pairs(seed: u64) -> Vec<(usize, usize)> {
        let mut o = SpecOrder::new(seed, 9);
        (0..256).map(|_| o.next_pair()).collect()
    }

    fn kills(seed: u64) -> Vec<(Duration, Duration)> {
        let mut k = KillSchedule::new(seed, Duration::from_millis(500));
        (0..32).map(|_| k.next_event()).collect()
    }

    #[test]
    fn same_seed_same_sequences_other_seed_other_sequences() {
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        assert_eq!(pairs(7), pairs(7));
        assert_ne!(pairs(7), pairs(8));
        assert_eq!(kills(7), kills(7));
        assert_ne!(kills(7), kills(8));
        assert_eq!(Rng::lane(7, 1).bytes(64), Rng::lane(7, 1).bytes(64));
        assert_ne!(Rng::lane(7, 1).bytes(64), Rng::lane(8, 1).bytes(64));
        assert_ne!(Rng::lane(7, 1).bytes(64), Rng::lane(7, 2).bytes(64));
    }

    #[test]
    fn mixes_hold_their_shares() {
        let mut m = LoadMix::new(1, 0);
        let (mut kinds, mut sizes) = ([0u32; 3], [0u32; 3]);
        for _ in 0..100_000 {
            let (k, s) = m.next_op();
            kinds[k as usize] += 1;
            sizes[s] += 1;
        }
        let near = |got: u32, pct: u32| got.abs_diff(pct * 1000) < 1000;
        assert!(
            near(kinds[0], 70) && near(kinds[1], 20) && near(kinds[2], 10),
            "{kinds:?}"
        );
        assert!(
            near(sizes[0], 60) && near(sizes[1], 25) && near(sizes[2], 15),
            "{sizes:?}"
        );
    }

    #[test]
    fn spec_pairs_differ_and_kills_advance() {
        assert!(pairs(3).iter().all(|(i, j)| i != j && *i < 9 && *j < 9));
        // Each of the 72 ordered pairs once a pass, passes in different order.
        let passes = pairs(3);
        let (first, second) = (&passes[..72], &passes[72..144]);
        let sorted = |pass: &[(usize, usize)]| {
            let mut pass = pass.to_vec();
            pass.sort_unstable();
            pass.dedup();
            pass
        };
        assert_eq!(sorted(first).len(), 72);
        assert_eq!(sorted(first), sorted(second));
        assert_ne!(first, second);
        let k = kills(3);
        for w in k.windows(2) {
            let gap = w[1].0 - w[0].0;
            assert!(gap >= Duration::from_millis(400) && gap <= Duration::from_millis(600));
            assert!(w[0].1 >= Duration::from_millis(100) && w[0].1 <= Duration::from_millis(200));
        }
    }
}
