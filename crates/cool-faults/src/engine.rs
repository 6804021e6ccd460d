//! The fault engine: turns a [`FaultPlan`] into per-frame decisions.

use crate::plan::FaultPlan;
use crate::rng::FaultRng;
use std::sync::Mutex;
use std::time::Duration;

/// What to do to one outbound frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the frame silently (the peer never sees it).
    Drop,
    /// Hold the frame for the given extra latency, then send it.
    Delay(Duration),
    /// Send the frame twice.
    Duplicate,
    /// Hold the frame back and send it after its successor.
    Reorder,
    /// Flip the given bit (index into `len * 8`) before sending.
    Corrupt { bit: u64 },
    /// Kill the connection now; fires at most once per engine.
    Sever,
}

#[derive(Debug)]
struct EngineState {
    rng: FaultRng,
    frames: u64,
    severed: bool,
    refusals_left: u32,
}

/// Deterministic fault decision state machine.
///
/// One engine is shared by every channel incarnation of a binding (including
/// post-reconnect channels), so the frame counter — and therefore the fault
/// sequence — survives reconnects. Decisions depend only on the plan's seed
/// and the order of calls, never on wall-clock time.
#[derive(Debug)]
pub struct FaultEngine {
    plan: FaultPlan,
    state: Mutex<EngineState>,
}

impl FaultEngine {
    /// Creates an engine for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let state = EngineState {
            rng: FaultRng::new(plan.seed()),
            frames: 0,
            severed: false,
            refusals_left: plan.refuse_connects(),
        };
        FaultEngine {
            plan,
            state: Mutex::new(state),
        }
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, EngineState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes one connection attempt; `false` means "refuse it".
    pub fn allow_connect(&self) -> bool {
        let mut st = self.locked();
        if st.refusals_left > 0 {
            st.refusals_left -= 1;
            false
        } else {
            true
        }
    }

    /// Decides the fate of the next outbound frame of `len` bytes.
    ///
    /// Returns `None` for a clean send. At most one fault fires per frame;
    /// precedence is sever > drop > corrupt > duplicate > reorder > delay.
    pub fn on_frame(&self, len: usize) -> Option<FaultAction> {
        let mut st = self.locked();
        st.frames += 1;
        if let Some(n) = self.plan.sever_after() {
            if !st.severed && st.frames > n {
                st.severed = true;
                return Some(FaultAction::Sever);
            }
        }
        let p = self.plan.drop_rate();
        if p > 0.0 && st.rng.next_f64() < p {
            return Some(FaultAction::Drop);
        }
        let p = self.plan.corrupt_rate();
        if len > 0 && p > 0.0 && st.rng.next_f64() < p {
            let bit = st.rng.gen_range(len as u64 * 8);
            return Some(FaultAction::Corrupt { bit });
        }
        let p = self.plan.duplicate_rate();
        if p > 0.0 && st.rng.next_f64() < p {
            return Some(FaultAction::Duplicate);
        }
        let p = self.plan.reorder_rate();
        if p > 0.0 && st.rng.next_f64() < p {
            return Some(FaultAction::Reorder);
        }
        let p = self.plan.delay_rate();
        if p > 0.0 && st.rng.next_f64() < p {
            return Some(FaultAction::Delay(self.plan.delay()));
        }
        None
    }

    /// Frames decided so far (across all channel incarnations).
    pub fn frames_seen(&self) -> u64 {
        self.locked().frames
    }

    /// Flips bit `bit` of `buf` in place (no-op past the end).
    pub fn apply_corrupt(buf: &mut [u8], bit: u64) {
        let byte = (bit / 8) as usize;
        if byte < buf.len() {
            buf[byte] ^= 1 << (bit % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn run(seed: u64, frames: usize) -> Vec<Option<FaultAction>> {
        let plan = FaultPlan::builder()
            .seed(seed)
            .drop_rate(0.1)
            .corrupt_rate(0.05)
            .duplicate_rate(0.05)
            .reorder_rate(0.05)
            .delay(0.05, Duration::from_millis(3))
            .sever_after(Some(50))
            .build()
            .unwrap();
        let engine = FaultEngine::new(plan);
        (0..frames).map(|_| engine.on_frame(64)).collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        assert_eq!(run(42, 200), run(42, 200));
        assert_ne!(run(42, 200), run(43, 200));
    }

    #[test]
    fn sever_fires_exactly_once_after_n_frames() {
        let decisions = run(1, 200);
        let severs: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, Some(FaultAction::Sever)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(severs, vec![50], "one sever, on frame 51");
    }

    #[test]
    fn rates_roughly_match_over_many_frames() {
        let plan = FaultPlan::builder().seed(9).drop_rate(0.2).build().unwrap();
        let engine = FaultEngine::new(plan);
        let drops = (0..10_000)
            .filter(|_| matches!(engine.on_frame(32), Some(FaultAction::Drop)))
            .count();
        assert!((1500..2500).contains(&drops), "0.2 of 10k, got {drops}");
        assert_eq!(engine.frames_seen(), 10_000);
    }

    #[test]
    fn noop_plan_never_faults() {
        let engine = FaultEngine::new(FaultPlan::builder().build().unwrap());
        assert!((0..1000).all(|_| engine.on_frame(16).is_none()));
        assert!(engine.allow_connect());
    }

    #[test]
    fn refuse_connects_counts_down() {
        let plan = FaultPlan::builder().refuse_connects(2).build().unwrap();
        let engine = FaultEngine::new(plan);
        assert!(!engine.allow_connect());
        assert!(!engine.allow_connect());
        assert!(engine.allow_connect());
        assert!(engine.allow_connect());
    }

    #[test]
    fn corrupt_bit_lies_within_the_frame() {
        let plan = FaultPlan::builder()
            .seed(3)
            .corrupt_rate(0.99)
            .build()
            .unwrap();
        let engine = FaultEngine::new(plan);
        for _ in 0..500 {
            if let Some(FaultAction::Corrupt { bit }) = engine.on_frame(16) {
                assert!(bit < 128);
                let mut buf = [0u8; 16];
                FaultEngine::apply_corrupt(&mut buf, bit);
                let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
                assert_eq!(ones, 1);
            }
        }
    }

    #[test]
    fn empty_frames_are_never_corrupted() {
        let plan = FaultPlan::builder()
            .seed(3)
            .corrupt_rate(0.99)
            .build()
            .unwrap();
        let engine = FaultEngine::new(plan);
        assert!((0..100).all(|_| !matches!(engine.on_frame(0), Some(FaultAction::Corrupt { .. }))));
    }
}
