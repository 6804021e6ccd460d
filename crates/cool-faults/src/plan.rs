//! Fault plans: a validated, declarative description of what may go wrong.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// A validated fault plan. Construct with [`FaultPlan::builder`].
///
/// All probabilities are per-frame and lie in `[0, 1)`; everything is driven
/// by the plan's `seed`, so two engines over the same plan and frame
/// sequence inject identical faults.
///
/// ```
/// use cool_faults::FaultPlan;
///
/// # fn main() -> Result<(), cool_faults::InvalidPlan> {
/// let plan = FaultPlan::builder()
///     .seed(42)
///     .drop_rate(0.01)
///     .corrupt_rate(0.001)
///     .sever_after(Some(500))
///     .build()?;
/// assert_eq!(plan.drop_rate(), 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    corrupt_rate: f64,
    duplicate_rate: f64,
    reorder_rate: f64,
    delay_rate: f64,
    delay: Duration,
    sever_after: Option<u64>,
    refuse_connects: u32,
}

impl FaultPlan {
    /// Starts building a plan with every fault switched off.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// Seed for the deterministic fault RNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability a frame is silently discarded.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Probability a frame has one random bit flipped.
    pub fn corrupt_rate(&self) -> f64 {
        self.corrupt_rate
    }

    /// Probability a frame is sent twice.
    pub fn duplicate_rate(&self) -> f64 {
        self.duplicate_rate
    }

    /// Probability a frame is held back and sent after its successor.
    pub fn reorder_rate(&self) -> f64 {
        self.reorder_rate
    }

    /// Probability a frame is delayed by [`FaultPlan::delay`] before sending.
    pub fn delay_rate(&self) -> f64 {
        self.delay_rate
    }

    /// The extra latency applied to delayed frames.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// If set, the connection is severed (once) after this many frames.
    pub fn sever_after(&self) -> Option<u64> {
        self.sever_after
    }

    /// Number of initial connection attempts to refuse.
    pub fn refuse_connects(&self) -> u32 {
        self.refuse_connects
    }

    /// True when no fault can ever fire — the plan is a no-op.
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.delay_rate == 0.0
            && self.sever_after.is_none()
            && self.refuse_connects == 0
    }
}

/// A set of fault plans keyed by transport target, for experiments where
/// different replicas misbehave differently.
///
/// Targets are transport address strings as the ORB displays them (e.g.
/// `"chorus://rep-a"` or `"tcp://127.0.0.1:4040"`). [`PlanSet::plan_for`]
/// returns the exact-match plan when one is set, falling back to the
/// default plan (if any) for every other target.
///
/// ```
/// use cool_faults::{FaultPlan, PlanSet};
///
/// # fn main() -> Result<(), cool_faults::InvalidPlan> {
/// let lossy = FaultPlan::builder().seed(1).drop_rate(0.05).build()?;
/// let set = PlanSet::default().set("chorus://rep-b", lossy.clone());
/// assert_eq!(set.plan_for("chorus://rep-b"), Some(&lossy));
/// assert_eq!(set.plan_for("chorus://rep-a"), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSet {
    default_plan: Option<FaultPlan>,
    per_target: Vec<(String, FaultPlan)>,
}

impl PlanSet {
    /// Sets the plan applied to every target without its own entry.
    #[must_use]
    pub fn with_default(mut self, plan: FaultPlan) -> Self {
        self.default_plan = Some(plan);
        self
    }

    /// Sets (or replaces) the plan for one exact target address.
    #[must_use]
    pub fn set(mut self, target: &str, plan: FaultPlan) -> Self {
        match self.per_target.iter_mut().find(|(t, _)| t == target) {
            Some((_, existing)) => *existing = plan,
            None => self.per_target.push((target.to_string(), plan)),
        }
        self
    }

    /// The plan governing `target`: its exact-match entry if present,
    /// otherwise the default plan, otherwise `None` (no faults).
    pub fn plan_for(&self, target: &str) -> Option<&FaultPlan> {
        self.per_target
            .iter()
            .find(|(t, _)| t == target)
            .map(|(_, p)| p)
            .or(self.default_plan.as_ref())
    }
}

/// Rejected fault-plan configuration (a rate outside `[0, 1)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidPlan(pub String);

impl fmt::Display for InvalidPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl Error for InvalidPlan {}

/// Builder for [`FaultPlan`]; see the type-level example.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    drop_rate: f64,
    corrupt_rate: f64,
    duplicate_rate: f64,
    reorder_rate: f64,
    delay_rate: f64,
    delay: Duration,
    sever_after: Option<u64>,
    refuse_connects: u32,
}

impl Default for FaultPlanBuilder {
    fn default() -> Self {
        FaultPlanBuilder {
            seed: 0xfa_017,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(1),
            sever_after: None,
            refuse_connects: 0,
        }
    }
}

impl FaultPlanBuilder {
    /// Seeds the fault RNG; equal seeds replay equal fault sequences.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-frame drop probability in `[0, 1)`.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Per-frame single-bit corruption probability in `[0, 1)`.
    pub fn corrupt_rate(mut self, p: f64) -> Self {
        self.corrupt_rate = p;
        self
    }

    /// Per-frame duplication probability in `[0, 1)`.
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = p;
        self
    }

    /// Per-frame reorder probability in `[0, 1)`.
    pub fn reorder_rate(mut self, p: f64) -> Self {
        self.reorder_rate = p;
        self
    }

    /// Per-frame delay probability in `[0, 1)`, with the given extra latency.
    pub fn delay(mut self, p: f64, extra: Duration) -> Self {
        self.delay_rate = p;
        self.delay = extra;
        self
    }

    /// Severs the connection once, after `n` frames have been sent.
    pub fn sever_after(mut self, n: Option<u64>) -> Self {
        self.sever_after = n;
        self
    }

    /// Refuses the first `n` connection attempts.
    pub fn refuse_connects(mut self, n: u32) -> Self {
        self.refuse_connects = n;
        self
    }

    /// Validates and builds the plan.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPlan`] if any probability lies outside `[0, 1)`.
    pub fn build(self) -> Result<FaultPlan, InvalidPlan> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("reorder_rate", self.reorder_rate),
            ("delay_rate", self.delay_rate),
        ] {
            if !(0.0..1.0).contains(&rate) {
                return Err(InvalidPlan(format!("{name} {rate} outside [0, 1)")));
            }
        }
        Ok(FaultPlan {
            seed: self.seed,
            drop_rate: self.drop_rate,
            corrupt_rate: self.corrupt_rate,
            duplicate_rate: self.duplicate_rate,
            reorder_rate: self.reorder_rate,
            delay_rate: self.delay_rate,
            delay: self.delay,
            sever_after: self.sever_after,
            refuse_connects: self.refuse_connects,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_a_noop() {
        let plan = FaultPlan::builder().build().unwrap();
        assert!(plan.is_noop());
        assert_eq!(plan.refuse_connects(), 0);
    }

    #[test]
    fn rates_are_validated() {
        assert!(FaultPlan::builder().drop_rate(1.0).build().is_err());
        assert!(FaultPlan::builder().corrupt_rate(-0.1).build().is_err());
        assert!(FaultPlan::builder().duplicate_rate(2.0).build().is_err());
        assert!(FaultPlan::builder().reorder_rate(1.5).build().is_err());
        assert!(FaultPlan::builder()
            .delay(1.0, Duration::from_millis(5))
            .build()
            .is_err());
        let err = FaultPlan::builder().drop_rate(1.0).build().unwrap_err();
        assert!(err.to_string().contains("drop_rate"));
    }

    #[test]
    fn plan_set_matches_exact_target_then_default() {
        let lossy = FaultPlan::builder()
            .seed(1)
            .drop_rate(0.05)
            .build()
            .unwrap();
        let slow = FaultPlan::builder()
            .seed(2)
            .delay(0.5, Duration::from_millis(3))
            .build()
            .unwrap();
        let set = PlanSet::default()
            .with_default(slow.clone())
            .set("chorus://rep-b", lossy.clone());
        assert_eq!(set.plan_for("chorus://rep-b"), Some(&lossy));
        assert_eq!(set.plan_for("chorus://rep-a"), Some(&slow));
        assert_eq!(PlanSet::default().plan_for("anything"), None);

        // Re-setting a target replaces rather than appends.
        let replaced = set.clone().set("chorus://rep-b", slow.clone());
        assert_eq!(replaced.plan_for("chorus://rep-b"), Some(&slow));
    }

    #[test]
    fn configured_plan_round_trips() {
        let plan = FaultPlan::builder()
            .seed(7)
            .drop_rate(0.01)
            .corrupt_rate(0.001)
            .duplicate_rate(0.02)
            .reorder_rate(0.03)
            .delay(0.04, Duration::from_millis(2))
            .sever_after(Some(100))
            .refuse_connects(2)
            .build()
            .unwrap();
        assert!(!plan.is_noop());
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.delay(), Duration::from_millis(2));
        assert_eq!(plan.sever_after(), Some(100));
        assert_eq!(plan.refuse_connects(), 2);
    }
}
