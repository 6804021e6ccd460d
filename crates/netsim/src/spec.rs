//! Link specifications: the QoS-relevant physical properties of a simulated
//! link.

use crate::error::NetSimError;
use std::time::Duration;

/// Default MTU: large enough for the 64 KiB packets swept in Figure 9 plus
/// protocol headers.
pub const DEFAULT_MTU: usize = 128 * 1024;

/// Default bandwidth: 155 Mbit/s, matching the MULTE testbed's slower ATM
/// links.
pub const DEFAULT_BANDWIDTH_BPS: u64 = 155_000_000;

/// Physical properties of one simulated link (both directions share the
/// spec).
///
/// Construct with [`LinkSpec::builder`]; the builder validates every field.
///
/// ```
/// use netsim::LinkSpec;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), netsim::NetSimError> {
/// let spec = LinkSpec::builder()
///     .bandwidth_bps(155_000_000)            // 155 Mbit/s ATM
///     .propagation(Duration::from_micros(200))
///     .jitter(Duration::from_micros(20))
///     .loss_rate(0.0)
///     .mtu(64 * 1024)
///     .build()?;
/// assert_eq!(spec.bandwidth_bps(), 155_000_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    bandwidth_bps: u64,
    propagation: Duration,
    jitter: Duration,
    loss_rate: f64,
    corrupt_rate: f64,
    reorder_rate: f64,
    mtu: usize,
    seed: u64,
    frame_overhead: Duration,
}

impl LinkSpec {
    /// Starts building a spec with testbed-like defaults.
    pub fn builder() -> LinkSpecBuilder {
        LinkSpecBuilder::default()
    }

    /// Link bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> Duration {
        self.propagation
    }

    /// Maximum random extra delay added per frame (uniform in `[0, jitter]`).
    pub fn jitter(&self) -> Duration {
        self.jitter
    }

    /// Probability in `[0, 1)` that any given frame is silently dropped.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// Probability in `[0, 1)` that a delivered frame has one random bit
    /// flipped in transit (a seeded, deterministic bit error).
    pub fn corrupt_rate(&self) -> f64 {
        self.corrupt_rate
    }

    /// Probability in `[0, 1)` that a frame is delivered *before* the frame
    /// queued immediately ahead of it (pairwise swap), breaking FIFO order.
    pub fn reorder_rate(&self) -> f64 {
        self.reorder_rate
    }

    /// Maximum frame size accepted by the link, in bytes.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Seed for the deterministic loss/jitter RNG.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fixed per-frame processing time, independent of frame size.
    ///
    /// Models the per-packet cost of the era's protocol stacks and NIC
    /// drivers (and ATM cell/SAR overhead): it is what makes throughput
    /// grow with packet size in the paper's Figure 9.
    pub fn frame_overhead(&self) -> Duration {
        self.frame_overhead
    }

    /// Time needed to serialise `len` bytes onto the wire at the configured
    /// bandwidth.
    ///
    /// ```
    /// use netsim::LinkSpec;
    /// # fn main() -> Result<(), netsim::NetSimError> {
    /// let spec = LinkSpec::builder().bandwidth_bps(8_000_000).build()?;
    /// // 1000 bytes at 8 Mbit/s -> 1 ms
    /// assert_eq!(spec.transmission_time(1000), std::time::Duration::from_millis(1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn transmission_time(&self, len: usize) -> Duration {
        let bits = (len as u64).saturating_mul(8);
        // nanos = bits / bps * 1e9, computed in u128 to avoid overflow.
        let nanos = (bits as u128) * 1_000_000_000u128 / (self.bandwidth_bps as u128);
        self.frame_overhead + Duration::from_nanos(nanos as u64)
    }
}

impl Default for LinkSpec {
    #[expect(
        clippy::expect_used,
        reason = "builder defaults are compile-time constants kept valid by the default_spec_is_valid test"
    )]
    fn default() -> Self {
        LinkSpec::builder().build().expect("default spec is valid")
    }
}

/// Builder for [`LinkSpec`]; see the type-level example.
#[derive(Debug, Clone)]
pub struct LinkSpecBuilder {
    bandwidth_bps: u64,
    propagation: Duration,
    jitter: Duration,
    loss_rate: f64,
    corrupt_rate: f64,
    reorder_rate: f64,
    mtu: usize,
    seed: u64,
    frame_overhead: Duration,
}

impl Default for LinkSpecBuilder {
    fn default() -> Self {
        LinkSpecBuilder {
            bandwidth_bps: DEFAULT_BANDWIDTH_BPS,
            propagation: Duration::from_micros(100),
            jitter: Duration::ZERO,
            loss_rate: 0.0,
            corrupt_rate: 0.0,
            reorder_rate: 0.0,
            mtu: DEFAULT_MTU,
            seed: 0x5eed_cafe,
            frame_overhead: Duration::ZERO,
        }
    }
}

impl LinkSpecBuilder {
    /// Sets link bandwidth in bits per second. Must be nonzero.
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Sets one-way propagation delay.
    pub fn propagation(mut self, d: Duration) -> Self {
        self.propagation = d;
        self
    }

    /// Sets maximum per-frame jitter (uniform in `[0, jitter]`).
    pub fn jitter(mut self, d: Duration) -> Self {
        self.jitter = d;
        self
    }

    /// Sets the frame loss probability; must lie in `[0, 1)`.
    pub fn loss_rate(mut self, p: f64) -> Self {
        self.loss_rate = p;
        self
    }

    /// Sets the single-bit corruption probability; must lie in `[0, 1)`.
    pub fn corrupt_rate(mut self, p: f64) -> Self {
        self.corrupt_rate = p;
        self
    }

    /// Sets the pairwise reorder probability; must lie in `[0, 1)`.
    pub fn reorder_rate(mut self, p: f64) -> Self {
        self.reorder_rate = p;
        self
    }

    /// Sets the MTU in bytes. Must be nonzero.
    pub fn mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    /// Seeds the deterministic loss/jitter RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fixed per-frame processing time (default zero).
    pub fn frame_overhead(mut self, d: Duration) -> Self {
        self.frame_overhead = d;
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetSimError::InvalidSpec`] if bandwidth or MTU are zero, or
    /// the loss rate lies outside `[0, 1)`.
    pub fn build(self) -> Result<LinkSpec, NetSimError> {
        if self.bandwidth_bps == 0 {
            return Err(NetSimError::InvalidSpec("bandwidth must be nonzero".into()));
        }
        if self.mtu == 0 {
            return Err(NetSimError::InvalidSpec("mtu must be nonzero".into()));
        }
        if !(0.0..1.0).contains(&self.loss_rate) {
            return Err(NetSimError::InvalidSpec(format!(
                "loss rate {} outside [0, 1)",
                self.loss_rate
            )));
        }
        if !(0.0..1.0).contains(&self.corrupt_rate) {
            return Err(NetSimError::InvalidSpec(format!(
                "corrupt rate {} outside [0, 1)",
                self.corrupt_rate
            )));
        }
        if !(0.0..1.0).contains(&self.reorder_rate) {
            return Err(NetSimError::InvalidSpec(format!(
                "reorder rate {} outside [0, 1)",
                self.reorder_rate
            )));
        }
        Ok(LinkSpec {
            bandwidth_bps: self.bandwidth_bps,
            propagation: self.propagation,
            jitter: self.jitter,
            loss_rate: self.loss_rate,
            corrupt_rate: self.corrupt_rate,
            reorder_rate: self.reorder_rate,
            mtu: self.mtu,
            seed: self.seed,
            frame_overhead: self.frame_overhead,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        let spec = LinkSpec::default();
        assert_eq!(spec.bandwidth_bps(), DEFAULT_BANDWIDTH_BPS);
        assert_eq!(spec.mtu(), DEFAULT_MTU);
    }

    #[test]
    fn zero_bandwidth_rejected() {
        let err = LinkSpec::builder().bandwidth_bps(0).build().unwrap_err();
        assert!(matches!(err, NetSimError::InvalidSpec(_)));
    }

    #[test]
    fn zero_mtu_rejected() {
        assert!(LinkSpec::builder().mtu(0).build().is_err());
    }

    #[test]
    fn loss_rate_one_rejected() {
        assert!(LinkSpec::builder().loss_rate(1.0).build().is_err());
        assert!(LinkSpec::builder().loss_rate(-0.1).build().is_err());
        assert!(LinkSpec::builder().loss_rate(0.99).build().is_ok());
    }

    #[test]
    fn corrupt_and_reorder_rates_validated() {
        assert!(LinkSpec::builder().corrupt_rate(1.0).build().is_err());
        assert!(LinkSpec::builder().corrupt_rate(-0.5).build().is_err());
        assert!(LinkSpec::builder().reorder_rate(1.0).build().is_err());
        assert!(LinkSpec::builder().reorder_rate(-0.5).build().is_err());
        let spec = LinkSpec::builder()
            .corrupt_rate(0.01)
            .reorder_rate(0.1)
            .build()
            .unwrap();
        assert_eq!(spec.corrupt_rate(), 0.01);
        assert_eq!(spec.reorder_rate(), 0.1);
    }

    #[test]
    fn fault_fields_default_off() {
        let spec = LinkSpec::default();
        assert_eq!(spec.corrupt_rate(), 0.0);
        assert_eq!(spec.reorder_rate(), 0.0);
    }

    #[test]
    fn transmission_time_scales_linearly() {
        let spec = LinkSpec::builder()
            .bandwidth_bps(1_000_000)
            .build()
            .unwrap();
        let t1 = spec.transmission_time(1000);
        let t2 = spec.transmission_time(2000);
        assert_eq!(t2, t1 * 2);
        assert_eq!(t1, Duration::from_millis(8));
    }

    #[test]
    fn transmission_time_zero_len() {
        let spec = LinkSpec::default();
        assert_eq!(spec.transmission_time(0), Duration::ZERO);
    }

    #[test]
    fn frame_overhead_adds_fixed_cost() {
        let spec = LinkSpec::builder()
            .bandwidth_bps(8_000_000)
            .frame_overhead(Duration::from_micros(100))
            .build()
            .unwrap();
        // 1000 bytes at 8 Mbit/s = 1 ms, plus 100 us fixed.
        assert_eq!(spec.transmission_time(1000), Duration::from_micros(1100));
        assert_eq!(spec.transmission_time(0), Duration::from_micros(100));
        assert_eq!(spec.frame_overhead(), Duration::from_micros(100));
    }

    #[test]
    fn transmission_time_huge_frame_does_not_overflow() {
        let spec = LinkSpec::builder().bandwidth_bps(1).build().unwrap();
        // 1 GiB at 1 bit/s: enormous but finite.
        let t = spec.transmission_time(1 << 30);
        assert!(t > Duration::from_secs(1_000_000));
    }
}
