//! Duplex simulated links.
//!
//! A [`Link`] is a pair of independent, shaped directions. Each direction
//! models the wire as:
//!
//! 1. **Serialisation**: a frame occupies the wire for
//!    `len * 8 / bandwidth` seconds; back-to-back sends queue behind each
//!    other (`next_free` bookkeeping — a token bucket of depth one frame).
//! 2. **Propagation + jitter**: after leaving the wire the frame travels for
//!    the propagation delay plus a uniformly random jitter.
//! 3. **Loss**: each frame is dropped with the configured probability
//!    (dropped frames still consumed wire time, as on a real link).
//!
//! Delivery order is FIFO: jitter never reorders frames, it only delays the
//! tail (delivery times are clamped to be monotone), matching the in-order
//! behaviour of an ATM VC or a TCP-bearing link.
//!
//! On top of the shaping pipeline, a spec can inject deterministic faults:
//! single-bit **corruption** (`corrupt_rate`), pairwise **reordering**
//! (`reorder_rate` — the only way frames leave FIFO order) and a hard
//! **sever** after N accepted frames (`sever_after`). All randomness comes
//! from the per-direction seeded RNG, so a fixed seed replays the exact
//! same fault sequence.

use crate::clock::{RealClock, SharedClock, VirtualClock};
use crate::endpoint::Endpoint;
use crate::error::NetSimError;
use crate::spec::LinkSpec;
use crate::stats::LinkStats;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One shaped direction of a link. Shared between exactly one sending
/// endpoint and one receiving endpoint.
#[derive(Debug)]
pub(crate) struct Direction {
    spec: LinkSpec,
    clock: SharedClock,
    state: Mutex<DirectionState>,
    arrival: Condvar,
    sender_alive: AtomicBool,
    stats: Arc<LinkStats>,
}

#[derive(Debug)]
struct DirectionState {
    /// Frames in flight: `(deliver_at, frame)`, deliver_at monotone.
    in_flight: VecDeque<(Duration, Bytes)>,
    /// Time at which the wire becomes free for the next frame.
    next_free: Duration,
    /// Latest delivery time handed out (enforces FIFO despite jitter).
    last_delivery: Duration,
    /// Frames accepted so far, for `sever_after` bookkeeping.
    accepted: u64,
    /// Set by [`Direction::close_receiver`]: the receiving endpoint closed,
    /// so its own blocked receive returns and the peer's sends fail.
    receiver_closed: bool,
    rng: StdRng,
}

impl Direction {
    fn new(spec: LinkSpec, clock: SharedClock, seed: u64) -> Arc<Self> {
        Arc::new(Direction {
            state: Mutex::new(DirectionState {
                in_flight: VecDeque::new(),
                next_free: Duration::ZERO,
                last_delivery: Duration::ZERO,
                accepted: 0,
                receiver_closed: false,
                rng: StdRng::seed_from_u64(seed),
            }),
            spec,
            clock,
            arrival: Condvar::new(),
            sender_alive: AtomicBool::new(true),
            stats: LinkStats::new(),
        })
    }

    pub(crate) fn stats(&self) -> Arc<LinkStats> {
        self.stats.clone()
    }

    /// The sending endpoint is gone (dropped, closed, severed): the receiver
    /// drains what is in flight, then reads [`NetSimError::Disconnected`].
    pub(crate) fn mark_sender_gone(&self) {
        // Under the state lock, so a receiver between its check and its
        // wait cannot miss the wakeup.
        let _st = self.state.lock();
        self.sender_alive.store(false, Ordering::Release);
        self.arrival.notify_all();
    }

    /// The receiving endpoint closed: a receive blocked on this direction
    /// returns [`NetSimError::Disconnected`] at once, in flight or not.
    pub(crate) fn close_receiver(&self) {
        self.state.lock().receiver_closed = true;
        self.arrival.notify_all();
    }

    /// Enqueues a frame for shaped delivery.
    pub(crate) fn send(&self, frame: Bytes) -> Result<(), NetSimError> {
        if frame.len() > self.spec.mtu() {
            return Err(NetSimError::FrameTooLarge {
                len: frame.len(),
                mtu: self.spec.mtu(),
            });
        }
        let now = self.clock.now();
        let mut st = self.state.lock();
        if st.receiver_closed || !self.sender_alive.load(Ordering::Acquire) {
            return Err(NetSimError::Disconnected);
        }

        // Sever: after `n` accepted frames the direction goes dark for good.
        if let Some(n) = self.spec.sever_after() {
            if st.accepted >= n {
                drop(st);
                self.mark_sender_gone();
                return Err(NetSimError::Disconnected);
            }
        }
        st.accepted += 1;
        self.stats.record_send(frame.len());

        // Serialisation: the wire is busy until the frame has left it.
        let start = st.next_free.max(now);
        let leaves_wire = start + self.spec.transmission_time(frame.len());
        st.next_free = leaves_wire;

        // Loss: dropped frames consumed wire time but never arrive.
        let loss = self.spec.loss_rate();
        if loss > 0.0 && st.rng.gen::<f64>() < loss {
            self.stats.record_drop();
            return Ok(());
        }

        // Corruption: flip one seeded-random bit of the delivered copy.
        let corrupt = self.spec.corrupt_rate();
        let frame = if !frame.is_empty() && corrupt > 0.0 && st.rng.gen::<f64>() < corrupt {
            let mut buf = frame.to_vec();
            let bit = st.rng.gen_range(0..buf.len() as u64 * 8);
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.stats.record_corrupt();
            Bytes::from(buf)
        } else {
            frame
        };

        // Propagation + jitter, clamped monotone for FIFO delivery.
        let jitter = sample_jitter(&mut st.rng, self.spec.jitter());
        let deliver_at = (leaves_wire + self.spec.propagation() + jitter).max(st.last_delivery);
        st.last_delivery = deliver_at;
        st.in_flight.push_back((deliver_at, frame));

        // Reorder: swap payloads with the frame queued immediately ahead, so
        // this frame arrives before its predecessor while delivery *times*
        // stay monotone.
        let reorder = self.spec.reorder_rate();
        if reorder > 0.0 && st.in_flight.len() >= 2 && st.rng.gen::<f64>() < reorder {
            let last = st.in_flight.len() - 1;
            let tail = st.in_flight[last].1.clone();
            st.in_flight[last].1 = st.in_flight[last - 1].1.clone();
            st.in_flight[last - 1].1 = tail;
            self.stats.record_reorder();
        }
        drop(st);
        self.arrival.notify_one();
        Ok(())
    }

    /// Blocking receive; `deadline` (clock time) bounds the wait.
    ///
    /// One loop under the state lock: deliver the head frame once its time
    /// has come, otherwise wait for whichever is next — an arrival, the
    /// head frame's delivery time, the deadline — or for
    /// [`Direction::close_receiver`], which ends the wait at once.
    pub(crate) fn recv_until(&self, deadline: Option<Duration>) -> Result<Bytes, NetSimError> {
        let mut st = self.state.lock();
        loop {
            if st.receiver_closed {
                return Err(NetSimError::Disconnected);
            }
            let now = self.clock.now();
            match st.in_flight.pop_front() {
                Some((at, frame)) if at <= now => {
                    self.stats.record_delivery(frame.len());
                    return Ok(frame);
                }
                Some(not_yet_due) => st.in_flight.push_front(not_yet_due),
                None if !self.sender_alive.load(Ordering::Acquire) => {
                    return Err(NetSimError::Disconnected);
                }
                None => {}
            }
            let head = st.in_flight.front().map(|(at, _)| *at);
            if let Some(d) = deadline {
                if now >= d {
                    return Err(NetSimError::Timeout(d));
                }
            }
            let wake_at = match (head, deadline) {
                (Some(at), Some(d)) => Some(at.min(d)),
                (at, d) => at.or(d),
            };
            if self.clock.is_virtual() {
                // Nobody advances a virtual clock for us: jump to the next
                // event, or — with no frame queued and no deadline — yield
                // to the concurrent sender that alone can satisfy this.
                drop(st);
                match wake_at {
                    Some(t) => {
                        self.clock.sleep_until(t);
                    }
                    None => std::thread::yield_now(),
                }
                st = self.state.lock();
            } else {
                match wake_at {
                    Some(t) => {
                        self.arrival.wait_for(&mut st, t - now);
                    }
                    None => self.arrival.wait(&mut st),
                }
            }
        }
    }

    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Result<Bytes, NetSimError> {
        let mut st = self.state.lock();
        match st.in_flight.pop_front() {
            Some((at, frame)) if at <= self.clock.now() => {
                self.stats.record_delivery(frame.len());
                Ok(frame)
            }
            Some(entry) => {
                st.in_flight.push_front(entry);
                Err(NetSimError::WouldBlock)
            }
            None => {
                if self.sender_alive.load(Ordering::Acquire) {
                    Err(NetSimError::WouldBlock)
                } else {
                    Err(NetSimError::Disconnected)
                }
            }
        }
    }

    pub(crate) fn clock(&self) -> &SharedClock {
        &self.clock
    }

    pub(crate) fn spec(&self) -> &LinkSpec {
        &self.spec
    }
}

fn sample_jitter(rng: &mut StdRng, max: Duration) -> Duration {
    if max.is_zero() {
        Duration::ZERO
    } else {
        Duration::from_nanos(rng.gen_range(0..=max.as_nanos() as u64))
    }
}

/// A duplex simulated link between two [`Endpoint`]s.
///
/// Created with a [`LinkSpec`] and a clock mode; hand out the two endpoint
/// halves with [`Link::endpoints`].
#[derive(Debug)]
pub struct Link {
    a_to_b: Arc<Direction>,
    b_to_a: Arc<Direction>,
    spec: LinkSpec,
    clock: SharedClock,
    taken: AtomicBool,
}

impl Link {
    /// Creates a link driven by the real monotonic clock.
    pub fn real_time(spec: LinkSpec) -> Self {
        Self::with_clock(spec, Arc::new(RealClock::new()))
    }

    /// Creates a link driven by a deterministic virtual clock (tests and
    /// simulations run at CPU speed).
    pub fn virtual_time(spec: LinkSpec) -> Self {
        Self::with_clock(spec, Arc::new(VirtualClock::new()))
    }

    /// Creates a link with an explicit clock (e.g. a [`VirtualClock`] shared
    /// with other links in a topology).
    pub fn with_clock(spec: LinkSpec, clock: SharedClock) -> Self {
        let a_to_b = Direction::new(spec.clone(), clock.clone(), spec.seed());
        let b_to_a = Direction::new(spec.clone(), clock.clone(), spec.seed().wrapping_add(1));
        Link {
            a_to_b,
            b_to_a,
            spec,
            clock,
            taken: AtomicBool::new(false),
        }
    }

    /// Hands out the two endpoint halves.
    ///
    /// # Panics
    ///
    /// Panics if called twice — each direction supports exactly one
    /// sender/receiver pair.
    pub fn endpoints(&self) -> (Endpoint, Endpoint) {
        assert!(
            !self.taken.swap(true, Ordering::SeqCst),
            "Link::endpoints may only be called once"
        );
        let a = Endpoint::new(self.a_to_b.clone(), self.b_to_a.clone());
        let b = Endpoint::new(self.b_to_a.clone(), self.a_to_b.clone());
        (a, b)
    }

    /// The link's spec.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// The clock driving this link.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// Statistics for the a→b direction.
    pub fn stats_a_to_b(&self) -> Arc<LinkStats> {
        self.a_to_b.stats()
    }

    /// Statistics for the b→a direction.
    pub fn stats_b_to_a(&self) -> Arc<LinkStats> {
        self.b_to_a.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LinkSpec;

    fn fast_spec() -> LinkSpec {
        LinkSpec::builder()
            .bandwidth_bps(8_000_000)
            .propagation(Duration::from_micros(100))
            .build()
            .unwrap()
    }

    #[test]
    fn frames_round_trip_in_order() {
        let link = Link::virtual_time(fast_spec());
        let (a, b) = link.endpoints();
        for i in 0..10u8 {
            a.send(Bytes::from(vec![i; 16])).unwrap();
        }
        for i in 0..10u8 {
            let f = b.recv().unwrap();
            assert_eq!(f[0], i);
        }
    }

    #[test]
    fn duplex_directions_are_independent() {
        let link = Link::virtual_time(fast_spec());
        let (a, b) = link.endpoints();
        a.send(Bytes::from_static(b"to-b")).unwrap();
        b.send(Bytes::from_static(b"to-a")).unwrap();
        assert_eq!(&b.recv().unwrap()[..], b"to-b");
        assert_eq!(&a.recv().unwrap()[..], b"to-a");
    }

    #[test]
    fn mtu_is_enforced() {
        let spec = LinkSpec::builder().mtu(64).build().unwrap();
        let link = Link::virtual_time(spec);
        let (a, _b) = link.endpoints();
        let err = a.send(Bytes::from(vec![0u8; 65])).unwrap_err();
        assert!(matches!(
            err,
            NetSimError::FrameTooLarge { len: 65, mtu: 64 }
        ));
    }

    #[test]
    fn delivery_respects_transmission_time_on_virtual_clock() {
        // 1000-byte frame at 8 Mbit/s = 1 ms serialisation + 100 us prop.
        let link = Link::virtual_time(fast_spec());
        let clock = link.clock();
        let (a, b) = link.endpoints();
        a.send(Bytes::from(vec![0u8; 1000])).unwrap();
        b.recv().unwrap();
        let now = clock.now();
        assert!(now >= Duration::from_micros(1100), "clock only at {now:?}");
    }

    #[test]
    fn back_to_back_sends_queue_behind_each_other() {
        let link = Link::virtual_time(fast_spec());
        let clock = link.clock();
        let (a, b) = link.endpoints();
        for _ in 0..5 {
            a.send(Bytes::from(vec![0u8; 1000])).unwrap();
        }
        for _ in 0..5 {
            b.recv().unwrap();
        }
        // 5 frames x 1 ms serialisation + 100 us propagation for the last.
        assert!(clock.now() >= Duration::from_micros(5100));
    }

    #[test]
    fn loss_drops_frames_deterministically() {
        let spec = LinkSpec::builder().loss_rate(0.5).seed(42).build().unwrap();
        let link = Link::virtual_time(spec);
        let (a, b) = link.endpoints();
        for _ in 0..100 {
            a.send(Bytes::from_static(b"x")).unwrap();
        }
        drop(a);
        let mut delivered = 0;
        while b.recv().is_ok() {
            delivered += 1;
        }
        let stats = link.stats_a_to_b();
        assert_eq!(stats.frames_sent(), 100);
        assert_eq!(delivered as u64, stats.frames_delivered());
        assert!(stats.frames_dropped() > 20 && stats.frames_dropped() < 80);
        assert_eq!(stats.frames_delivered() + stats.frames_dropped(), 100);
    }

    #[test]
    fn recv_after_sender_drop_returns_disconnected() {
        let link = Link::virtual_time(fast_spec());
        let (a, b) = link.endpoints();
        a.send(Bytes::from_static(b"last")).unwrap();
        drop(a);
        assert!(b.recv().is_ok());
        assert_eq!(b.recv().unwrap_err(), NetSimError::Disconnected);
    }

    #[test]
    fn try_recv_would_block_then_succeeds() {
        let link = Link::virtual_time(fast_spec());
        let clock = link.clock();
        let (a, b) = link.endpoints();
        assert_eq!(b.try_recv().unwrap_err(), NetSimError::WouldBlock);
        a.send(Bytes::from_static(b"x")).unwrap();
        // Not yet delivered: serialisation + propagation still pending.
        assert_eq!(b.try_recv().unwrap_err(), NetSimError::WouldBlock);
        clock.sleep_until(Duration::from_secs(1));
        assert_eq!(&b.try_recv().unwrap()[..], b"x");
    }

    #[test]
    fn recv_timeout_expires() {
        let link = Link::virtual_time(fast_spec());
        let (_a, b) = link.endpoints();
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, NetSimError::Timeout(_)));
    }

    #[test]
    fn recv_timeout_succeeds_when_frame_arrives_first() {
        let link = Link::virtual_time(fast_spec());
        let (a, b) = link.endpoints();
        a.send(Bytes::from_static(b"hi")).unwrap();
        let f = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&f[..], b"hi");
    }

    #[test]
    fn real_clock_link_works() {
        let spec = LinkSpec::builder()
            .bandwidth_bps(1_000_000_000)
            .propagation(Duration::ZERO)
            .build()
            .unwrap();
        let link = Link::real_time(spec);
        let (a, b) = link.endpoints();
        let t = std::thread::spawn(move || b.recv().unwrap());
        a.send(Bytes::from_static(b"real")).unwrap();
        assert_eq!(&t.join().unwrap()[..], b"real");
    }

    #[test]
    #[should_panic(expected = "only be called once")]
    fn endpoints_cannot_be_taken_twice() {
        let link = Link::virtual_time(fast_spec());
        let _pair = link.endpoints();
        let _pair2 = link.endpoints();
    }

    #[test]
    fn jitter_does_not_reorder() {
        let spec = LinkSpec::builder()
            .jitter(Duration::from_millis(50))
            .seed(7)
            .build()
            .unwrap();
        let link = Link::virtual_time(spec);
        let (a, b) = link.endpoints();
        for i in 0..50u8 {
            a.send(Bytes::from(vec![i])).unwrap();
        }
        for i in 0..50u8 {
            assert_eq!(b.recv().unwrap()[0], i);
        }
    }

    /// One full run over a corrupting link: returns the delivered payloads
    /// and the corruption count.
    fn corrupt_run(seed: u64) -> (Vec<Vec<u8>>, u64) {
        let spec = LinkSpec::builder()
            .corrupt_rate(0.3)
            .seed(seed)
            .build()
            .unwrap();
        let link = Link::virtual_time(spec);
        let (a, b) = link.endpoints();
        for i in 0..100u8 {
            a.send(Bytes::from(vec![i; 8])).unwrap();
        }
        drop(a);
        let mut out = Vec::new();
        while let Ok(f) = b.recv() {
            out.push(f.to_vec());
        }
        let corrupted = link.stats_a_to_b().frames_corrupted();
        (out, corrupted)
    }

    #[test]
    fn corruption_is_deterministic_for_a_fixed_seed() {
        let (frames1, n1) = corrupt_run(1234);
        let (frames2, n2) = corrupt_run(1234);
        assert!(n1 > 10 && n1 < 60, "0.3 rate over 100 frames, got {n1}");
        assert_eq!(n1, n2, "same seed, same corruption count");
        assert_eq!(frames1, frames2, "same seed, bit-identical deliveries");

        // Each corrupted frame differs from the original in exactly one bit.
        let mut seen_corrupt = 0;
        for (i, f) in frames1.iter().enumerate() {
            let clean = vec![i as u8; 8];
            let flipped: u32 = f
                .iter()
                .zip(&clean)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert!(flipped <= 1, "frame {i} has {flipped} flipped bits");
            seen_corrupt += u64::from(flipped == 1);
        }
        assert_eq!(seen_corrupt, n1);

        let (_, other) = corrupt_run(99);
        assert_ne!(n1, other, "different seed, different fault sequence");
    }

    #[test]
    fn sever_after_cuts_the_direction() {
        let spec = LinkSpec::builder().sever_after(Some(5)).build().unwrap();
        let link = Link::virtual_time(spec);
        let (a, b) = link.endpoints();
        for i in 0..5u8 {
            a.send(Bytes::from(vec![i])).unwrap();
        }
        assert_eq!(
            a.send(Bytes::from_static(b"x")).unwrap_err(),
            NetSimError::Disconnected
        );
        // Frames accepted before the sever still drain in order...
        for i in 0..5u8 {
            assert_eq!(b.recv().unwrap()[0], i);
        }
        // ...then the receiver sees end-of-link.
        assert_eq!(b.recv().unwrap_err(), NetSimError::Disconnected);
    }

    #[test]
    fn reorder_rate_breaks_fifo_deterministically() {
        let spec = LinkSpec::builder()
            .reorder_rate(0.4)
            .seed(7)
            .build()
            .unwrap();
        let link = Link::virtual_time(spec);
        let (a, b) = link.endpoints();
        for i in 0..50u8 {
            a.send(Bytes::from(vec![i])).unwrap();
        }
        drop(a);
        let mut order = Vec::new();
        while let Ok(f) = b.recv() {
            order.push(f[0]);
        }
        assert_eq!(order.len(), 50, "reordering never loses frames");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(order, sorted, "some frames arrived out of order");
        assert!(link.stats_a_to_b().frames_reordered() > 0);
    }
}
