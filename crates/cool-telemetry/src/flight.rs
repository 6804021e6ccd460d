//! The flight recorder: a bounded ring of structured runtime events.
//!
//! Where metrics answer "how many" and spans answer "how long", the
//! recorder answers "what happened, in what order" — it captures the
//! *exceptional* path (reconnects, QoS NACKs and degradations, injected
//! faults with the request ids they hit, dispatcher-queue high-water
//! marks) so a failed chaos run or a flaky test can be
//! attributed from a single JSON dump instead of a rerun.
//!
//! High-frequency happy-path activity (every accepted negotiation, every
//! frame) deliberately stays out: those belong in counters, and recording
//! them here would evict the rare events the recorder exists to keep.
//! The ring is bounded; evictions are counted and surfaced as
//! `flight_events_dropped_total`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::lockorder::{rank, OrderedMutex};
use crate::registry::json_escape;

/// Well-known event kinds; free-form kinds are also accepted.
pub mod event {
    /// A binding transparently re-established its channel.
    pub const RECONNECT: &str = "reconnect";
    /// The server NACKed a QoS negotiation.
    pub const QOS_NACK: &str = "qos_nack";
    /// A stub stepped down its QoS ladder after a NACK.
    pub const QOS_DEGRADE: &str = "qos_degrade";
    /// The fault engine injected a fault into a frame.
    pub const FAULT_INJECTED: &str = "fault_injected";
    /// The dispatcher queue reached a new high-water mark.
    pub const QUEUE_HIGH_WATER: &str = "queue_high_water";
    /// A Da CaPo transport died underneath its connection.
    pub const TRANSPORT_DEAD: &str = "transport_dead";
    /// A replicated binding switched to another replica mid-traffic.
    pub const FAILOVER: &str = "failover";
    /// A replica crossed the suspect threshold and left the healthy set.
    pub const REPLICA_EVICTED: &str = "replica_evicted";
    /// An evicted replica passed a probe and rejoined the healthy set.
    pub const REPLICA_READMITTED: &str = "replica_readmitted";
    /// A replica's circuit breaker opened after consecutive failures.
    pub const BREAKER_OPEN: &str = "breaker_open";
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Event kind; see [`event`].
    pub kind: &'static str,
    /// Request id the event is attributable to, when there is one.
    pub request_id: Option<u32>,
    /// Free-form human-oriented detail.
    pub detail: String,
}

struct FlightInner {
    events: VecDeque<FlightEvent>,
    seq: u64,
}

/// Default ring size — large enough to hold every exceptional event of a
/// full chaos run with room to spare.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Bounded, lock-rank-disciplined event ring.
pub struct FlightRecorder {
    inner: OrderedMutex<FlightInner>,
    started: Instant,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: OrderedMutex::new(
                rank::TELEMETRY_FLIGHT,
                FlightInner {
                    events: VecDeque::with_capacity(capacity.max(1)),
                    seq: 0,
                },
            ),
            started: Instant::now(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event, evicting the oldest when the ring is full.
    pub fn record(&self, kind: &'static str, request_id: Option<u32>, detail: String) {
        let at_us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut inner = self.inner.lock();
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push_back(FlightEvent {
            seq,
            at_us,
            kind,
            request_id,
            detail,
        });
    }

    /// Copy of the ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dumps the ring as a JSON object:
    /// `{"dropped":N,"events":[{seq,at_us,kind,request_id,detail}…]}`.
    pub fn to_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + 96 * events.len());
        out.push_str(&format!("{{\"dropped\":{},\"events\":[", self.dropped()));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"request_id\":{},\"detail\":\"{}\"}}",
                e.seq,
                e.at_us,
                e.kind,
                e.request_id.map_or("null".to_string(), |id| id.to_string()),
                json_escape(&e.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_detail() {
        let rec = FlightRecorder::default();
        rec.record(event::RECONNECT, None, "tcp".to_string());
        rec.record(event::FAULT_INJECTED, Some(17), "drop".to_string());
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "reconnect");
        assert_eq!(events[1].request_id, Some(17));
        assert!(events[0].seq < events[1].seq);
        let json = rec.to_json();
        assert!(json.contains("\"kind\":\"fault_injected\""));
        assert!(json.contains("\"request_id\":17"));
        assert!(json.contains("\"request_id\":null"));
        assert!(json.contains("\"dropped\":0"));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10u32 {
            rec.record(event::FAULT_INJECTED, Some(i), String::new());
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let ids: Vec<_> = rec.events().iter().filter_map(|e| e.request_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn detail_is_json_escaped() {
        let rec = FlightRecorder::default();
        rec.record(event::QOS_NACK, None, "say \"no\"\n".to_string());
        assert!(rec.to_json().contains("say \\\"no\\\"\\n"));
    }
}
