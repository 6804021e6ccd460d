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

use std::time::Instant;

use crate::lockorder::{rank, OrderedMutex};
use crate::registry::json_escape;
use crate::ring::Ring;

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

/// Events the recorder keeps — every exceptional event of a full chaos
/// run with room to spare.
const FLIGHT_CAPACITY: usize = 256;

/// Bounded, lock-rank-disciplined event ring.
pub struct FlightRecorder {
    events: OrderedMutex<Ring<FlightEvent, FLIGHT_CAPACITY>>,
    started: Instant,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            events: OrderedMutex::new(rank::TELEMETRY_FLIGHT, Ring::default()),
            started: Instant::now(),
        }
    }
}

impl FlightRecorder {
    /// Records one event, evicting the oldest when the ring is full.
    pub fn record(&self, kind: &'static str, request_id: Option<u32>, detail: String) {
        let at_us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut events = self.events.lock();
        // Every event ever recorded is either held or was evicted, so the
        // next sequence number is their sum.
        let seq = events.dropped() + events.len() as u64;
        events.push(FlightEvent {
            seq,
            at_us,
            kind,
            request_id,
            detail,
        });
    }

    /// Copy of the ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.events.lock().dropped()
    }

    /// Dumps the ring as a JSON object:
    /// `{"dropped":N,"events":[{seq,at_us,kind,request_id,detail}…]}`.
    /// The count and the events come from one lock acquisition, so the
    /// oldest event listed always has `seq == dropped`.
    pub fn to_json(&self) -> String {
        let (dropped, events) = {
            let ring = self.events.lock();
            (ring.dropped(), ring.iter().cloned().collect::<Vec<_>>())
        };
        let mut out = String::with_capacity(64 + 96 * events.len());
        out.push_str(&format!("{{\"dropped\":{dropped},\"events\":["));
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
        let events = self.events.lock();
        f.debug_struct("FlightRecorder")
            .field("len", &events.len())
            .field("dropped", &events.dropped())
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
    fn a_dump_taken_while_recording_agrees_with_itself() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        const WRITERS: usize = 4;
        const DUMPS: usize = 1_000;
        let rec = Arc::new(FlightRecorder::default());
        let stop = Arc::new(AtomicBool::new(false));
        // Each writer records past the ring's capacity on its own, then
        // keeps recording until every dump has been taken.
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let (rec, stop) = (Arc::clone(&rec), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut recorded = 0u64;
                    while recorded < FLIGHT_CAPACITY as u64 || !stop.load(Ordering::Relaxed) {
                        rec.record(event::FAULT_INJECTED, None, String::new());
                        recorded += 1;
                    }
                    recorded
                })
            })
            .collect();
        // `seq` counts from 0 and only the oldest event is ever evicted,
        // so in every dump the first event listed is number `dropped`.
        let check = |dump: &str| match dump.find("\"seq\":") {
            Some(_) => assert_eq!(
                json_u64_after(dump, "\"seq\":"),
                json_u64_after(dump, "\"dropped\":"),
                "{dump}"
            ),
            None => assert_eq!(json_u64_after(dump, "\"dropped\":"), 0, "{dump}"),
        };
        for _ in 0..DUMPS {
            check(&rec.to_json());
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .sum();
        check(&rec.to_json());
        assert_eq!(rec.dropped(), total - FLIGHT_CAPACITY as u64);
        assert_eq!(rec.len(), FLIGHT_CAPACITY);
    }

    fn json_u64_after(json: &str, key: &str) -> u64 {
        let at = json.find(key).expect("key present") + key.len();
        let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("a number")
    }

    #[test]
    fn detail_is_json_escaped() {
        let rec = FlightRecorder::default();
        rec.record(event::QOS_NACK, None, "say \"no\"\n".to_string());
        assert!(rec.to_json().contains("say \\\"no\\\"\\n"));
    }
}
