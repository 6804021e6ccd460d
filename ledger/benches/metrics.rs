//! The metric tables: every name the ledger prints, with unit and which way
//! is better. `BENCHMARK.json` lists the same names (a test holds the two
//! together); the bounds live there.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// What a user of the ORB would see; printed by every timed run of every
/// workload. `failed_share` is not a metric here because it is 0 on a
/// healthy run and a bound relative to 0 means nothing: it travels as
/// `failed`/`attempted` beside the metrics and `compare` bounds it in
/// absolute terms.
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("setup_s", "s", Lower),
    ("ops_per_s", "1/s", Higher),
    ("goodput_mbit_s", "Mbit/s", Higher),
    ("lat_p50_us", "us", Lower),
    ("rss_mib", "MiB", Lower),
];

/// Absolute rise in failed/attempted that `compare` calls worse.
pub const FAILED_SHARE_BOUND: f64 = 0.0005;

/// Single-layer readings; printed by every traced run. Probe rows come
/// first, then what the traced window and the registry gave. A reading
/// that does not apply to the workload traced (blackouts outside
/// `replica_failover`, queue waits on a stream) is 0.
pub const PER_LAYER: [(&str, &str, Better); 70] = [
    // Demoted from end to end by the calibration rule: from run to run on
    // this sandbox the tail spreads 13-16 % and the CPU cost of `qos_churn`
    // 23 %; see README.md, "Calibration".
    ("lat_p99_us", "us", Lower),
    ("cpu_us_per_op", "us", Lower),
    ("cool-giop.encode_request_ns", "ns", Lower),
    ("cool-giop.encode_request_qos4_ns", "ns", Lower),
    ("cool-giop.decode_request_ns", "ns", Lower),
    ("cool-giop.encode_reply_ns", "ns", Lower),
    ("cool-giop.decode_reply_ns", "ns", Lower),
    ("cool-giop.encode_request_16k_ns", "ns", Lower),
    ("cool-giop.split_frames_ns_per_frame", "ns", Lower),
    ("multe-qos.negotiate_ns", "ns", Lower),
    ("multe-qos.negotiate_ladder3_ns", "ns", Lower),
    ("multe-qos.spec_params_roundtrip_ns", "ns", Lower),
    ("multe-qos.requirements_from_granted_ns", "ns", Lower),
    ("cool-orb.colocated_call_ns", "ns", Lower),
    ("cool-orb.adapter_dispatch_ns", "ns", Lower),
    ("cool-orb.make_request_ns", "ns", Lower),
    ("cool-orb.interpret_reply_ns", "ns", Lower),
    ("cool-orb.inbox_handoff_ns", "ns", Lower),
    ("cool-orb.tcp_frame_rtt_us", "us", Lower),
    ("cool-orb.chorus_frame_rtt_us", "us", Lower),
    ("cool-orb.dacapo_frame_rtt_us", "us", Lower),
    ("cool-orb.call_tcp_p50_us", "us", Lower),
    ("cool-orb.call_chorus_p50_us", "us", Lower),
    ("cool-orb.call_dacapo_p50_us", "us", Lower),
    ("cool-orb.oneway_issue_ns", "ns", Lower),
    ("cool-orb.deferred_issue_ns", "ns", Lower),
    ("cool-orb.bind_tcp_us", "us", Lower),
    ("cool-orb.bind_chorus_us", "us", Lower),
    ("cool-orb.bind_dacapo_us", "us", Lower),
    ("cool-orb.stream_open_us", "us", Lower),
    ("cool-orb.allocs_per_call", "count", Lower),
    ("cool-orb.call_residual_us", "us", Lower),
    ("cool-orb.call_residual_chorus_us", "us", Lower),
    ("cool-orb.call_residual_dacapo_us", "us", Lower),
    ("cool-orb.queue_wait_p50_us", "us", Lower),
    ("cool-orb.queue_wait_p99_us", "us", Lower),
    ("cool-orb.dispatch_queue_depth_max", "count", Lower),
    ("cool-orb.dispatchers_busy_max", "count", Lower),
    ("cool-orb.stage_frame_send_p50_us", "us", Lower),
    ("cool-orb.stage_reply_decode_p50_us", "us", Lower),
    ("cool-orb.wire_out_p50_us", "us", Lower),
    ("cool-orb.wire_back_p50_us", "us", Lower),
    ("cool-orb.lat_p999_us", "us", Lower),
    ("cool-orb.replica.blackout_p50_ms", "ms", Lower),
    ("cool-orb.replica.blackout_max_ms", "ms", Lower),
    ("cool-orb.replica.failovers", "count", Lower),
    ("cool-orb.replica.resolved_overhead_pct", "%", Lower),
    ("cool-orb.retries", "count", Lower),
    ("dacapo.configure_ns", "ns", Lower),
    ("dacapo.establish_us", "us", Lower),
    ("dacapo.reconfigure_us", "us", Lower),
    ("dacapo.close_us", "us", Lower),
    ("dacapo.rtt_0mod_us", "us", Lower),
    ("dacapo.rtt_8dummy_us", "us", Lower),
    ("dacapo.hop_ns", "ns", Lower),
    ("dacapo.rtt_seq_crc_4k_us", "us", Lower),
    ("dacapo.packet_push_pop_ns", "ns", Lower),
    ("dacapo.threads_per_connection", "count", Lower),
    ("dacapo.threads_leaked", "count", Lower),
    ("dacapo.frame_transit_p50_us", "us", Lower),
    ("netsim.shaped_goodput_ratio", "ratio", Higher),
    ("netsim.frame_overhead_ns", "ns", Lower),
    ("cool-naming.register_us", "us", Lower),
    ("cool-naming.resolve_us", "us", Lower),
    ("chorus-sim.port_handoff_ns", "ns", Lower),
    ("cool-telemetry.traced_overhead_pct", "%", Lower),
    ("cool-telemetry.counter_inc_ns", "ns", Lower),
    ("cool-telemetry.histogram_record_ns", "ns", Lower),
    ("cool-telemetry.span_cycle_ns", "ns", Lower),
    ("cool-telemetry.spans_dropped", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and these tables must say the same thing: a name
    /// printed but not declared (or the reverse) fails the driver's check.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |section: &str| -> Vec<(String, String, String)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .expect("section is a list")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_owned()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |rows: &[(&str, &str, Better)]| -> Vec<(String, String, String)> {
            let word = |b: &Better| if *b == Lower { "lower" } else { "higher" };
            rows.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), word(b).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
        for metric in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1),
            "the ledger lives in one directory"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
