//! Driving a workload: the timed run (end-to-end metrics, telemetry off),
//! the traced run (per-layer metrics), and `ledger run`, which gives every
//! workload its own child process for both.

use crate::harness::{Block, Blocks, Sampled, Sampler, Tracing, WindowResult, Workload};
use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{Probes, BUDGET_CODEC_ROWS, CHORUS_NAMES, DACAPO_NAMES, TCP_NAMES};
use crate::stats;
use crate::trace;
use crate::workloads::{churn, failover, rpc, stream, WORKLOADS};
use crate::yard::{Pace, Yardstick};
use cool_telemetry::{names, Stage, TelemetrySnapshot};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is their median. At least the first
/// count, then more while they fit the time allowance, up to the second: a
/// short set-up is the noisy kind, and cheap to repeat.
const SETUPS: (usize, usize) = (5, 15);
const SETUPS_ALLOWANCE: Duration = Duration::from_secs(2);

/// Blocks a timed window is cut into. Each is a stretch of the workload with
/// the yardstick read before and after it (README.md, "The yardstick").
const BLOCKS: usize = 16;

/// Share of a block the yardstick takes.
const YARD_SHARE: f64 = 0.15;

/// How long the yardstick runs either side of a set-up.
const SETUP_YARD_SPAN: Duration = Duration::from_millis(60);

/// Share of a traced run's `--seconds` given to each of the two untraced
/// blocks; the traced block between them gets twice that.
const TRACED_BLOCK_SHARE: f64 = 0.08;

/// Share of a traced run's `--seconds` the probes may take.
const PROBE_SHARE: f64 = 0.5;

/// The checkout this ledger belongs to: the working directory when it looks
/// like one (the benchmark command runs from the repository root), else
/// where the ledger was built.
pub fn repo_root() -> PathBuf {
    match std::env::current_dir() {
        Ok(cwd)
            if cwd.join("BENCHMARK.json").is_file() && cwd.join("ledger/Cargo.toml").is_file() =>
        {
            cwd
        }
        _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")),
    }
}

/// Where result and trace files go: `ledger/out/`.
pub fn out_dir() -> PathBuf {
    repo_root().join("ledger/out")
}

pub struct BenchArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One metric value with the sample count behind it.
struct Value {
    name: &'static str,
    unit: &'static str,
    value: f64,
    n: u64,
}

/// What one bench process measured.
pub struct BenchReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<Value>,
    notes: Vec<(&'static str, Json)>,
}

impl BenchReport {
    /// The line the benchmark contract asks for: exactly these four keys,
    /// every declared metric with value and unit.
    pub fn contract_line(&self) -> String {
        let metrics = self.values.iter().map(|v| {
            (
                v.name,
                Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The fuller record `ledger run` collects: the contract line's content
    /// plus sample counts and notes.
    pub fn detail(&self, args: &BenchArgs) -> Json {
        let metrics = self.values.iter().map(|v| {
            let fields = [
                ("value", Json::Num(v.value)),
                ("unit", Json::str(v.unit)),
                ("n", Json::Num(v.n as f64)),
            ];
            (v.name, Json::obj(fields))
        });
        let mut pairs = vec![
            ("workload", Json::str(args.workload.as_str())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("traced", Json::Bool(args.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ];
        pairs.extend(self.notes.iter().cloned());
        Json::obj(pairs)
    }
}

/// Runs one workload in this process, timed or traced.
pub fn bench(args: &BenchArgs) -> Result<BenchReport, String> {
    let window = Duration::from_secs_f64(args.seconds);
    macro_rules! dispatch {
        ($w:ty) => {
            if args.traced {
                traced::<$w>(args, window)
            } else {
                timed::<$w>(args.seed, window)
            }
        };
    }
    match args.workload.as_str() {
        "rpc_small" => dispatch!(rpc::RpcSmall),
        "rpc_load" => dispatch!(rpc::RpcLoad),
        "media_stream" => dispatch!(stream::MediaStream),
        "qos_churn" => dispatch!(churn::QosChurn),
        "replica_failover" => dispatch!(failover::ReplicaFailover),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// What the yardstick read around one stretch of work: the mean of the
/// readings either side.
fn speed_between(before: f64, after: f64) -> f64 {
    (before + after) / 2.0
}

fn timed<W: Workload>(seed: u64, window: Duration) -> Result<BenchReport, String> {
    let mut yard = Yardstick::new()?;
    let period = window / BLOCKS as u32;
    let pace = W::PACE;
    // A timer-paced workload reads no yardstick and keeps the whole block.
    let yard_span = match pace {
        Pace::Timers => Duration::ZERO,
        _ => period.mul_f64(YARD_SHARE),
    };

    // A set-up at speed 1.0: the yardstick is read before and after it.
    let mut setups = Vec::with_capacity(SETUPS.1);
    let mut reading = yard.speed(pace, SETUP_YARD_SPAN)?;
    let mut timed_setup = |yard: &mut Yardstick| -> Result<W, String> {
        let start = Instant::now();
        let workload = W::setup(seed, None)?;
        let took = start.elapsed().as_secs_f64();
        let before = std::mem::replace(&mut reading, yard.speed(pace, SETUP_YARD_SPAN)?);
        setups.push(took * speed_between(before, reading));
        Ok(workload)
    };
    let mut workload = timed_setup(&mut yard)?;

    // The window: blocks of work with the yardstick read between them.
    let mut blocks = Vec::with_capacity(BLOCKS);
    let (mut attempted, mut failed, mut hung, mut acceptable) = (0, 0, false, true);
    let mut before = yard.speed(pace, yard_span)?;
    for _ in 0..BLOCKS {
        let result = workload.run(period - yard_span);
        let after = yard.speed(pace, yard_span)?;
        blocks.push(Block::of(&result, speed_between(before, after)));
        before = after;
        attempted += result.attempted;
        failed += result.failed;
        hung |= result.hung;
        acceptable &= result.acceptable();
    }
    let mut teardown_failures = workload.teardown();
    let scaled = pace != Pace::Timers;
    let blocks = Blocks { blocks, scaled };

    let repeats_started = Instant::now();
    for done in 1..SETUPS.1 {
        if done >= SETUPS.0 && repeats_started.elapsed() >= SETUPS_ALLOWANCE {
            break;
        }
        teardown_failures += timed_setup(&mut yard)?.teardown();
    }

    let (tail, lat_tail_us) = blocks.lat_tail_us();
    let measured = [
        (stats::median(&setups), setups.len() as u64),
        (blocks.ops_per_s(), blocks.ops()),
        (blocks.goodput_mbit_s(), blocks.ops()),
        (blocks.lat_p50_us(), blocks.samples()),
        (blocks.rss_mib(), blocks.blocks.len() as u64),
    ];
    let values = END_TO_END
        .iter()
        .zip(measured)
        .map(|((name, unit, _), (value, n))| Value {
            name,
            unit,
            value,
            n,
        })
        .collect();
    failed += teardown_failures;
    let speeds: Vec<f64> = blocks.blocks.iter().map(|b| b.speed).collect();
    Ok(BenchReport {
        correct: acceptable && teardown_failures == 0,
        attempted: attempted.max(1),
        failed,
        values,
        notes: vec![
            ("hung", Json::Bool(hung)),
            ("lat_tail_percentile", Json::Num(tail)),
            ("lat_tail_us", Json::Num(lat_tail_us)),
            ("cpu_us_per_op", Json::Num(blocks.cpu_us_per_op())),
            (
                "failed_share",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            (
                "cpus",
                Json::Arr(
                    host::allowed_cpus()
                        .into_iter()
                        .map(|cpu| Json::Num(f64::from(cpu)))
                        .collect(),
                ),
            ),
            ("pace", Json::str(format!("{pace:?}"))),
            ("host_speed_median", Json::Num(stats::median(&speeds))),
            (
                "blocks",
                Json::Arr(
                    blocks
                        .blocks
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("speed", Json::Num(b.speed)),
                                ("ops_per_s", Json::Num(b.ops as f64 / b.busy_s.max(1e-9))),
                                ("lat_p50_us", Json::Num(b.lat_p50_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
    })
}

/// Median of `pick` over the sampled trace records, in µs (0 with none).
fn trace_percentile(
    sampled: &Sampled,
    p: f64,
    pick: impl Fn(&cool_telemetry::TraceRecord) -> Option<u64>,
) -> f64 {
    let mut values: Vec<u64> = sampled.traces.iter().filter_map(pick).collect();
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    stats::percentile(&values, p) as f64
}

/// Waits for the process to get back down to `baseline` threads (detached
/// pumps exit on their own shortly after a close); returns the excess.
fn threads_leaked(baseline: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let excess = host::thread_count().saturating_sub(baseline);
        if excess == 0 || Instant::now() >= deadline {
            return excess;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn traced<W: Workload>(args: &BenchArgs, seconds: Duration) -> Result<BenchReport, String> {
    let block = seconds.mul_f64(TRACED_BLOCK_SHARE);
    let tracing = Tracing::new();
    let threads_before = host::thread_count();

    // Untraced, traced (twice as long), untraced: drift lands on both.
    let mut plain = W::setup(args.seed, None)?;
    let mut instrumented = W::setup(args.seed, Some(&tracing))?;
    let sampler = Sampler::start(std::sync::Arc::clone(&tracing.registry));
    let plain_before = plain.run(block);
    let result = instrumented.run(block * 2);
    let plain_after = plain.run(block);
    let plain_rate = (plain_before.ops_per_s() + plain_after.ops_per_s()) / 2.0;
    let paced = instrumented.paced(block * 2, plain_rate);
    let sampled = sampler.finish();
    let snapshot = tracing.registry.snapshot();
    let teardown_failures = plain.teardown() + instrumented.teardown();
    let leaked = threads_leaked(threads_before);

    let (spans, spans_dropped) = tracing.recorder.take();
    let mut probes = Probes::new(args.seed, seconds.mul_f64(PROBE_SHARE));
    probes.run_all()?;

    let window_values = window_layer_values(&result, plain_rate, &sampled, &snapshot, leaked);
    let lookup = |name: &str| -> (f64, u64) {
        if let Some(reading) = probes.readings.iter().find(|r| r.name == name) {
            return (reading.value, reading.n);
        }
        let value = window_values
            .iter()
            .chain(&paced)
            .chain(&result.layer)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        (value, result.verified_ops())
    };
    let values: Vec<Value> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let (value, n) = lookup(name);
            Value {
                name,
                unit,
                value,
                n,
            }
        })
        .collect();

    let budget = budget_table(&probes);
    let trace_name = format!("trace-{}.json", args.workload);
    let trace_file = out_dir().join(&trace_name);
    let mut trace_doc = vec![
        ("workload".to_owned(), Json::str(args.workload.as_str())),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        (
            "trace_records_sampled".to_owned(),
            Json::Num(sampled.traces.len() as f64),
        ),
        ("registry".to_owned(), registry_counts(&snapshot)),
        ("budget".to_owned(), budget.clone()),
    ];
    if let Json::Obj(pairs) = trace::to_json(&spans, spans_dropped) {
        trace_doc.extend(pairs);
    }
    write_json(&trace_file, &Json::Obj(trace_doc))?;

    let windows = [&plain_before, &result, &plain_after];
    let failed = windows.iter().map(|w| w.failed).sum::<u64>() + teardown_failures;
    let hung = windows.iter().any(|w| w.hung);
    Ok(BenchReport {
        // A thread that outlives teardown fails the run. What `qos_churn`
        // loses between listener restarts is in `dacapo.threads_leaked`
        // but not here: README.md, "Findings", 1.
        correct: windows.iter().all(|w| w.acceptable()) && teardown_failures == 0 && leaked == 0,
        attempted: (result.attempted + plain_before.attempted + plain_after.attempted).max(1),
        failed,
        values,
        notes: vec![
            ("hung", Json::Bool(hung)),
            ("budget", budget),
            ("trace_file", Json::str(format!("ledger/out/{trace_name}"))),
            ("spans_recorded", Json::Num(spans.len() as f64)),
            (
                "trace_records_sampled",
                Json::Num(sampled.traces.len() as f64),
            ),
        ],
    })
}

/// Per-layer readings that come from the traced window itself: the
/// registry's trace records, gauges and counters, and the overhead of
/// tracing against the untraced blocks either side.
fn window_layer_values(
    result: &WindowResult,
    plain_rate: f64,
    sampled: &Sampled,
    snapshot: &TelemetrySnapshot,
    leaked: u64,
) -> Vec<(&'static str, f64)> {
    let stage = |s: Stage| {
        move |t: &cool_telemetry::TraceRecord| t.span.stage(s).map(|timing| timing.duration_us)
    };
    let queue_wait = |t: &cool_telemetry::TraceRecord| t.server.map(|s| u64::from(s.queue_wait_us));
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let leaked_in_window = result
        .layer
        .iter()
        .find(|(name, _)| *name == "dacapo.threads_leaked")
        .map_or(0.0, |(_, threads)| *threads);
    vec![
        (
            "cool-orb.queue_wait_p50_us",
            trace_percentile(sampled, 50.0, queue_wait),
        ),
        (
            "cool-orb.queue_wait_p99_us",
            trace_percentile(sampled, 99.0, queue_wait),
        ),
        ("cool-orb.dispatch_queue_depth_max", sampled.queue_depth_max),
        (
            "cool-orb.dispatchers_busy_max",
            sampled.dispatchers_busy_max,
        ),
        (
            "cool-orb.stage_frame_send_p50_us",
            trace_percentile(sampled, 50.0, stage(Stage::FrameSend)),
        ),
        (
            "cool-orb.stage_reply_decode_p50_us",
            trace_percentile(sampled, 50.0, stage(Stage::ReplyDecode)),
        ),
        (
            "cool-orb.wire_out_p50_us",
            trace_percentile(sampled, 50.0, |t| t.wire_out_us),
        ),
        (
            "cool-orb.wire_back_p50_us",
            trace_percentile(sampled, 50.0, |t| t.wire_back_us),
        ),
        (
            "lat_p99_us",
            result.latency_us(result.tail_percentile(99.0)),
        ),
        ("cpu_us_per_op", result.cpu_us_per_op()),
        (
            "cool-orb.lat_p999_us",
            result.latency_us(result.tail_percentile(99.9)),
        ),
        (
            "cool-orb.replica.failovers",
            counter(names::FAILOVERS_TOTAL),
        ),
        ("cool-orb.retries", counter(names::RETRIES_TOTAL)),
        ("dacapo.threads_leaked", leaked as f64 + leaked_in_window),
        (
            "cool-telemetry.traced_overhead_pct",
            (plain_rate - result.ops_per_s()) / plain_rate.max(1e-9) * 100.0,
        ),
        (
            "cool-telemetry.spans_dropped",
            counter("spans_dropped_total"),
        ),
    ]
}

fn registry_counts(snapshot: &TelemetrySnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::Num(*v as f64))),
            ),
        ),
        (
            "gauges",
            Json::obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::Num(*v))),
            ),
        ),
        (
            "histograms",
            Json::obj(snapshot.histograms.iter().map(|(k, h)| {
                let fields = [
                    ("count", h.count),
                    ("p50", h.p50),
                    ("p99", h.p99),
                    ("max", h.max),
                ];
                (
                    k.as_str(),
                    Json::obj(fields.map(|(f, v)| (f, Json::Num(v as f64)))),
                )
            })),
        ),
    ])
}

/// The stacked budget of one idle 64-byte call per transport: probe rows
/// plus the residual sum to the measured median.
fn budget_table(probes: &Probes) -> Json {
    let transports = [
        ("tcp", TCP_NAMES),
        ("chorus", CHORUS_NAMES),
        ("dacapo", DACAPO_NAMES),
    ];
    Json::obj(transports.map(|(transport, [call, rtt, residual, _bind])| {
        let mut rows: Vec<(&str, Json)> = BUDGET_CODEC_ROWS
            .iter()
            .map(|row| (*row, Json::Num(probes.value(row) / 1000.0)))
            .collect();
        rows.insert(1, (rtt, Json::Num(probes.value(rtt))));
        rows.push(("residual_us", Json::Num(probes.value(residual))));
        rows.push(("call_p50_us", Json::Num(probes.value(call))));
        (transport, Json::obj(rows))
    }))
}

pub fn write_json(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---- `ledger run` -----------------------------------------------------------

pub struct RunArgs {
    pub seed: u64,
    /// 1 s windows in place of each workload's own.
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Runs every workload, timed then traced, each in its own child process so
/// CPU and peak RSS are the workload's alone; prints every metric and
/// writes the lot to one result file. Returns whether every run was correct.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut all_correct = true;
    let mut records = Vec::new();
    for (workload, default_seconds) in WORKLOADS {
        let seconds = if args.smoke { 1 } else { default_seconds };
        let mut pair = Vec::new();
        for traced in [false, true] {
            let detail_file =
                out_dir().join(format!("detail-{workload}-{}.json", u8::from(traced)));
            let status = Command::new(&exe)
                .args(["bench", "--workload", workload])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--detail")
                .arg(&detail_file)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("start {workload}: {e}"))?;
            let detail = read_json(&detail_file)?;
            let correct = detail
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            all_correct &= correct && status.success();
            print_detail(workload, traced, &detail);
            pair.push((if traced { "traced" } else { "timed" }, detail));
        }
        records.push((workload, Json::obj(pair)));
    }
    let doc = Json::obj([
        ("host", host::fingerprint()),
        ("seed", Json::Num(args.seed as f64)),
        ("all_correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(records)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("run-{}.json", args.seed)));
    write_json(&out, &doc)?;
    println!("\nresult file: {}", out.display());
    Ok(all_correct)
}

fn print_detail(workload: &str, traced: bool, detail: &Json) {
    let field = |k: &str| detail.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let verdict = if detail.get("correct").and_then(Json::as_bool) == Some(true) {
        "correct"
    } else {
        "INCORRECT"
    };
    println!(
        "\n== {workload} · {} · seed {} · {} s · {verdict} · {} attempted, {} failed",
        if traced {
            "traced run (per-layer)"
        } else {
            "timed run (end-to-end)"
        },
        field("seed"),
        field("seconds"),
        field("attempted"),
        field("failed"),
    );
    let bounds = crate::compare::bounds().unwrap_or_default();
    for (name, metric) in detail.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let get = |k: &str| metric.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        let bound = bounds
            .iter()
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, b)| format!("  bound {:.0}%", b * 100.0));
        println!(
            "  {name:<44} {:>16.4} {unit:<7} n={}{bound}",
            get("value"),
            get("n")
        );
    }
    if !traced {
        // Not bounded (see README, "Calibration"), but a user would ask.
        println!(
            "  {:<44} {:>16.4} us      p{}",
            "(lat_tail_us)",
            field("lat_tail_us"),
            field("lat_tail_percentile")
        );
        println!(
            "  {:<44} {:>16.4} us",
            "(cpu_us_per_op)",
            field("cpu_us_per_op")
        );
        println!(
            "  {:<44} {:>16.6} ratio",
            "(failed_share)",
            field("failed_share")
        );
    }
    if traced && workload == "rpc_small" {
        if let Some(budget) = detail.get("budget") {
            print_budget(budget);
        }
    }
}

/// The stacked budget, TCP, Chorus and Da CaPo side by side.
fn print_budget(budget: &Json) {
    let transports = ["tcp", "chorus", "dacapo"];
    println!("\n  stacked budget of one idle 64 B call (us): rows + residual = measured p50");
    println!(
        "  {:<36} {:>10} {:>10} {:>10}",
        "row", "tcp", "chorus", "dacapo"
    );
    let rows = budget
        .get("tcp")
        .and_then(Json::as_obj)
        .map_or(0, <[_]>::len);
    for i in 0..rows {
        let cell = |t: &str| {
            budget
                .get(t)
                .and_then(Json::as_obj)
                .and_then(|o| o.get(i))
                .cloned()
        };
        let label = match cell("tcp") {
            // The frame-RTT row is named per transport; show it once.
            Some((name, _)) if name.ends_with("_frame_rtt_us") => {
                "cool-orb.<transport>_frame_rtt_us".to_owned()
            }
            Some((name, _)) => name,
            None => continue,
        };
        let values: Vec<String> = transports
            .iter()
            .map(|t| {
                cell(t)
                    .and_then(|(_, v)| v.as_f64())
                    .map_or("-".to_owned(), |v| format!("{v:.3}"))
            })
            .collect();
        println!(
            "  {label:<36} {:>10} {:>10} {:>10}",
            values[0], values[1], values[2]
        );
    }
}
