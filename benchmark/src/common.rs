//! Shared plumbing: command-line arguments, the metric catalogue, summary
//! statistics, output checks, and the result line every run prints.

use aiql_datagen::{EnterpriseSim, GroundTruth};
use aiql_engine::Cursor;
use aiql_model::{Dataset, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One result row.
pub type Row = Vec<Value>;

/// The end-to-end metrics every workload reports on an untraced run, with
/// their units. Each workload maps them onto its own user-facing operation
/// (see `DESIGN.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mem_mb", "MB"),
    ("throughput_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
];

/// The per-layer metrics every workload reports on a traced run. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.prepare_p50_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.self_us_per_op", "us"),
    ("engine.execute_p50_us", "us"),
    ("engine.execute_p95_us", "us"),
    ("engine.fetch_p50_us", "us"),
    ("engine.live_execute_p50_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.scan_us", "us"),
    ("engine.join_us", "us"),
    ("engine.score_us", "us"),
    ("engine.unattributed_ratio", "ratio"),
    ("engine.pool_queue_wait_p50_us", "us"),
    ("engine.pool_tasks_per_stmt", "count"),
    ("engine.self_us_per_op", "us"),
    ("rdb.rows_scanned_per_result_row", "ratio"),
    ("rdb.rows_matched_per_scanned", "ratio"),
    ("rdb.blocks_pruned_ratio", "ratio"),
    ("rdb.self_us_per_op", "us"),
    ("storage.build_s", "s"),
    ("storage.snapshot_read_p99_us", "us"),
    ("storage.publish_p50_us", "us"),
    ("storage.publish_p99_us", "us"),
    ("storage.publish_bytes_per_event", "bytes"),
    ("storage.self_us_per_op", "us"),
    ("ingest.submit_p50_us", "us"),
    ("ingest.eps", "1/s"),
    ("ingest.ack_p50_ms", "ms"),
    ("ingest.ack_p95_ms", "ms"),
    ("ingest.ack_p99_ms", "ms"),
    ("ingest.self_us_per_op", "us"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsyncs_per_1k_events", "count"),
    ("wal.append_bytes_per_event", "bytes"),
    ("wal.self_us_per_op", "us"),
    ("server.ping_p50_us", "us"),
    ("server.ping_p99_us", "us"),
    ("server.execute_rtt_p50_us", "us"),
    ("server.fetch_rtt_p50_us", "us"),
    ("server.wire_overhead_p50_us", "us"),
    ("server.quota_rejections", "count"),
    ("server.timeouts", "count"),
    ("server.protocol_errors", "count"),
    ("server.self_us_per_op", "us"),
    ("client.late_sends_ratio", "ratio"),
    ("client.failed_ratio", "ratio"),
    ("telemetry.trace_overhead_ratio", "ratio"),
];

/// Parsed command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(2017),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The enterprise simulation at one of the harness scales, with the
/// workload seed in place of the harness's fixed one. `(hosts, days,
/// events per host per day)` match `aiql_bench::harness::Scale`.
pub fn dataset(seed: u64, hosts: u32, days: u32, per_day: u32) -> (Dataset, GroundTruth) {
    EnterpriseSim::builder()
        .hosts(hosts)
        .days(days)
        .seed(seed)
        .events_per_host_per_day(per_day)
        .attacks(true)
        .build()
        .generate_with_truth()
}

/// Large: 15 hosts x 3 days x 22,000 events (~990k events).
pub const LARGE: (u32, u32, u32) = (15, 3, 22_000);
/// Medium: 10 hosts x 2 days x 5,000 events (~100k events).
pub const MEDIUM: (u32, u32, u32) = (10, 2, 5_000);

/// A small deterministic generator (SplitMix64) for seeded schedules.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Output checks. A failed check never counts as a failed operation: it
/// marks the whole run incorrect, and the run exits non-zero.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else if self.failures.len() < 20 {
            self.failures.push(what());
        } else if self.failures.len() == 20 {
            self.failures.push("(further failures suppressed)".into());
        }
    }
}

/// What a workload hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// Drains a cursor in 4096-row pages.
pub fn drain(cursor: &mut Cursor) -> Vec<Row> {
    let mut rows = Vec::new();
    loop {
        let page = cursor.fetch(4096);
        if page.is_empty() {
            return rows;
        }
        rows.extend(page);
    }
}

/// Rows in canonical order, for order-insensitive comparison.
pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Whether every row of `small` occurs in `big` (both sorted), with
/// multiplicity.
pub fn is_sub_multiset(small: &[Row], big: &[Row]) -> bool {
    let mut j = 0;
    for row in small {
        while j < big.len() && big[j] < *row {
            j += 1;
        }
        if j == big.len() || big[j] != *row {
            return false;
        }
        j += 1;
    }
    true
}

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts in place and returns the requested percentiles.
pub fn percentiles(samples: &mut [f64], ps: &[f64]) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    ps.iter().map(|&p| percentile(samples, p)).collect()
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentiles(samples, &[0.5])[0]
}

/// The requested percentiles of each segment (a catalog pass, a replay),
/// then the median of each across segments: a stall of the host moves one
/// segment, not the figure.
pub fn segment_percentiles<'a>(segments: impl Iterator<Item = &'a [f64]>, ps: &[f64]) -> Vec<f64> {
    let per: Vec<Vec<f64>> = segments
        .map(|seg| percentiles(&mut seg.to_vec(), ps))
        .collect();
    (0..ps.len())
        .map(|i| median(&mut per.iter().map(|q| q[i]).collect::<Vec<_>>()))
        .collect()
}

/// Resident set size of this process in MiB (0 where `/proc` is absent).
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Resident set size after handing freed heap memory back to the system,
/// so that growth measured from it counts new memory, not reuse of pages
/// an earlier phase freed.
pub fn trimmed_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free heap pages; it has no
        // preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
    rss_mb()
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's scratch directory: `work/` beside this package's
/// manifest, so every file a run writes stays inside the checkout.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// Registry deltas over one measured window.
pub struct RegistryWindow {
    before: aiql_telemetry::RegistrySnapshot,
}

impl RegistryWindow {
    pub fn open() -> RegistryWindow {
        RegistryWindow {
            before: aiql_telemetry::global().snapshot(),
        }
    }

    /// Closes the window: counter and histogram deltas since `open`.
    pub fn close(self) -> RegistryDelta {
        RegistryDelta {
            before: self.before,
            after: aiql_telemetry::global().snapshot(),
        }
    }
}

pub struct RegistryDelta {
    before: aiql_telemetry::RegistrySnapshot,
    after: aiql_telemetry::RegistrySnapshot,
}

impl RegistryDelta {
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    pub fn histogram(&self, name: &str) -> aiql_telemetry::HistogramSnapshot {
        match (self.after.histogram(name), self.before.histogram(name)) {
            (Some(a), Some(b)) => a.delta_since(b),
            (Some(a), None) => a.clone(),
            _ => aiql_telemetry::HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                buckets: Vec::new(),
            },
        }
    }
}
