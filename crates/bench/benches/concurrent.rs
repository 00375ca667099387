//! Concurrent-serving benchmark: N closed-loop analyst threads querying a
//! live store, idle and under a paced ingestion stream, for both the
//! epoch-swapped snapshot store and the lock-based baseline it replaced.
//!
//! Run with `--test` (the CI smoke mode) to shrink the measurement windows
//! and skip the scaling gates (CI machines are too noisy and too small for
//! timing assertions); a full run asserts near-linear reader scaling at 4
//! threads and live-ingestion read throughput within 20% of idle.

use aiql_bench::concurrent;
use aiql_bench::harness::{self, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--smoke")
}

fn bench(c: &mut Criterion) {
    let smoke = smoke_mode();
    let (data, _) = harness::dataset(Scale::Small);
    let window = Duration::from_millis(if smoke { 60 } else { 400 });
    let report = concurrent::measure(&data, Scale::Small, window);
    print!("{}", report.render());

    if !smoke {
        let scaling = report.scaling(4);
        assert!(
            scaling >= 3.0,
            "reader throughput must scale >= 3x at 4 threads, got {scaling:.2}x"
        );
        let live = report.live_over_idle(4);
        assert!(
            live >= 0.8,
            "live-ingestion read throughput must stay within 20% of idle, got {:.0}%",
            live * 100.0
        );
    }

    // Keep a criterion-visible number: single-query serving latency on the
    // snapshot store (what one analyst iteration costs).
    let shared = aiql_storage::SharedStore::new(
        aiql_storage::EventStore::ingest(&data, aiql_storage::StoreConfig::partitioned())
            .expect("ingest"),
    );
    let q = r#"(at "01/02/2017") proc p write ip i[dstip = "192.168.66.129"] as evt
               return distinct p, i"#;
    let cfg = aiql_engine::EngineConfig {
        parallel: false,
        ..aiql_engine::EngineConfig::aiql()
    };
    let session = aiql_engine::Session::with_config(&shared, cfg);
    let mut g = c.benchmark_group("concurrent");
    g.sample_size(if smoke { 3 } else { 15 });
    g.bench_function("snapshot-query", |b| {
        b.iter(|| std::hint::black_box(session.run(q).expect("runs").rows.len()))
    });
    g.bench_function("snapshot-pin", |b| {
        b.iter(|| std::hint::black_box(shared.read().event_count()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
