//! `serve`: run an aiql-server over a generated enterprise dataset.
//!
//! ```text
//! serve [--addr 127.0.0.1:7744] [--hosts 10] [--days 2] [--events 5000]
//!       [--workers N] [--once]
//! ```
//!
//! Binds the address (an ephemeral port if `--addr` ends in `:0`),
//! prints the bound address on stdout, and serves until stdin closes
//! (Ctrl-D) or, with `--once`, exits immediately after startup — used by
//! smoke tests. On exit it drains in-flight statements and prints the
//! server's telemetry snapshot.

use aiql_datagen::EnterpriseSim;
use aiql_server::{Server, ServerConfig};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use std::io::Read;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--hosts N] [--days N] [--events N] \
         [--workers N] [--once]\n  \
         --workers N  statements executing at once (0 = min(4, cores))"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7744".to_string();
    let mut hosts = 10u32;
    let mut days = 2u32;
    let mut events = 5_000u32;
    let mut config = ServerConfig::default();
    let mut once = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--addr" => addr = value(&mut i),
            "--hosts" => hosts = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--days" => days = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--events" => events = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => config.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--once" => once = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    eprintln!("generating dataset ({hosts} hosts x {days} days x {events} events/host/day)...");
    // The attack-scenario catalog pins host roles and the attack day, so
    // it needs the full 10-host / 2-day stage; smaller stages serve a
    // benign enterprise instead of panicking.
    let data = EnterpriseSim::builder()
        .hosts(hosts)
        .days(days)
        .seed(2017)
        .events_per_host_per_day(events)
        .attacks(hosts >= 10 && days >= 2)
        .build()
        .generate();
    let store = SharedStore::new(
        EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest dataset"),
    );

    let handle = match Server::bind(&store, config, addr.as_str()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", handle.addr());
    eprintln!("serving; EOF on stdin shuts down gracefully");

    if !once {
        // Block until the controlling process hangs up stdin.
        let mut sink = [0u8; 4096];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    }

    handle.shutdown();
    let stats = handle.stats();
    eprintln!(
        "drained: {} sessions opened, {} executes, {} quota rejections, {} timeouts",
        stats.sessions_opened, stats.executes, stats.quota_rejections, stats.timeouts
    );
    eprint!("{}", aiql_telemetry::global().snapshot().to_prometheus());
}
