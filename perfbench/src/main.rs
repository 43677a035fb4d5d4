//! perfbench — one benchmark for every execution path, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Each workload's requests run through the analytic cost engine, the
//! sequential `ProtocolSim` with and without obs, `ShardedSim`, and
//! `doma-net` clusters over UDS and TCP. Every leg's output is checked
//! against the others. The last line of standard output is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). Run it from the repository
//! root; it writes only under `.bench_tmp/` (UDS sockets) and
//! `.bench_out/` (span dumps). See `perfbench/NOTES.md`.

mod heap;
mod layers;
mod legs;
mod schema;
mod spans;
mod stats;
mod workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use legs::{Bench, Leg};
use spans::Tracer;
use std::process::ExitCode;
use workload::Shape;

/// Directory for the UDS clusters' sockets, relative to the working
/// directory so that socket paths stay short and inside the checkout.
const SOCKET_DIR: &str = ".bench_tmp";
/// Directory the traced run writes its spans to.
const OUT_DIR: &str = ".bench_out";
/// Latency samples per window of [`stats::windowed`]. A TCP window
/// holds ten samples beyond its p90.
const UDS_WINDOW: usize = 200;
const TCP_WINDOW: usize = 100;
/// Spans of each name the dump lists one by one (its summary lines
/// cover every span).
const SPANS_WRITTEN_PER_NAME: u64 = 2_000;

struct Args {
    workload: Option<Shape>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Shape::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && args.workload.is_none() {
        return Err("--workload is required (read-hot, write-fanout or mobile-mc)".into());
    }
    Ok(args)
}

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Requests per sim-type unit.
    pub sim_len: usize,
    /// Requests per UDS and per TCP unit.
    pub uds_chunk: usize,
    pub tcp_chunk: usize,

    /// Timed UDS and TCP requests an untraced run makes at the least,
    /// whatever `--seconds` says: five latency windows over UDS, one
    /// over TCP.
    pub uds_min: usize,
    pub tcp_min: usize,
    /// Analytic units per burst. An analytic unit takes a few
    /// milliseconds, too short to shake off the caches the leg before it
    /// left behind: its rate depended on which leg ran first.
    pub analytic_burst: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untraced/traced unit pairs per leg in the traced run (the first
    /// untraced unit is the warm-up, so at least two). `pairs` serves
    /// the sim legs, whose traced units hold 400 000 spans each, and TCP,
    /// whose units take a quarter of a second and repeat closely.
    /// `many_pairs` serves the analytic, sharded and UDS legs, whose
    /// short units vary by up to a third from one to the next on a shared
    /// host, so that their attribution rests on medians of many quickly
    /// alternating units.
    pub pairs: usize,
    pub many_pairs: usize,
}

impl Sizes {
    fn full(shape: Shape) -> Sizes {
        Sizes {
            sim_len: shape.sim_len(),
            uds_chunk: 50,
            tcp_chunk: 5,
            uds_min: 1_000,
            tcp_min: 100,
            analytic_burst: 5,
            setups: 15,
            pairs: 3,
            many_pairs: 15,
        }
    }

    fn smoke() -> Sizes {
        Sizes {
            sim_len: 2_000,
            uds_chunk: 20,
            tcp_chunk: 3,
            uds_min: 20,
            tcp_min: 3,
            analytic_burst: 2,
            setups: 2,
            pairs: 2,
            many_pairs: 2,
        }
    }

    pub fn chunk(&self, leg: Leg) -> usize {
        match leg {
            Leg::Tcp => self.tcp_chunk,
            _ => self.uds_chunk,
        }
    }

    /// Units a leg runs back to back in an untraced run, the first of
    /// them untimed (see [`Bench::run_legs`]).
    pub fn burst(&self, leg: Leg) -> usize {
        match leg {
            Leg::Analytic => self.analytic_burst,
            _ => 1,
        }
    }

    pub fn min_requests(&self, leg: Leg) -> usize {
        match leg {
            Leg::Uds => self.uds_min,
            Leg::Tcp => self.tcp_min,
            _ => 0,
        }
    }
}

/// One run's result: the JSON line's fields.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    schema::unit(name).unwrap_or("?")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets up `sizes.setups` times and keeps the last set-up; earlier ones
/// are shut down. Returns the kept bench and every set-up's times.
fn setups(
    shape: Shape,
    seed: u64,
    sizes: Sizes,
    mut tr: Option<&mut Tracer>,
) -> doma_core::Result<(Bench, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..sizes.setups {
        let (bench, t) = Bench::setup(shape, sizes.sim_len, seed, tr.as_deref_mut())?;
        times.push(t);
        if let Some(old) = kept.replace(bench) {
            old.shutdown()?;
        }
    }
    let bench = kept.ok_or_else(|| doma_core::DomaError::InvalidConfig("no set-up".into()))?;
    Ok((bench, times))
}

/// Total attempted and failed requests over every leg, plus the extra
/// requests of isolation passes, and whether every check passed.
fn tally(bench: &Bench, extra_attempted: u64, extra_failed: u64) -> (u64, u64, bool) {
    let attempted = bench.records.values().map(|r| r.attempted()).sum::<u64>() + extra_attempted;
    let failed = bench.records.values().map(|r| r.failed()).sum::<u64>() + extra_failed;
    let passed = bench.records.values().all(|r| r.failures.is_empty());
    (attempted, failed, passed && failed == 0)
}

/// One line per leg: its units and requests, the throughput it reports
/// and its wall-clock throughput, the range of its unit rates (by the
/// clock the leg is measured by) and its check result.
fn print_legs(bench: &Bench) {
    println!(
        "{:<9} {:>6} {:>10} {:>14} {:>14} {:>14} {:>14}  check",
        "leg", "units", "requests", "req/s", "wall req/s", "min", "max"
    );
    for (leg, r) in &bench.records {
        let check = if r.failures.is_empty() {
            "ok".to_string()
        } else {
            format!("FAILED: {}", r.failures.join("; "))
        };
        let rates = r.timed().map(|u| u.measured_rate());
        println!(
            "{:<9} {:>6} {:>10} {:>14.1} {:>14.1} {:>14.1} {:>14.1}  {check}",
            leg.name(),
            r.units.len(),
            r.attempted(),
            r.throughput(*leg),
            r.wall_throughput(),
            rates.clone().fold(f64::INFINITY, f64::min),
            rates.fold(0.0, f64::max),
        );
    }
}

/// The untraced run: end-to-end metrics.
fn run_untraced(shape: Shape, seed: u64, seconds: u64, sizes: Sizes) -> doma_core::Result<Outcome> {
    let steal_before = stats::cpu_steal();
    let (mut bench, times) = setups(shape, seed, sizes, None)?;
    bench.run_legs(seconds as f64, &sizes);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::cpu_steal()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            share * 100.0
        );
    }
    let reference = bench.verify()?;
    print_legs(&bench);

    let len = bench.w.requests().len() as f64;
    let rate = |leg: Leg| bench.records.get(&leg).map_or(0.0, |r| r.throughput(leg));
    let latencies = |leg: Leg| {
        bench
            .records
            .get(&leg)
            .map(|r| r.latencies_us.clone())
            .unwrap_or_default()
    };
    let uds = latencies(Leg::Uds);
    let tcp = latencies(Leg::Tcp);
    let (attempted, failed, correct) = tally(&bench, 0, 0);
    let metrics = vec![
        ("setup_s", stats::median(&times)),
        ("analytic_req_per_s", rate(Leg::Analytic)),
        ("sim_req_per_s", rate(Leg::Sim)),
        ("sim_obs_req_per_s", rate(Leg::SimObs)),
        ("tcp_req_per_s", rate(Leg::Tcp)),
        ("tcp_p50_us", stats::windowed(&tcp, 50, TCP_WINDOW)),
        ("tcp_p90_us", stats::windowed(&tcp, 90, TCP_WINDOW)),
        (
            "sim_heap_bytes_per_req",
            bench.sim_heap_bytes_per_req.unwrap_or(0.0),
        ),
        (
            "cost_per_req",
            reference.report.cost.eval(&bench.w.model) / len,
        ),
        ("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64),
    ];
    println!(
        "samples: uds {} (windowed p50 {:.1} us) tcp {}; setups {}",
        uds.len(),
        stats::windowed(&uds, 50, UDS_WINDOW),
        tcp.len(),
        times.len()
    );
    bench.shutdown()?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Cost of one clock read, in nanoseconds.
fn clock_ns(tr: &Tracer) -> f64 {
    const READS: u64 = 200_000;
    let start = tr.now();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(tr.now());
    }
    (last - start) as f64 / READS as f64
}

/// The traced run: per-layer metrics, attribution and tracing overhead.
fn run_traced(shape: Shape, seed: u64, sizes: Sizes) -> doma_core::Result<Outcome> {
    let mut tr = Tracer::new();
    let clock = clock_ns(&tr);
    let (mut bench, _) = setups(shape, seed, sizes, Some(&mut tr))?;
    for leg in Leg::ALL {
        let pairs = match leg {
            Leg::Sim | Leg::SimObs | Leg::Tcp => sizes.pairs,
            Leg::Analytic | Leg::Sharded | Leg::Uds => sizes.many_pairs,
        };
        bench.run_leg_traced(leg, pairs, sizes.chunk(leg), &mut tr);
    }
    let mut counts = layers::LayerCounts::default();
    layers::planner_and_store(&bench.w, &mut tr, &mut counts)?;
    let (replay_cost, replay_holders) = layers::replay(&bench.w, &mut tr, &mut counts)?;
    layers::net_floor(&bench.w, &mut tr, &mut counts)?;
    let reference = bench.verify()?;
    if replay_cost != reference.report.cost || replay_holders != reference.holders {
        counts.failures.push(format!(
            "replay harness cost {replay_cost} vs sim {}",
            reference.report.cost
        ));
    }
    print_legs(&bench);
    for why in &counts.failures {
        println!("FAILED: {why}");
    }

    let selfs = tr.self_times();
    let names = tr.by_name(&selfs);
    let total = |name: &str| names.get(name).map_or(0.0, |t| t.self_ns as f64);
    let mean = |name: &str| {
        names
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64)
    };
    let median_us = |name: &str| {
        let d: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        stats::median(&d)
    };
    let len = bench.w.requests().len() as f64;
    let per = |x: f64, n: u64| x / n.max(1) as f64;
    let analytic_reqs = bench
        .records
        .get(&Leg::Analytic)
        .map_or(0, |r| r.traced.len()) as f64
        * len;
    let deliver = mean("node.deliver");
    let settle = mean("sim.settle");
    let unit_secs = |leg: Leg| bench.records.get(&leg).map_or(0.0, |r| r.median_secs());
    let uds_mean_us = bench.records.get(&Leg::Uds).map_or(0.0, |r| {
        r.latencies_us.iter().sum::<f64>() / r.latencies_us.len().max(1) as f64
    });
    let floor = median_us("net.barrier_floor");
    let cost = reference.report.cost;

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("workload.gen_ns_per_req", mean("workload.gen") / len),
        (
            "algorithms.decide_ns_per_req",
            total("algorithms.decide") / analytic_reqs.max(1.0),
        ),
        (
            "core.cost_ns_per_req",
            total("core.cost") / analytic_reqs.max(1.0),
        ),
        ("planner.plan_ns", per(total("planner.plan"), counts.plans)),
        ("sim.inject_ns", mean("sim.inject")),
        ("sim.settle_ns", settle),
        ("engine.events_per_req", bench.engine_events as f64 / len),
        (
            "engine.self_ns_per_req",
            settle - deliver * counts.deliveries as f64 / len,
        ),
        ("node.deliver_ns_per_msg", deliver),
        ("msgs.control_per_req", cost.control as f64 / len),
        ("msgs.data_per_req", cost.data as f64 / len),
        ("store.io_per_req", cost.io as f64 / len),
        (
            "store.output_ns",
            per(total("store.output"), counts.outputs),
        ),
        ("store.input_ns", per(total("store.input"), counts.inputs)),
        (
            "obs.overhead_ns_per_req",
            (unit_secs(Leg::SimObs) - unit_secs(Leg::Sim)) * 1e9 / len,
        ),
        ("obs.events_per_req", bench.obs_events as f64 / len),
        ("sharded.partition_ns", mean("sharded.partition")),
        ("sharded.project_ns", mean("sharded.project")),
        ("sharded.merge_ns", mean("sharded.merge")),
        ("sharded.imbalance", bench.imbalance),
        (
            "codec.encode_ns_per_frame",
            per(total("codec.encode"), counts.frames),
        ),
        (
            "codec.decode_ns_per_frame",
            per(total("codec.decode"), counts.frames),
        ),
        (
            "codec.bytes_per_req",
            per(counts.frame_bytes as f64, counts.codec_requests),
        ),
        ("net.rtt_us", median_us("net.rtt")),
        ("net.barrier_floor_us", floor),
        ("net.peer_us_per_req", uds_mean_us - floor),
        ("net.boot_ms", median_us("net.boot") / 1e3),
        ("trace.clock_ns", clock),
    ];
    println!("{:<9} {:>12} {:>12}", "leg", "attribution", "overhead");
    for leg in Leg::ALL {
        let (attribution, overhead) = bench.attribution(leg, &tr, &selfs).unwrap_or((0.0, 0.0));
        println!("{:<9} {:>12.3} {:>12.3}", leg.name(), attribution, overhead);
        metrics.push((schema::attribution_name(leg), attribution));
        metrics.push((schema::overhead_name(leg), overhead));
    }

    let dump = std::path::Path::new(OUT_DIR).join(format!("spans-{}.tsv", shape.name()));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| tr.write(&dump, SPANS_WRITTEN_PER_NAME))
        .map_err(|e| doma_core::DomaError::InvalidConfig(format!("write spans: {e}")))?;

    let isolated = counts.plans + counts.replayed;
    let isolated_failed = if counts.failures.is_empty() {
        0
    } else {
        isolated
    };
    let (attempted, failed, correct) = tally(&bench, isolated, isolated_failed);
    bench.shutdown()?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Every leg of every workload at a tiny length, traced and untraced:
/// the checks must pass and each output must carry exactly the metric
/// names and units `BENCHMARK.json` declares.
fn smoke() -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run --smoke from the repository root: BENCHMARK.json: {e}"))?;
    schema::check_declared(&declared)?;
    for shape in Shape::ALL {
        for trace in [false, true] {
            let outcome = if trace {
                run_traced(shape, 1, Sizes::smoke())
            } else {
                run_untraced(shape, 1, 1, Sizes::smoke())
            }
            .map_err(|e| format!("{} trace={trace}: {e}", shape.name()))?;
            let line = outcome.json();
            println!("{line}");
            schema::check_output(&outcome, trace)
                .map_err(|e| format!("{} trace={trace}: {e}", shape.name()))?;
            if !outcome.correct {
                return Err(format!("{} trace={trace}: a check failed", shape.name()));
            }
        }
    }
    println!("smoke: every leg of every workload passed its checks");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The UDS clusters put their sockets under the temp directory; keep
    // them inside the working directory. The sharded leg must run its
    // real two-thread path, whatever the caller's environment says.
    std::env::set_var("TMPDIR", SOCKET_DIR);
    std::env::remove_var("DOMA_SHARDS");
    if let Err(e) = std::fs::create_dir_all(SOCKET_DIR) {
        eprintln!("perfbench: create {SOCKET_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let result = if args.smoke {
        smoke().map(|_| None)
    } else {
        let shape = args.workload.expect("checked by parse_args");
        println!(
            "perfbench {} seed={} seconds={} trace={} available_parallelism={}",
            shape.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        let sizes = Sizes::full(shape);
        if args.trace {
            run_traced(shape, args.seed, sizes)
        } else {
            run_untraced(shape, args.seed, args.seconds, sizes)
        }
        .map(Some)
        .map_err(|e| e.to_string())
    };
    // Clusters remove their own socket directories on shutdown; an
    // error exit skips that, so clear whatever is left.
    let _ = std::fs::remove_dir_all(SOCKET_DIR);
    match result {
        Ok(Some(outcome)) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
