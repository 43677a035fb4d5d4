//! `domactl` — command-line front end for the library.
//!
//! ```text
//! domactl cost     --schedule "r1 r1 w2 r2" [--algo sa|da|opt|all]
//!                  [--model sc|mc] [--cc 0.25] [--cd 1.0] [--t 2]
//!                  [--verbose]
//! domactl stats    --schedule "r1 r1 w2 r2"
//! domactl simulate --schedule "..." [--algo sa|da] [--n 6]
//! domactl obs      --schedule "..." [--algo sa|da] [--n 6]
//!                  [--format json|table] [--events 256]
//! domactl generate --workload uniform|zipf|hotspot|chaotic|mobile|append
//!                  [--n 6] [--len 50] [--seed 0] [--read-fraction 0.7]
//! domactl shard    [--objects 16] [--requests 10000] [--shards 1,2,4,8]
//!                  [--n 8] [--t 2] [--placement same-core|round-robin|load-aware]
//!                  [--seed 0] [--read-fraction 0.8]
//! domactl tournament [--n 6] [--len 40] [--seed 7] [--out BENCH_tournament.json]
//!                  [--format table|json]
//! domactl scenario <name|path|all|list> [--format table|json]
//!                  [--diff <baseline.json>] [--transport sim|tcp|uds]
//! domactl cluster  <scenario|workload> --nodes N [--transport tcp|uds]
//!                  [--entrant sa|da|...] [--len 40] [--seed 7]
//!                  [--read-fraction 0.7]
//! domactl trace    <scenario|workload> [--format table|chrome] [--top 10]
//!                  [--events N] [--algo sa|da] [--n 6] [--len 50] [--seed 0]
//!                  [--read-fraction 0.7]
//! domactl obs diff <a.json> <b.json> [--scenario NAME]
//! domactl perf     <current.json> [--baseline BENCH_prof.json]
//!                  [--threshold 0.25]
//! domactl lint     [--root PATH] [--format table|json] [--rule <id>]
//! ```
//!
//! Schedules use the paper's notation: whitespace-separated `r<i>` / `w<i>`
//! tokens. `--file <path>` reads the schedule from a file instead.

use doma_algorithms::multi::Placement;
use doma_algorithms::{DynamicAllocation, OfflineOptimal, StaticAllocation};
use doma_core::{
    run_offline, run_online, schedule_stats, CostModel, ObjectId, ProcSet, ProcessorId, RunOutcome,
    Schedule,
};
use doma_protocol::{ProtocolConfig, ProtocolSim, ShardedSim};
use doma_workload::{
    AppendOnlyWorkload, ChaoticWorkload, HotspotWorkload, MobileWorkload, MultiScheduleGen,
    MultiUniformWorkload, ScheduleGen, UniformWorkload, ZipfWorkload,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command-line options: positional command + `--key value` flags
/// (`--verbose` is a bare flag).
#[derive(Debug, Default)]
struct Opts {
    command: String,
    /// The first positional operand after the command (the scenario
    /// name or path for `domactl scenario …`, the trace target, the
    /// `diff` subcommand of `obs`, …).
    target: Option<String>,
    /// Further positional operands, for the commands that take them
    /// (`obs diff <a> <b>`).
    extra: Vec<String>,
    flags: BTreeMap<String, String>,
    verbose: bool,
}

/// How many positional operands a command accepts after its name.
fn positional_arity(command: &str) -> usize {
    match command {
        "scenario" | "trace" | "perf" | "cluster" => 1,
        "obs" => 3, // bare `obs`, or `obs diff <a> <b>`
        _ => 0,
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--verbose" {
            opts.verbose = true;
        } else if let Some(key) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            opts.flags.insert(key.to_string(), value.clone());
        } else if opts.command.is_empty() {
            opts.command = arg.clone();
        } else {
            positionals.push(arg.clone());
        }
    }
    if opts.command.is_empty() {
        return Err(
            "missing command (cost | stats | simulate | obs | generate | shard | tournament | scenario | cluster | trace | perf | lint)"
                .to_string(),
        );
    }
    let arity = positional_arity(&opts.command);
    if positionals.len() > arity {
        return Err(format!("unexpected argument '{}'", positionals[arity]));
    }
    let mut it = positionals.into_iter();
    opts.target = it.next();
    opts.extra = it.collect();
    Ok(opts)
}

impl Opts {
    fn get(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
        }
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer '{v}'")),
        }
    }

    fn schedule(&self) -> Result<Schedule, String> {
        let text = if let Some(path) = self.flags.get("file") {
            std::fs::read_to_string(path).map_err(|e| format!("--file {path}: {e}"))?
        } else if let Some(s) = self.flags.get("schedule") {
            s.clone()
        } else {
            return Err("need --schedule \"r1 w2 ...\" or --file <path>".to_string());
        };
        text.parse::<Schedule>().map_err(|e| e.to_string())
    }

    fn model(&self) -> Result<CostModel, String> {
        let cc = self.get_f64("cc", 0.25)?;
        let cd = self.get_f64("cd", 1.0)?;
        match self.get("model", "sc").as_str() {
            "sc" => CostModel::stationary(cc, cd).map_err(|e| e.to_string()),
            "mc" => CostModel::mobile(cc, cd).map_err(|e| e.to_string()),
            other => Err(format!("--model must be sc or mc, got '{other}'")),
        }
    }
}

fn universe_for(schedule: &Schedule, opts: &Opts) -> Result<usize, String> {
    let min = schedule.min_processors().max(3);
    let n = opts.get_usize("n", min)?;
    if n < min {
        return Err(format!(
            "--n {n} too small; the schedule uses {min} processors"
        ));
    }
    Ok(n)
}

fn print_outcome(name: &str, outcome: &RunOutcome, model: &CostModel, verbose: bool) {
    let t = &outcome.costed.total;
    println!(
        "{name:>4}: cost {:.3}  ({} control, {} data, {} I/O)  final scheme {}",
        outcome.costed.total_cost(model),
        t.control,
        t.data,
        t.io,
        outcome.costed.final_scheme
    );
    if verbose {
        for pr in &outcome.costed.per_request {
            println!(
                "        {}  scheme {}  cost {}",
                pr.step, pr.scheme, pr.cost
            );
        }
    }
}

fn cmd_cost(opts: &Opts) -> Result<(), String> {
    let schedule = opts.schedule()?;
    let model = opts.model()?;
    let t = opts.get_usize("t", 2)?;
    let n = universe_for(&schedule, opts)?;
    if t < 2 || t >= n {
        return Err(format!("need 2 <= t < n (t={t}, n={n})"));
    }
    let algo = opts.get("algo", "all");
    let q: ProcSet = (0..t).collect();
    let f: ProcSet = (0..t - 1).collect();
    let p = ProcessorId::new(t - 1);
    println!(
        "schedule: {schedule}\nmodel: {} cc={} cd={} cio={}  t={t}  n={n}  initial scheme {q}",
        model.environment(),
        model.cc(),
        model.cd(),
        model.cio()
    );
    let err = |e: doma_core::DomaError| e.to_string();
    if algo == "sa" || algo == "all" {
        let mut sa = StaticAllocation::new(q).map_err(err)?;
        print_outcome(
            "SA",
            &run_online(&mut sa, &schedule).map_err(err)?,
            &model,
            opts.verbose,
        );
    }
    if algo == "da" || algo == "all" {
        let mut da = DynamicAllocation::new(f, p).map_err(err)?;
        print_outcome(
            "DA",
            &run_online(&mut da, &schedule).map_err(err)?,
            &model,
            opts.verbose,
        );
    }
    if algo == "opt" || algo == "all" {
        let opt = OfflineOptimal::new(n, t, q, model).map_err(err)?;
        print_outcome(
            "OPT",
            &run_offline(&opt, &schedule).map_err(err)?,
            &model,
            opts.verbose,
        );
    }
    if !["sa", "da", "opt", "all"].contains(&algo.as_str()) {
        return Err(format!("--algo must be sa, da, opt or all, got '{algo}'"));
    }
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let schedule = opts.schedule()?;
    let stats = schedule_stats(&schedule);
    println!(
        "{} requests ({} reads / {} writes), read fraction {:.2}",
        schedule.len(),
        schedule.read_count(),
        schedule.write_count(),
        stats.read_fraction
    );
    println!(
        "mean read-run length {:.2}; mean distinct readers per write interval {:.2}",
        stats.mean_read_run(),
        stats.mean_readers_per_interval
    );
    println!("active processors: {}", stats.active_processors());
    for (i, a) in stats.per_processor.iter().enumerate() {
        if a.total() > 0 {
            println!("  P{i}: {} reads, {} writes", a.reads, a.writes);
        }
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let algo = opts.get("algo", "da");
    let err = |e: doma_core::DomaError| e.to_string();
    let mut sim = match algo.as_str() {
        "sa" => ProtocolSim::new_sa(n, ProcSet::from_iter([0usize, 1])).map_err(err)?,
        "da" => ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1))
            .map_err(err)?,
        other => return Err(format!("--algo must be sa or da, got '{other}'")),
    };
    let report = sim.execute(&schedule).map_err(err)?;
    println!(
        "{} protocol on {n} simulated nodes: {} control msgs, {} data msgs, {} I/Os",
        algo.to_uppercase(),
        report.cost.control,
        report.cost.data,
        report.cost.io
    );
    println!(
        "final replica set {}; {} reads completed, mean latency {:.1} ticks",
        report.final_holders, report.reads_completed, report.mean_read_latency
    );
    Ok(())
}

/// Builds the protocol sim the way `simulate` does, but with the
/// observability bundle attached, executes the schedule, and prints the
/// snapshot — stable JSON by default (byte-identical across runs of the
/// same inputs), or the aligned metric table plus event log with
/// `--format table`.
fn cmd_obs(opts: &Opts) -> Result<(), String> {
    match opts.target.as_deref() {
        Some("diff") => return cmd_obs_diff(opts),
        Some(other) => return Err(format!("unexpected argument '{other}'")),
        None => {}
    }
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let algo = opts.get("algo", "da");
    let events = opts.get_usize("events", 256)?;
    let err = |e: doma_core::DomaError| e.to_string();
    let mut sim = match algo.as_str() {
        "sa" => ProtocolSim::new_sa(n, ProcSet::from_iter([0usize, 1])).map_err(err)?,
        "da" => ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1))
            .map_err(err)?,
        other => return Err(format!("--algo must be sa or da, got '{other}'")),
    };
    let obs = sim.attach_obs(events);
    sim.trace_messages();
    sim.execute(&schedule).map_err(err)?;
    sim.obs_flush();
    match opts.get("format", "json").as_str() {
        "json" => println!("{}", obs.snapshot_json()),
        "table" => {
            println!("{}", obs.metrics().snapshot());
            let rendered = obs.events().render();
            if !rendered.is_empty() {
                println!("{rendered}");
            }
        }
        other => return Err(format!("--format must be json or table, got '{other}'")),
    }
    Ok(())
}

/// `domactl obs diff <a.json> <b.json>` — structural diff of two obs
/// snapshots (raw, or wrapped in scenario reports / report arrays;
/// `--scenario NAME` picks one report out of an array). Exits nonzero
/// when the snapshots differ, so scripts can gate on it.
fn cmd_obs_diff(opts: &Opts) -> Result<(), String> {
    let [path_a, path_b] = opts.extra.as_slice() else {
        return Err("usage: domactl obs diff <a.json> <b.json> [--scenario NAME]".to_string());
    };
    let text_a =
        std::fs::read_to_string(path_a).map_err(|e| format!("cannot read {path_a}: {e}"))?;
    let text_b =
        std::fs::read_to_string(path_b).map_err(|e| format!("cannot read {path_b}: {e}"))?;
    let which = opts.flags.get("scenario").map(String::as_str);
    let diff = doma_analysis::obsdiff::diff_texts(&text_a, &text_b, which)?;
    print!("{}", doma_analysis::obsdiff::render(&diff));
    if diff.is_clean() {
        Ok(())
    } else {
        Err(format!("{path_a} and {path_b} differ"))
    }
}

/// `domactl trace <scenario|workload>` — run the target with per-request
/// causal spans enabled and print either the Chrome trace-event JSON
/// (`--format chrome`, perfetto-loadable, byte-stable for a fixed seed)
/// or the slowest-K critical-path report (`--format table`, default).
/// The target is a builtin scenario name, a scenario `.toml` path, or a
/// workload kind (`uniform|zipf|hotspot|chaotic|mobile|append`) run
/// through a single-object SA/DA sim (`--algo`, `--n`, `--len`,
/// `--seed`, `--read-fraction`).
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    use doma_obs::trace::{chrome_trace, slowest_report, TraceModel};
    let target = opts.target.clone().ok_or_else(|| {
        format!(
            "need a target: domactl trace <scenario|workload>\nbuiltins: {}\nworkloads: uniform, zipf, hotspot, chaotic, mobile, append",
            doma_scenario::builtin::names().join(", ")
        )
    })?;
    let format = opts.get("format", "table");
    if !["table", "chrome"].contains(&format.as_str()) {
        return Err(format!("--format must be table or chrome, got '{format}'"));
    }
    let top = opts.get_usize("top", 10)?;
    let workloads = ["uniform", "zipf", "hotspot", "chaotic", "mobile", "append"];

    let (model, header) = if target.ends_with(".toml")
        || target.contains('/')
        || doma_scenario::builtin::names().contains(&target.as_str())
    {
        let mut scenario = if target.ends_with(".toml") || target.contains('/') {
            let text = std::fs::read_to_string(&target)
                .map_err(|e| format!("cannot read {target}: {e}"))?;
            doma_scenario::Scenario::parse(&text).map_err(|e| format!("{target}: {e}"))?
        } else {
            doma_scenario::builtin::load(&target).map_err(|e| e.to_string())?
        };
        if opts.flags.contains_key("events") {
            scenario.events = opts.get_usize("events", scenario.events)?;
        }
        let (report, obs) =
            doma_scenario::run_traced(&scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
        for violation in &report.violations {
            eprintln!("warning: {}: {violation}", report.scenario);
        }
        let header = format!(
            "trace: scenario {} ({} entrant, {} requests, cost {} control / {} data / {} I/O)",
            report.scenario,
            report.entrant,
            report.requests,
            report.cost.control,
            report.cost.data,
            report.cost.io
        );
        (TraceModel::from_obs(&obs), header)
    } else if workloads.contains(&target.as_str()) {
        let n = opts.get_usize("n", 6)?;
        let len = opts.get_usize("len", 50)?;
        let seed = opts.get_usize("seed", 0)? as u64;
        let rf = opts.get_f64("read-fraction", 0.7)?;
        let events = opts.get_usize("events", 65_536)?;
        let err = |e: doma_core::DomaError| e.to_string();
        let gen: Box<dyn ScheduleGen> = match target.as_str() {
            "uniform" => Box::new(UniformWorkload::new(n, rf).map_err(err)?),
            "zipf" => Box::new(ZipfWorkload::new(n, 1.0, rf).map_err(err)?),
            "hotspot" => Box::new(HotspotWorkload::new(n, 20, rf).map_err(err)?),
            "chaotic" => Box::new(ChaoticWorkload::new(n, 8).map_err(err)?),
            "mobile" => Box::new(MobileWorkload::new(n / 2, n - n / 2 - 1, 0.3, rf).map_err(err)?),
            "append" => Box::new(AppendOnlyWorkload::new(n, 2, 3.0).map_err(err)?),
            _ => unreachable!("gated by the workloads list"),
        };
        let schedule = gen.generate(len, seed);
        let algo = opts.get("algo", "da");
        let mut sim = match algo.as_str() {
            "sa" => ProtocolSim::new_sa(n, ProcSet::from_iter([0usize, 1])).map_err(err)?,
            "da" => ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1))
                .map_err(err)?,
            other => return Err(format!("--algo must be sa or da, got '{other}'")),
        };
        let obs = sim.attach_obs(events);
        sim.trace_messages();
        sim.enable_request_spans();
        let report = sim.execute(&schedule).map_err(err)?;
        sim.obs_flush();
        let header = format!(
            "trace: {target} workload ({} on n={n}, {} requests, seed {seed}, cost {} control / {} data / {} I/O)",
            algo.to_uppercase(),
            schedule.len(),
            report.cost.control,
            report.cost.data,
            report.cost.io
        );
        (TraceModel::from_obs(&obs), header)
    } else {
        return Err(format!(
            "unknown trace target '{target}'\nbuiltins: {}\nworkloads: {}",
            doma_scenario::builtin::names().join(", "),
            workloads.join(", ")
        ));
    };

    match format.as_str() {
        "chrome" => println!("{}", chrome_trace(&model)),
        _ => {
            println!("{header}");
            if model.truncated() {
                println!(
                    "  WARNING: event log truncated ({} dropped, {} orphan exits) — raise --events",
                    model.dropped_events, model.orphan_exits
                );
            }
            print!("{}", slowest_report(&model, top));
        }
    }
    Ok(())
}

/// `domactl perf <current.json>` — the perf-regression gate: compares a
/// fresh bench report against the committed baseline
/// (`--baseline BENCH_prof.json`) and exits nonzero when any benchmark's
/// median regressed beyond `--threshold` (default 0.25 = +25%) or a
/// baselined benchmark disappeared.
fn cmd_perf(opts: &Opts) -> Result<(), String> {
    let current = opts.target.clone().ok_or(
        "usage: domactl perf <current.json> [--baseline BENCH_prof.json] [--threshold 0.25]",
    )?;
    let baseline = opts.get("baseline", "BENCH_prof.json");
    let threshold = opts.get_f64("threshold", 0.25)?;
    if !(0.0..10.0).contains(&threshold) {
        return Err(format!("--threshold {threshold} out of range [0, 10)"));
    }
    let baseline_text =
        std::fs::read_to_string(&baseline).map_err(|e| format!("cannot read {baseline}: {e}"))?;
    let current_text =
        std::fs::read_to_string(&current).map_err(|e| format!("cannot read {current}: {e}"))?;
    let cmp = doma_analysis::perfgate::compare(&baseline_text, &current_text, threshold)?;
    print!("{}", doma_analysis::perfgate::render(&cmp));
    if cmp.passed() {
        Ok(())
    } else {
        Err(format!(
            "perf regression vs {baseline} ({} regressed, {} missing)",
            cmp.regressions().len(),
            cmp.missing.len()
        ))
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let n = opts.get_usize("n", 6)?;
    let len = opts.get_usize("len", 50)?;
    let seed = opts.get_usize("seed", 0)? as u64;
    let rf = opts.get_f64("read-fraction", 0.7)?;
    let kind = opts.get("workload", "uniform");
    let err = |e: doma_core::DomaError| e.to_string();
    let gen: Box<dyn ScheduleGen> = match kind.as_str() {
        "uniform" => Box::new(UniformWorkload::new(n, rf).map_err(err)?),
        "zipf" => Box::new(ZipfWorkload::new(n, 1.0, rf).map_err(err)?),
        "hotspot" => Box::new(HotspotWorkload::new(n, 20, rf).map_err(err)?),
        "chaotic" => Box::new(ChaoticWorkload::new(n, 8).map_err(err)?),
        "mobile" => Box::new(MobileWorkload::new(n / 2, n - n / 2 - 1, 0.3, rf).map_err(err)?),
        "append" => Box::new(AppendOnlyWorkload::new(n, 2, 3.0).map_err(err)?),
        other => return Err(format!("unknown --workload '{other}'")),
    };
    println!("{}", gen.generate(len, seed));
    Ok(())
}

/// The shard-scaling experiment: run one multi-object uniform workload
/// sequentially and at each requested shard count, assert exact parity
/// (total cost vector, reads completed, mean latency, final holders), and
/// print the wall-clock table. Scaling is bounded by the machine's cores
/// — the header prints the count so a flat curve on a small box reads as
/// what it is.
fn cmd_shard(opts: &Opts) -> Result<(), String> {
    let objects = opts.get_usize("objects", 16)? as u64;
    let requests = opts.get_usize("requests", 10_000)?;
    let n = opts.get_usize("n", 8)?;
    let t = opts.get_usize("t", 2)?;
    let seed = opts.get_usize("seed", 0)? as u64;
    let rf = opts.get_f64("read-fraction", 0.8)?;
    if t < 2 || t >= n {
        return Err(format!("need 2 <= t < n (t={t}, n={n})"));
    }
    let placement = match opts.get("placement", "round-robin").as_str() {
        "same-core" => Placement::SameCore,
        "round-robin" => Placement::RoundRobin,
        "load-aware" => Placement::LoadAware,
        other => {
            return Err(format!(
                "--placement must be same-core, round-robin or load-aware, got '{other}'"
            ))
        }
    };
    let shard_counts: Vec<usize> = opts
        .get("shards", "1,2,4,8")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("--shards: bad shard count '{s}'"))
        })
        .collect::<Result<_, _>>()?;
    let err = |e: doma_core::DomaError| e.to_string();

    // Alternating SA/DA catalog with scheme size t, rotated around the
    // cluster — the same shape the shard_scaling bench uses.
    let configs: BTreeMap<ObjectId, ProtocolConfig> = (0..objects)
        .map(|o| {
            let base = (o as usize) % (n - t + 1);
            let config = if o % 2 == 0 {
                ProtocolConfig::Sa {
                    q: (base..base + t).collect(),
                }
            } else {
                ProtocolConfig::Da {
                    f: (base..base + t - 1).collect(),
                    p: ProcessorId::new(base + t - 1),
                }
            };
            (ObjectId(o), config)
        })
        .collect();
    let schedule = MultiUniformWorkload::new(objects, n, rf)
        .map_err(err)?
        .generate_multi(requests, seed);

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "shard scaling: {objects} objects, {requests} requests, n={n}, t={t}, \
         read fraction {rf}, seed {seed}, {placement:?} placement, {cores} cores"
    );

    let mut sequential = ProtocolSim::new_catalog(n, configs.clone()).map_err(err)?;
    let start = Instant::now();
    let expected = sequential.execute_multi(&schedule).map_err(err)?;
    let seq_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "  sequential: {seq_ms:8.1} ms  {:9.0} req/s  ({} reads completed)",
        requests as f64 / (seq_ms * 1e-3),
        expected.reads_completed
    );

    for shards in shard_counts {
        let sharded = ShardedSim::new(n, configs.clone(), shards, placement).map_err(err)?;
        let start = Instant::now();
        let run = sharded.execute_multi(&schedule).map_err(err)?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if run.report != expected {
            return Err(format!(
                "parity violation at K={shards}: sharded report diverges from sequential"
            ));
        }
        for object in configs.keys() {
            if run.holders.get(object) != Some(&sequential.valid_holders_of(*object)) {
                return Err(format!(
                    "parity violation at K={shards}: holders of {object} diverge"
                ));
            }
        }
        println!(
            "  K={shards:<3}      {wall_ms:8.1} ms  {:9.0} req/s  parity OK",
            requests as f64 / (wall_ms * 1e-3)
        );
    }
    Ok(())
}

/// The algorithm tournament: every first-class allocator × every workload
/// × the `(cc, cd)` model grid, measured against OPT through the protocol
/// sim with the obs registry cross-checked. Prints the standings table
/// (or the JSON export with `--format json`); `--out <path>` additionally
/// writes the byte-stable JSON artifact.
fn cmd_tournament(opts: &Opts) -> Result<(), String> {
    let spec = doma_analysis::tournament::TournamentSpec {
        n: opts.get_usize("n", 6)?,
        len: opts.get_usize("len", 40)?,
        seed: opts.get_usize("seed", 7)? as u64,
    };
    let cells = doma_analysis::tournament::run_tournament(&spec).map_err(|e| e.to_string())?;
    let json = doma_analysis::tournament::render_json(&spec, &cells);
    match opts.get("format", "table").as_str() {
        "table" => {
            println!(
                "tournament: n={} len={} seed={} ({} cells)",
                spec.n,
                spec.len,
                spec.seed,
                cells.len()
            );
            print!("{}", doma_analysis::tournament::render_table(&cells));
        }
        "json" => print!("{json}"),
        other => return Err(format!("--format must be table or json, got '{other}'")),
    }
    if let Some(path) = opts.flags.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok(())
}

/// Runs a declarative scenario (builtin by name, or a `.toml` file by
/// path) through the protocol simulator with obs attached, audits its
/// expected-invariant block, and prints the report. `scenario list`
/// prints the builtin roster; `scenario all` replays every builtin and
/// fails if any expectation (golden digest included) is violated.
/// Parses a `--transport` value for the socket runtime commands.
fn socket_transport(value: &str) -> Result<doma_net::TransportKind, String> {
    doma_net::TransportKind::parse(value)
        .ok_or_else(|| format!("--transport must be tcp or uds, got '{value}'"))
}

/// The ad-hoc workload names `domactl cluster` accepts in place of a
/// scenario, mirroring `domactl trace`.
const CLUSTER_WORKLOADS: &[&str] = &["uniform", "zipf", "hotspot", "chaotic", "mobile", "append"];

/// Synthesizes a one-phase scenario for an ad-hoc cluster workload, so
/// the twin harness needs only one input shape.
fn synth_workload_scenario(opts: &Opts, workload: &str) -> Result<doma_scenario::Scenario, String> {
    let n = opts.get_usize("n", 6)?;
    let len = opts.get_usize("len", 40)?;
    let seed = opts.get_usize("seed", 7)?;
    let entrant = opts.get("entrant", "sa");
    let rf = opts.get_f64("read-fraction", 0.7)?;
    let phase = match workload {
        "uniform" => format!("read_fraction = {rf}"),
        "zipf" => format!("theta = 1.0\nread_fraction = {rf}"),
        "hotspot" => format!("phase_len = 20\nhot_prob = {rf}"),
        "chaotic" => "redraw_every = 8".to_string(),
        "mobile" => format!(
            "cells = {}\ncallers = {}\nmove_prob = 0.3\nread_fraction = {rf}",
            n / 2,
            n - n / 2 - 1
        ),
        "append" => "generators = 2\nreads_per_write = 3.0".to_string(),
        _ => unreachable!("gated by CLUSTER_WORKLOADS"),
    };
    let workload = if workload == "append" {
        "append-only"
    } else {
        workload
    };
    doma_scenario::Scenario::parse(&format!(
        "[scenario]\n\
         name = \"adhoc-{workload}\"\n\
         description = \"ad-hoc cluster workload\"\n\
         n = {n}\n\
         seed = {seed}\n\
         entrant = \"{entrant}\"\n\
         [model]\n\
         environment = \"sc\"\n\
         cc = 0.25\n\
         cd = 1.0\n\
         [[phase]]\n\
         name = \"main\"\n\
         workload = \"{workload}\"\n\
         len = {len}\n\
         {phase}\n\
         [expect]\n\
         max_dropped_messages = 0\n"
    ))
    .map_err(|e| e.to_string())
}

/// `domactl cluster <scenario|workload>` — spawn N protocol nodes over
/// real sockets, drive the scenario's schedule through them, and
/// cross-check the run against the deterministic sim twin: same seed,
/// same request schedule, therefore (if the transport layer is correct)
/// the same allocation-scheme trajectory and the same obs cost totals.
fn cmd_cluster(opts: &Opts) -> Result<(), String> {
    let target = opts.target.clone().ok_or_else(|| {
        format!(
            "need a target: domactl cluster <scenario|workload> --nodes N [--transport tcp|uds]\n\
             builtins: {}\nworkloads: {}",
            doma_scenario::builtin::names().join(", "),
            CLUSTER_WORKLOADS.join(", ")
        )
    })?;
    let kind = socket_transport(&opts.get("transport", "uds"))?;
    let scenario = if CLUSTER_WORKLOADS.contains(&target.as_str()) {
        synth_workload_scenario(opts, &target)?
    } else if target.ends_with(".toml") || target.contains('/') {
        let text =
            std::fs::read_to_string(&target).map_err(|e| format!("cannot read {target}: {e}"))?;
        doma_scenario::Scenario::parse(&text).map_err(|e| format!("{target}: {e}"))?
    } else {
        doma_scenario::builtin::load(&target).map_err(|e| e.to_string())?
    };
    let nodes = match opts.flags.get("nodes") {
        Some(_) => Some(opts.get_usize("nodes", scenario.n)?),
        None => None,
    };
    match doma_analysis::cluster::run_twin(&scenario, kind, nodes) {
        Ok(report) => {
            print!("{}", report.render());
            if report.matches() {
                Ok(())
            } else {
                Err(format!(
                    "cluster diverged from the sim twin ({} difference(s))",
                    report.diffs.len()
                ))
            }
        }
        Err(e) if e.starts_with("sockets unavailable") => {
            println!("notice: {e}; cluster run skipped");
            Ok(())
        }
        Err(e) => Err(e),
    }
}

fn cmd_scenario(opts: &Opts) -> Result<(), String> {
    let target = opts
        .target
        .clone()
        .or_else(|| opts.flags.get("name").cloned())
        .ok_or_else(|| {
            format!(
                "need a scenario: domactl scenario <name|path|all|list>\nbuiltins: {}",
                doma_scenario::builtin::names().join(", ")
            )
        })?;
    let format = opts.get("format", "table");
    if !["table", "json"].contains(&format.as_str()) {
        return Err(format!("--format must be table or json, got '{format}'"));
    }
    let transport = opts.get("transport", "sim");
    if !["sim", "tcp", "uds"].contains(&transport.as_str()) {
        return Err(format!(
            "--transport must be sim, tcp or uds, got '{transport}'"
        ));
    }
    if target == "list" {
        for name in doma_scenario::builtin::names() {
            let s = doma_scenario::builtin::load(name).map_err(|e| format!("{name}: {e}"))?;
            println!("{name:<22} {}", s.description);
        }
        return Ok(());
    }
    let scenarios: Vec<doma_scenario::Scenario> = if target == "all" {
        doma_scenario::builtin::names()
            .into_iter()
            .map(|name| doma_scenario::builtin::load(name).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<_, _>>()?
    } else if target.ends_with(".toml") || target.contains('/') {
        let text =
            std::fs::read_to_string(&target).map_err(|e| format!("cannot read {target}: {e}"))?;
        vec![doma_scenario::Scenario::parse(&text).map_err(|e| format!("{target}: {e}"))?]
    } else {
        vec![doma_scenario::builtin::load(&target).map_err(|e| e.to_string())?]
    };

    let baseline = match opts.flags.get("diff") {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("--diff {path}: {e}"))?)
        }
        None => None,
    };
    let mut failed = Vec::new();
    let mut json_rows = Vec::new();
    let mut diffs = Vec::new();
    for scenario in &scenarios {
        let report = doma_scenario::run(scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
        match format.as_str() {
            "json" => json_rows.push(report.render_json()),
            _ => print!("{}", report.render_table()),
        }
        if let Some(baseline_text) = &baseline {
            let d = doma_analysis::obsdiff::diff_texts(
                baseline_text,
                &report.snapshot_json,
                Some(&report.scenario),
            )
            .map_err(|e| format!("--diff {}: {e}", report.scenario))?;
            diffs.push(format!(
                "{}: {}",
                report.scenario,
                doma_analysis::obsdiff::render(&d)
            ));
        }
        if !report.passed() {
            failed.push(format!(
                "{}: {}",
                report.scenario,
                report.violations.join("; ")
            ));
        }
        // `--transport tcp|uds`: replay the scenario over real sockets
        // and hold the cluster to the sim run the golden digest pinned.
        if transport != "sim" {
            let note = |msg: &str| {
                if format != "json" {
                    println!("{msg}");
                }
            };
            if !scenario.faults.is_empty() {
                note(&format!(
                    "  transport {transport}: skipped (scenario injects faults; \
                     the real runtime is failure-free)"
                ));
                continue;
            }
            match doma_analysis::cluster::run_twin(scenario, socket_transport(&transport)?, None) {
                Ok(twin) if twin.matches() => note(&format!(
                    "  transport {transport}: MATCH — cluster reproduced the sim twin \
                     ({} requests)",
                    twin.requests
                )),
                Ok(twin) => {
                    for d in &twin.diffs {
                        note(&format!("  transport {transport}: DIVERGED — {d}"));
                    }
                    failed.push(format!(
                        "{}: cluster diverged from the sim twin over {transport} \
                         ({} difference(s))",
                        report.scenario,
                        twin.diffs.len()
                    ));
                }
                Err(e) if e.starts_with("sockets unavailable") => {
                    note(&format!("notice: {e}; cluster replay skipped"));
                }
                Err(e) => return Err(e),
            }
        }
    }
    if format == "json" {
        println!("[\n  {}\n]", json_rows.join(",\n  "));
    }
    for diff in &diffs {
        print!("{diff}");
    }
    if !failed.is_empty() {
        return Err(format!(
            "scenario expectations failed:\n  {}",
            failed.join("\n  ")
        ));
    }
    Ok(())
}

/// `domactl lint [--root PATH] [--format table|json] [--rule <id>]` —
/// the static-analysis wall, runnable outside verify.sh. Exits nonzero
/// on any finding (after `--rule` filtering), so scripts can gate on it.
fn cmd_lint(opts: &Opts) -> Result<(), String> {
    let root = opts.get("root", ".");
    let ws = doma_lint::load_workspace(std::path::Path::new(&root))?;
    let mut report = doma_lint::run(&ws)?;
    if let Some(rule) = opts.flags.get("rule") {
        report.findings.retain(|f| f.rule == rule);
    }
    match opts.get("format", "table").as_str() {
        "json" => print!("{}", doma_lint::render_json(&report)),
        "table" => print!("{}", doma_lint::render_table(&report)),
        other => return Err(format!("--format must be table or json, got '{other}'")),
    }
    if report.findings.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint finding(s)", report.findings.len()))
    }
}

fn usage() -> String {
    "usage: domactl <cost|stats|simulate|obs|generate|shard|tournament|scenario|cluster|trace|perf|lint> [--flags]\n\
     try: domactl cost --schedule \"r1 r1 r2 w2 r2 r2 r2\" --cc 0.5 --cd 1.0\n\
     try: domactl scenario list\n\
     try: domactl cluster append-only-6-2 --nodes 3 --transport uds\n\
     try: domactl trace append-only-6-2 --format chrome\n\
     try: domactl lint --format json"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|opts| match opts.command.as_str() {
        "cost" => cmd_cost(&opts),
        "stats" => cmd_stats(&opts),
        "simulate" => cmd_simulate(&opts),
        "obs" => cmd_obs(&opts),
        "generate" => cmd_generate(&opts),
        "shard" => cmd_shard(&opts),
        "tournament" => cmd_tournament(&opts),
        "scenario" => cmd_scenario(&opts),
        "cluster" => cmd_cluster(&opts),
        "trace" => cmd_trace(&opts),
        "perf" => cmd_perf(&opts),
        "lint" => cmd_lint(&opts),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_accepts_flags_and_command() {
        let o = parse_args(&args(&["cost", "--cc", "0.5", "--verbose", "--algo", "da"])).unwrap();
        assert_eq!(o.command, "cost");
        assert!(o.verbose);
        assert_eq!(o.get("algo", "all"), "da");
        assert_eq!(o.get_f64("cc", 0.0).unwrap(), 0.5);
        assert_eq!(o.get_f64("cd", 1.25).unwrap(), 1.25);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["cost", "--cc"])).is_err());
        // Positional arity is per-command: `scenario` takes one operand,
        // `cost` takes none, `obs diff` takes three.
        let o = parse_args(&args(&["scenario", "flash-crowd"])).unwrap();
        assert_eq!(o.target.as_deref(), Some("flash-crowd"));
        assert!(parse_args(&args(&["cost", "stray", "stray2"])).is_err());
        assert!(parse_args(&args(&["cost", "stray"])).is_err());
        assert!(parse_args(&args(&["scenario", "a", "b"])).is_err());
        assert!(parse_args(&args(&["trace", "a", "b"])).is_err());
        let o = parse_args(&args(&["cost", "--cc", "abc"])).unwrap();
        assert!(o.get_f64("cc", 0.0).is_err());
    }

    #[test]
    fn parser_accepts_multi_positional_obs_diff() {
        let o = parse_args(&args(&["obs", "diff", "a.json", "b.json"])).unwrap();
        assert_eq!(o.target.as_deref(), Some("diff"));
        assert_eq!(o.extra, vec!["a.json".to_string(), "b.json".to_string()]);
        assert!(parse_args(&args(&["obs", "diff", "a", "b", "c"])).is_err());
        // `obs` with a non-diff positional is rejected by the command.
        let o = parse_args(&args(&["obs", "bogus", "--schedule", "r1"])).unwrap();
        assert!(cmd_obs(&o).unwrap_err().contains("unexpected argument"));
        // `obs diff` with fewer than two files is a usage error.
        let o = parse_args(&args(&["obs", "diff", "only-one"])).unwrap();
        assert!(cmd_obs(&o).unwrap_err().contains("usage:"));
    }

    #[test]
    fn schedule_and_model_extraction() {
        let o = parse_args(&args(&[
            "cost",
            "--schedule",
            "r1 w2",
            "--model",
            "mc",
            "--cc",
            "0.2",
            "--cd",
            "0.9",
        ]))
        .unwrap();
        let s = o.schedule().unwrap();
        assert_eq!(s.len(), 2);
        let m = o.model().unwrap();
        assert_eq!(m.cio(), 0.0);
        let bad = parse_args(&args(&["cost", "--model", "xy", "--schedule", "r1"])).unwrap();
        assert!(bad.model().is_err());
        let none = parse_args(&args(&["cost"])).unwrap();
        assert!(none.schedule().is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        let o = parse_args(&args(&["cost", "--schedule", "r1 r1 r2 w2 r2"])).unwrap();
        cmd_cost(&o).unwrap();
        let o = parse_args(&args(&["stats", "--schedule", "r1 r1 w0 r2"])).unwrap();
        cmd_stats(&o).unwrap();
        let o = parse_args(&args(&[
            "simulate",
            "--schedule",
            "r2 w3 r2",
            "--algo",
            "da",
        ]))
        .unwrap();
        cmd_simulate(&o).unwrap();
        let o = parse_args(&args(&["generate", "--workload", "zipf", "--len", "10"])).unwrap();
        cmd_generate(&o).unwrap();
        let o = parse_args(&args(&["obs", "--schedule", "r2 w3 r2", "--algo", "sa"])).unwrap();
        cmd_obs(&o).unwrap();
        let o = parse_args(&args(&[
            "obs",
            "--schedule",
            "r2 w3 r2",
            "--format",
            "table",
        ]))
        .unwrap();
        cmd_obs(&o).unwrap();
    }

    #[test]
    fn shard_runs_and_validates_flags() {
        let o = parse_args(&args(&[
            "shard",
            "--objects",
            "6",
            "--requests",
            "200",
            "--shards",
            "1,2,3",
            "--n",
            "6",
        ]))
        .unwrap();
        cmd_shard(&o).unwrap();
        let o = parse_args(&args(&["shard", "--placement", "zigzag"])).unwrap();
        assert!(cmd_shard(&o).is_err());
        let o = parse_args(&args(&["shard", "--shards", "1,x"])).unwrap();
        assert!(cmd_shard(&o).is_err());
        let o = parse_args(&args(&["shard", "--t", "9", "--n", "4"])).unwrap();
        assert!(cmd_shard(&o).is_err());
    }

    #[test]
    fn tournament_runs_and_rejects_bad_format() {
        let o = parse_args(&args(&[
            "tournament",
            "--n",
            "5",
            "--len",
            "12",
            "--seed",
            "3",
        ]))
        .unwrap();
        cmd_tournament(&o).unwrap();
        let o = parse_args(&args(&[
            "tournament",
            "--n",
            "5",
            "--len",
            "12",
            "--format",
            "yaml",
        ]))
        .unwrap();
        assert!(cmd_tournament(&o).is_err());
    }

    #[test]
    fn scenario_lists_and_runs_builtins() {
        let o = parse_args(&args(&["scenario", "list"])).unwrap();
        cmd_scenario(&o).unwrap();
        let o = parse_args(&args(&["scenario"])).unwrap();
        let e = cmd_scenario(&o).unwrap_err();
        assert!(e.contains("builtins:"), "{e}");
        let o = parse_args(&args(&["scenario", "flash-crowd", "--format", "yaml"])).unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("--format"));
        let o = parse_args(&args(&["scenario", "no-such-scenario"])).unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("unknown builtin"));
        let o = parse_args(&args(&["scenario", "/no/such/file.toml"])).unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("cannot read"));
    }

    #[test]
    fn obs_rejects_bad_format() {
        let o = parse_args(&args(&["obs", "--schedule", "r1", "--format", "xml"])).unwrap();
        assert!(cmd_obs(&o).is_err());
    }

    fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("domactl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn trace_runs_scenarios_and_workloads() {
        let o = parse_args(&args(&["trace", "append-only-6-2"])).unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&["trace", "append-only-6-2", "--format", "chrome"])).unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&[
            "trace", "uniform", "--len", "12", "--algo", "sa", "--top", "3",
        ]))
        .unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&["trace", "no-such-target"])).unwrap();
        assert!(cmd_trace(&o).unwrap_err().contains("unknown trace target"));
        let o = parse_args(&args(&["trace", "uniform", "--format", "svg"])).unwrap();
        assert!(cmd_trace(&o).unwrap_err().contains("--format"));
        let o = parse_args(&args(&["trace"])).unwrap();
        assert!(cmd_trace(&o).unwrap_err().contains("need a target"));
    }

    #[test]
    fn obs_diff_detects_changes_and_clean_runs() {
        let snap_a = "{\"dropped_events\": 0, \"events\": [], \"metrics\": \
             [{\"component\": \"p\", \"name\": \"x\", \"labels\": {}, \
             \"kind\": \"counter\", \"value\": 1}]}";
        let snap_b = snap_a.replace("\"value\": 1", "\"value\": 2");
        let a = temp_file("diff_a.json", snap_a);
        let b = temp_file("diff_b.json", &snap_b);
        let same = parse_args(&args(&[
            "obs",
            "diff",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_obs(&same).unwrap();
        let differ = parse_args(&args(&[
            "obs",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(cmd_obs(&differ).unwrap_err().contains("differ"));
    }

    #[test]
    fn scenario_diff_flag_compares_against_a_baseline() {
        let scenario = doma_scenario::builtin::load("append-only-6-2").unwrap();
        let report = doma_scenario::run(&scenario).unwrap();
        let baseline = temp_file("scenario_baseline.json", &report.snapshot_json);
        let o = parse_args(&args(&[
            "scenario",
            "append-only-6-2",
            "--diff",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_scenario(&o).unwrap();
        let o = parse_args(&args(&[
            "scenario",
            "append-only-6-2",
            "--diff",
            "/no/such/baseline.json",
        ]))
        .unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("--diff"));
    }

    #[test]
    fn perf_gate_passes_and_fails_on_medians() {
        let base = temp_file(
            "perf_base.json",
            "[{\"group\": \"g\", \"name\": \"a\", \"samples\": 3, \
             \"iters_per_sample\": 1, \"mean_ns\": 100.0, \"median_ns\": 100.0, \
             \"stddev_ns\": 0.0, \"min_ns\": 100.0, \"max_ns\": 100.0}]",
        );
        let ok = temp_file("perf_ok.json", &std::fs::read_to_string(&base).unwrap());
        let slow = temp_file(
            "perf_slow.json",
            &std::fs::read_to_string(&base)
                .unwrap()
                .replace("\"median_ns\": 100.0", "\"median_ns\": 200.0"),
        );
        let o = parse_args(&args(&[
            "perf",
            ok.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_perf(&o).unwrap();
        let o = parse_args(&args(&[
            "perf",
            slow.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(cmd_perf(&o).unwrap_err().contains("perf regression"));
        let o = parse_args(&args(&["perf"])).unwrap();
        assert!(cmd_perf(&o).unwrap_err().contains("usage:"));
        let o = parse_args(&args(&["perf", "x", "--threshold", "99"])).unwrap();
        assert!(cmd_perf(&o).unwrap_err().contains("--threshold"));
    }

    #[test]
    fn cost_rejects_bad_t_and_algo() {
        let o = parse_args(&args(&["cost", "--schedule", "r1", "--t", "9"])).unwrap();
        assert!(cmd_cost(&o).is_err());
        let o = parse_args(&args(&["cost", "--schedule", "r1", "--algo", "zzz"])).unwrap();
        assert!(cmd_cost(&o).is_err());
    }
}
