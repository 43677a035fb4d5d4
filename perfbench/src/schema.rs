//! The metrics each run prints, with their units: the one list the
//! output and the smoke check share. `BENCHMARK.json` declares the same
//! names and units; `--smoke` checks that the two agree.

use crate::legs::Leg;
use crate::Outcome;

/// End-to-end metrics of an untraced run, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analytic_req_per_s", "req/cpu-s"),
    ("sim_req_per_s", "req/cpu-s"),
    ("sim_obs_req_per_s", "req/cpu-s"),
    ("tcp_req_per_s", "req/s"),
    ("tcp_p50_us", "us"),
    ("tcp_p90_us", "us"),
    ("sim_heap_bytes_per_req", "B"),
    ("cost_per_req", "cost"),
    ("ok_share", "fraction"),
];

/// Per-layer metrics of a traced run, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_req", "ns"),
    ("algorithms.decide_ns_per_req", "ns"),
    ("core.cost_ns_per_req", "ns"),
    ("planner.plan_ns", "ns"),
    ("sim.inject_ns", "ns"),
    ("sim.settle_ns", "ns"),
    ("engine.events_per_req", "count"),
    ("engine.self_ns_per_req", "ns"),
    ("node.deliver_ns_per_msg", "ns"),
    ("msgs.control_per_req", "count"),
    ("msgs.data_per_req", "count"),
    ("store.io_per_req", "count"),
    ("store.output_ns", "ns"),
    ("store.input_ns", "ns"),
    ("obs.overhead_ns_per_req", "ns"),
    ("obs.events_per_req", "count"),
    ("sharded.partition_ns", "ns"),
    ("sharded.project_ns", "ns"),
    ("sharded.merge_ns", "ns"),
    ("sharded.imbalance", "ratio"),
    ("codec.encode_ns_per_frame", "ns"),
    ("codec.decode_ns_per_frame", "ns"),
    ("codec.bytes_per_req", "B"),
    ("net.rtt_us", "us"),
    ("net.barrier_floor_us", "us"),
    ("net.peer_us_per_req", "us"),
    ("net.boot_ms", "ms"),
    ("trace.clock_ns", "ns"),
    ("attrib.sim", "fraction"),
    ("trace.overhead.sim", "fraction"),
    ("attrib.sim_obs", "fraction"),
    ("trace.overhead.sim_obs", "fraction"),
    ("attrib.analytic", "fraction"),
    ("trace.overhead.analytic", "fraction"),
    ("attrib.sharded", "fraction"),
    ("trace.overhead.sharded", "fraction"),
    ("attrib.uds", "fraction"),
    ("trace.overhead.uds", "fraction"),
    ("attrib.tcp", "fraction"),
    ("trace.overhead.tcp", "fraction"),
];

/// Share of a leg's untraced time that its traced layer spans cover.
pub fn attribution_name(leg: Leg) -> &'static str {
    match leg {
        Leg::Sim => "attrib.sim",
        Leg::SimObs => "attrib.sim_obs",
        Leg::Analytic => "attrib.analytic",
        Leg::Sharded => "attrib.sharded",
        Leg::Uds => "attrib.uds",
        Leg::Tcp => "attrib.tcp",
    }
}

/// Traced time over untraced time, minus one.
pub fn overhead_name(leg: Leg) -> &'static str {
    match leg {
        Leg::Sim => "trace.overhead.sim",
        Leg::SimObs => "trace.overhead.sim_obs",
        Leg::Analytic => "trace.overhead.analytic",
        Leg::Sharded => "trace.overhead.sharded",
        Leg::Uds => "trace.overhead.uds",
        Leg::Tcp => "trace.overhead.tcp",
    }
}

pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Checks that `BENCHMARK.json` declares exactly these metrics, each
/// with its unit, in its `end_to_end` and `per_layer` lists.
pub fn check_declared(text: &str) -> Result<(), String> {
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let e2e_at = compact.find("\"end_to_end\"").ok_or("no end_to_end list")?;
    let layer_at = compact.find("\"per_layer\"").ok_or("no per_layer list")?;
    let (e2e, layer) = if e2e_at < layer_at {
        (&compact[e2e_at..layer_at], &compact[layer_at..])
    } else {
        (&compact[e2e_at..], &compact[layer_at..e2e_at])
    };
    for (list, section, declared) in [
        ("end_to_end", e2e, END_TO_END),
        ("per_layer", layer, PER_LAYER),
    ] {
        let names = section.matches("\"name\":").count();
        if names != declared.len() {
            return Err(format!(
                "BENCHMARK.json {list} names {names} metrics, the benchmark prints {}",
                declared.len()
            ));
        }
        for (name, unit) in declared {
            if !section.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")) {
                return Err(format!("BENCHMARK.json {list} lacks {name} in {unit}"));
            }
        }
    }
    Ok(())
}

/// Checks that a run printed exactly its mode's metrics, each finite.
pub fn check_output(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    if names != wanted {
        return Err(format!("printed {names:?}, expected {wanted:?}"));
    }
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} is {value}"));
    }
    if outcome.attempted == 0 {
        return Err("no request attempted".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        for name in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for leg in Leg::ALL {
            assert!(unit(attribution_name(leg)).is_some());
            assert!(unit(overhead_name(leg)).is_some());
        }
    }

    #[test]
    fn the_committed_benchmark_json_declares_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        check_declared(&text).unwrap();
    }
}
