//! The metric catalog and the arithmetic that turns iterations into
//! reported values.
//!
//! `BENCHMARK.json` lists the same metrics by name, unit and direction;
//! the per-layer entries here add which end-to-end metric each one
//! should move, and on which workload.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric(s) it should move
    /// and the workload(s) it should move them on.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, from untraced runs. Every
/// workload reports all of them.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, ""),
    m("converge_s", "s", Lower, ""),
    m("steady_s", "s", Lower, ""),
    m("peak_rss_mb", "MB", Lower, ""),
];

/// Metrics of single layers, from traced runs. Every workload reports
/// all of them; `moves` says where each is expected to matter.
pub const PER_LAYER: &[Metric] = &[
    m(
        "core.build_s",
        "s",
        Lower,
        "setup_s on install_16x512, epoch_hybrid_64x4096",
    ),
    m(
        "core.configure_s",
        "s",
        Lower,
        "setup_s on install_16x512, epoch_hybrid_64x4096",
    ),
    m(
        "core.attach_s",
        "s",
        Lower,
        "setup_s on install_16x512, epoch_hybrid_64x4096",
    ),
    m(
        "controller.busy_s",
        "s",
        Lower,
        "converge_s on flood_2x512, install_16x512",
    ),
    m(
        "controller.msgs",
        "count",
        Lower,
        "converge_s on flood_2x512, install_16x512",
    ),
    m(
        "controller.us_per_msg",
        "us",
        Lower,
        "converge_s on flood_2x512, install_16x512",
    ),
    m(
        "controller.packet_ins",
        "count",
        Lower,
        "converge_s on flood_2x512",
    ),
    m(
        "controller.flow_mods",
        "count",
        Lower,
        "converge_s on install_16x512",
    ),
    m(
        "openflow.decode_ns_per_msg",
        "ns",
        Lower,
        "converge_s on install_16x512, flood_2x512",
    ),
    m(
        "netsim.self_s",
        "s",
        Lower,
        "converge_s on install_16x512, flood_2x512; steady_s on epoch_packet_16x512",
    ),
    m(
        "netsim.events",
        "count",
        Lower,
        "converge_s on install_16x512, flood_2x512; steady_s on epoch_packet_16x512",
    ),
    m(
        "netsim.ns_per_event",
        "ns",
        Lower,
        "converge_s on install_16x512, flood_2x512; steady_s on epoch_packet_16x512",
    ),
    m(
        "netsim.endpoints_busy_s",
        "s",
        Lower,
        "steady_s on epoch_packet_16x512",
    ),
    m(
        "netsim.delivered_frames",
        "count",
        Lower,
        "steady_s on epoch_packet_16x512",
    ),
    m(
        "softswitch.flow_entries",
        "count",
        Lower,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.packets",
        "count",
        Lower,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.memo_hit_ratio",
        "share",
        Higher,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.micro_hit_ratio",
        "share",
        Higher,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.mega_hit_ratio",
        "share",
        Higher,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.slow_path_ratio",
        "share",
        Lower,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.rx_dropped",
        "count",
        Lower,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.packet_ins",
        "count",
        Lower,
        "steady_s on epoch_packet_16x512; converge_s on flood_2x512, install_16x512",
    ),
    m(
        "softswitch.batch32_ns",
        "ns",
        Lower,
        "steady_s on epoch_packet_16x512",
    ),
    m(
        "netpkt.parse_ns_per_frame",
        "ns",
        Lower,
        "steady_s on epoch_packet_16x512",
    ),
    m(
        "legacy.flood_frames",
        "count",
        Lower,
        "converge_s on flood_2x512",
    ),
    m(
        "flowsim.window_updates",
        "count",
        Lower,
        "steady_s on epoch_hybrid_64x4096",
    ),
    m(
        "flowsim.promotions",
        "count",
        Lower,
        "steady_s on epoch_hybrid_64x4096",
    ),
    m(
        "flowsim.demotions",
        "count",
        Lower,
        "steady_s on epoch_hybrid_64x4096",
    ),
    m(
        "flowsim.modeled_ratio",
        "share",
        Higher,
        "steady_s on epoch_hybrid_64x4096",
    ),
];

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Failed operations as a share of attempted ones. A run that attempted
/// nothing did no work, which must not read as a clean run: it counts
/// as all-failed.
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_valid_unique_and_within_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let mut uniq = all.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), all.len(), "metric names must be unique");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16 && !m.unit.is_empty(),
                "bad unit for {}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn every_per_layer_metric_names_a_workload_it_moves() {
        for m in PER_LAYER {
            assert!(
                Workload::ALL.iter().any(|w| m.moves.contains(w.name())),
                "{} names no workload",
                m.name
            );
            assert!(
                END_TO_END.iter().any(|e| m.moves.contains(e.name)),
                "{} names no end-to-end metric",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` must list exactly the catalog's metrics and the
    /// four workloads, each with a one-line reason.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.word()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for w in Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"", w.name());
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks workload {}",
                w.name()
            );
        }
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        assert_eq!(fail_ratio(8, 0), 0.0);
        assert_eq!(fail_ratio(8, 2), 0.25);
    }

    #[test]
    fn fail_ratio_with_nothing_attempted_is_all_failed() {
        assert_eq!(fail_ratio(0, 0), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
