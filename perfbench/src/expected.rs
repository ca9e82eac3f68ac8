//! Simulated results recorded for each workload's default seed.
//!
//! `outputs` are gated exactly: a run of the default seed that
//! produces anything else fails. `internals` are engine-internal counts
//! that an optimisation may legitimately lower; runs print their
//! difference from these values but do not fail on it.

use crate::workloads::Workload;

/// Recorded values of one workload.
pub struct Recorded {
    /// Gated simulated outputs.
    pub outputs: &'static [(&'static str, u64)],
    /// Engine-internal counts, diffed only.
    pub internals: &'static [(&'static str, u64)],
}

/// The values recorded for `w` at its default seed.
pub fn recorded(w: Workload) -> Recorded {
    match w {
        Workload::Install16x512 => Recorded {
            outputs: &[("echo_replies", 57_344), ("echo_answered", 57_344)],
            internals: &[
                ("events", 2_764_447),
                ("delivered_frames", 966_656),
                ("delivered_bytes", 52_592_640),
                ("round1_packet_ins", 8_192),
                ("round1_flow_mods", 139_298),
                ("proxied_arp_answers", 8_192),
                ("flow_entries", 155_665),
                ("legacy_floods", 8_192),
            ],
        },
        Workload::Flood2x512 => Recorded {
            outputs: &[("echo_replies", 81_920), ("echo_answered", 81_920)],
            internals: &[
                ("events", 11_209_661),
                ("delivered_frames", 4_466_688),
                ("delivered_bytes", 208_842_752),
                ("round1_packet_ins", 7_168),
                ("round1_flow_mods", 8_195),
                ("proxied_arp_answers", 0),
                ("flow_entries", 5_123),
                ("legacy_floods", 1_048_576),
            ],
        },
        Workload::EpochPacket16x512 => Recorded {
            outputs: &[
                ("frames_sent", 597_230),
                ("frames_received", 597_230),
                ("rx_bytes", 488_657_408),
            ],
            internals: &[
                ("events", 14_364_947),
                ("delivered_frames", 4_777_840),
                ("delivered_bytes", 3_914_037_104),
                ("flow_mods", 4_386),
                ("packet_ins", 0),
                ("promotions", 0),
                ("demotions", 0),
                ("window_updates", 0),
                ("frames_modeled", 0),
            ],
        },
        Workload::EpochHybrid64x4096 => Recorded {
            outputs: &[
                ("frames_sent", 23_384_020),
                ("frames_received", 23_384_020),
                ("rx_bytes", 20_310_640_256),
            ],
            internals: &[
                ("events", 13_268_363),
                ("delivered_frames", 4_382_568),
                ("delivered_bytes", 1_312_113_512),
                ("flow_mods", 66_690),
                ("packet_ins", 0),
                ("promotions", 512),
                ("demotions", 0),
                ("window_updates", 274_621),
                ("frames_modeled", 22_836_199),
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_gated_outputs() {
        for w in Workload::ALL {
            assert!(!recorded(w).outputs.is_empty(), "{} has none", w.name());
        }
    }
}
