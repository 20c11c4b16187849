//! Property suite for the fault-file format: serializing any `FaultPlan`
//! and parsing it back must reproduce the plan bit-for-bit (including the
//! f64 multipliers), and the canonical writer must be a fixed point.

use gaia_fault::{FaultPlan, FaultSpec};
use gaia_time::SimTime;
use proptest::prelude::*;

const KEYS: [&str; 4] = ["", "s42", "carbon-time/sa-au", "quote\"back\\slash\tté"];

type RawSpec = (u8, u64, u64, f64, u64, usize);

fn spec_from((kind, a, len, mult, small, strdx): RawSpec) -> FaultSpec {
    let start = SimTime::from_minutes(a);
    let end = SimTime::from_minutes(a + len);
    match kind {
        0 => FaultSpec::EvictionStorm {
            start,
            end,
            multiplier: mult,
        },
        1 => FaultSpec::ForecastOutage { start, end },
        2 => FaultSpec::PriceSpike {
            start,
            end,
            multiplier: mult,
        },
        3 => FaultSpec::CapacityDrop {
            start,
            end,
            cap: small as u32,
        },
        4 => FaultSpec::TraceGap {
            start_hour: a % 8760,
            hours: 1 + len % 48,
        },
        _ => FaultSpec::ChaosCell {
            key_substr: KEYS[strdx].to_string(),
            fail_attempts: small as u32,
        },
    }
}

fn multiplier_bits(spec: &FaultSpec) -> Option<u64> {
    match *spec {
        FaultSpec::EvictionStorm { multiplier, .. } | FaultSpec::PriceSpike { multiplier, .. } => {
            Some(multiplier.to_bits())
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn fault_plan_round_trips_bit_identically(
        raw in collection::vec(
            (0u8..6, 0u64..20_000, 1u64..5_000, 0.1f64..32.0, 1u64..5, 0usize..4),
            0..8,
        )
    ) {
        let mut plan = FaultPlan::new();
        for entry in raw {
            plan.push(spec_from(entry));
        }

        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("canonical output parses");

        // Structurally equal, f64 fields bit-equal, and the writer is a
        // fixed point (serialize . parse . serialize is the identity).
        prop_assert_eq!(&back, &plan);
        for (a, b) in plan.specs().iter().zip(back.specs()) {
            prop_assert_eq!(multiplier_bits(a), multiplier_bits(b));
        }
        prop_assert_eq!(back.to_json(), text);

        // Both copies compile to the same schedule.
        let compiled = plan.compile().expect("generated plans are valid");
        prop_assert_eq!(back.compile().expect("round-tripped plan compiles"), compiled);
    }
}

/// Fragments random fault-file text is built from: JSON structure,
/// escapes, numbers at and past the edges of `u64`/`f64`, every key and
/// kind, control bytes and multi-byte text.
const FRAGMENTS: [&str; 40] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "0",
    "1",
    "-1",
    "1e999",
    "NaN",
    "0.5",
    "18446744073709551616",
    "true",
    "null",
    " ",
    "\u{0}",
    "\u{e9}",
    "\u{1f600}",
    "\"version\"",
    "\"faults\"",
    "\"kind\"",
    "\"eviction_storm\"",
    "\"forecast_outage\"",
    "\"price_spike\"",
    "\"capacity_drop\"",
    "\"trace_gap\"",
    "\"chaos_cell\"",
    "\"start_min\"",
    "\"end_min\"",
    "\"multiplier\"",
    "\"cap\"",
    "\"start_hour\"",
    "\"hours\"",
    "\"key_substr\"",
    "\"fail_attempts\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60_000))]

    /// A fixed-seed corpus of JSON-shaped text, random Unicode, and a
    /// valid fault file with either spliced in, parses to a plan or an
    /// error and never panics; a plan that parses also compiles or
    /// fails validation without panicking.
    fn random_fault_file_text_never_panics(
        picks in collection::vec(0usize..FRAGMENTS.len(), 0..40),
        scalars in collection::vec(0u32..0x11_0000, 0..24),
        raw in collection::vec(
            (0u8..6, 0u64..20_000, 1u64..5_000, 0.1f64..32.0, 1u64..5, 0usize..4),
            1..4,
        ),
        at in 0usize..1 << 20,
    ) {
        let shaped: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let unicode: String = scalars.iter().filter_map(|&c| char::from_u32(c)).collect();
        let mut plan = FaultPlan::new();
        for entry in raw {
            plan.push(spec_from(entry));
        }
        let valid = plan.to_json();
        let mut at = at % (valid.len() + 1);
        while !valid.is_char_boundary(at) {
            at -= 1;
        }
        for text in [&shaped, &unicode] {
            for doc in [text.clone(), format!("{}{text}{}", &valid[..at], &valid[at..])] {
                if let Ok(parsed) = FaultPlan::from_json(&doc) {
                    let _ = parsed.compile();
                }
            }
        }
    }
}

#[test]
fn deeply_nested_fault_file_is_an_error() {
    for open in ["[", "{\"faults\":"] {
        assert!(FaultPlan::from_json(&open.repeat(1_000_000)).is_err());
    }
}
