//! Property tests: every [`TrafficSpec`] round-trips *exactly* through
//! the spec grammar for randomly drawn parameters, not just the
//! defaults.
//!
//! Exactness matters because specs are identity: `xrun::JobSpec`
//! equality, result-document provenance and sweep-table labels all
//! assume that rendering and re-parsing a spec is the identity
//! function.

use proptest::prelude::*;
use traffic::TrafficSpec;

/// Renders one spec, re-parses the string and asserts equality.
fn assert_round_trips(spec: &TrafficSpec) {
    let cli = spec.spec_string();
    assert_eq!(
        &TrafficSpec::parse(&cli).expect("CLI reparse"),
        spec,
        "CLI grammar: {cli}"
    );
}

/// Builds a spec from a CLI string that must be valid.
fn spec(s: String) -> TrafficSpec {
    TrafficSpec::parse(&s).unwrap_or_else(|e| panic!("'{s}' should parse: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mmpp_specs_round_trip(
        rate in 1.0f64..4000.0,
        burstiness in 1.0f64..3.0,
        dwell in 1.0f64..2000.0,
        ports in 1u64..255,
    ) {
        assert_round_trips(&spec(format!(
            "mmpp:rate={rate},burstiness={burstiness},dwell_us={dwell},ports={ports}"
        )));
    }

    #[test]
    fn burst_specs_round_trip(
        on in 1.0f64..4000.0,
        off in 0.0f64..1000.0,
        period in 0.0001f64..10.0,
        duty in 0.01f64..0.99,
    ) {
        assert_round_trips(&spec(format!(
            "burst:on_mbps={on},off_mbps={off},period_s={period},duty={duty}"
        )));
    }

    #[test]
    fn flash_specs_round_trip(
        base in 1.0f64..2000.0,
        peak in 1.0f64..4000.0,
        at in 0.0f64..20.0,
        ramp in 0.0f64..5.0,
        hold in 0.0f64..20.0,
    ) {
        assert_round_trips(&spec(format!(
            "flash:base_mbps={base},peak_mbps={peak},at_ms={at},ramp_ms={ramp},hold_ms={hold}"
        )));
    }

    #[test]
    fn diurnal_specs_round_trip(
        hour in 0.0f64..24.0,
        scale in 0.1f64..20.0,
        peak in 1.0e6f64..1.0e9,
        profile_seed in 0u64..1_000_000,
    ) {
        // `hour` strictly below 24 by construction of the range.
        assert_round_trips(&spec(format!(
            "diurnal:hour={hour},scale={scale},peak_bps={peak},profile_seed={profile_seed}"
        )));
    }

    #[test]
    fn constant_specs_round_trip(
        rate in 1.0f64..4000.0,
        size in 1u64..9000,
        ports in 1u64..255,
    ) {
        assert_round_trips(&spec(format!(
            "constant:rate={rate},size={size},ports={ports}"
        )));
    }

    #[test]
    fn trace_specs_round_trip(suffix in 0u64..1_000_000_000) {
        // Paths without ',', which the grammar reads as a pair
        // separator.
        assert_round_trips(&spec(format!("trace:path=/tmp/dir-{suffix}/t.txt")));
    }

    #[test]
    fn levels_round_trip(which in 0usize..3) {
        assert_round_trips(&TrafficSpec::paper_levels()[which].clone());
    }

    #[test]
    fn schedule_specs_round_trip(
        // Randomly sized contiguous windows (1..=4 segments), each with
        // a randomly drawn child family and child parameters — the
        // list grammar: nested child specs with their own params must
        // survive the round trip exactly.
        lengths in proptest::collection::vec(1u64..5_000_000, 1..4),
        child in 0usize..4,
        rate in 1.0f64..4000.0,
        duty in 0.01f64..0.99,
        open_flag in 0u64..2,
    ) {
        let open_ended = open_flag == 1;
        let mut items = Vec::new();
        let mut start = 0u64;
        let last = lengths.len() - 1;
        for (i, len) in lengths.iter().enumerate() {
            let child_spec = match (child + i) % 4 {
                0 => "low".to_owned(),
                1 => format!("constant:rate={rate}"),
                2 => format!("burst:on_mbps={rate},duty={duty}"),
                _ => format!("mmpp:rate={rate},burstiness=1.4"),
            };
            let end = start + len;
            if i == last && open_ended {
                items.push(format!("{child_spec}@{start}.."));
            } else {
                items.push(format!("{child_spec}@{start}..{end}"));
            }
            start = end;
        }
        let text = format!("schedule:segments=[{}]", items.join("; "));
        assert_round_trips(&spec(text));
    }

    #[test]
    fn stochastic_specs_round_trip(
        // Random (gap, size) dist pairs with random clamps: the nested
        // `dist:` grammar — whose parameters arrive as orphan CLI pairs
        // re-associated by order — must survive the round trip.
        gap_kind in 0usize..7,
        size_kind in 0usize..5,
        a in 0.6f64..3.0,
        b in 1.0f64..500.0,
        clamp in 0u64..4,
        ports in 1u64..255,
    ) {
        let dist_of = |kind: usize| match kind {
            0 => format!("exponential:mean={b}"),
            1 => format!("uniform:low={a},high={}", a + b),
            2 => format!("constant:value={b}"),
            3 => format!("lognormal:mu={a},sigma=0.8"),
            4 => format!("weibull:shape={a},scale={b}"),
            5 => format!("pareto:alpha={},scale={b}", a + 1.0),
            _ => "poisson:lambda=400".to_owned(),
        };
        let mut gap = dist_of(gap_kind);
        // Pareto alpha<=1 has an infinite mean; the builder rejects it
        // unless clamped, and a heavy gap tail deserves one anyway.
        if clamp % 2 == 0 || gap_kind == 5 {
            gap.push_str(&format!(",max={}", b + 10_000.0));
        }
        let mut size = dist_of(size_kind);
        if clamp >= 2 {
            size.push_str(&format!(",min={},max=100000", a + b));
        }
        assert_round_trips(&spec(format!(
            "stochastic:gap={gap},size={size},ports={ports}"
        )));
    }

    #[test]
    fn stochastic_inside_schedule_segments_round_trips(
        boundary in 1u64..5_000_000,
        tail in 1u64..5_000_000,
        mean in 1.0f64..50.0,
        mu in 4.0f64..7.0,
    ) {
        // A dist-driven segment nested in the schedule list grammar:
        // the dist's commas and `=` signs must survive both the outer
        // bracket list and the inner spec split.
        let text = format!(
            "schedule:segments=[stochastic:gap=exponential:mean={mean},\
             size=lognormal:mu={mu},sigma=1.1,min=40,max=1500@0..{boundary}; \
             low@{boundary}..{}]",
            boundary + tail,
        );
        assert_round_trips(&spec(text));
    }

    #[test]
    fn nested_schedule_specs_round_trip(
        inner_len in 1u64..1_000_000,
        outer_tail in 1u64..1_000_000,
        rate in 1.0f64..4000.0,
    ) {
        // A schedule whose first segment is itself a schedule: inner
        // brackets and semicolons must survive the outer list.
        let inner_end = inner_len * 2;
        let text = format!(
            "schedule:segments=[schedule:segments=[constant:rate={rate}@0..{inner_len}; \
             low@{inner_len}..{inner_end}]@0..{inner_end}; high@{inner_end}..{}]",
            inner_end + outer_tail,
        );
        assert_round_trips(&spec(text));
    }
}
