//! Conformance tests for the dispatcher and fleet-policy entry tables:
//! every built-in resolves through the spec grammar and renders back
//! into it, names are case-insensitive, unknown names list
//! the registered alternatives and unknown parameters list the
//! accepted keys — the same `kvspec::Registry` contract `dvs::POLICIES`
//! and `traffic::TRAFFIC_MODELS` honour.

use fleet::{DispatchSpec, FleetPolicySpec, Params, SpecError, DISPATCHERS, FLEET_POLICIES};

#[test]
fn every_dispatcher_builds_with_defaults() {
    for entry in DISPATCHERS.entries() {
        let spec = DISPATCHERS
            .build(entry.name, Params::default())
            .unwrap_or_else(|e| panic!("{} failed with defaults: {e}", entry.name));
        assert_eq!(spec.name(), entry.name);
        // The rendered spec string round-trips through the CLI grammar.
        assert_eq!(DispatchSpec::parse(&spec.spec_string()).unwrap(), spec);
        // A built dispatcher reports its canonical name.
        assert_eq!(spec.build().name(), entry.name);
    }
}

#[test]
fn every_fleet_policy_builds_with_defaults() {
    for entry in FLEET_POLICIES.entries() {
        let spec = FLEET_POLICIES
            .build(entry.name, Params::default())
            .unwrap_or_else(|e| panic!("{} failed with defaults: {e}", entry.name));
        assert_eq!(spec.name(), entry.name);
        assert_eq!(FleetPolicySpec::parse(&spec.spec_string()).unwrap(), spec);
        assert_eq!(spec.build().name(), entry.name);
    }
}

#[test]
fn dispatcher_names_and_aliases_are_case_insensitive() {
    for (input, expected) in [
        ("Round-Robin", DispatchSpec::RoundRobin),
        ("RR", DispatchSpec::RoundRobin),
        ("SPRAY", DispatchSpec::RoundRobin),
        ("HASH:flows=64", DispatchSpec::Hash { flows: 64 }),
        ("Flow-Hash:flows=64", DispatchSpec::Hash { flows: 64 }),
        ("Least-Loaded", DispatchSpec::LeastLoaded { flows: 256 }),
        ("JSQ:flows=8", DispatchSpec::LeastLoaded { flows: 8 }),
        ("LL", DispatchSpec::LeastLoaded { flows: 256 }),
    ] {
        assert_eq!(
            DispatchSpec::parse(input).unwrap_or_else(|e| panic!("'{input}': {e}")),
            expected,
            "'{input}' resolved wrong"
        );
    }
}

#[test]
fn fleet_policy_names_and_aliases_are_case_insensitive() {
    for (input, expected) in [
        ("NONE", FleetPolicySpec::PassThrough),
        ("Pass-Through", FleetPolicySpec::PassThrough),
        ("passthrough", FleetPolicySpec::PassThrough),
        (
            "Static-Cap:budget=4",
            FleetPolicySpec::StaticCap { budget_w: 4.0 },
        ),
        (
            "STATIC:budget=4",
            FleetPolicySpec::StaticCap { budget_w: 4.0 },
        ),
        (
            "CAP-REALLOC:budget=6,period=100000,floor=0.4",
            FleetPolicySpec::CapRealloc {
                budget_w: 6.0,
                period_cycles: 100_000,
                floor_w: 0.4,
            },
        ),
        (
            "Realloc:budget=6",
            FleetPolicySpec::CapRealloc {
                budget_w: 6.0,
                period_cycles: 200_000,
                floor_w: 0.5,
            },
        ),
        (
            "cap-and-reallocate:budget=6",
            FleetPolicySpec::CapRealloc {
                budget_w: 6.0,
                period_cycles: 200_000,
                floor_w: 0.5,
            },
        ),
    ] {
        assert_eq!(
            FleetPolicySpec::parse(input).unwrap_or_else(|e| panic!("'{input}': {e}")),
            expected,
            "'{input}' resolved wrong"
        );
    }
}

#[test]
fn unknown_names_list_the_registered_dispatchers() {
    let err = DispatchSpec::parse("teleport").unwrap_err();
    match err {
        SpecError::UnknownName { kind, name, known } => {
            assert_eq!(kind, "dispatcher");
            assert_eq!(name, "teleport");
            for expected in ["round-robin", "hash", "least-loaded"] {
                assert!(
                    known.contains(expected),
                    "'{expected}' missing from {known}"
                );
            }
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
}

#[test]
fn unknown_names_list_the_registered_fleet_policies() {
    let err = FleetPolicySpec::parse("chaos").unwrap_err();
    match err {
        SpecError::UnknownName { kind, name, known } => {
            assert_eq!(kind, "fleet policy");
            assert_eq!(name, "chaos");
            for expected in ["none", "static-cap", "cap-realloc"] {
                assert!(
                    known.contains(expected),
                    "'{expected}' missing from {known}"
                );
            }
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
}

#[test]
fn unknown_params_list_the_accepted_keys() {
    let err = DispatchSpec::parse("hash:buckets=9").unwrap_err();
    match err {
        SpecError::UnknownParam { owner, key, known } => {
            assert_eq!(owner, "hash");
            assert_eq!(key, "buckets");
            assert!(known.contains("flows"), "accepted keys missing: {known}");
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }

    let err = FleetPolicySpec::parse("cap-realloc:watts=5").unwrap_err();
    match err {
        SpecError::UnknownParam { owner, key, known } => {
            assert_eq!(owner, "cap-realloc");
            assert_eq!(key, "watts");
            for expected in ["budget", "period", "floor"] {
                assert!(
                    known.contains(expected),
                    "'{expected}' missing from {known}"
                );
            }
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }

    // A parameter on an entry that accepts none is still an
    // UnknownParam, not a silent drop.
    assert!(matches!(
        DispatchSpec::parse("round-robin:flows=2").unwrap_err(),
        SpecError::UnknownParam { .. }
    ));
    assert!(matches!(
        FleetPolicySpec::parse("none:budget=1").unwrap_err(),
        SpecError::UnknownParam { .. }
    ));
}

#[test]
fn invalid_values_are_rejected() {
    assert!(matches!(
        DispatchSpec::parse("hash:flows=0").unwrap_err(),
        SpecError::InvalidValue { .. }
    ));
    assert!(matches!(
        DispatchSpec::parse("least-loaded:flows=lots").unwrap_err(),
        SpecError::InvalidValue { .. }
    ));
    assert!(matches!(
        FleetPolicySpec::parse("static-cap:budget=cheap").unwrap_err(),
        SpecError::InvalidValue { .. }
    ));
    assert!(matches!(
        FleetPolicySpec::parse("cap-realloc:period=sometimes").unwrap_err(),
        SpecError::InvalidValue { .. }
    ));
}

#[test]
fn display_and_fromstr_round_trip() {
    for input in ["round-robin", "hash:flows=512", "least-loaded:flows=32"] {
        let spec: DispatchSpec = input.parse().unwrap();
        assert_eq!(spec.to_string(), input);
        assert_eq!(spec.to_string().parse::<DispatchSpec>().unwrap(), spec);
    }
    for input in [
        "none",
        "static-cap:budget=7.5",
        "cap-realloc:budget=6,period=100000,floor=0.25",
    ] {
        let spec: FleetPolicySpec = input.parse().unwrap();
        assert_eq!(spec.to_string(), input);
        assert_eq!(spec.to_string().parse::<FleetPolicySpec>().unwrap(), spec);
    }
}
