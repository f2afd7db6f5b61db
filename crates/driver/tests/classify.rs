//! How the driver's one frontend run classifies a source, pinned through
//! both public entry points: the same table must come out of
//! [`compile_source`] (trusted) and [`compile_guarded`] (under
//! `catch_unwind` and a budget).

use slp_core::{AccessVerdict, MachineConfig, SlpConfig, Strategy};
use slp_driver::{
    compile_guarded, compile_source, CompileCache, CompileOutcome, CompileRequest, DriverError,
    VerifyLevel,
};

#[derive(Debug, PartialEq)]
enum Class {
    Ok,
    Parse,
    Invalid,
    Unsafe,
}

const TABLE: [(&str, &str, Class); 4] = [
    (
        "safe",
        "kernel k { array A: f64[8]; for i in 0..8 { A[i] = 2.0; } }",
        Class::Ok,
    ),
    ("garbage", "kernel {", Class::Parse),
    (
        "bounds only",
        "kernel k { array A: f64[8]; for i in 0..8 { A[i+1] = 2.0; } }",
        Class::Unsafe,
    ),
    (
        "bounds and a bad extent",
        "kernel k { array A: f64[8]; array Z: f64[0]; for i in 0..8 { A[i+1] = 2.0; } }",
        Class::Invalid,
    ),
];

fn classify(what: &str, result: Result<CompileOutcome, DriverError>) -> Class {
    match result {
        Ok(_) => Class::Ok,
        Err(DriverError::Parse(_)) => Class::Parse,
        Err(DriverError::Invalid(errors)) => {
            assert!(errors.len() >= 2, "{what}: every error is reported");
            Class::Invalid
        }
        Err(DriverError::Unsafe(accesses)) => {
            // The payload names the faulting access and nothing else.
            assert_eq!(accesses.len(), 1, "{what}: {accesses:?}");
            let a = &accesses[0];
            assert_eq!(a.verdict, AccessVerdict::ProvenFaulting);
            assert!(a.is_write);
            assert!(a.detail.contains("'A' dimension 0"), "{what}: {}", a.detail);
            Class::Unsafe
        }
        Err(other) => panic!("{what}: unexpected {other}"),
    }
}

#[test]
fn both_entry_points_classify_a_source_the_same_way() {
    let cache = CompileCache::in_memory(8);
    for (what, source, expect) in TABLE {
        let req = CompileRequest {
            name: what.to_string(),
            source: source.to_string(),
            config: SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic),
            verify: VerifyLevel::Static,
        };
        assert_eq!(classify(what, compile_source(&req, None)), expect, "{what}");
        assert_eq!(
            classify(what, compile_guarded(&req, Some(&cache), Some(10_000))),
            expect,
            "{what}"
        );
    }
    // Only the safe kernel was stored; rejections leave no entry behind.
    assert_eq!(cache.stats().stores, 1);
}
