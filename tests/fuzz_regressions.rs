//! Tier-1 gate on the fuzzing campaign's findings: the minimized
//! reproducer corpus under `crates/fuzz/corpus/` must replay clean
//! through every oracle of `slp_fuzz::oracle`.

#[test]
fn fuzz_corpus_replays_clean() {
    let dir = slp_fuzz::default_corpus_dir();
    let failures = slp_fuzz::replay_corpus(&dir).expect("read corpus dir");
    assert!(
        failures.is_empty(),
        "fuzz corpus regressions:\n{}",
        failures
            .iter()
            .map(|(name, a)| format!("  {name}: {}\n    {}", a.headline(), a.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn short_campaign_stays_clean() {
    // A fresh 100-iteration two-level campaign (distinct from the
    // checked-in corpus) must not surface new oracle violations.
    let cfg = slp_fuzz::FuzzConfig::new(7, 100);
    let (stats, failures) = slp_fuzz::run_campaign(&cfg);
    assert_eq!(stats.cases, 200);
    assert!(
        failures.is_empty(),
        "new oracle violations: {:?}",
        failures
            .iter()
            .map(|f| (f.case.clone(), f.anomaly.headline(), f.source.clone()))
            .collect::<Vec<_>>()
    );
}
