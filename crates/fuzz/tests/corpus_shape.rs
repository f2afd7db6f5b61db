//! Guards the shape of the minimized reproducer corpus. Every file under
//! `crates/fuzz/corpus/` is a bug the campaign found and the pipeline
//! fixed; the replay itself is the workspace root's
//! `tests/fuzz_regressions.rs` (tier-1), this file keeps the corpus from
//! quietly losing a bug class.

#[test]
fn corpus_covers_every_bug_class() {
    // Guards against the corpus being emptied or a class being dropped:
    // the campaign surfaced round-trip, compile-panic, and
    // state-divergence bugs, and at least one reproducer of each must
    // stay checked in.
    let dir = slp_fuzz::default_corpus_dir();
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    for class in ["round-trip", "panic", "state-divergence"] {
        assert!(
            names.iter().any(|n| n.starts_with(class)),
            "no {class} reproducer in corpus: {names:?}"
        );
    }
    // The if-conversion reproducers are promoted by hand, not by the
    // campaign writer; make sure a branchy case of each flavor stays in.
    assert!(
        names.iter().any(|n| n.contains("-branchy-")),
        "no branchy reproducer in corpus: {names:?}"
    );
}
