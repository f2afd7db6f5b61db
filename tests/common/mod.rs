//! Helpers shared by the integration tests that pin recorded output.

/// FNV-1a over `text`: a stable, dependency-free fingerprint for golden
/// values too long to spell out.
pub(crate) fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The sixteen suite kernels followed by the four branchy ones, at scale
/// 1: the order the recorded tables are in.
pub(crate) fn suite_and_branchy() -> Vec<slp::ir::Program> {
    let mut programs: Vec<_> = slp::suite::all(1).into_iter().map(|(_, p)| p).collect();
    for name in slp::suite::branchy_catalog() {
        programs.push(slp::suite::branchy_kernel(name, 1));
    }
    programs
}
