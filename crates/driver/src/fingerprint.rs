//! Content-addressed cache keys.
//!
//! A compilation is a pure function of (source text, configuration,
//! compiler version): the pipeline has no other inputs, no randomness
//! and no environment dependence. The cache can therefore address
//! compiled kernels by a [`Fingerprint`] of exactly those three things.
//!
//! The fingerprint is a 128-bit FNV-1a hash (two independent 64-bit
//! streams over the same canonical byte string) — not cryptographic,
//! but collision-safe for cache purposes at any realistic corpus size,
//! and fully deterministic across processes and platforms, which is
//! what lets the on-disk tier survive process restarts.
//!
//! What goes into the key (see [`fingerprint`]):
//!
//! * the crate version — a new compiler silently invalidates every old
//!   entry rather than replaying stale kernels,
//! * the source text, byte for byte,
//! * every persisted field of [`SlpConfig`]: the key is the field stream
//!   of the same record declaration the cache codec encodes and decodes
//!   (see [`crate::record`]), so a knob the payload carries can never be
//!   missing from the key.
//!
//! The [`SlpConfig::verify`] hook is deliberately *excluded* (it is not
//! a declared field): it cannot change the produced kernel, only panic
//! on a bad one. The [`SlpConfig::packer`] handle is likewise excluded —
//! the driver always installs the same solver for `Strategy::Optimal`,
//! and the solver's *budgets* (which do change the packing) are declared
//! fields. The driver's own verification level is keyed separately (it
//! changes the cached `Report`), via [`fingerprint_with_tag`].

use std::fmt;

use slp_core::SlpConfig;

use crate::record::Key;

/// A 128-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// The 32-hex-digit rendering used as the on-disk file stem.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parses [`Fingerprint::to_hex`] output.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint(hi, lo))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
// A second, independent stream: same prime, different offset basis
// (the FNV-0 hash of "slp-driver").
const FNV_OFFSET_B: u64 = 0x9ae1_6a3b_2f90_404f;

/// The two-stream FNV-1a state. [`fmt::Write`] lets numbers stream in
/// through `write!` without an intermediate `String`.
pub(crate) struct Hasher {
    a: u64,
    b: u64,
}

impl Hasher {
    pub(crate) fn new() -> Self {
        Hasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Writes a field with a separator so concatenations cannot collide
    /// (`("ab", "c")` hashes differently from `("a", "bc")`).
    pub(crate) fn field(&mut self, name: &str, value: &(impl Key + ?Sized)) {
        self.write(name.as_bytes());
        self.write(b"=");
        value.key(self);
        self.write(b"\x1f");
    }

    pub(crate) fn finish(self) -> Fingerprint {
        Fingerprint(self.a, self.b)
    }
}

impl fmt::Write for Hasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Computes the cache key of compiling `source` under `config` with this
/// crate version, with an extra caller-chosen tag mixed in.
///
/// The driver uses the tag for request dimensions that change the cached
/// *payload* without changing the kernel — the verification level, whose
/// `Report` is stored alongside the kernel.
pub fn fingerprint_with_tag(source: &str, config: &SlpConfig, tag: &str) -> Fingerprint {
    let mut h = Hasher::new();
    h.field("version", env!("CARGO_PKG_VERSION"));
    h.field("tag", tag);
    h.field("source", source);
    h.field("config", config);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{MachineConfig, Strategy};

    fn base_config() -> SlpConfig {
        SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic)
    }

    fn fingerprint(source: &str, config: &SlpConfig) -> Fingerprint {
        fingerprint_with_tag(source, config, "")
    }

    #[test]
    fn hex_roundtrips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
    }

    #[test]
    fn identical_inputs_agree() {
        let src = "kernel k { array A: f64[8]; for i in 0..8 { A[i] = A[i] + 1.0; } }";
        assert_eq!(
            fingerprint(src, &base_config()),
            fingerprint(src, &base_config())
        );
    }

    #[test]
    fn each_dimension_changes_the_key() {
        let src = "kernel k { array A: f64[8]; for i in 0..8 { A[i] = A[i] + 1.0; } }";
        let base = fingerprint(src, &base_config());

        // Source text.
        let src2 = "kernel k { array A: f64[8]; for i in 0..8 { A[i] = A[i] + 2.0; } }";
        assert_ne!(fingerprint(src2, &base_config()), base);

        // Strategy.
        let mut c = base_config();
        c.strategy = Strategy::Baseline;
        assert_ne!(fingerprint(src, &c), base);

        // Machine.
        let c = SlpConfig::for_machine(MachineConfig::amd_phenom_ii(), Strategy::Holistic);
        assert_ne!(fingerprint(src, &c), base);

        // Layout flag.
        let c = base_config().with_layout();
        assert_ne!(fingerprint(src, &c), base);

        // Unroll factor.
        let mut c = base_config();
        c.unroll = 4;
        assert_ne!(fingerprint(src, &c), base);

        // Range-refined dependence flag.
        let c = base_config().with_refined_deps();
        assert_ne!(fingerprint(src, &c), base);

        // Solver anytime budgets (each dimension separately).
        let c = base_config().with_opt_budget(7, 1 << 20);
        assert_ne!(fingerprint(src, &c), base);
        let c = base_config().with_opt_budget(500, 7);
        assert_ne!(fingerprint(src, &c), base);

        // Verification tag.
        assert_ne!(fingerprint_with_tag(src, &base_config(), "full"), base);
    }

    #[test]
    fn verify_hook_does_not_change_the_key() {
        let src = "kernel k { array A: f64[8]; for i in 0..8 { A[i] = A[i] + 1.0; } }";
        let hooked = base_config().with_verifier(slp_verify::pipeline_hook);
        assert_eq!(fingerprint(src, &hooked), fingerprint(src, &base_config()));
    }
}
