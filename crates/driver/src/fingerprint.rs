//! Content-addressed cache keys.
//!
//! A compilation is a pure function of (source text, configuration,
//! compiler version): the pipeline has no other inputs, no randomness
//! and no environment dependence. The cache can therefore address
//! compiled kernels by a [`Fingerprint`] of exactly those three things.
//!
//! The fingerprint is a 128-bit multiply-rotate hash: two independent
//! 64-bit streams (own seed, multiplier and rotation each) over the same
//! canonical byte string, taken eight bytes per multiply, closed by a
//! length-tagged tail and an avalanche round — not cryptographic, but
//! collision-safe for cache purposes at any realistic corpus size, and
//! fully deterministic across processes and platforms, which is what
//! lets the on-disk tier survive process restarts.
//!
//! What goes into the key of [`crate::CompileRequest::fingerprint`]:
//!
//! * the crate version — a new compiler silently invalidates every old
//!   entry rather than replaying stale kernels,
//! * the source text, byte for byte,
//! * every persisted field of [`SlpConfig`]: the key is the field stream
//!   of the same record declaration the cache codec encodes and decodes
//!   (see [`crate::record`]), so a knob the payload carries can never be
//!   missing from the key.
//!
//! The [`SlpConfig::packer`] is deliberately *excluded* (it is not a
//! declared field): the driver always installs the same solver for
//! `Strategy::Optimal`, and the solver's *budgets* (which do change the
//! packing) are declared fields. The driver's own verification level is keyed separately (it
//! changes the cached `Report`), via [`fingerprint_with_tag`].

use std::fmt;

use slp_core::SlpConfig;

use crate::json::push_hex;
use crate::record::Key;

/// A 128-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// The 32-hex-digit rendering used as the on-disk file stem.
    pub fn to_hex(self) -> String {
        let mut hex = String::with_capacity(32);
        push_hex(&mut hex, self.0, 16);
        push_hex(&mut hex, self.1, 16);
        hex
    }

    /// Parses [`Fingerprint::to_hex`] output.
    pub(crate) fn from_hex(s: &str) -> Option<Fingerprint> {
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

/// Seed, odd multiplier and rotation of each stream: the two FNV offset
/// bases this key used to start from, then the 64-bit golden ratio and
/// MurmurHash3's first finalizer constant.
const STREAMS: [(u64, u64, u32); 2] = [
    (0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15, 23),
    (0x9ae1_6a3b_2f90_404f, 0xff51_afd7_ed55_8ccd, 29),
];

/// The two-stream hash state. Input is consumed a little-endian word at
/// a time; bytes that do not fill a word yet wait in `pending`, so the
/// value is a function of the byte string alone, not of how the [`Key`]
/// impls cut it into writes.
pub(crate) struct Hasher {
    streams: [u64; 2],
    /// The next word's low `len % 8` bytes; the rest is zero.
    pending: u64,
    /// Bytes written so far.
    len: u64,
}

impl Hasher {
    pub(crate) fn new() -> Self {
        Hasher {
            streams: STREAMS.map(|(seed, ..)| seed),
            pending: 0,
            len: 0,
        }
    }

    /// One multiply per stream. The rotation brings the product's
    /// well-mixed high bits down to where the next multiply spreads them.
    fn word(&mut self, w: u64) {
        for (state, (_, multiplier, rotation)) in self.streams.iter_mut().zip(STREAMS) {
            *state = (*state ^ w).wrapping_mul(multiplier).rotate_left(rotation);
        }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.feed(u64::from_le_bytes(w.try_into().expect("chunk of eight")), 8);
        }
        let tail = words.remainder();
        let word = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        self.feed(word, tail.len() as u32);
    }

    /// Writes the low `n <= 8` bytes of `w` (its other bytes are zero):
    /// they fill up the pending word, and what does not fit starts the
    /// next one. A number is keyed as `feed(x, 8)`, never rendered: half
    /// the time of writing its eight bytes as a slice.
    pub(crate) fn feed(&mut self, w: u64, n: u32) {
        let held = (self.len % 8) as u32;
        self.len += u64::from(n);
        self.pending |= w << (8 * held);
        if held + n >= 8 {
            let rest = w.checked_shr(8 * (8 - held)).unwrap_or(0);
            let full = std::mem::replace(&mut self.pending, rest);
            self.word(full);
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

    /// Closes the streams with the zero-padded tail, its free top byte
    /// tagged with the byte count (a tail of zero bytes is not no tail),
    /// and MurmurHash3's avalanche, so every input bit reaches every key
    /// bit — the cache picks its shard from the low ones.
    pub(crate) fn finish(mut self) -> Fingerprint {
        let tail = self.pending | self.len << 56;
        self.word(tail);
        let [a, b] = self.streams.map(|mut x| {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        });
        Fingerprint(a, b)
    }
}

/// Computes the cache key of compiling `source` under `config` with this
/// crate version, with an extra caller-chosen tag mixed in.
///
/// The driver uses the tag for request dimensions that change the cached
/// *payload* without changing the kernel — the verification level, whose
/// `Report` is stored alongside the kernel.
pub(crate) fn fingerprint_with_tag(source: &str, config: &SlpConfig, tag: &str) -> Fingerprint {
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

    fn hash(writes: &[&[u8]]) -> Fingerprint {
        let mut h = Hasher::new();
        for bytes in writes {
            h.write(bytes);
        }
        h.finish()
    }

    #[test]
    fn the_key_does_not_depend_on_how_writes_are_split() {
        let whole = hash(&[b"abcdefghi"]);
        assert_eq!(hash(&[b"abcd", b"efghi"]), whole);
        assert_eq!(hash(&[b"", b"a", b"bcdefgh", b"", b"i"]), whole);
        let long = b"0123456789abcdefghijklmnopqrstuvwxyz";
        for cut in 0..=long.len() {
            assert_eq!(hash(&[&long[..cut], &long[cut..]]), hash(&[long]), "{cut}");
        }
    }

    #[test]
    fn prefixes_hash_apart_on_both_streams() {
        // Zero bytes too: only the length tag tells those tails apart.
        for text in [&b"kernel k { array A"[..17], &[0u8; 17][..]] {
            let keys: Vec<Fingerprint> = (0..=17).map(|n| hash(&[&text[..n]])).collect();
            for (i, x) in keys.iter().enumerate() {
                for y in &keys[i + 1..] {
                    assert!(x.0 != y.0 && x.1 != y.1, "{x} vs {y}");
                }
            }
        }
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

        // Solver anytime budgets (each dimension separately).
        let c = base_config().with_opt_budget(7, 1 << 20);
        assert_ne!(fingerprint(src, &c), base);
        let c = base_config().with_opt_budget(500, 7);
        assert_ne!(fingerprint(src, &c), base);

        // Verification tag.
        assert_ne!(fingerprint_with_tag(src, &base_config(), "full"), base);
    }

    #[test]
    fn an_installed_packer_does_not_change_the_key() {
        let src = "kernel k { array A: f64[8]; for i in 0..8 { A[i] = A[i] + 1.0; } }";
        let packed = base_config().with_packer(slp_opt::OptimalPacker);
        assert_eq!(fingerprint(src, &packed), fingerprint(src, &base_config()));
    }
}
