//! Scalar element types supported by the IR.
//!
//! The paper targets SSE/SSE2-class multimedia extensions whose 128-bit
//! registers hold two 64-bit, four 32-bit, eight 16-bit or sixteen 8-bit
//! operands. The element type of an operand therefore determines how many
//! lanes a superword statement occupies on a given datapath.

use std::fmt;

/// The scalar element type of a variable, array element or constant.
///
/// # Examples
///
/// ```
/// use slp_ir::ScalarType;
///
/// assert_eq!(ScalarType::F32.size_bytes(), 4);
/// assert_eq!(ScalarType::F64.lanes_for_datapath(128), 2);
/// assert_eq!(ScalarType::I16.lanes_for_datapath(128), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScalarType {
    /// 8-bit signed integer.
    I8,
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
}

impl ScalarType {
    /// Width of one element of this type in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            ScalarType::I8 => 1,
            ScalarType::I16 => 2,
            ScalarType::I32 => 4,
            ScalarType::I64 => 8,
            ScalarType::F32 => 4,
            ScalarType::F64 => 8,
        }
    }

    /// Width of one element of this type in bits.
    pub(crate) fn size_bits(self) -> u32 {
        self.size_bytes() * 8
    }

    /// Number of lanes of this type that fit in a datapath of
    /// `datapath_bits` bits.
    ///
    /// Returns at least 1 even for degenerate datapaths narrower than the
    /// element itself, so callers can treat the result as a group-size cap.
    pub fn lanes_for_datapath(self, datapath_bits: u32) -> usize {
        ((datapath_bits / self.size_bits()) as usize).max(1)
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// Coerces a computed value to this element type's storage semantics:
    /// floats pass through (`f32` storage is modelled at `f64`
    /// precision) except that every NaN is stored as the one canonical
    /// [`f64::NAN`] (Rust leaves a computed NaN's sign to the code path),
    /// integer types truncate toward zero and wrap to their width,
    /// exactly once per store.
    #[inline]
    pub fn coerce(self, v: f64) -> f64 {
        match self {
            ScalarType::F32 | ScalarType::F64 if v.is_nan() => f64::NAN,
            ScalarType::F32 | ScalarType::F64 => v,
            ScalarType::I8 => (v.trunc() as i64 as i8) as f64,
            ScalarType::I16 => (v.trunc() as i64 as i16) as f64,
            ScalarType::I32 => (v.trunc() as i64 as i32) as f64,
            ScalarType::I64 => v.trunc(),
        }
    }

    /// All supported scalar types, widest float first (handy for tests).
    pub fn all() -> [ScalarType; 6] {
        [
            ScalarType::F64,
            ScalarType::F32,
            ScalarType::I64,
            ScalarType::I32,
            ScalarType::I16,
            ScalarType::I8,
        ]
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
        };
        f.write_str(s)
    }
}

impl Default for ScalarType {
    /// Defaults to [`ScalarType::F64`], the paper's dominant benchmark type
    /// (SPEC2006 floating point).
    fn default() -> Self {
        ScalarType::F64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_powers_of_two() {
        for t in ScalarType::all() {
            assert!(t.size_bytes().is_power_of_two());
        }
    }

    #[test]
    fn lanes_match_sse2_expectations() {
        // The 128-bit SSE2 lane counts quoted in the paper.
        assert_eq!(ScalarType::F64.lanes_for_datapath(128), 2);
        assert_eq!(ScalarType::F32.lanes_for_datapath(128), 4);
        assert_eq!(ScalarType::I16.lanes_for_datapath(128), 8);
        assert_eq!(ScalarType::I8.lanes_for_datapath(128), 16);
    }

    #[test]
    fn lanes_never_zero() {
        assert_eq!(ScalarType::F64.lanes_for_datapath(32), 1);
    }

    #[test]
    fn lanes_scale_with_width() {
        // Figure 18 sweeps the hypothetical datapath width up to 1024 bits.
        assert_eq!(ScalarType::F64.lanes_for_datapath(1024), 16);
        assert_eq!(ScalarType::F32.lanes_for_datapath(512), 16);
    }

    #[test]
    fn display_round_trip_names() {
        assert_eq!(ScalarType::F32.to_string(), "f32");
        assert_eq!(ScalarType::I64.to_string(), "i64");
    }

    #[test]
    fn coerce_truncates_and_wraps_integers() {
        assert_eq!(ScalarType::I32.coerce(3.9), 3.0);
        assert_eq!(ScalarType::I32.coerce(-3.9), -3.0);
        assert_eq!(ScalarType::I8.coerce(130.0), -126.0); // wraps at 8 bits
        assert_eq!(ScalarType::F64.coerce(3.9), 3.9);
        assert_eq!(ScalarType::I64.coerce(2.5), 2.0);
    }
}
