//! One declaration per persisted record.
//!
//! A flat record — a config struct, a stats struct, a counter set — is
//! declared once with [`record!`]: its fields in order, each with the
//! JSON key it is stored under and its type. That one list yields the
//! JSON encoder ([`Field::to_json`], [`Record::pairs`]), the decoder
//! ([`Field::from_json`]), the record's schema text ([`Field::schema`])
//! and, for `keyed` records, the fingerprint's field stream ([`Key`]),
//! fed straight into the key hasher with no intermediate tree.
//!
//! The format stamp ([`stamp_of`]) hashes the schema text of the whole
//! payload type: every key, field type and enum tag table reachable
//! from it. Adding, removing, renaming or retyping a declared field, or
//! extending a tag table, changes the stamp with no other edit, and a
//! payload under any other stamp reads as a miss.
//!
//! Keys are spelled out rather than `stringify!`-ed from the field name
//! so that renaming a Rust field in another crate cannot silently change
//! a cache key, a payload or a public report key.

use crate::codec::CodecError;
use crate::fingerprint::Hasher;
use crate::json::Json;

pub(crate) type Result<T> = std::result::Result<T, CodecError>;

/// A value with a JSON form and a schema description.
pub(crate) trait Field: Sized {
    /// Appends this type's schema text: the part of the format stamp
    /// that changes when the type's encoding does.
    fn schema(out: &mut String);
    /// Encodes the value.
    fn to_json(&self) -> Json;
    /// Decodes a value encoded by [`Field::to_json`].
    fn from_json(v: &Json) -> Result<Self>;
}

/// A [`Field`] declared with [`record!`]: its encoding is an object
/// whose pairs are also available unwrapped, for reports that splice a
/// record's fields into a larger row.
pub(crate) trait Record {
    /// `(key, encoded value)` per declared field, in declared order.
    fn pairs(&self) -> Vec<(&'static str, Json)>;
}

/// A value that is part of the cache key: streams itself into the
/// fingerprint hasher. Deliberately separate from [`Field`], so a config
/// field of a type that cannot be keyed is a compile error instead of a
/// silent wrong-kernel hit.
pub(crate) trait Key {
    /// Feeds a rendering of the value that distinguishes any two
    /// distinct values.
    fn key(&self, h: &mut Hasher);
}

/// Decodes the field stored under `key` of object `v`, naming the key in
/// any error.
pub(crate) fn field<T: Field>(v: &Json, key: &str) -> Result<T> {
    let value = v
        .get(key)
        .ok_or_else(|| CodecError(format!("missing key '{key}'")))?;
    T::from_json(value).map_err(|e| CodecError(format!("'{key}': {}", e.0)))
}

/// Encodes a sequence as a JSON array.
pub(crate) fn arr<'a, T: Field + 'a>(items: impl IntoIterator<Item = &'a T>) -> Json {
    Json::Arr(items.into_iter().map(Field::to_json).collect())
}

/// The format stamp of payload type `T`: 16 hex digits of the key hash
/// of its schema text.
pub(crate) fn stamp_of<T: Field>() -> String {
    let mut schema = String::new();
    T::schema(&mut schema);
    let mut h = Hasher::new();
    h.write(schema.as_bytes());
    format!("{:016x}", h.finish().0)
}

/// Declares a record: `Type { "key" = field: FieldType, ... }`, in the
/// order the fields are stored. `keyed` additionally derives [`Key`]
/// (every field type must then be `Key`). A trailing
/// `with { field: expr, ... }` fills struct fields that are not
/// persisted; the expressions may name the decoded fields.
macro_rules! record {
    (keyed $ty:ident { $($key:literal = $field:ident : $fty:ty),* $(,)? } $($with:tt)*) => {
        record!($ty { $($key = $field : $fty),* } $($with)*);
        impl $crate::record::Key for $ty {
            fn key(&self, h: &mut $crate::fingerprint::Hasher) {
                h.write(b"{");
                $(h.field($key, &self.$field);)*
                h.write(b"}");
            }
        }
    };
    ($ty:ident { $($key:literal = $field:ident : $fty:ty),* $(,)? }
     $(with { $($rest:ident : $fill:expr),* $(,)? })?) => {
        impl $crate::record::Record for $ty {
            fn pairs(&self) -> Vec<(&'static str, $crate::json::Json)> {
                vec![$(($key, $crate::record::Field::to_json(&self.$field))),*]
            }
        }
        impl $crate::record::Field for $ty {
            fn schema(out: &mut String) {
                out.push('{');
                $(
                    out.push_str($key);
                    out.push(':');
                    <$fty as $crate::record::Field>::schema(out);
                    out.push(',');
                )*
                out.push('}');
            }
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj($crate::record::Record::pairs(self))
            }
            fn from_json(v: &$crate::json::Json) -> $crate::record::Result<Self> {
                $(let $field: $fty = $crate::record::field(v, $key)?;)*
                Ok($ty { $($field,)* $($($rest: $fill,)*)? })
            }
        }
    };
}

/// Declares an enum stored as a string tag, from the variant list and
/// name function the type already owns. The tag table is part of the
/// schema, so a new variant changes the stamp.
macro_rules! tags {
    ($ty:ty, $all:expr, $name:expr) => {
        impl $crate::record::Field for $ty {
            fn schema(out: &mut String) {
                out.push_str("tag(");
                for v in $all {
                    out.push_str($name(v).as_ref());
                    out.push('|');
                }
                out.push(')');
            }
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::str($name(*self))
            }
            fn from_json(v: &$crate::json::Json) -> $crate::record::Result<Self> {
                let tag = v
                    .string()
                    .ok_or_else(|| $crate::codec::CodecError("not a string tag".into()))?;
                $all.into_iter()
                    .find(|x| $name(*x) == tag)
                    .ok_or_else(|| $crate::codec::CodecError(format!("unknown tag '{tag}'")))
            }
        }
    };
}

/// Implements [`Key`] per type from how a value feeds the hasher, which
/// must tell any two distinct values apart.
macro_rules! keys {
    ($($ty:ty: |$x:ident, $h:ident| $feed:expr;)*) => {$(
        impl $crate::record::Key for $ty {
            fn key(&self, $h: &mut $crate::fingerprint::Hasher) {
                let $x = self;
                $feed
            }
        }
    )*};
}

pub(crate) use {keys, record, tags};

// ---- leaves ------------------------------------------------------------------

/// Implements [`Field`] for a leaf type from its [`Json`] constructor
/// and accessor; the type's name is its schema.
macro_rules! leaf {
    ($($ty:ident: $to:expr, $from:expr;)*) => {$(
        impl Field for $ty {
            fn schema(out: &mut String) {
                out.push_str(stringify!($ty));
            }
            fn to_json(&self) -> Json {
                $to(self)
            }
            fn from_json(v: &Json) -> Result<Self> {
                $from(v).ok_or_else(|| CodecError(concat!("not a ", stringify!($ty)).into()))
            }
        }
    )*};
}

leaf! {
    f64: |x: &f64| Json::float(*x), Json::f64;
    bool: |x: &bool| Json::Bool(*x), Json::bool;
    String: |x: &String| Json::str(x.as_str()), |v: &Json| v.string().map(str::to_string);
    u64: |x: &u64| Json::Num(*x as f64), Json::u64;
    i64: |x: &i64| Json::Num(*x as f64), Json::i64;
    u32: |x: &u32| Json::Num(f64::from(*x)), |v: &Json| v.u64().and_then(|n| n.try_into().ok());
    usize: |x: &usize| Json::Num(*x as f64), |v: &Json| v.u64().and_then(|n| n.try_into().ok());
}

impl<T: Field> Field for Vec<T> {
    fn schema(out: &mut String) {
        out.push('[');
        T::schema(out);
        out.push(']');
    }
    fn to_json(&self) -> Json {
        arr(self)
    }
    fn from_json(v: &Json) -> Result<Self> {
        v.array()
            .ok_or_else(|| CodecError("not an array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: Field> Field for Option<T> {
    fn schema(out: &mut String) {
        out.push('?');
        T::schema(out);
    }
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::to_json)
    }
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn schema(out: &mut String) {
        out.push('(');
        A::schema(out);
        out.push(',');
        B::schema(out);
        out.push(')');
    }
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(v: &Json) -> Result<Self> {
        match v.array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(CodecError("not a pair".into())),
        }
    }
}

// A number is keyed as one 64-bit word, never rendered; a float by its
// bits, so any two distinct values (`-0.0` and `0.0` included) key apart.
keys! {
    u64: |x, h| h.feed(*x, 8);
    u32: |x, h| h.feed(u64::from(*x), 8);
    usize: |x, h| h.feed(*x as u64, 8);
    bool: |x, h| h.feed(u64::from(*x), 8);
    f64: |x, h| h.feed(x.to_bits(), 8);
    str: |s, h| h.write(s.as_bytes());
    String: |s, h| h.write(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    struct A {
        x: u64,
        y: f64,
    }
    record!(A { "x" = x: u64, "y" = y: f64 });

    /// `A` with one field retyped.
    struct Retyped {
        x: u64,
        y: u64,
    }
    record!(Retyped { "x" = x: u64, "y" = y: u64 });

    /// `A` with one field stored under another key.
    struct Renamed {
        x: u64,
        y: f64,
    }
    record!(Renamed { "x" = x: u64, "why" = y: f64 });

    /// `A` with one field added.
    struct Extended {
        x: u64,
        y: f64,
        z: bool,
    }
    record!(Extended { "x" = x: u64, "y" = y: f64, "z" = z: bool });

    #[test]
    fn any_single_field_difference_changes_the_stamp() {
        let stamps = [
            stamp_of::<A>(),
            stamp_of::<Retyped>(),
            stamp_of::<Renamed>(),
            stamp_of::<Extended>(),
            // Nesting is part of the schema too.
            stamp_of::<Vec<A>>(),
            stamp_of::<Option<A>>(),
        ];
        for (i, a) in stamps.iter().enumerate() {
            assert_eq!(a.len(), 16);
            for b in &stamps[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // The stamp is a pure function of the declaration.
        assert_eq!(stamp_of::<A>(), stamps[0]);
    }

    #[test]
    fn records_round_trip_and_name_the_offending_key() {
        let a = A { x: 7, y: -0.0 };
        let back = A::from_json(&a.to_json()).expect("decodes");
        assert_eq!(back.x, 7);
        assert!(back.y == 0.0 && back.y.is_sign_negative());
        assert_eq!(a.pairs()[0], ("x", Json::num(7)));

        let nulled = Json::obj([("x", Json::num(1)), ("y", Json::Null)]);
        let err = A::from_json(&nulled).err().expect("null is not a number");
        assert_eq!(err.0, "'y': not a f64");
        let err = Extended::from_json(&a.to_json()).err().expect("z absent");
        assert_eq!(err.0, "missing key 'z'");
    }
}
