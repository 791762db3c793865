//! Field tables: every durable record in the workspace, declared once.
//!
//! A record's layout is one table, its fields in wire order, written
//! with [`record!`](crate::record) (a struct) or
//! [`variants!`](crate::variants) (an enum of struct-like variants);
//! every codec of the record is derived from it, from one [`Field`]
//! impl per value type. The trace schema (`schema.rs`), the daemon
//! checkpoint body (`faircrowd_core::checkpoint`) and the sweep part
//! file (`faircrowd::sweep::shard`) are declared so. A format writes by
//! hand only its magic or schema stamp, its version gate and its
//! integrity checks; a value it spells its own way is a type with its
//! own `Field` impl, never an option on a table.
//!
//! The spellings every format shares: a JSON member's key is the Rust
//! field name; an `Option` field is an omitted JSON member and, in
//! binary, a bit of one presence byte written before the record's first
//! optional field; a [`Named`](crate::codec::Named) value is its name in
//! JSON and its index as one binary byte; a collection is a JSON array
//! and, in binary, a varint count and its items, where an [`IdSet`]'s
//! ids and a [`DenseIdMap`]'s keys are each stored as the gap past the
//! previous one. Decoding never panics: an error names the record
//! ([`RecordCtx`]) and the field, or the field and the byte offset; a
//! hand-written gate reads a JSON member through [`At`] in the same
//! words.

use crate::arena::{ArenaKey, DenseIdMap, IdSet};
use crate::codec::{put_f64, put_i64, put_str, put_u64, Cursor};
use crate::error::FaircrowdError;
use crate::json::Json;
use std::fmt;

// ---------------------------------------------------------------------
// Value spellings
// ---------------------------------------------------------------------

/// One value type's spellings: JSON value, JSON tree decode,
/// canonical-line decode, binary bytes and binary decode.
pub trait Field: Sized {
    /// The JSON value.
    fn to_json(&self) -> Json;
    /// Decode a JSON tree value; `at` names the record and field in
    /// errors.
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError>;
    /// Decode the value next on a canonical JSONL line; `None` at the
    /// first byte off the writer's layout. A type without a line reader
    /// keeps this default, and a record holding it takes the tree
    /// decode.
    fn scan(_s: &mut Scan<'_>) -> Option<Self> {
        None
    }
    /// Append the binary bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Read the binary bytes; `what` names the value in errors.
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError>;
}

/// How a field sits in a record: every [`Field`] as a required member,
/// and `Option<Field>` as one that may be absent. The table macros call
/// it; nothing else needs to.
pub trait Member: Sized {
    /// Whether the member may be absent.
    const OPTIONAL: bool;
    /// `Some(present)` for an optional member, `None` for a required one.
    fn presence(&self) -> Option<bool>;
    /// Append the JSON member `key`.
    fn put_member(&self, key: &str, members: &mut Vec<(String, Json)>);
    /// Decode member `at.key` of the JSON object `record`.
    fn member_from_json(record: &Json, at: At<'_>) -> Result<Self, FaircrowdError>;
    /// Scan the member; `key` is its `,"name":` prefix, whose comma a
    /// record's first member goes without (`first` tracks that).
    fn scan_member(s: &mut Scan<'_>, key: &'static str, first: &mut bool) -> Option<Self>;
    /// Append the member's binary bytes; the record's presence byte
    /// `mask` goes out before its first optional member.
    fn put_in(&self, out: &mut Vec<u8>, mask: &mut Option<u8>);
    /// Read the member's binary bytes.
    fn get_in(cur: &mut Cursor<'_>, what: &str, mask: &mut Mask) -> Result<Self, FaircrowdError>;
}

impl<T: Field> Member for T {
    const OPTIONAL: bool = false;

    #[inline]
    fn presence(&self) -> Option<bool> {
        None
    }

    #[inline]
    fn put_member(&self, key: &str, members: &mut Vec<(String, Json)>) {
        members.push((key.to_owned(), self.to_json()));
    }

    #[inline]
    fn member_from_json(record: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        T::from_json(at.member(record)?, at)
    }

    #[inline]
    fn scan_member(s: &mut Scan<'_>, key: &'static str, first: &mut bool) -> Option<Self> {
        T::scan(s.key(key, first)?)
    }

    #[inline]
    fn put_in(&self, out: &mut Vec<u8>, _mask: &mut Option<u8>) {
        self.put(out);
    }

    #[inline]
    fn get_in(cur: &mut Cursor<'_>, what: &str, _mask: &mut Mask) -> Result<Self, FaircrowdError> {
        T::get(cur, what)
    }
}

impl<T: Field> Member for Option<T> {
    const OPTIONAL: bool = true;

    #[inline]
    fn presence(&self) -> Option<bool> {
        Some(self.is_some())
    }

    #[inline]
    fn put_member(&self, key: &str, members: &mut Vec<(String, Json)>) {
        if let Some(value) = self {
            value.put_member(key, members);
        }
    }

    #[inline]
    fn member_from_json(record: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        record
            .get(at.key)
            .map(|json| T::from_json(json, at))
            .transpose()
    }

    #[inline]
    fn scan_member(s: &mut Scan<'_>, key: &'static str, first: &mut bool) -> Option<Self> {
        match s.key(key, first) {
            Some(s) => T::scan(s).map(Some),
            None => Some(None),
        }
    }

    #[inline]
    fn put_in(&self, out: &mut Vec<u8>, mask: &mut Option<u8>) {
        if let Some(bits) = mask.take() {
            out.push(bits);
        }
        if let Some(value) = self {
            value.put(out);
        }
    }

    #[inline]
    fn get_in(cur: &mut Cursor<'_>, what: &str, mask: &mut Mask) -> Result<Self, FaircrowdError> {
        match mask.next(cur)? {
            true => T::get(cur, what).map(Some),
            false => Ok(None),
        }
    }
}

/// The presence byte of a record's members, or `None` for a record with
/// no optional member.
#[doc(hidden)]
#[inline]
pub fn mask_of(presence: &[Option<bool>]) -> Option<u8> {
    let mut mask = None;
    for (bit, present) in presence.iter().flatten().enumerate() {
        *mask.get_or_insert(0) |= u8::from(*present) << bit;
    }
    mask
}

/// The most optional fields one record (or variant) may declare: their
/// presence bits share one byte, whose read limit `1 << optionals` must
/// itself fit a byte. The table macros refuse more at compile time.
pub const MAX_OPTIONALS: u8 = 7;

/// A record's presence byte on the read side, read at its first
/// optional member.
pub struct Mask {
    optionals: u8,
    bits: Option<u8>,
    next: u8,
}

impl Mask {
    /// The mask of a record with `optionals` optional members.
    #[doc(hidden)]
    #[inline]
    pub fn new(optionals: u8) -> Self {
        Mask {
            optionals,
            bits: None,
            next: 0,
        }
    }

    /// Whether the next optional member is present.
    #[inline]
    fn next(&mut self, cur: &mut Cursor<'_>) -> Result<bool, FaircrowdError> {
        let bits = match self.bits {
            Some(bits) => bits,
            None => *self
                .bits
                .insert(cur.u8tag("presence mask", 1 << self.optionals)?),
        };
        self.next += 1;
        Ok(bits >> (self.next - 1) & 1 == 1)
    }
}

impl Field for u64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::uint(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_u64()
            .ok_or_else(|| at.shape("an unsigned integer", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        s.number()
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.u64(what)
    }
}

/// The unsigned integers other than `u64`: JSON numbers and, in binary,
/// varints, read as `u64` and then narrowed — except `u8`, which is one
/// raw byte.
macro_rules! narrow_uint {
    ($($t:ty, $fits:literal, |$cur:ident, $what:ident| $get:expr, |$v:ident, $out:ident| $put:expr;)+) => {$(
        impl Field for $t {
            #[inline]
            fn to_json(&self) -> Json {
                Json::uint(*self as u64)
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                let raw = u64::from_json(json, at)?;
                <$t>::try_from(raw)
                    .map_err(|_| at.err(format_args!("= {raw} does not fit {}", $fits)))
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                <$t>::try_from(s.number::<u64>()?).ok()
            }
            #[inline]
            fn put(&self, $out: &mut Vec<u8>) {
                let $v = *self;
                $put
            }
            #[inline]
            fn get($cur: &mut Cursor<'_>, $what: &str) -> Result<Self, FaircrowdError> {
                $get
            }
        }
    )+};
}

narrow_uint! {
    usize, "a count", |cur, what| cur.count(what), |v, out| put_u64(out, v as u64);
    u32, "an id", |cur, what| cur.id32(what), |v, out| put_u64(out, u64::from(v));
    u16, "u16", |cur, what| {
        let raw = cur.u64(what)?;
        u16::try_from(raw).map_err(|_| cur.err(format_args!("{what} {raw} overflows u16")))
    }, |v, out| put_u64(out, u64::from(v));
    u8, "a byte", |cur, what| cur.byte(what), |v, out| out.push(v);
}

impl Field for i64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::int(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_i64().ok_or_else(|| at.shape("an integer", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        s.number()
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_i64(out, *self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.i64(what)
    }
}

impl Field for f64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::float(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_f64().ok_or_else(|| at.shape("a number", json))
    }
    /// A number token, or a non-finite spelling of [`Json::float`].
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        if !s.rest().starts_with(b"\"") {
            return s.number();
        }
        match s.string()? {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        }
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.f64(what)
    }
}

impl Field for bool {
    #[inline]
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_bool().ok_or_else(|| at.shape("a boolean", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        if s.eat("true") {
            Some(true)
        } else {
            s.eat("false").then_some(false)
        }
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.bool(what)
    }
}

impl Field for String {
    #[inline]
    fn to_json(&self) -> Json {
        Json::str(self.clone())
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| at.shape("a string", json))
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        s.string().map(str::to_owned)
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        cur.string(what)
    }
}

/// A boxed string (an event's rare text payload) is spelled as the
/// string. `Box<str>` would be a fat pointer, two words, and widen the
/// event it sits in.
impl Field for Box<String> {
    #[inline]
    fn to_json(&self) -> Json {
        String::to_json(self)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        String::from_json(json, at).map(Box::new)
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        String::scan(s).map(Box::new)
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        String::put(self, out);
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        String::get(cur, what).map(Box::new)
    }
}

/// A tuple: a JSON array of its values; in binary the values in turn.
macro_rules! tuple_fields {
    ($($arity:literal ($($t:ident $v:ident),+);)+) => {$(
        impl<$($t: Field),+> Field for ($($t,)+) {
            #[inline]
            fn to_json(&self) -> Json {
                let ($($v,)+) = self;
                Json::Arr(vec![$($v.to_json()),+])
            }
            #[inline]
            fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                match json.as_arr() {
                    Some([$($v),+]) => Ok(($($t::from_json($v, at)?,)+)),
                    _ => Err(at.shape(concat!("a ", $arity, "-element array"), json)),
                }
            }
            #[inline]
            fn scan(s: &mut Scan<'_>) -> Option<Self> {
                let mut lead = "[";
                let value = ($($t::scan(s.lit(std::mem::replace(&mut lead, ","))?)?,)+);
                s.lit("]")?;
                Some(value)
            }
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                let ($($v,)+) = self;
                $($v.put(out);)+
            }
            #[inline]
            fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
                Ok(($($t::get(cur, what)?,)+))
            }
        }
    )+};
}

tuple_fields! {
    "two" (A a, B b);
    "three" (A a, B b, C c);
}

/// A fixed-length array: a JSON array of that length; in binary the
/// values in turn, with no count.
impl<T: Field + Copy + Default, const N: usize> Field for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let items = Vec::<T>::from_json(json, at)?;
        items
            .try_into()
            .map_err(|_| at.shape(&format!("an array of {N}"), json))
    }
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|value| value.put(out));
    }
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let mut array = [T::default(); N];
        for slot in &mut array {
            *slot = T::get(cur, what)?;
        }
        Ok(array)
    }
}

/// A collection spelled item by item: a JSON array; in binary a varint
/// count, then the items.
pub(crate) trait Seq: Default {
    type Item: Field;
    /// Call `f` on each item, in order.
    fn each(&self, f: impl FnMut(&Self::Item));
    /// Append an item.
    fn push(&mut self, item: Self::Item);
}

impl<S: Seq> Field for S {
    #[inline]
    fn to_json(&self) -> Json {
        let mut items = Vec::new();
        self.each(|item| items.push(item.to_json()));
        Json::Arr(items)
    }
    #[inline]
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let mut seq = S::default();
        for item in json.as_arr().ok_or_else(|| at.shape("an array", json))? {
            seq.push(S::Item::from_json(item, at)?);
        }
        Ok(seq)
    }
    #[inline]
    fn scan(s: &mut Scan<'_>) -> Option<Self> {
        let mut seq = S::default();
        s.lit("[")?;
        if s.eat("]") {
            return Some(seq);
        }
        loop {
            seq.push(S::Item::scan(s)?);
            if s.eat("]") {
                return Some(seq);
            }
            s.lit(",")?;
        }
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let mut count = 0u64;
        self.each(|_| count += 1);
        put_u64(out, count);
        self.each(|item| item.put(out));
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let mut seq = S::default();
        for _ in 0..cur.count(what)? {
            seq.push(S::Item::get(cur, what)?);
        }
        Ok(seq)
    }
}

impl<T: Field> Seq for Vec<T> {
    type Item = T;
    #[inline]
    fn each(&self, f: impl FnMut(&T)) {
        self.iter().for_each(f);
    }
    #[inline]
    fn push(&mut self, item: T) {
        self.push(item);
    }
}

/// Gap coding of strictly ascending ids: each id is stored as its
/// distance past the previous id plus one, so a dense set costs a byte
/// per member and any decoded sequence is strictly ascending.
#[derive(Default)]
struct IdGaps {
    next: u64,
}

impl IdGaps {
    #[inline]
    fn put<T: ArenaKey>(&mut self, out: &mut Vec<u8>, id: T) {
        let id = u64::from(id.raw_index());
        debug_assert!(id >= self.next, "ids must be strictly ascending");
        put_u64(out, id - self.next);
        self.next = id + 1;
    }

    #[inline]
    fn get<T: ArenaKey>(&mut self, cur: &mut Cursor<'_>, what: &str) -> Result<T, FaircrowdError> {
        let gap = cur.u64(what)?;
        let id = self
            .next
            .checked_add(gap)
            .and_then(|id| u32::try_from(id).ok())
            .ok_or_else(|| cur.err(format_args!("{what} overflows a 32-bit id")))?;
        self.next = u64::from(id) + 1;
        Ok(T::from_raw_index(id))
    }
}

/// A set of ids: a JSON array; in binary a varint count, then the ids
/// gap-coded (`IdGaps`).
impl<T: ArenaKey + Field> Field for IdSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|id| id.to_json()).collect())
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let ids = json.as_arr().ok_or_else(|| at.shape("an array", json))?;
        ids.iter().map(|id| T::from_json(id, at)).collect()
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        let mut gaps = IdGaps::default();
        for id in self.iter() {
            gaps.put(out, id);
        }
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let mut gaps = IdGaps::default();
        (0..cur.count(what)?).map(|_| gaps.get(cur, what)).collect()
    }
}

/// A map keyed by id: a JSON array of `[key, value]` pairs; in binary a
/// varint count, then each key gap-coded (`IdGaps`) and its value.
impl<K: ArenaKey + Field, V: Field> Field for DenseIdMap<K, V> {
    fn to_json(&self) -> Json {
        let pair = |(k, v): (K, &V)| Json::Arr(vec![k.to_json(), v.to_json()]);
        Json::Arr(self.iter().map(pair).collect())
    }
    fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
        let pairs = json.as_arr().ok_or_else(|| at.shape("an array", json))?;
        pairs
            .iter()
            .map(|pair| <(K, V)>::from_json(pair, at))
            .collect()
    }
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        let mut gaps = IdGaps::default();
        for (key, value) in self.iter() {
            gaps.put(out, key);
            value.put(out);
        }
    }
    #[inline]
    fn get(cur: &mut Cursor<'_>, what: &str) -> Result<Self, FaircrowdError> {
        let mut gaps = IdGaps::default();
        (0..cur.count(what)?)
            .map(|_| Ok((gaps.get(cur, what)?, V::get(cur, what)?)))
            .collect()
    }
}

/// A [`Named`](crate::codec::Named) value: its name in JSON, its index
/// as one binary byte.
#[macro_export]
macro_rules! named_fields {
    ($($ty:ty),+ $(,)?) => {$(
        const _: () = {
            use $crate::codec::{Cursor, Named};
            use $crate::error::FaircrowdError;
            use $crate::fields::{At, Field, Scan};
            use $crate::json::Json;

            impl Field for $ty {
                #[inline]
                fn to_json(&self) -> Json {
                    Json::str(Named::name(*self))
                }
                #[inline]
                fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                    let name = json.as_str().ok_or_else(|| at.shape("a string", json))?;
                    <$ty as Named>::from_name(name).ok_or_else(|| {
                        FaircrowdError::persist(format!(
                            "{}: unknown {} `{name}`",
                            at.ctx,
                            <$ty as Named>::WHAT
                        ))
                    })
                }
                #[inline]
                fn scan(s: &mut Scan<'_>) -> Option<Self> {
                    <$ty as Named>::from_name(s.string()?)
                }
                #[inline]
                fn put(&self, out: &mut Vec<u8>) {
                    $crate::codec::put_named(out, *self);
                }
                #[inline]
                fn get(cur: &mut Cursor<'_>, _what: &str) -> Result<Self, FaircrowdError> {
                    cur.named()
                }
            }
        };
    )+};
}

// ---------------------------------------------------------------------
// The table macros
// ---------------------------------------------------------------------

/// Declare a struct as a record: its fields, in wire order, become the
/// members of a JSON object and, in binary, follow one another. Every
/// field type must be a [`Field`], or an `Option` of one.
///
/// A record holds at most [`MAX_OPTIONALS`](crate::fields::MAX_OPTIONALS)
/// optional fields, since their presence bits share one byte; an eighth
/// fails to compile:
///
/// ```compile_fail,E0080
/// struct Wide {
///     a: Option<u64>, b: Option<u64>, c: Option<u64>, d: Option<u64>,
///     e: Option<u64>, f: Option<u64>, g: Option<u64>, h: Option<u64>,
/// }
/// faircrowd_model::record!(Wide {
///     a: Option<u64>, b: Option<u64>, c: Option<u64>, d: Option<u64>,
///     e: Option<u64>, f: Option<u64>, g: Option<u64>, h: Option<u64>,
/// });
/// ```
#[macro_export]
macro_rules! record {
    ($ty:ident { $($f:ident: $t:ty),+ $(,)? }) => {
        const _: () = {
            use $crate::codec::Cursor;
            use $crate::error::FaircrowdError;
            use $crate::fields::{mask_of, At, Field, Mask, Member, Scan, MAX_OPTIONALS};
            use $crate::json::Json;

            const OPTIONALS: u8 = 0 $(+ <$t as Member>::OPTIONAL as u8)+;
            const _: () = assert!(
                OPTIONALS <= MAX_OPTIONALS,
                "a record holds at most `fields::MAX_OPTIONALS` optional fields"
            );

            impl Field for $ty {
                #[inline]
                fn to_json(&self) -> Json {
                    let mut members = Vec::new();
                    $(Member::put_member(&self.$f, stringify!($f), &mut members);)+
                    Json::Obj(members)
                }
                #[inline]
                fn from_json(json: &Json, at: At<'_>) -> Result<Self, FaircrowdError> {
                    if json.as_obj().is_none() {
                        return Err(at.shape("an object", json));
                    }
                    let ctx = at.ctx;
                    Ok($ty {
                        $($f: <$t as Member>::member_from_json(
                            json,
                            At { ctx, key: stringify!($f) },
                        )?,)+
                    })
                }
                #[inline]
                fn scan(s: &mut Scan<'_>) -> Option<Self> {
                    let first = &mut true;
                    let record = $ty {
                        $($f: <$t as Member>::scan_member(
                            s,
                            concat!(",\"", stringify!($f), "\":"),
                            first,
                        )?,)+
                    };
                    s.lit(if *first { "{}" } else { "}" })?;
                    Some(record)
                }
                #[inline]
                fn put(&self, out: &mut Vec<u8>) {
                    let mask = &mut mask_of(&[$(Member::presence(&self.$f)),+]);
                    $(Member::put_in(&self.$f, out, mask);)+
                }
                #[inline]
                fn get(cur: &mut Cursor<'_>, _what: &str) -> Result<Self, FaircrowdError> {
                    let mask = &mut Mask::new(OPTIONALS);
                    Ok($ty {
                        $($f: <$t as Member>::get_in(cur, stringify!($f), mask)?,)+
                    })
                }
            }
        };
    };
}

/// Declare an enum of struct-like variants, each as its one-byte binary
/// tag, its name and its fields. Generates the name accessor `$name_fn`
/// and the per-variant field codecs; the enclosing layout (where the
/// name and the tag go) is the caller's.
#[macro_export]
macro_rules! variants {
    ($ty:ident, $what:literal, $vis:vis fn $name_fn:ident {
        $($tag:literal $v:ident $name:literal { $($f:ident: $t:ty),* $(,)? }),+ $(,)?
    }) => {
        const _: () = {
            use $crate::codec::Cursor;
            use $crate::error::FaircrowdError;
            use $crate::fields::{mask_of, At, Mask, Member, RecordCtx, Scan, MAX_OPTIONALS};
            use $crate::json::Json;

            impl $ty {
                /// The variant's name: its JSON spelling, also used in
                /// reports and counts.
                $vis fn $name_fn(&self) -> &'static str {
                    match self {
                        $($ty::$v { .. } => $name,)+
                    }
                }

                /// The variant's one-byte binary tag.
                #[inline]
                pub(crate) fn wire_tag(&self) -> u8 {
                    match self {
                        $($ty::$v { .. } => $tag,)+
                    }
                }

                /// Append the variant's fields as JSON members.
                #[inline]
                fn put_members(&self, members: &mut Vec<(String, Json)>) {
                    match self {
                        $($ty::$v { $($f),* } => {
                            $(Member::put_member($f, stringify!($f), members);)*
                        })+
                    }
                }

                /// Decode the fields of the variant called `name` from the
                /// JSON object `json`.
                #[inline]
                fn members_from_json(
                    name: &str,
                    json: &Json,
                    ctx: RecordCtx,
                ) -> Result<Self, FaircrowdError> {
                    let _at = |key| At { ctx, key };
                    Ok(match name {
                        $($name => $ty::$v {
                            $($f: <$t as Member>::member_from_json(json, _at(stringify!($f)))?,)*
                        },)+
                        other => {
                            return Err(FaircrowdError::persist(format!(
                                "{ctx}: unknown {} `{other}`",
                                $what
                            )))
                        }
                    })
                }

                /// Scan the fields of the variant called `name`, each after
                /// a comma.
                #[inline]
                fn scan_members(name: &str, s: &mut Scan<'_>) -> Option<Self> {
                    let _first = &mut false;
                    Some(match name {
                        $($name => $ty::$v {
                            $($f: <$t as Member>::scan_member(
                                s,
                                concat!(",\"", stringify!($f), "\":"),
                                _first,
                            )?,)*
                        },)+
                        _ => return None,
                    })
                }

                /// Append the variant's fields' binary bytes.
                #[inline]
                pub(crate) fn put_payload(&self, out: &mut Vec<u8>) {
                    match self {
                        $($ty::$v { $($f),* } => {
                            let _mask = &mut mask_of(&[$(Member::presence($f)),*]);
                            $(Member::put_in($f, out, _mask);)*
                        })+
                    }
                }

                /// Read the fields of the variant tagged `tag`.
                #[inline]
                pub(crate) fn get_payload(
                    tag: u8,
                    cur: &mut Cursor<'_>,
                ) -> Result<Self, FaircrowdError> {
                    Ok(match tag {
                        $($tag => {
                            const OPTIONALS: u8 = 0 $(+ <$t as Member>::OPTIONAL as u8)*;
                            const _: () = assert!(
                                OPTIONALS <= MAX_OPTIONALS,
                                concat!("variant `", $name, "` holds more than `fields::MAX_OPTIONALS` optional fields")
                            );
                            let _mask = &mut Mask::new(OPTIONALS);
                            $ty::$v {
                                $($f: <$t as Member>::get_in(cur, stringify!($f), _mask)?,)*
                            }
                        })+
                        _ => return Err(cur.err(format_args!("unknown {} tag {tag}", $what))),
                    })
                }
            }
        };
    };
}

// ---------------------------------------------------------------------
// Error context and the canonical-line cursor
// ---------------------------------------------------------------------

/// Where a record sits, as its decode errors name it. Formatted only
/// when an error is built, never for a record that decodes.
#[derive(Clone, Copy)]
pub enum RecordCtx {
    /// `line N (<type> record)`: a JSONL line.
    Line(usize, &'static str),
    /// `<type> record I`: an element of a whole-file JSON array.
    Index(&'static str, usize),
    /// A scalar section of a file: `trace` or `header`.
    Section(&'static str),
}

impl fmt::Display for RecordCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordCtx::Line(lineno, kind) => write!(f, "line {lineno} ({kind} record)"),
            RecordCtx::Index(kind, i) => write!(f, "{kind} record {i}"),
            RecordCtx::Section(name) => f.write_str(name),
        }
    }
}

/// One field of a record, as a decode error names it.
#[derive(Clone, Copy)]
pub struct At<'k> {
    /// The record.
    pub ctx: RecordCtx,
    /// The field's JSON key.
    pub key: &'k str,
}

impl At<'_> {
    /// An error ``<ctx>: field `<key>` <what>``.
    pub fn err(self, what: impl fmt::Display) -> FaircrowdError {
        FaircrowdError::persist(format!("{}: field `{}` {what}", self.ctx, self.key))
    }

    /// The field is not `shape`.
    pub fn shape(self, shape: &str, got: &Json) -> FaircrowdError {
        self.err(format_args!("should be {shape}, got {}", got.kind()))
    }

    /// The field in the JSON object `record`, or an error naming it.
    pub(crate) fn member(self, record: &Json) -> Result<&Json, FaircrowdError> {
        record.get(self.key).ok_or_else(|| {
            FaircrowdError::persist(format!("{}: missing field `{}`", self.ctx, self.key))
        })
    }

    /// The field in `record` as a string, borrowed.
    pub(crate) fn str(self, record: &Json) -> Result<&str, FaircrowdError> {
        let value = self.member(record)?;
        value.as_str().ok_or_else(|| self.shape("a string", value))
    }
}

/// A byte cursor over one canonical JSONL record line: one in exactly
/// the bytes [`crate::trace_io::trace_to_jsonl`] writes (its member
/// order, no whitespace, no escaped string). Every read returns `None`
/// at the first byte that departs from that layout. Numbers are cut by
/// the tree parser's own grammar and converted by the same `str::parse`
/// its accessors use, so a value read here equals its tree decode.
pub struct Scan<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    /// A cursor at the start of `line`.
    #[inline]
    pub(crate) fn new(line: &'a str) -> Self {
        Scan { line, pos: 0 }
    }

    /// Whether every byte was read.
    #[inline]
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.line.len()
    }

    #[inline]
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    /// Step over `text` if it comes next.
    #[inline]
    pub(crate) fn eat(&mut self, text: &str) -> bool {
        let hit = self.rest().starts_with(text.as_bytes());
        if hit {
            self.pos += text.len();
        }
        hit
    }

    /// Step over `text`, which must come next.
    #[inline]
    pub fn lit(&mut self, text: &str) -> Option<&mut Self> {
        self.eat(text).then_some(self)
    }

    /// Step over a member's `,"name":` prefix, whose comma is the
    /// record's opening `{` while `first` holds.
    #[inline]
    fn key(&mut self, key: &str, first: &mut bool) -> Option<&mut Self> {
        let (rest, key) = (self.rest(), key.as_bytes());
        let lead = if *first { b'{' } else { b',' };
        if rest.len() < key.len() || rest[0] != lead || rest[1..key.len()] != key[1..] {
            return None;
        }
        self.pos += key.len();
        *first = false;
        Some(self)
    }

    /// A number token, parsed as `T`.
    #[inline]
    fn number<T: std::str::FromStr>(&mut self) -> Option<T> {
        let len = crate::json::number_len(self.rest())?;
        let token = &self.line[self.pos..self.pos + len];
        self.pos += len;
        token.parse().ok()
    }

    /// A string without escapes or control bytes, borrowed from the
    /// line. (`"` and `\` never occur inside a multi-byte UTF-8
    /// character, so the byte scan cannot split one.)
    #[inline]
    pub fn string(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let len = self
            .rest()
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if self.rest()[len] != b'"' {
            return None;
        }
        let text = &self.line[self.pos..self.pos + len];
        self.pos += len + 1;
        Some(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_name_field_context_and_kind() {
        let json = Json::parse(r#"{"a": 1, "b": "x", "c": [1, 2]}"#).unwrap();
        let at = |key| At {
            ctx: RecordCtx::Section("my context"),
            key,
        };
        assert_eq!(u64::member_from_json(&json, at("a")).unwrap(), 1);
        assert_eq!(at("b").str(&json).unwrap(), "x");
        assert_eq!(at("c").member(&json).unwrap().as_arr().unwrap().len(), 2);
        let err = at("missing").member(&json).unwrap_err().to_string();
        assert!(err.contains("my context: missing field `missing`"), "{err}");
        let err = u64::member_from_json(&json, at("b"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("field `b` should be an unsigned integer"),
            "{err}"
        );
        assert!(err.contains("got string"), "{err}");
        let err = at("c").str(&json).unwrap_err().to_string();
        assert!(err.contains("field `c` should be a string"), "{err}");
    }

    #[derive(Debug, PartialEq)]
    struct Seven {
        a: Option<u64>,
        b: Option<u64>,
        c: Option<u64>,
        d: Option<u64>,
        e: Option<u64>,
        f: Option<u64>,
        g: Option<u64>,
    }

    crate::record!(Seven {
        a: Option<u64>,
        b: Option<u64>,
        c: Option<u64>,
        d: Option<u64>,
        e: Option<u64>,
        f: Option<u64>,
        g: Option<u64>,
    });

    #[test]
    fn a_record_with_the_most_optional_fields_reads_its_own_bytes() {
        for bits in [0u8, 0x7f, 0x40, 0x55] {
            let on = |i: u8| (bits >> i & 1 == 1).then_some(u64::from(i) * 300);
            let record = Seven {
                a: on(0),
                b: on(1),
                c: on(2),
                d: on(3),
                e: on(4),
                f: on(5),
                g: on(6),
            };
            let mut bytes = Vec::new();
            record.put(&mut bytes);
            assert_eq!(bytes[0], bits, "the presence byte");
            let mut cur = Cursor::new(&bytes, "seven");
            assert_eq!(Seven::get(&mut cur, "seven").unwrap(), record);
            cur.finish().unwrap();
        }
    }
}
