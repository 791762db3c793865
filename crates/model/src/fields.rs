//! Shared JSON field accessors for the versioned on-disk schemas.
//!
//! Every JSON schema in the workspace — traces ([`crate::trace_io`]),
//! sweep part files (`faircrowd::sweep::shard`) — decodes through the
//! same discipline: a missing or mistyped field is a
//! [`FaircrowdError::Persist`] naming the field, its expected shape,
//! and the context it sat in, never a panic. These helpers are that
//! discipline in one place, so the schemas cannot drift apart in how
//! they report corruption.

use crate::error::FaircrowdError;
use crate::json::Json;

/// The field `key`, or an error naming it.
pub fn require<'a>(
    json: &'a Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<&'a Json, FaircrowdError> {
    json.get(key)
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: missing field `{key}`")))
}

/// The field `key` as an unsigned integer.
pub fn u64_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<u64, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_u64().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be an unsigned integer, got {}",
            v.kind()
        ))
    })
}

/// The field `key` as a count: an unsigned integer that fits `usize`.
pub fn count_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<usize, FaircrowdError> {
    usize::try_from(u64_field(json, key, &ctx)?)
        .map_err(|_| FaircrowdError::persist(format!("{ctx}: field `{key}` overflows a count")))
}

/// The field `key`, `None` when it is `null`.
pub fn nullable_field<'a>(
    json: &'a Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<Option<&'a Json>, FaircrowdError> {
    match require(json, key, ctx)? {
        Json::Null => Ok(None),
        v => Ok(Some(v)),
    }
}

/// The field `key` as a number.
pub fn f64_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<f64, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_f64().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be a number, got {}",
            v.kind()
        ))
    })
}

/// The field `key` as a string.
pub fn str_field<'a>(
    json: &'a Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<&'a str, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_str().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be a string, got {}",
            v.kind()
        ))
    })
}

/// The field `key` as an array.
pub fn arr_field<'a>(
    json: &'a Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<&'a [Json], FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_arr().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be an array, got {}",
            v.kind()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_name_field_context_and_kind() {
        let json =
            Json::parse(r#"{"a": 1, "b": "x", "c": [1, 2], "d": true, "e": 1.5, "f": null}"#)
                .unwrap();
        assert_eq!(u64_field(&json, "a", "ctx").unwrap(), 1);
        assert_eq!(count_field(&json, "a", "ctx").unwrap(), 1);
        assert!(nullable_field(&json, "f", "ctx").unwrap().is_none());
        assert!(nullable_field(&json, "a", "ctx").unwrap().is_some());
        assert!(nullable_field(&json, "missing", "ctx").is_err());
        assert_eq!(str_field(&json, "b", "ctx").unwrap(), "x");
        assert_eq!(arr_field(&json, "c", "ctx").unwrap().len(), 2);
        assert_eq!(f64_field(&json, "e", "ctx").unwrap(), 1.5);
        let err = u64_field(&json, "missing", "my context").unwrap_err();
        assert!(err.to_string().contains("my context"), "{err}");
        assert!(err.to_string().contains("`missing`"), "{err}");
        let err = u64_field(&json, "b", "ctx").unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
        assert!(err.to_string().contains("string"), "{err}");
    }
}
