//! The one place length-prefixed encoding narrows to `u32`.
//!
//! Two encoders in the workspace frame variable-length bytes behind a
//! `u32` length field: the `sbfd` wire protocol (`sbf-server::proto`) and
//! the WAL record grammar ([`crate::logrec`]). A length past `u32::MAX`
//! whose `as u32` cast silently wrapped would emit a frame whose header
//! lies about its own length and desynchronizes every later field on the
//! stream. So both narrow through one function, [`u32_len`], which fails
//! with one error type, [`EncodeError`], instead of wrapping. (The filter
//! envelope, [`crate::wire`], frames its counter count as `u64` and never
//! narrows.)

/// Why a value could not be encoded into its wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A field is too large for its `u32` length prefix. Returned instead
    /// of letting `as u32` silently wrap, which would emit a frame whose
    /// header lies about its own length.
    Oversized,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Oversized => write!(f, "field exceeds u32 length prefix"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The workspace's single checked `usize → u32` length narrowing.
///
/// Every `u32` length prefix the encoders write goes through here; there
/// is deliberately no other `as u32`/`try_u32` on an encode path, so the
/// wrap-on-overflow bug class has one chokepoint.
#[inline]
pub fn u32_len(len: usize) -> Result<u32, EncodeError> {
    u32::try_from(len).map_err(|_| EncodeError::Oversized)
}

/// Appends one `u32`-length-prefixed byte string to `buf`.
///
/// Refuses a string whose length cannot fit the prefix — a wrapped prefix
/// would desynchronize every later field in the frame.
pub fn put_lstring(buf: &mut Vec<u8>, bytes: &[u8]) -> Result<(), EncodeError> {
    let len = u32_len(bytes.len())?;
    buf.reserve(4 + bytes.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_len_is_checked_not_wrapped() {
        assert_eq!(u32_len(0), Ok(0));
        assert_eq!(u32_len(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(u32_len(u32::MAX as usize + 1), Err(EncodeError::Oversized));
    }

    #[test]
    fn lstring_roundtrips_length_and_bytes() {
        let mut buf = Vec::new();
        put_lstring(&mut buf, b"abc").unwrap();
        assert_eq!(&buf[..4], &3u32.to_le_bytes());
        assert_eq!(&buf[4..], b"abc");
    }
}
