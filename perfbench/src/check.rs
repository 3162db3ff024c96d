//! Byte-identity checking of served bodies against references.

use std::fmt;

/// Where a served body first departs from its reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Offset of the first differing byte (or of the shorter end).
    pub offset: usize,
    /// Reference length.
    pub expected_len: usize,
    /// Served length.
    pub got_len: usize,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "body differs from reference at byte {} (reference {} bytes, served {} bytes)",
            self.offset, self.expected_len, self.got_len
        )
    }
}

/// `Ok` only when `got` equals `expected` byte for byte.
///
/// # Errors
///
/// The first differing offset and both lengths.
pub fn identical(expected: &[u8], got: &[u8]) -> Result<(), Mismatch> {
    if expected == got {
        return Ok(());
    }
    let offset = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(Mismatch {
        offset,
        expected_len: expected.len(),
        got_len: got.len(),
    })
}
