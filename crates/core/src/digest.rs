//! FNV-1a-64: the hash behind every byte pin in the workspace.
//!
//! Tests pin a run's record, a report or a set of views by the 64-bit
//! FNV-1a hash of their bytes, so a pinned constant changes exactly when
//! those bytes (or their order) do. The hash is not cryptographic and is
//! not used on any simulated path.

/// FNV-1a-64 of `bytes`, in iteration order.
///
/// ```
/// use dslice_core::digest::fnv1a64;
///
/// assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a64("a".bytes()), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
