//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum guarding every frame on disk. Private to [`crate::frame`]:
//! a record format that wants a checksum is a frame.
//!
//! Table-driven, one 256-entry table built at first use. The choice of
//! CRC-32 over a cryptographic hash is deliberate: the threat model is
//! torn writes and bit rot, not an adversary, and a 4-byte checksum
//! keeps the per-frame overhead constant and small.

/// Incremental CRC-32 hasher, for checksumming a frame built in parts.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let table = table();
        for &b in bytes {
            let idx = (self.state ^ u32::from(b)) & 0xFF;
            self.state = (self.state >> 8) ^ table[idx as usize];
        }
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = Hasher::new();
        crc.update(bytes);
        crc.finish()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"curated databases are actively maintained";
        let mut h = Hasher::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"frame payload bytes";
        let base = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.to_vec();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip byte {i} bit {bit}");
            }
        }
    }
}
