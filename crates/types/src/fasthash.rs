//! A fast, deterministic hasher for the small fixed-width keys
//! (`NodeId`, `EventId`, timer ids) that dominate the simulator's hot
//! paths.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! key; the gossip hot loop performs hundreds of dedup/buffer lookups per
//! node per round, where an FxHash-style multiply-xor is ~5× cheaper. All
//! keys hashed here are internal protocol identifiers (never
//! attacker-controlled strings), so hash-flooding resistance buys nothing.
//!
//! The hash is fully deterministic (no per-process random state), which
//! the reproducibility story relies on anyway.

use std::hash::{BuildHasher, Hasher};

/// The multiplier of FxHash (Firefox's hasher): a 64-bit odd constant
/// with good bit dispersion under `wrapping_mul`.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher for small fixed-width keys. See the module docs
/// for when (not) to use it.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasher`] for [`FastHasher`]; stateless and deterministic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FastHashState;

impl BuildHasher for FastHashState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// `HashMap` keyed by small internal identifiers (deterministic fast
/// hashing; construct with `FastHashMap::default()`).
// The determinism lint bars the std containers for their per-process
// random hasher state; the fixed `FastHashState` is what makes them
// allowed here.
#[allow(clippy::disallowed_types)]
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastHashState>;

/// `HashSet` of small internal identifiers (deterministic fast hashing;
/// construct with `FastHashSet::default()`).
#[allow(clippy::disallowed_types)]
pub type FastHashSet<K> = std::collections::HashSet<K, FastHashState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventId, NodeId};

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastHashMap<EventId, u32> = FastHashMap::default();
        let mut s: FastHashSet<NodeId> = FastHashSet::default();
        for i in 0..1000u32 {
            m.insert(EventId::new(NodeId::new(i), u64::from(i) * 7), i);
            s.insert(NodeId::new(i));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(s.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(
                m.get(&EventId::new(NodeId::new(i), u64::from(i) * 7)),
                Some(&i)
            );
            assert!(s.contains(&NodeId::new(i)));
        }
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let key = EventId::new(NodeId::new(42), 7);
        let hash = |state: FastHashState| state.hash_one(key);
        assert_eq!(hash(FastHashState), hash(FastHashState));
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u32 {
            let mut h = FastHasher::default();
            std::hash::Hash::hash(&EventId::new(NodeId::new(i % 64), u64::from(i)), &mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "fixed-width keys must not collide");
    }

    #[test]
    fn write_handles_unaligned_tails() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write(b"0123456789");
        b.write(b"0123456789x");
        assert_ne!(a.finish(), b.finish());
        // Length is mixed in: a prefix of zeros differs from fewer zeros.
        let mut c = FastHasher::default();
        let mut d = FastHasher::default();
        c.write(&[0, 0, 0]);
        d.write(&[0, 0]);
        assert_ne!(c.finish(), d.finish());
    }
}
