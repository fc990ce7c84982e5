//! A compact log of ports, read forward or popped from the back.

use crate::PortId;
use std::cmp::Ordering;
use std::fmt;

/// A sequence of ports stored at about one byte per port.
///
/// Each port is written as its 7-bit groups, most significant first, and
/// every byte but a port's last has `0x80` set. A port below 128 — every
/// port of a node of degree at most 128 — takes one byte, and any `usize`
/// port is still stored exactly. Because a port's last byte is the only
/// one with `0x80` clear, the log decodes from either end: [`PortLog::iter`]
/// reads it forward and [`PortLog::pop`] takes ports off the back.
///
/// Walk logs (ESST's entry ports, SGL's backtrack and sweep logs) grow by
/// one port per traversal over runs of millions of traversals, so they pay
/// one byte per step here instead of the eight of a `Vec<PortId>`.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct PortLog {
    bytes: Vec<u8>,
    len: usize,
}

/// The continuation flag: set on every byte of a port except its last.
const MORE: u8 = 0x80;

impl PortLog {
    /// An empty log.
    pub fn new() -> Self {
        PortLog::default()
    }

    /// Number of ports in the log.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the log holds no port.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoded ports take (equal to [`PortLog::len`] when every
    /// port is below 128).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends `port`.
    pub fn push(&mut self, port: PortId) {
        let p = port.0;
        // Every step of a walk pushes a port, and nearly all are one byte:
        // skip the group count for them.
        if p < MORE as usize {
            self.bytes.push(p as u8);
        } else {
            let groups = (usize::BITS - p.leading_zeros()).div_ceil(7);
            for g in (1..groups).rev() {
                self.bytes.push(MORE | (p >> (7 * g)) as u8);
            }
            self.bytes.push(p as u8 & !MORE);
        }
        self.len += 1;
    }

    /// Removes and returns the last port, or `None` if the log is empty.
    pub fn pop(&mut self) -> Option<PortId> {
        // The byte before a port's first is the previous port's last (flag
        // clear) or there is none.
        let mut start = self.bytes.len().checked_sub(1)?;
        while start > 0 && self.bytes[start - 1] & MORE != 0 {
            start -= 1;
        }
        let (port, _) = self.decode_at(start);
        self.bytes.truncate(start);
        self.len -= 1;
        Some(port)
    }

    /// Removes every port, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
    }

    /// The ports, oldest first.
    pub fn iter(&self) -> PortLogIter<'_> {
        PortLogIter {
            log: self,
            offset: 0,
        }
    }

    /// Decodes the port whose first byte is at byte `offset`; returns it
    /// with the offset of the next port. Offsets start at 0 and advance
    /// only through this method, so a reader can walk the log forward
    /// while keeping nothing but a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is at or past [`PortLog::byte_len`].
    pub fn decode_at(&self, offset: usize) -> (PortId, usize) {
        let mut p = 0usize;
        let mut at = offset;
        loop {
            let b = self.bytes[at];
            at += 1;
            p = (p << 7) | (b & !MORE) as usize;
            if b & MORE == 0 {
                return (PortId(p), at);
            }
        }
    }
}

/// Forward iterator over a [`PortLog`]'s ports.
#[derive(Clone, Debug)]
pub struct PortLogIter<'a> {
    log: &'a PortLog,
    offset: usize,
}

impl Iterator for PortLogIter<'_> {
    type Item = PortId;

    fn next(&mut self) -> Option<PortId> {
        if self.offset == self.log.bytes.len() {
            return None;
        }
        let (port, next) = self.log.decode_at(self.offset);
        self.offset = next;
        Some(port)
    }
}

/// Orders logs as their port sequences (lexicographically). While every
/// port takes one byte that is the order of their bytes, and ESST's code
/// set compares long codes that share long prefixes, so that case is one
/// byte comparison. Past it a longer encoding is a larger port, whatever
/// its first byte, so the ports are decoded.
impl Ord for PortLog {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.bytes.len() == self.len && other.bytes.len() == other.len {
            self.bytes.cmp(&other.bytes)
        } else {
            self.iter().cmp(other.iter())
        }
    }
}

impl PartialOrd for PortLog {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for PortLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
