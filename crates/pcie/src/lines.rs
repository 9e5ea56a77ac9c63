//! Line-granular host-side buffering shared by both byte paths: the MMIO
//! path's write-combining buffers and the CXL path's dirty cache lines.
//!
//! Both hold a store as one fragment per 64-byte line it touches, and both
//! post a line's fragments, in store order, when the line leaves. Fragments
//! never cross a line, so each is stored inline as [`LineBytes`] and the
//! steady state allocates nothing: drained lines hand their fragment lists
//! back to a spare pool for the next line to reuse.

use twob_sim::{SimDuration, SimTime};

use crate::timings::LINE;
use crate::PostedWrite;

/// Up to one cache line (64 bytes) of data, stored inline.
///
/// Dereferences to the bytes it holds, so it reads like a `&[u8]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LineBytes {
    len: u8,
    /// Bytes past `len` stay zero, so the derived equality is byte equality.
    bytes: [u8; LINE as usize],
}

impl LineBytes {
    /// Copies `data` inline.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than one 64-byte line.
    pub fn new(data: &[u8]) -> Self {
        assert!(
            data.len() <= LINE as usize,
            "a line fragment holds at most {LINE} bytes, not {}",
            data.len()
        );
        let mut bytes = [0u8; LINE as usize];
        bytes[..data.len()].copy_from_slice(data);
        LineBytes {
            len: data.len() as u8,
            bytes,
        }
    }
}

impl std::ops::Deref for LineBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for LineBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// `(absolute offset, bytes)` of one store's share of a line.
type Fragment = (u64, LineBytes);

#[derive(Debug, Clone)]
struct Line {
    line: u64,
    fragments: Vec<Fragment>,
    first_store_at: SimTime,
}

/// The dirty lines one channel holds, oldest first, plus the landing
/// instant of the latest fragment it posted.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineSet {
    lines: Vec<Line>,
    /// Emptied fragment lists, reused by the next new line.
    spare: Vec<Vec<Fragment>>,
    /// Landing instant of the latest posted fragment, for verify and
    /// barrier ordering.
    pub(crate) last_land: SimTime,
}

impl LineSet {
    /// Number of dirty lines.
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    /// Bytes held across all fragments (overlapping stores count twice,
    /// as each is a separate fragment that would post).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.lines
            .iter()
            .flat_map(|l| &l.fragments)
            .map(|(_, d)| d.len())
            .sum()
    }

    /// Splits a store of `data` at `offset` over the lines it touches,
    /// appending one fragment to each (a new line starts its age at `now`).
    pub(crate) fn insert(&mut self, now: SimTime, offset: u64, data: &[u8]) {
        let mut cursor = 0usize;
        while cursor < data.len() {
            let abs = offset + cursor as u64;
            let line = abs / LINE;
            let take = (((line + 1) * LINE - abs) as usize).min(data.len() - cursor);
            let fragment = (abs, LineBytes::new(&data[cursor..cursor + take]));
            match self.lines.iter_mut().find(|l| l.line == line) {
                Some(existing) => existing.fragments.push(fragment),
                None => {
                    let mut fragments = self.spare.pop().unwrap_or_default();
                    fragments.push(fragment);
                    self.lines.push(Line {
                        line,
                        fragments,
                        first_store_at: now,
                    });
                }
            }
            cursor += take;
        }
    }

    /// Removes line `i` and posts its fragments, in store order, landing at
    /// `lands_at`.
    fn post(&mut self, i: usize, lands_at: SimTime, out: &mut Vec<PostedWrite>) {
        let line = self.lines.remove(i);
        self.last_land = self.last_land.max(lands_at);
        self.spare
            .push(post_fragments(line.fragments, lands_at, out));
    }

    /// Posts every line, oldest first.
    pub(crate) fn drain_all(&mut self, lands_at: SimTime) -> Vec<PostedWrite> {
        let mut out = Vec::new();
        if !self.lines.is_empty() {
            self.last_land = self.last_land.max(lands_at);
        }
        for line in self.lines.drain(..) {
            self.spare
                .push(post_fragments(line.fragments, lands_at, &mut out));
        }
        out
    }

    /// Posts every line that has lingered at least `linger` by `now`,
    /// oldest first.
    pub(crate) fn post_lingering(
        &mut self,
        linger: SimDuration,
        now: SimTime,
        lands_at: SimTime,
        out: &mut Vec<PostedWrite>,
    ) {
        let mut i = 0;
        while i < self.lines.len() {
            if self.lines[i].first_store_at + linger <= now {
                self.post(i, lands_at, out);
            } else {
                i += 1;
            }
        }
    }

    /// Posts the earliest-stored lines until at most `cap` remain.
    pub(crate) fn evict_to(&mut self, cap: usize, lands_at: SimTime, out: &mut Vec<PostedWrite>) {
        while self.lines.len() > cap {
            let oldest = self
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.first_store_at)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.post(oldest, lands_at, out);
        }
    }

    /// Discards every dirty line, as a power failure would, and returns how
    /// many bytes were lost.
    pub(crate) fn power_loss(&mut self) -> usize {
        let lost = self.resident_bytes();
        self.lines.clear();
        self.last_land = SimTime::ZERO;
        lost
    }
}

/// Appends `fragments` to `out` as posted writes landing at `lands_at` and
/// returns the emptied list for reuse.
fn post_fragments(
    mut fragments: Vec<Fragment>,
    lands_at: SimTime,
    out: &mut Vec<PostedWrite>,
) -> Vec<Fragment> {
    out.extend(fragments.drain(..).map(|(offset, data)| PostedWrite {
        offset,
        data,
        lands_at,
    }));
    fragments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_bytes_hold_exactly_their_data() {
        let a = LineBytes::new(b"abc");
        assert_eq!(&*a, b"abc");
        assert_eq!(a, LineBytes::new(b"abc"));
        assert_ne!(a, LineBytes::new(b"abc\0"));
        assert_eq!(LineBytes::new(&[7u8; 64]).len(), 64);
        assert_eq!(format!("{:?}", LineBytes::new(&[1, 2])), "[1, 2]");
    }

    #[test]
    #[should_panic(expected = "at most 64 bytes")]
    fn oversized_line_fragment_panics() {
        LineBytes::new(&[0u8; 65]);
    }

    #[test]
    fn drained_lines_recycle_their_fragment_lists() {
        let mut set = LineSet::default();
        set.insert(SimTime::ZERO, 0, &[1u8; 200]);
        assert_eq!(set.len(), 4);
        let posted = set.drain_all(SimTime::from_nanos(10));
        assert_eq!(posted.len(), 4);
        assert_eq!(set.spare.len(), 4);
        set.insert(SimTime::ZERO, 0, &[2u8; 8]);
        assert_eq!(set.spare.len(), 3);
    }
}
