//! Compact struct-of-arrays trace encoding.
//!
//! [`TraceItem`] is convenient to construct and pattern-match but expensive to
//! stream: the `Option`-heavy `Instr` payload makes every element ~56 bytes,
//! most of them `None` padding, and the simulator walks the whole trace five
//! or more times per benchmark (baseline, capture, replay, every scheme).
//! [`PackedTrace`] stores the same sequence as flat arrays: one 16-byte
//! [`PackedWord`] per item plus side tables for the payloads only some items
//! carry (effective addresses, branch targets). Side-table entries are stored
//! in trace order and referenced implicitly — a cursor walking the words pops
//! the next entry whenever a word's flags say one is present — so no indices
//! are stored at all.
//!
//! The encoding is lossless for every trace the workload generator produces
//! and round-trips [`TraceItem`] bit-for-bit, with one documented
//! normalization: a dependence distance of `Some(0)` (meaningless — the
//! simulator ignores distance zero) decodes as `None`.
//!
//! [`PackedCursor`] yields owned [`TraceItem`]s without materializing a
//! `Vec<TraceItem>`, so `Simulator::run(trace.iter(), ...)` streams straight
//! out of the packed arrays.

use crate::instruction::{
    BranchInfo, CallSiteId, Instr, InstrClass, LoopId, Marker, SubroutineId, TraceItem,
};

/// Word tags `0..=7` are instruction classes (by [`InstrClass::ALL`] index);
/// `8..=11` are the four marker kinds.
const TAG_SUB_ENTER: u8 = 8;
const TAG_SUB_EXIT: u8 = 9;
const TAG_LOOP_ENTER: u8 = 10;
const TAG_LOOP_EXIT: u8 = 11;

/// The word's `mem_addr` is the next entry of the address side table.
const FLAG_MEM: u8 = 1;
/// The word's branch target is the next entry of the target side table.
const FLAG_BRANCH: u8 = 2;
/// The branch is taken (only meaningful with [`FLAG_BRANCH`]).
const FLAG_TAKEN: u8 = 4;

fn class_tag(class: InstrClass) -> u8 {
    InstrClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("every class is in ALL") as u8
}

/// One 16-byte element of a [`PackedTrace`].
///
/// For instructions `a` is the program counter; for markers it carries the
/// marker payload (`subroutine << 32 | call_site` for subroutine entries, the
/// bare id otherwise). Dependence distances use `0` as the `None` sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct PackedWord {
    a: u64,
    dep1: u16,
    dep2: u16,
    tag: u8,
    flags: u8,
    _pad: [u8; 2],
}

/// A dynamic trace in flat struct-of-arrays form.
///
/// ```
/// use mcd_sim::instruction::{Instr, InstrClass, TraceItem};
/// use mcd_sim::trace::PackedTrace;
/// let items = vec![
///     TraceItem::Instr(Instr::load(0x1000, 0xbeef).with_dep1(3)),
///     TraceItem::Instr(Instr::branch(0x1004, true, 0x2000)),
/// ];
/// let packed = PackedTrace::from_items(&items);
/// assert_eq!(packed.len(), 2);
/// assert_eq!(packed.instructions(), 2);
/// let decoded: Vec<TraceItem> = packed.iter().collect();
/// assert_eq!(decoded, items);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedTrace {
    words: Vec<PackedWord>,
    mem_addrs: Vec<u64>,
    branch_targets: Vec<u64>,
    instructions: u64,
}

impl PackedTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Creates an empty trace with room for `items` elements. The side tables
    /// are sized for a typical mix (about a third of instructions carrying a
    /// memory address, a fifth a branch target) and grow if exceeded.
    pub fn with_capacity(items: usize) -> Self {
        PackedTrace {
            words: Vec::with_capacity(items),
            mem_addrs: Vec::with_capacity(items / 3),
            branch_targets: Vec::with_capacity(items / 5),
            instructions: 0,
        }
    }

    /// Encodes a legacy item slice.
    pub fn from_items(items: &[TraceItem]) -> Self {
        let mut trace = PackedTrace::with_capacity(items.len());
        for item in items {
            trace.push_item(item);
        }
        trace
    }

    /// Appends one item.
    pub fn push_item(&mut self, item: &TraceItem) {
        match item {
            TraceItem::Instr(instr) => self.push_instr(instr),
            TraceItem::Marker(marker) => self.push_marker(marker),
        }
    }

    /// Appends a dynamic instruction.
    pub fn push_instr(&mut self, instr: &Instr) {
        let mut flags = 0u8;
        if let Some(addr) = instr.mem_addr {
            flags |= FLAG_MEM;
            self.mem_addrs.push(addr);
        }
        if let Some(branch) = instr.branch {
            flags |= FLAG_BRANCH;
            if branch.taken {
                flags |= FLAG_TAKEN;
            }
            self.branch_targets.push(branch.target);
        }
        self.words.push(PackedWord {
            a: instr.pc,
            dep1: instr.dep1.unwrap_or(0),
            dep2: instr.dep2.unwrap_or(0),
            tag: class_tag(instr.class),
            flags,
            _pad: [0; 2],
        });
        self.instructions += 1;
    }

    /// Appends a structural marker.
    pub fn push_marker(&mut self, marker: &Marker) {
        let (tag, a) = match marker {
            Marker::SubroutineEnter {
                subroutine,
                call_site,
            } => (
                TAG_SUB_ENTER,
                ((subroutine.0 as u64) << 32) | call_site.0 as u64,
            ),
            Marker::SubroutineExit { subroutine } => (TAG_SUB_EXIT, subroutine.0 as u64),
            Marker::LoopEnter { loop_id } => (TAG_LOOP_ENTER, loop_id.0 as u64),
            Marker::LoopExit { loop_id } => (TAG_LOOP_EXIT, loop_id.0 as u64),
        };
        self.words.push(PackedWord {
            a,
            dep1: 0,
            dep2: 0,
            tag,
            flags: 0,
            _pad: [0; 2],
        });
    }

    /// Total items (instructions plus markers).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the trace holds no items.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Dynamic instruction count (markers excluded).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// A zero-copy cursor over the trace, yielding owned [`TraceItem`]s.
    pub fn iter(&self) -> PackedCursor<'_> {
        PackedCursor {
            trace: self,
            word: 0,
            mem: 0,
            branch: 0,
        }
    }

    /// Decodes the whole trace into the legacy item representation.
    pub fn to_items(&self) -> Vec<TraceItem> {
        self.iter().collect()
    }

    /// The first `items` elements as a new packed trace (side tables copied up
    /// to the entries those elements reference). Used by tests and sweeps that
    /// analyse truncated traces.
    pub fn truncated(&self, items: usize) -> PackedTrace {
        let n = items.min(self.words.len());
        let mut mem = 0usize;
        let mut branch = 0usize;
        let mut instructions = 0u64;
        for word in &self.words[..n] {
            if word.flags & FLAG_MEM != 0 {
                mem += 1;
            }
            if word.flags & FLAG_BRANCH != 0 {
                branch += 1;
            }
            if word.tag < TAG_SUB_ENTER {
                instructions += 1;
            }
        }
        PackedTrace {
            words: self.words[..n].to_vec(),
            mem_addrs: self.mem_addrs[..mem].to_vec(),
            branch_targets: self.branch_targets[..branch].to_vec(),
            instructions,
        }
    }

    /// Raw encoded parts (words, address table, branch-target table), used by
    /// the artifact codec. The word layout is part of the codec's versioned
    /// format.
    pub fn raw_parts(&self) -> (&[PackedWord], &[u64], &[u64]) {
        (&self.words, &self.mem_addrs, &self.branch_targets)
    }

    /// Reassembles a trace from raw parts, validating that the side-table
    /// lengths match the word flags and every tag is known. Returns `None` on
    /// any inconsistency (the codec maps that to a decode error).
    pub fn from_raw_parts(
        words: Vec<PackedWord>,
        mem_addrs: Vec<u64>,
        branch_targets: Vec<u64>,
    ) -> Option<PackedTrace> {
        let mut mem = 0usize;
        let mut branch = 0usize;
        let mut instructions = 0u64;
        for word in &words {
            if word.tag > TAG_LOOP_EXIT {
                return None;
            }
            if word.tag < TAG_SUB_ENTER {
                instructions += 1;
                mem += (word.flags & FLAG_MEM != 0) as usize;
                branch += (word.flags & FLAG_BRANCH != 0) as usize;
            } else if word.flags != 0 || word.dep1 != 0 || word.dep2 != 0 {
                return None;
            }
        }
        if mem != mem_addrs.len() || branch != branch_targets.len() {
            return None;
        }
        Some(PackedTrace {
            words,
            mem_addrs,
            branch_targets,
            instructions,
        })
    }
}

impl PackedWord {
    /// The word's eight `(a, dep1, dep2, tag, flags)` fields flattened for
    /// serialization: `(a, deps-and-tag)` where the second value packs
    /// `dep1 | dep2 << 16 | tag << 32 | flags << 40`.
    pub fn encode(&self) -> (u64, u64) {
        let b = self.dep1 as u64
            | (self.dep2 as u64) << 16
            | (self.tag as u64) << 32
            | (self.flags as u64) << 40;
        (self.a, b)
    }

    /// Inverse of [`PackedWord::encode`]. Returns `None` when the packed
    /// second value carries bits outside the defined fields.
    pub fn decode(a: u64, b: u64) -> Option<PackedWord> {
        if b >> 48 != 0 {
            return None;
        }
        Some(PackedWord {
            a,
            dep1: b as u16,
            dep2: (b >> 16) as u16,
            tag: (b >> 32) as u8,
            flags: (b >> 40) as u8,
            _pad: [0; 2],
        })
    }
}

/// Sequential decoder over a [`PackedTrace`]: walks the word array and pops
/// side-table entries as flags demand, reconstructing each [`TraceItem`].
#[derive(Debug, Clone)]
pub struct PackedCursor<'a> {
    trace: &'a PackedTrace,
    word: usize,
    mem: usize,
    branch: usize,
}

impl Iterator for PackedCursor<'_> {
    type Item = TraceItem;

    #[inline]
    fn next(&mut self) -> Option<TraceItem> {
        let word = self.trace.words.get(self.word)?;
        self.word += 1;
        Some(if word.tag < TAG_SUB_ENTER {
            let mem_addr = if word.flags & FLAG_MEM != 0 {
                let addr = self.trace.mem_addrs[self.mem];
                self.mem += 1;
                Some(addr)
            } else {
                None
            };
            let branch = if word.flags & FLAG_BRANCH != 0 {
                let target = self.trace.branch_targets[self.branch];
                self.branch += 1;
                Some(BranchInfo {
                    taken: word.flags & FLAG_TAKEN != 0,
                    target,
                })
            } else {
                None
            };
            TraceItem::Instr(Instr {
                pc: word.a,
                class: InstrClass::ALL[word.tag as usize],
                dep1: (word.dep1 != 0).then_some(word.dep1),
                dep2: (word.dep2 != 0).then_some(word.dep2),
                mem_addr,
                branch,
            })
        } else {
            TraceItem::Marker(match word.tag {
                TAG_SUB_ENTER => Marker::SubroutineEnter {
                    subroutine: SubroutineId((word.a >> 32) as u32),
                    call_site: CallSiteId(word.a as u32),
                },
                TAG_SUB_EXIT => Marker::SubroutineExit {
                    subroutine: SubroutineId(word.a as u32),
                },
                TAG_LOOP_ENTER => Marker::LoopEnter {
                    loop_id: LoopId(word.a as u32),
                },
                _ => Marker::LoopExit {
                    loop_id: LoopId(word.a as u32),
                },
            })
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.words.len() - self.word;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PackedCursor<'_> {}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = TraceItem;
    type IntoIter = PackedCursor<'a>;

    fn into_iter(self) -> PackedCursor<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_items() -> Vec<TraceItem> {
        let mut items = Vec::new();
        items.push(TraceItem::Marker(Marker::SubroutineEnter {
            subroutine: SubroutineId(u32::MAX),
            call_site: CallSiteId(0),
        }));
        for (i, class) in InstrClass::ALL.into_iter().enumerate() {
            let mut instr = Instr::op(u64::MAX - i as u64, class);
            if i % 2 == 0 {
                instr = instr.with_dep1(1 + i as u16);
            }
            if i % 3 == 0 {
                instr = instr.with_dep2(u16::MAX);
            }
            items.push(TraceItem::Instr(instr));
        }
        items.push(TraceItem::Instr(Instr::load(0, u64::MAX)));
        items.push(TraceItem::Instr(Instr::store(42, 0)));
        items.push(TraceItem::Instr(Instr::branch(7, true, u64::MAX)));
        items.push(TraceItem::Instr(Instr::branch(9, false, 0)));
        items.push(TraceItem::Marker(Marker::LoopEnter {
            loop_id: LoopId(u32::MAX),
        }));
        items.push(TraceItem::Marker(Marker::LoopExit { loop_id: LoopId(0) }));
        items.push(TraceItem::Marker(Marker::SubroutineExit {
            subroutine: SubroutineId(3),
        }));
        items
    }

    #[test]
    fn word_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<PackedWord>(), 16);
    }

    #[test]
    fn round_trip_covers_every_item_kind() {
        let items = exhaustive_items();
        let packed = PackedTrace::from_items(&items);
        assert_eq!(packed.len(), items.len());
        assert_eq!(
            packed.instructions() as usize,
            items.iter().filter(|i| i.as_instr().is_some()).count()
        );
        assert_eq!(packed.to_items(), items);
    }

    #[test]
    fn cursor_is_exact_size() {
        let packed = PackedTrace::from_items(&exhaustive_items());
        let mut cursor = packed.iter();
        assert_eq!(cursor.len(), packed.len());
        cursor.next();
        assert_eq!(cursor.len(), packed.len() - 1);
    }

    #[test]
    fn truncation_matches_item_truncation() {
        let items = exhaustive_items();
        let packed = PackedTrace::from_items(&items);
        for n in [0, 1, 5, items.len(), items.len() + 3] {
            let truncated = packed.truncated(n);
            let expected: Vec<TraceItem> = items.iter().take(n).copied().collect();
            assert_eq!(truncated.to_items(), expected, "n={n}");
            assert_eq!(
                truncated.instructions() as usize,
                expected.iter().filter(|i| i.as_instr().is_some()).count()
            );
        }
    }

    #[test]
    fn word_encode_decode_round_trips() {
        let packed = PackedTrace::from_items(&exhaustive_items());
        for word in packed.raw_parts().0 {
            let (a, b) = word.encode();
            assert_eq!(PackedWord::decode(a, b), Some(*word));
        }
        assert_eq!(PackedWord::decode(0, 1 << 55), None, "stray high bits");
    }

    #[test]
    fn raw_parts_validate_tables_and_tags() {
        let packed = PackedTrace::from_items(&exhaustive_items());
        let (words, mem, branch) = packed.raw_parts();
        let rebuilt = PackedTrace::from_raw_parts(words.to_vec(), mem.to_vec(), branch.to_vec())
            .expect("self-consistent parts");
        assert_eq!(rebuilt, packed);
        // A missing side-table entry is rejected.
        assert!(PackedTrace::from_raw_parts(
            words.to_vec(),
            mem[..mem.len() - 1].to_vec(),
            branch.to_vec()
        )
        .is_none());
        // An unknown tag is rejected.
        let mut bad = words.to_vec();
        bad[0].tag = 200;
        assert!(PackedTrace::from_raw_parts(bad, mem.to_vec(), branch.to_vec()).is_none());
    }

    #[test]
    fn zero_dependence_normalizes_to_none() {
        let item = TraceItem::Instr(Instr {
            pc: 5,
            class: InstrClass::IntAlu,
            dep1: Some(0),
            dep2: Some(0),
            mem_addr: None,
            branch: None,
        });
        let packed = PackedTrace::from_items(&[item]);
        let decoded = packed.to_items();
        let instr = decoded[0].as_instr().unwrap();
        assert_eq!(instr.dep1, None);
        assert_eq!(instr.dep2, None);
    }
}
