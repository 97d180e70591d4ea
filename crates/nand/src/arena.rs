//! The chunked FIFO arena under every observer ring: trace headers and
//! packed events, anatomy rows and causal chains, the FTL decision log and
//! the telemetry windows.
//!
//! Records are appended at the tail and released at the head, oldest
//! first. Storage is a queue of fixed-capacity chunks: a record is one
//! contiguous slice that never straddles a chunk (a record whose bound
//! does not fit the tail's remainder opens the next chunk; one larger than
//! a chunk gets a chunk of exactly its size), so readers see plain slices and a
//! [`Span`] stays valid until its record is released. Growth allocates
//! one chunk — nothing is doubled or copied — releasing frees whole
//! chunks, one emptied chunk is kept to be refilled, and dropping the
//! arena frees one block per chunk however many records it holds.
//!
//! A ring of one-element records ([`Arena::for_ring`],
//! [`Arena::push_evicting`]) releases its oldest record before it appends,
//! so the chunk the release empties is the one the append refills: a ring
//! of `capacity` records holds at most `capacity` rounded up to whole
//! chunks plus one chunk, however many records it has seen.
//!
//! Every arena keeps the ring contract in elements:
//! `pushed() == len() + released()`.

use crate::timing::Nanos;
use std::collections::VecDeque;

/// A [`Nanos`] as two 32-bit halves: a packed record holding times this
/// way aligns to 4 bytes, not 8, and sheds the padding (an event is 20
/// bytes instead of 24, a segment 12 instead of 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedNanos([u32; 2]);

impl From<Nanos> for PackedNanos {
    fn from(t: Nanos) -> Self {
        PackedNanos([t.0 as u32, (t.0 >> 32) as u32])
    }
}

impl From<PackedNanos> for Nanos {
    fn from(t: PackedNanos) -> Self {
        Nanos(u64::from(t.0[1]) << 32 | u64::from(t.0[0]))
    }
}

/// Handle to one record of an [`Arena`]: `len` elements at offset `off`
/// of the `chunk`-th chunk the arena ever opened (modulo 2³²: ordinals
/// are only ever compared with the oldest open chunk's, by wrapping
/// subtraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    chunk: u32,
    off: u32,
    len: u32,
}

impl Span {
    /// Elements in the record.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for a record of no elements.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Append-only, release-from-the-front storage in fixed chunks.
#[derive(Debug)]
pub struct Arena<T> {
    chunk_len: usize,
    /// Open chunks, oldest first; a chunk's `len` is what was appended to
    /// it, its capacity never changes.
    chunks: VecDeque<Vec<T>>,
    /// Ordinal of `chunks[0]` among all chunks ever opened, modulo 2³².
    first_chunk: u32,
    /// Offset in `chunks[0]` of the oldest retained element.
    head: usize,
    /// One emptied standard-size chunk, refilled before allocating.
    spare: Option<Vec<T>>,
    pushed: u64,
    released: u64,
}

impl<T: Copy> Arena<T> {
    /// An empty arena of `chunk_len`-element chunks; allocates on first use.
    pub fn new(chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "arena chunks hold at least one element");
        Arena {
            chunk_len,
            chunks: VecDeque::new(),
            first_chunk: 0,
            head: 0,
            spare: None,
            pushed: 0,
            released: 0,
        }
    }

    /// An empty arena for a ring of `capacity` one-element records, in
    /// chunks of at most `max_chunk` elements sized so that whole chunks
    /// cover the capacity with less than one element of slack per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_chunk` is zero.
    pub fn for_ring(capacity: usize, max_chunk: usize) -> Self {
        assert!(capacity > 0 && max_chunk > 0, "a ring holds at least one record");
        Arena::new(capacity.div_ceil(capacity.div_ceil(max_chunk)))
    }

    /// Elements a standard chunk holds.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Element slots the arena holds: every open chunk's and the spare's.
    pub fn slots(&self) -> usize {
        self.chunks.iter().chain(&self.spare).map(Vec::capacity).sum()
    }

    /// Keeps `chunk` as the spare if the arena has none and it is a
    /// standard chunk: a recorder on another thread refills chunks the
    /// request thread allocated. `None` once it is kept.
    pub fn adopt(&mut self, chunk: Option<Vec<T>>) -> Option<Vec<T>> {
        match chunk {
            Some(mut c) if self.spare.is_none() && c.capacity() == self.chunk_len => {
                c.clear();
                self.spare = Some(c);
                None
            }
            other => other,
        }
    }

    /// Elements appended over the arena's lifetime.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Elements released from the front.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Elements retained.
    pub fn len(&self) -> usize {
        (self.pushed - self.released) as usize
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.pushed == self.released
    }

    /// Appends one record of what `items` yields, at most `max` elements
    /// (room for `max` is made first).
    ///
    /// # Panics
    ///
    /// Panics if `max` exceeds `u32::MAX`.
    pub fn push_iter(&mut self, max: usize, items: impl IntoIterator<Item = T>) -> Span {
        assert!(u32::try_from(max).is_ok(), "an arena record holds at most u32::MAX elements");
        if max == 0 {
            // Nothing to store, nowhere to point: never opens a chunk.
            return Span { chunk: 0, off: 0, len: 0 };
        }
        let room = self.chunks.back().map_or(0, |tail| tail.capacity() - tail.len());
        if max > room {
            let chunk = match self.spare.take() {
                Some(spare) if max <= spare.capacity() => spare,
                spare => {
                    self.spare = spare;
                    Vec::with_capacity(max.max(self.chunk_len))
                }
            };
            self.chunks.push_back(chunk);
        }
        let chunk = self.first_chunk.wrapping_add(self.chunks.len() as u32 - 1);
        let tail = self.chunks.back_mut().expect("a tail chunk with room was ensured");
        let off = tail.len();
        tail.extend(items.into_iter().take(max));
        let len = tail.len() - off;
        self.pushed += len as u64;
        Span { chunk, off: off as u32, len: len as u32 }
    }

    /// Appends a one-element record.
    pub fn push(&mut self, item: T) -> Span {
        self.push_iter(1, [item])
    }

    /// Appends `item` to a ring of `capacity` one-element records,
    /// releasing the oldest first when the ring is full (so the chunk that
    /// empties is refilled, never a new one opened beside it). Returns
    /// whether a record was evicted.
    pub fn push_evicting(&mut self, capacity: usize, item: T) -> bool {
        let full = self.len() >= capacity;
        if full {
            self.release_front(1);
        }
        self.push(item);
        full
    }

    /// The record behind `span`.
    ///
    /// # Panics
    ///
    /// Panics if the record was released.
    pub fn slice(&self, span: Span) -> &[T] {
        if span.len == 0 {
            return &[];
        }
        let chunk = self
            .chunks
            .get(span.chunk.wrapping_sub(self.first_chunk) as usize)
            .expect("arena span outlived its record");
        &chunk[span.off as usize..][..span.len as usize]
    }

    /// Releases the `n` oldest elements, freeing every chunk they empty.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` elements are retained.
    pub fn release_front(&mut self, n: usize) {
        assert!(n <= self.len(), "releasing {n} of {} retained elements", self.len());
        self.released += n as u64;
        let mut left = n;
        while let Some(front_len) = self.chunks.front().map(Vec::len) {
            let take = left.min(front_len - self.head);
            self.head += take;
            left -= take;
            if self.head < front_len {
                return;
            }
            // The front chunk is used up: the tail is refilled in place,
            // any other is retired.
            self.head = 0;
            if self.chunks.len() == 1 {
                self.chunks[0].clear();
                return;
            }
            let mut emptied = self.chunks.pop_front().expect("checked non-empty");
            self.first_chunk = self.first_chunk.wrapping_add(1);
            if self.spare.is_none() && emptied.capacity() == self.chunk_len {
                emptied.clear();
                self.spare = Some(emptied);
            }
        }
    }

    /// The oldest retained element.
    pub fn front(&self) -> Option<&T> {
        self.iter().next()
    }

    /// The retained elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        let chunks = self.chunks.iter().enumerate();
        chunks.flat_map(|(i, c)| if i == 0 { &c[self.head..] } else { &c[..] })
    }
}

impl<T: Copy> Clone for Arena<T> {
    /// Chunk for chunk, keeping each chunk's capacity so the clone's tail
    /// has the same room and spans mean the same records.
    fn clone(&self) -> Self {
        let chunks = self.chunks.iter().map(|c| {
            let mut copy = Vec::with_capacity(c.capacity());
            copy.extend_from_slice(c);
            copy
        });
        Arena { chunks: chunks.collect(), spare: None, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `sizes` as records of consecutive integers and returns each
    /// record's span and expected contents.
    fn fill(arena: &mut Arena<u32>, sizes: &[usize], next: &mut u32) -> Vec<(Span, Vec<u32>)> {
        sizes
            .iter()
            .map(|&n| {
                let want: Vec<u32> = (*next..*next + n as u32).collect();
                *next += n as u32;
                (arena.push_iter(n, want.iter().copied()), want)
            })
            .collect()
    }

    fn contract(arena: &Arena<u32>) {
        assert_eq!(arena.pushed(), arena.len() as u64 + arena.released());
        assert_eq!(arena.iter().count(), arena.len());
    }

    #[test]
    fn records_are_contiguous_and_read_back_across_chunks() {
        let mut arena = Arena::new(4);
        let mut next = 0;
        // 3 fits; 2 does not fit the remaining 1 and opens a chunk; 9 is
        // larger than a chunk; 0 stores nothing; 4 fills a chunk exactly.
        let records = fill(&mut arena, &[3, 2, 9, 0, 4, 1], &mut next);
        for (span, want) in &records {
            assert_eq!(arena.slice(*span), want.as_slice());
        }
        let all: Vec<u32> = arena.iter().copied().collect();
        assert_eq!(all, (0..next).collect::<Vec<_>>(), "skipped room holds no elements");
        contract(&arena);
    }

    #[test]
    fn releasing_frees_every_emptied_chunk_at_once() {
        let mut arena = Arena::new(4);
        let mut next = 0;
        let records = fill(&mut arena, &[4, 4, 4, 4, 2], &mut next);
        assert_eq!(arena.chunks.len(), 5);
        // Ten elements: two whole chunks and half of the third.
        arena.release_front(10);
        assert_eq!(arena.chunks.len(), 3);
        assert!(arena.spare.is_some(), "one emptied chunk is kept");
        assert_eq!(arena.iter().copied().collect::<Vec<_>>(), (10..next).collect::<Vec<_>>());
        assert_eq!(arena.slice(records[4].0), &[16, 17]);
        contract(&arena);
        // The rest, exactly: the tail is emptied in place and refilled.
        arena.release_front(arena.len());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.chunks.len(), 1);
        let again = fill(&mut arena, &[3], &mut next);
        assert_eq!(arena.chunks.len(), 1, "the emptied tail is reused");
        assert_eq!(arena.slice(again[0].0), again[0].1.as_slice());
        contract(&arena);
    }

    #[test]
    fn the_spare_chunk_is_refilled_before_allocating() {
        let mut arena = Arena::new(4);
        let mut next = 0;
        fill(&mut arena, &[4, 4], &mut next);
        arena.release_front(4);
        let spare = arena.spare.as_ref().expect("spare kept").as_ptr();
        fill(&mut arena, &[4], &mut next);
        assert!(arena.spare.is_none());
        assert_eq!(arena.chunks.back().unwrap().as_ptr(), spare, "the new tail is the old front");
        // An oversized chunk is not kept as a spare: it would never fit.
        fill(&mut arena, &[9], &mut next);
        arena.release_front(arena.len() - 1);
        assert!(arena.spare.as_ref().is_some_and(|s| s.capacity() == 4));
        contract(&arena);
    }

    #[test]
    #[should_panic(expected = "releasing 3 of 2 retained elements")]
    fn over_release_is_refused() {
        let mut arena = Arena::new(4);
        arena.push(1u32);
        arena.push(2);
        arena.release_front(3);
    }

    #[test]
    #[should_panic(expected = "arena span outlived its record")]
    fn a_released_chunk_cannot_be_read_through_a_stale_span() {
        let mut arena = Arena::new(2);
        let old = arena.push_iter(2, [1u32, 2]);
        arena.push_iter(2, [3, 4]);
        arena.release_front(2);
        // Ordinal 0 is gone; wrapping subtraction lands far out of range.
        arena.slice(old);
    }

    #[test]
    fn chunk_ordinals_wrap_without_losing_records() {
        let mut arena = Arena::new(2);
        arena.first_chunk = u32::MAX - 1;
        let mut next = 0;
        let records = fill(&mut arena, &[2, 2, 2, 2], &mut next);
        for (span, want) in &records {
            assert_eq!(arena.slice(*span), want.as_slice());
        }
        arena.release_front(5);
        assert_eq!(arena.slice(records[3].0), &[6, 7]);
        contract(&arena);
    }

    #[test]
    fn a_clone_means_the_same_records_and_keeps_its_room() {
        let mut arena = Arena::new(8);
        let mut next = 0;
        let records = fill(&mut arena, &[3, 2], &mut next);
        let mut copy = arena.clone();
        for (span, want) in &records {
            assert_eq!(copy.slice(*span), want.as_slice());
        }
        let more = fill(&mut copy, &[3], &mut next);
        assert_eq!(copy.chunks.len(), 1, "the clone's tail had the original's room");
        assert_eq!(copy.slice(more[0].0), more[0].1.as_slice());
        assert_eq!(arena.len(), 5, "the original is untouched");
    }

    #[test]
    fn a_ring_holds_its_capacity_plus_one_chunk() {
        for (capacity, max_chunk) in [(64, 16), (100, 16), (5, 16), (1, 4)] {
            let mut ring = Arena::for_ring(capacity, max_chunk);
            let mut evicted = 0;
            for i in 0..3 * capacity as u32 {
                evicted += u64::from(ring.push_evicting(capacity, i));
            }
            let chunk = ring.chunk_len();
            assert_eq!((ring.len(), ring.released()), (capacity, evicted));
            let last: Vec<u32> = (2 * capacity as u32..3 * capacity as u32).collect();
            assert_eq!(ring.iter().copied().collect::<Vec<_>>(), last);
            assert!(
                ring.slots() <= capacity.next_multiple_of(chunk) + chunk,
                "capacity {capacity} in chunks of {chunk} holds {} slots",
                ring.slots()
            );
        }
        // Whole chunks: exactly one beyond the capacity.
        let mut ring = Arena::for_ring(64, 16);
        for i in 0..192 {
            ring.push_evicting(64, i);
        }
        assert_eq!(ring.slots(), 64 + 16);
    }

    #[test]
    fn an_adopted_chunk_is_filled_before_allocating() {
        let mut arena = Arena::new(4);
        let chunk: Vec<u32> = Vec::with_capacity(4);
        let at = chunk.as_ptr();
        assert!(arena.adopt(Some(chunk)).is_none(), "a standard chunk becomes the spare");
        assert!(arena.adopt(Some(Vec::with_capacity(4))).is_some(), "one spare at a time");
        assert_eq!(arena.slots(), 4);
        arena.push(7);
        assert_eq!(arena.chunks[0].as_ptr(), at, "the adopted chunk is the first one filled");
        assert!(arena.adopt(Some(Vec::with_capacity(9))).is_some(), "an odd size is handed back");
    }

    #[test]
    fn packed_nanos_round_trips() {
        for t in [0, 1, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(Nanos::from(PackedNanos::from(Nanos(t))), Nanos(t));
        }
    }
}
