//! The per-inode request index: sorted list (2.4.4) and hash table (the
//! paper's fix).
//!
//! The 2.4.4 client keeps an inode's write requests on a list sorted by
//! page offset; `_nfs_find_request` walks it linearly. A sequential
//! writer looks up a page that is never there, walks the *whole* list,
//! and appends at the end — Figure 3's linear latency growth. The paper's
//! hash table keyed by page offset makes the lookup O(1) at a cost of
//! eight bytes per request and eight per inode.
//!
//! Both kinds share one page-ordered deque on the host.
//! [`RequestIndex::find`] and [`RequestIndex::insert`] return the number
//! of list entries the 2.4.4 walk visits so the caller can charge honest
//! CPU time: walk lengths are derived from positions, not walked, and the
//! charge is identical. The hash-table kind reports zero and is charged
//! one hash operation. A sequential writer appends at the back and
//! completes at the front, both O(1); other positions are found by
//! binary search.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::request::NfsPageReq;
use crate::tuning::IndexKind;

/// The index over one inode's outstanding requests.
pub struct RequestIndex {
    /// Requests ordered by page index.
    list: VecDeque<Rc<NfsPageReq>>,
    /// Which walk length the simulated client pays for.
    kind: IndexKind,
}

/// Result of an index operation: what was found plus the walk length to
/// charge.
pub struct Lookup {
    /// The matching request, if one exists.
    pub found: Option<Rc<NfsPageReq>>,
    /// List entries walked (zero when the hash table answered).
    pub scanned: usize,
}

impl RequestIndex {
    /// Creates an empty index of the given kind.
    pub fn new(kind: IndexKind) -> RequestIndex {
        RequestIndex {
            list: VecDeque::new(),
            kind,
        }
    }

    /// Position of the first request at or after `page_index`. Checks the
    /// back first: a sequential writer's next page always lands there.
    fn position(&self, page_index: u64) -> usize {
        match self.list.back() {
            Some(last) if last.page_index >= page_index => {
                self.list.partition_point(|r| r.page_index < page_index)
            }
            _ => self.list.len(),
        }
    }

    /// Entries `_nfs_find_request`'s walk visits to reach `pos`: every
    /// smaller page, plus the one it stops on (if any). Zero for the
    /// hash table.
    fn walk_len(&self, pos: usize) -> usize {
        match self.kind {
            IndexKind::SortedList => pos + usize::from(pos < self.list.len()),
            IndexKind::HashTable => 0,
        }
    }

    /// The request at `pos` if it covers `page_index`.
    fn at(&self, pos: usize, page_index: u64) -> Option<&Rc<NfsPageReq>> {
        self.list.get(pos).filter(|r| r.page_index == page_index)
    }

    /// Looks up the request covering `page_index`.
    ///
    /// With the hash table this is one bucket probe; with the plain list
    /// the walk visits entries in page order until it finds the page or
    /// proves absence (passing the insertion point), exactly as
    /// `_nfs_find_request` does.
    pub fn find(&self, page_index: u64) -> Lookup {
        let pos = self.position(page_index);
        Lookup {
            found: self.at(pos, page_index).cloned(),
            scanned: self.walk_len(pos),
        }
    }

    /// Inserts a new request, keeping the list sorted. Returns entries
    /// walked to find the insertion point (a sequential writer walks the
    /// whole list every time — the Figure 3 pathology); zero with the
    /// hash table.
    ///
    /// # Panics
    ///
    /// Panics if a request for the same page is already indexed; callers
    /// must [`RequestIndex::find`] first.
    pub fn insert(&mut self, req: Rc<NfsPageReq>) -> usize {
        let page = req.page_index;
        let pos = self.position(page);
        assert!(
            self.at(pos, page).is_none(),
            "duplicate request for page {page}"
        );
        let scanned = self.walk_len(pos);
        self.list.insert(pos, req);
        scanned
    }

    /// Removes the request for `page_index` (on completion). Completion
    /// holds a pointer to the request in the real kernel, so removal is
    /// O(1) and uncharged.
    pub fn remove(&mut self, page_index: u64) -> Option<Rc<NfsPageReq>> {
        let pos = match self.list.front() {
            Some(first) if first.page_index == page_index => 0,
            _ => self.position(page_index),
        };
        self.at(pos, page_index)?;
        self.list.remove(pos)
    }

    /// Number of indexed requests.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Returns `true` when no requests are outstanding.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Iterates requests in page order (for coalescing and flushing).
    pub fn iter(&self) -> impl Iterator<Item = &Rc<NfsPageReq>> {
        self.list.iter()
    }

    /// Iterates requests with `page_index >= from` in page order. The
    /// starting position is found by binary search; this is a host-CPU
    /// shortcut only — simulated scan costs are charged by the caller
    /// independently of how the iteration is implemented.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &Rc<NfsPageReq>> {
        self.list.range(self.position(from)..)
    }

    /// Returns `true` if the hash table is active.
    pub fn has_hash(&self) -> bool {
        self.kind == IndexKind::HashTable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimTime;

    fn req(page: u64) -> Rc<NfsPageReq> {
        NfsPageReq::new(page, 0, 4096, SimTime::ZERO)
    }

    #[test]
    fn sequential_list_inserts_walk_everything() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        for page in 0..100 {
            let l = idx.find(page);
            assert!(l.found.is_none());
            assert_eq!(l.scanned, page as usize, "absent lookup walks whole list");
            let walked = idx.insert(req(page));
            assert_eq!(walked, page as usize, "insert walks to the end");
        }
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn hash_lookups_do_not_walk() {
        let mut idx = RequestIndex::new(IndexKind::HashTable);
        for page in 0..100 {
            assert_eq!(idx.find(page).scanned, 0);
            assert_eq!(idx.insert(req(page)), 0);
        }
        let hit = idx.find(50);
        assert!(hit.found.is_some());
        assert_eq!(hit.scanned, 0);
        assert!(idx.has_hash());
    }

    #[test]
    fn list_find_hit_stops_at_match() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        for page in 0..10 {
            idx.insert(req(page));
        }
        let l = idx.find(4);
        assert_eq!(l.found.unwrap().page_index, 4);
        assert_eq!(l.scanned, 5);
    }

    #[test]
    fn list_find_miss_stops_at_sorted_position() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        idx.insert(req(0));
        idx.insert(req(10));
        let l = idx.find(5);
        assert!(l.found.is_none());
        assert_eq!(l.scanned, 2, "stops at the first larger page");
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        for page in [5u64, 1, 9, 3, 7] {
            idx.insert(req(page));
        }
        let pages: Vec<u64> = idx.iter().map(|r| r.page_index).collect();
        assert_eq!(pages, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn remove_finds_and_removes() {
        for kind in [IndexKind::SortedList, IndexKind::HashTable] {
            let mut idx = RequestIndex::new(kind);
            for page in 0..5 {
                idx.insert(req(page));
            }
            let removed = idx.remove(2).expect("present");
            assert_eq!(removed.page_index, 2);
            assert!(idx.find(2).found.is_none());
            assert!(idx.remove(2).is_none(), "second removal misses");
            assert_eq!(idx.len(), 4);
        }
    }

    #[test]
    fn both_kinds_agree_on_contents() {
        let mut a = RequestIndex::new(IndexKind::SortedList);
        let mut b = RequestIndex::new(IndexKind::HashTable);
        for page in [3u64, 1, 4, 8, 9, 2, 6] {
            a.insert(req(page));
            b.insert(req(page));
        }
        let pa: Vec<u64> = a.iter().map(|r| r.page_index).collect();
        let pb: Vec<u64> = b.iter().map(|r| r.page_index).collect();
        assert_eq!(pa, pb);
        for page in 0..10 {
            assert_eq!(a.find(page).found.is_some(), b.find(page).found.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate request")]
    fn duplicate_insert_panics_list() {
        let mut idx = RequestIndex::new(IndexKind::SortedList);
        idx.insert(req(1));
        idx.insert(req(1));
    }

    #[test]
    #[should_panic(expected = "duplicate request")]
    fn duplicate_insert_panics_hash() {
        let mut idx = RequestIndex::new(IndexKind::HashTable);
        idx.insert(req(1));
        idx.insert(req(1));
    }
}
