//! A minimal file-system model over the logical page space.
//!
//! The generators need realistic file behaviour — creation, append,
//! overwrite, deletion, fragmentation of the logical address space — without
//! a full file system. `FileModel` tracks which logical pages belong to
//! which file and hands out free pages (first from a recycled pool, so the
//! space fragments over time like a real aged file system).
//!
//! Live files sit in one dense `Vec` and are addressed by their position
//! in it: every file the generator touches is one it just drew by
//! position ([`FileModel::random_file`]) or just created (the last
//! position), so nothing is ever looked up by [`FileId`] and a delete is
//! one `swap_remove`. Short page lists sit in the table too ([`Pages`]).

use crate::trace::FileId;
use evanesco_ftl::Lpa;
use rand::Rng;

/// Pages a file can hold in the file table itself.
const INLINE: usize = 6;

/// A file's page list (derefs to `[Lpa]`). Lists of up to [`INLINE`] pages
/// — nearly every MailServer file — live in the file table itself, so
/// touching a random file is one cache miss, not two.
#[derive(Debug, Clone)]
pub enum Pages {
    /// `(len, pages)`: the list is `pages[..len]`.
    Inline(u8, [Lpa; INLINE]),
    /// A list that outgrew the table.
    Heap(Vec<Lpa>),
}

impl std::ops::Deref for Pages {
    type Target = [Lpa];

    fn deref(&self) -> &[Lpa] {
        match self {
            Pages::Inline(len, pages) => &pages[..usize::from(*len)],
            Pages::Heap(pages) => pages,
        }
    }
}

impl Pages {
    /// Moves the `npages` most recently freed pages of `free` onto the end
    /// of the list, most recent first.
    fn take(&mut self, free: &mut Vec<Lpa>, npages: u64) {
        let new = free.drain(free.len() - npages as usize..).rev();
        match self {
            Pages::Inline(len, pages) if usize::from(*len) + new.len() <= INLINE => {
                for lpa in new {
                    pages[usize::from(*len)] = lpa;
                    *len += 1;
                }
            }
            Pages::Inline(..) => {
                let mut all = self.to_vec();
                all.extend(new);
                *self = Pages::Heap(all);
            }
            Pages::Heap(pages) => pages.extend(new),
        }
    }
}

/// One live file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// The file's id in the emitted trace (creation order).
    pub id: FileId,
    /// Logical pages of the file, in file order.
    pub lpas: Pages,
    /// Security requirement of the file's data.
    pub secure: bool,
}

/// The file/LPA bookkeeping model.
#[derive(Debug, Clone)]
pub struct FileModel {
    logical_pages: u64,
    free: Vec<Lpa>,
    files: Vec<FileInfo>,
    next_id: FileId,
}

impl FileModel {
    /// Creates an empty model over `logical_pages` pages.
    pub fn new(logical_pages: u64) -> Self {
        FileModel {
            logical_pages,
            free: (0..logical_pages).rev().collect(),
            files: Vec::new(),
            next_id: 0,
        }
    }

    /// Number of free logical pages.
    pub fn free_pages(&self) -> u64 {
        self.free.len() as u64
    }

    /// Number of used logical pages.
    pub fn used_pages(&self) -> u64 {
        self.logical_pages - self.free_pages()
    }

    /// Current utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used_pages() as f64 / self.logical_pages as f64
    }

    /// Number of live files.
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// The live file at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= n_files()`, as do the other by-position methods.
    pub fn file(&self, pos: usize) -> &FileInfo {
        &self.files[pos]
    }

    /// Creates a file of `npages`, allocating logical pages.
    ///
    /// Returns the new file (at the last position), or `None` if there is
    /// not enough free space.
    pub fn create(&mut self, npages: u64, secure: bool) -> Option<&FileInfo> {
        if self.free_pages() < npages {
            return None;
        }
        let mut lpas = Pages::Inline(0, [0; INLINE]);
        lpas.take(&mut self.free, npages);
        self.files.push(FileInfo { id: self.next_id, lpas, secure });
        self.next_id += 1;
        self.files.last()
    }

    /// Appends `npages` to the file at `pos`. Returns the appended pages,
    /// or `None` on insufficient space.
    pub fn append(&mut self, pos: usize, npages: u64) -> Option<&[Lpa]> {
        if self.free_pages() < npages {
            return None;
        }
        let lpas = &mut self.files[pos].lpas;
        let old = lpas.len();
        lpas.take(&mut self.free, npages);
        Some(&lpas[old..])
    }

    /// Picks a random in-place overwrite range of up to `npages` within the
    /// file at `pos`: returns the affected pages (existing LPAs, rewritten
    /// in place), or `None` for an empty file.
    pub fn overwrite_range<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pos: usize,
        npages: u64,
    ) -> Option<&[Lpa]> {
        let lpas = &self.files[pos].lpas;
        if lpas.is_empty() {
            return None;
        }
        let n = npages.min(lpas.len() as u64) as usize;
        let start = rng.gen_range(0..=(lpas.len() - n));
        Some(&lpas[start..start + n])
    }

    /// Deletes the file at `pos` (the last file takes its position),
    /// returning its pages to the free pool. Returns the file, whose page
    /// list is what the trim trace op covers.
    pub fn delete(&mut self, pos: usize) -> FileInfo {
        let f = self.files.swap_remove(pos);
        self.free.extend_from_slice(&f.lpas);
        f
    }

    /// The position of a uniformly random live file, if any.
    pub fn random_file<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.files.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..self.files.len()))
        }
    }

    /// Splits a page list into maximal contiguous runs `(start, len)`.
    pub fn contiguous_runs(lpas: &[Lpa]) -> impl Iterator<Item = (Lpa, u64)> + '_ {
        lpas.chunk_by(|a, b| *b == *a + 1).map(|run| (run[0], run.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn create_append_delete_lifecycle() {
        let mut fs = FileModel::new(100);
        assert_eq!(fs.create(10, true).unwrap().id, 0);
        assert_eq!(fs.used_pages(), 10);
        let appended = fs.append(0, 5).unwrap().to_vec();
        assert_eq!(appended, fs.file(0).lpas[10..]);
        assert_eq!(fs.file(0).lpas.len(), 15);
        let freed = fs.delete(0);
        assert_eq!((freed.id, freed.lpas.len(), freed.secure), (0, 15, true));
        assert_eq!(fs.used_pages(), 0);
        assert_eq!(fs.n_files(), 0);
    }

    #[test]
    fn create_fails_when_full() {
        let mut fs = FileModel::new(10);
        assert!(fs.create(8, false).is_some());
        assert!(fs.create(3, false).is_none());
        assert!(fs.append(0, 3).is_none());
        assert!(fs.create(2, false).is_some());
        assert_eq!(fs.utilization(), 1.0);
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut fs = FileModel::new(10);
        fs.create(10, false).unwrap();
        fs.delete(0);
        let mut lpas = fs.create(10, false).unwrap().lpas.to_vec();
        lpas.sort_unstable();
        assert_eq!(lpas, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pages_come_off_the_free_pool_most_recently_freed_first() {
        let mut fs = FileModel::new(10);
        assert_eq!(*fs.create(3, false).unwrap().lpas, [0, 1, 2]);
        assert_eq!(*fs.create(2, false).unwrap().lpas, [3, 4]);
        fs.delete(0);
        assert_eq!(fs.append(0, 2).unwrap(), [2, 1]);
        assert_eq!(*fs.create(2, false).unwrap().lpas, [0, 5]);
    }

    #[test]
    fn a_page_list_keeps_its_order_when_it_outgrows_the_table() {
        let mut fs = FileModel::new(100);
        fs.create(INLINE as u64 - 1, false).unwrap();
        assert!(matches!(fs.file(0).lpas, Pages::Inline(5, _)));
        assert_eq!(fs.append(0, 1).unwrap(), [5]);
        assert!(matches!(fs.file(0).lpas, Pages::Inline(6, _)));
        assert_eq!(fs.append(0, 2).unwrap(), [6, 7]);
        assert!(matches!(fs.file(0).lpas, Pages::Heap(_)));
        assert_eq!(fs.append(0, 1).unwrap(), [8]);
        assert_eq!(*fs.file(0).lpas, (0..9).collect::<Vec<_>>()[..]);
        assert!(matches!(fs.create(INLINE as u64 + 1, true).unwrap().lpas, Pages::Heap(_)));
        assert_eq!(std::mem::size_of::<FileInfo>(), 64, "one table entry, one cache line");
    }

    #[test]
    fn delete_moves_the_last_file_into_the_hole_and_ids_never_repeat() {
        let mut fs = FileModel::new(100);
        for _ in 0..4 {
            fs.create(1, false).unwrap();
        }
        assert_eq!(fs.delete(1).id, 1);
        let ids = |fs: &FileModel| (0..fs.n_files()).map(|p| fs.file(p).id).collect::<Vec<_>>();
        assert_eq!(ids(&fs), [0, 3, 2]);
        assert_eq!(fs.delete(2).id, 2);
        assert_eq!(fs.create(1, false).unwrap().id, 4);
        assert_eq!(ids(&fs), [0, 3, 4]);
    }

    #[test]
    fn overwrite_range_stays_in_file() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fs = FileModel::new(100);
        fs.create(20, true).unwrap();
        for _ in 0..50 {
            let pages = fs.overwrite_range(&mut rng, 0, 8).unwrap();
            assert!(pages.len() == 8);
            for p in pages {
                assert!(fs.file(0).lpas.contains(p));
            }
        }
        // Larger than the file: clamped.
        assert_eq!(fs.overwrite_range(&mut rng, 0, 100).unwrap().len(), 20);
    }

    #[test]
    fn random_file_uniformish() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fs = FileModel::new(100);
        fs.create(1, false).unwrap();
        fs.create(1, false).unwrap();
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[fs.random_file(&mut rng).unwrap()] = true;
        }
        assert_eq!(seen, [true; 2]);
        assert_eq!(FileModel::new(5).random_file(&mut rng), None);
    }

    #[test]
    fn contiguous_runs_split_correctly() {
        let runs = |lpas: &[Lpa]| FileModel::contiguous_runs(lpas).collect::<Vec<_>>();
        assert_eq!(runs(&[0, 1, 2, 5, 6, 9]), vec![(0, 3), (5, 2), (9, 1)]);
        assert_eq!(runs(&[]), vec![]);
        assert_eq!(runs(&[7]), vec![(7, 1)]);
        assert_eq!(runs(&[3, 2, 1]), vec![(3, 1), (2, 1), (1, 1)]);
    }
}
