//! A minimal host file-system façade over the emulated SSD — the paper's
//! §6 application story made concrete:
//!
//! ```c
//! fd      = open("foo", O_RDWR);            // secure by default
//! fd_ver  = open("bar", O_RDWR | O_INSEC);  // opts out of sanitization
//! ```
//!
//! Files are byte-addressed; the façade chunks contents into 16-KiB pages,
//! allocates logical pages, and forwards the per-file security requirement
//! with every write (the `REQ_OP_INSEC_WRITE` block-layer flag). Deleting
//! a file trims all its pages in one batch — which is exactly the `bLock`
//! opportunity for whole-block files.

use crate::config::SsdConfig;
use crate::emulator::Emulator;
use evanesco_ftl::{Lpa, SanitizePolicy};
use evanesco_nand::chip::PageData;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// File open mode: secure by default, `O_INSEC` opts out (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// Deleted/updated data must be sanitized (the default).
    #[default]
    Secure,
    /// `O_INSEC`: versions may linger; deletion is not secure.
    Insecure,
}

/// Errors of the host file system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostFsError {
    /// The file name is already in use.
    AlreadyExists {
        /// Offending name.
        name: String,
    },
    /// No file with this name exists.
    NotFound {
        /// Requested name.
        name: String,
    },
    /// The logical address space is exhausted.
    NoSpace,
}

impl fmt::Display for HostFsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostFsError::AlreadyExists { name } => write!(f, "file '{name}' already exists"),
            HostFsError::NotFound { name } => write!(f, "file '{name}' not found"),
            HostFsError::NoSpace => f.write_str("no space left on device"),
        }
    }
}

impl Error for HostFsError {}

#[derive(Debug, Clone)]
struct FileEntry {
    lpas: Vec<Lpa>,
    len_bytes: u64,
    mode: OpenMode,
}

/// String interner for file names. Every name is mapped to a stable dense
/// `u32` id; the per-file table and all internal bookkeeping key on the
/// id, not the string. Ids survive deletion, so a recreated file keeps its
/// id — which makes them directly usable as workload-layer `FileId`s for
/// exposure attribution.
#[derive(Debug, Clone, Default)]
struct NameInterner {
    ids: HashMap<String, u32>,
}

impl NameInterner {
    fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("file-name interner overflow");
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// A file-granular interface over the emulated SecureSSD.
#[derive(Debug, Clone)]
pub struct HostFs {
    ssd: Emulator,
    names: NameInterner,
    files: HashMap<u32, FileEntry>,
    free: Vec<Lpa>,
    page_bytes: usize,
}

impl HostFs {
    /// Creates a file system over a fresh SSD.
    pub fn new(cfg: SsdConfig, policy: SanitizePolicy) -> Self {
        let ssd = Emulator::new(cfg, policy);
        let page_bytes = cfg.ftl.geometry.page_bytes as usize;
        let free = (0..ssd.logical_pages()).rev().collect();
        HostFs { ssd, names: NameInterner::default(), files: HashMap::new(), free, page_bytes }
    }

    /// The underlying SSD (for metrics and attacker verification).
    pub fn ssd_mut(&mut self) -> &mut Emulator {
        &mut self.ssd
    }

    /// Number of live files.
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// A file's size in bytes.
    ///
    /// # Errors
    ///
    /// [`HostFsError::NotFound`] if no such file exists.
    pub fn len(&self, name: &str) -> Result<u64, HostFsError> {
        self.entry(name).map(|e| e.len_bytes)
    }

    /// Whether the file system holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    fn entry(&self, name: &str) -> Result<&FileEntry, HostFsError> {
        self.names
            .get(name)
            .and_then(|id| self.files.get(&id))
            .ok_or_else(|| HostFsError::NotFound { name: name.to_string() })
    }

    /// The stable interned id of a live file, usable as a workload-layer
    /// `FileId`. Ids are dense, assigned at first creation, and survive
    /// delete/recreate cycles of the same name.
    pub fn file_id(&self, name: &str) -> Option<u32> {
        self.names.get(name).filter(|id| self.files.contains_key(id))
    }

    /// Creates a file with the given contents.
    ///
    /// # Errors
    ///
    /// * [`HostFsError::AlreadyExists`] if the name is taken;
    /// * [`HostFsError::NoSpace`] if the contents do not fit.
    pub fn create(
        &mut self,
        name: &str,
        contents: &[u8],
        mode: OpenMode,
    ) -> Result<(), HostFsError> {
        if self.file_id(name).is_some() {
            return Err(HostFsError::AlreadyExists { name: name.to_string() });
        }
        let lpas = self.store(contents, mode)?;
        let id = self.names.intern(name);
        self.files.insert(id, FileEntry { lpas, len_bytes: contents.len() as u64, mode });
        Ok(())
    }

    /// Replaces a file's contents in place (the logical pages are rewritten,
    /// which supersedes the old physical versions — condition C2 territory).
    ///
    /// # Errors
    ///
    /// * [`HostFsError::NotFound`] for a missing file;
    /// * [`HostFsError::NoSpace`] if the new contents need more pages than
    ///   are available.
    pub fn overwrite(&mut self, name: &str, contents: &[u8]) -> Result<(), HostFsError> {
        let mode = self.entry(name)?.mode;
        // Free the old extent first (trim), then store fresh.
        let id = self.names.get(name).expect("checked above");
        let old = self.files.remove(&id).expect("checked above");
        self.trim_extent(&old.lpas);
        self.free.extend(old.lpas.iter().copied());
        let lpas = self.store(contents, mode)?;
        self.files.insert(id, FileEntry { lpas, len_bytes: contents.len() as u64, mode });
        Ok(())
    }

    /// Reads a file's full contents.
    ///
    /// # Errors
    ///
    /// [`HostFsError::NotFound`] for a missing file.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, HostFsError> {
        let (lpas, len) = {
            let e = self.entry(name)?;
            (e.lpas.clone(), e.len_bytes as usize)
        };
        let mut out = Vec::with_capacity(len);
        for lpa in lpas {
            let page = self.ssd.read_pages(lpa, 1).pop().flatten();
            let payload =
                page.as_ref().and_then(|d| d.payload()).expect("mapped file page has a payload");
            out.extend_from_slice(payload);
        }
        out.truncate(len);
        Ok(out)
    }

    /// Deletes a file; its pages are trimmed in one batch.
    ///
    /// # Errors
    ///
    /// [`HostFsError::NotFound`] for a missing file.
    pub fn delete(&mut self, name: &str) -> Result<(), HostFsError> {
        let e = self
            .names
            .get(name)
            .and_then(|id| self.files.remove(&id))
            .ok_or_else(|| HostFsError::NotFound { name: name.to_string() })?;
        self.trim_extent(&e.lpas);
        self.free.extend(e.lpas.iter().copied());
        Ok(())
    }

    fn store(&mut self, contents: &[u8], mode: OpenMode) -> Result<Vec<Lpa>, HostFsError> {
        let n_pages = contents.len().div_ceil(self.page_bytes).max(1);
        if self.free.len() < n_pages {
            return Err(HostFsError::NoSpace);
        }
        let secure = mode == OpenMode::Secure;
        let mut lpas = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let lpa = self.free.pop().expect("space checked");
            let chunk = contents.chunks(self.page_bytes).nth(i).unwrap_or(&[]);
            self.ssd.write_pages(lpa, vec![PageData::with_payload(chunk)], secure);
            lpas.push(lpa);
        }
        Ok(lpas)
    }

    fn trim_extent(&mut self, lpas: &[Lpa]) {
        // Trim maximal contiguous runs to expose bLock opportunities.
        let mut sorted = lpas.to_vec();
        sorted.sort_unstable();
        let mut i = 0;
        while i < sorted.len() {
            let start = sorted[i];
            let mut len = 1u64;
            while i + (len as usize) < sorted.len() && sorted[i + len as usize] == start + len {
                len += 1;
            }
            self.ssd.trim(start, len);
            i += len as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> HostFs {
        HostFs::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco())
    }

    #[test]
    fn create_read_roundtrip() {
        let mut f = fs();
        let contents = b"blood type AB-, diagnosis: classified";
        f.create("medical.txt", contents, OpenMode::Secure).unwrap();
        assert_eq!(f.read("medical.txt").unwrap(), contents);
        assert_eq!(f.len("medical.txt").unwrap(), contents.len() as u64);
        assert_eq!(f.n_files(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn multi_page_contents() {
        let mut f = fs();
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        f.create("video.bin", &big, OpenMode::Secure).unwrap();
        assert_eq!(f.read("video.bin").unwrap(), big);
    }

    #[test]
    fn delete_is_sanitized_for_secure_files() {
        let mut f = fs();
        f.create("secret", b"the launch code is 0000", OpenMode::Secure).unwrap();
        f.delete("secret").unwrap();
        assert!(matches!(f.read("secret"), Err(HostFsError::NotFound { .. })));
        let logical = f.ssd.logical_pages();
        assert!(f.ssd_mut().verify_sanitized(0, logical));
        assert!(f.ssd_mut().result().plocks + f.ssd_mut().result().blocks_locked > 0);
    }

    #[test]
    fn identical_files_share_a_tag_without_a_false_leak() {
        // Equal bytes, equal content tag: the survivor's readable copy is
        // current data, not a remnant of the deleted file.
        let mut f = fs();
        f.create("a", b"same bytes", OpenMode::Secure).unwrap();
        f.create("b", b"same bytes", OpenMode::Secure).unwrap();
        f.delete("a").unwrap();
        assert!(f.ssd_mut().result().plocks > 0, "the deleted copy is pLocked");
        assert_eq!(f.read("b").unwrap(), b"same bytes");
        let logical = f.ssd.logical_pages();
        assert!(f.ssd_mut().verify_sanitized(0, logical));
    }

    #[test]
    fn insecure_files_skip_locking() {
        let mut f = fs();
        f.create("cache.tmp", b"cat pictures", OpenMode::Insecure).unwrap();
        f.delete("cache.tmp").unwrap();
        let r = f.ssd_mut().result();
        assert_eq!(r.plocks + r.blocks_locked, 0);
    }

    #[test]
    fn overwrite_supersedes_old_content_securely() {
        let mut f = fs();
        f.create("will.txt", b"everything to the cat", OpenMode::Secure).unwrap();
        f.overwrite("will.txt", b"everything to the dog").unwrap();
        assert_eq!(f.read("will.txt").unwrap(), b"everything to the dog");
        let logical = f.ssd.logical_pages();
        assert!(f.ssd_mut().verify_sanitized(0, logical), "old will recoverable");
    }

    #[test]
    fn name_collisions_and_missing_files() {
        let mut f = fs();
        f.create("a", b"1", OpenMode::Secure).unwrap();
        assert!(matches!(
            f.create("a", b"2", OpenMode::Secure),
            Err(HostFsError::AlreadyExists { .. })
        ));
        assert!(matches!(f.delete("zzz"), Err(HostFsError::NotFound { .. })));
        assert!(matches!(f.overwrite("zzz", b""), Err(HostFsError::NotFound { .. })));
        assert!(matches!(f.len("zzz"), Err(HostFsError::NotFound { .. })));
    }

    #[test]
    fn no_space_is_reported() {
        let mut f = fs();
        let logical = f.ssd.logical_pages();
        let huge = vec![0u8; (logical as usize + 1) * 16 * 1024];
        assert!(matches!(f.create("huge", &huge, OpenMode::Secure), Err(HostFsError::NoSpace)));
    }

    #[test]
    fn deleted_space_is_reusable() {
        let mut f = fs();
        for round in 0..4 {
            let name = format!("f{round}");
            let data = vec![round as u8; 100_000];
            f.create(&name, &data, OpenMode::Secure).unwrap();
            assert_eq!(f.read(&name).unwrap(), data);
            f.delete(&name).unwrap();
        }
        assert!(f.is_empty());
    }

    #[test]
    fn interned_file_ids_are_dense_and_stable() {
        let mut f = fs();
        f.create("a", b"1", OpenMode::Secure).unwrap();
        f.create("b", b"2", OpenMode::Secure).unwrap();
        assert_eq!(f.file_id("a"), Some(0));
        assert_eq!(f.file_id("b"), Some(1));
        assert_eq!(f.file_id("zzz"), None);
        // Delete + recreate keeps the id; new names keep extending.
        f.delete("a").unwrap();
        assert_eq!(f.file_id("a"), None);
        f.create("a", b"3", OpenMode::Secure).unwrap();
        assert_eq!(f.file_id("a"), Some(0));
        f.create("c", b"4", OpenMode::Secure).unwrap();
        assert_eq!(f.file_id("c"), Some(2));
    }

    #[test]
    fn empty_file_occupies_one_page() {
        let mut f = fs();
        f.create("empty", b"", OpenMode::Secure).unwrap();
        assert_eq!(f.read("empty").unwrap(), b"");
        assert_eq!(f.len("empty").unwrap(), 0);
    }
}
