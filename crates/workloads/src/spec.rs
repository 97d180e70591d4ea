//! Workload specifications matching the paper's Table 2.
//!
//! | Benchmark  | read:write | file write pattern                 | write size   |
//! |------------|-----------:|------------------------------------|--------------|
//! | MailServer | 1:1        | create/append/delete e-mails       | 16–32 KiB    |
//! | DBServer   | 1:10       | overwrite data files and log files | 16–256 KiB   |
//! | FileServer | 3:4        | create/append/delete files         | 32–128 KiB   |
//! | Mobile     | 1:50       | create/delete pictures             | 0.5–8 MiB    |
//!
//! Sizes are expressed in 16-KiB pages (the paper aligns all requests to
//! the physical page size).

/// Relative weights of the write-side events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Create a new file.
    pub create: u32,
    /// Append to an existing file.
    pub append: u32,
    /// Overwrite a range of an existing file in place.
    pub overwrite: u32,
    /// Delete an existing file.
    pub delete: u32,
}

impl OpMix {
    /// Total weight.
    pub fn total(&self) -> u32 {
        self.create + self.append + self.overwrite + self.delete
    }
}

/// A synthetic workload specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: &'static str,
    /// Read volume per written volume (e.g. 1:10 → 0.1).
    pub reads_per_write: f64,
    /// Event mix.
    pub mix: OpMix,
    /// Per-request write size range in pages, inclusive.
    pub write_pages: (u64, u64),
    /// New-file size range in pages, inclusive.
    pub file_pages: (u64, u64),
    /// Fraction of files created with a security requirement (the rest are
    /// opened `O_INSEC`).
    pub secure_fraction: f64,
}

/// Target steady-state utilization of every workload (the paper prefills
/// to 75 %).
pub const TARGET_UTILIZATION: f64 = 0.75;

impl WorkloadSpec {
    /// Table 2 MailServer: 1:1 reads, create/append/delete, 16–32 KiB.
    pub fn mail_server() -> Self {
        WorkloadSpec {
            name: "MailServer",
            reads_per_write: 1.0,
            mix: OpMix { create: 45, append: 20, overwrite: 0, delete: 35 },
            write_pages: (1, 2),
            file_pages: (1, 4),
            secure_fraction: 1.0,
        }
    }

    /// Table 2 DBServer: 1:10 reads, overwrites of data and log files,
    /// 16–256 KiB.
    pub fn db_server() -> Self {
        WorkloadSpec {
            name: "DBServer",
            reads_per_write: 0.1,
            mix: OpMix { create: 2, append: 23, overwrite: 70, delete: 5 },
            write_pages: (1, 16),
            file_pages: (64, 256),
            secure_fraction: 1.0,
        }
    }

    /// Table 2 FileServer: 3:4 reads, create/append/delete, 32–128 KiB.
    pub fn file_server() -> Self {
        WorkloadSpec {
            name: "FileServer",
            reads_per_write: 0.75,
            mix: OpMix { create: 40, append: 30, overwrite: 5, delete: 25 },
            write_pages: (2, 8),
            file_pages: (2, 16),
            secure_fraction: 1.0,
        }
    }

    /// Table 2 Mobile: 1:50 reads, create/delete pictures, 0.5–8 MiB.
    pub fn mobile() -> Self {
        WorkloadSpec {
            name: "Mobile",
            reads_per_write: 0.02,
            mix: OpMix { create: 55, append: 0, overwrite: 0, delete: 45 },
            write_pages: (32, 512),
            file_pages: (32, 512),
            secure_fraction: 1.0,
        }
    }

    /// All four Table 2 workloads.
    pub fn table2() -> [WorkloadSpec; 4] {
        [Self::mail_server(), Self::db_server(), Self::file_server(), Self::mobile()]
    }

    /// This spec with a different secure-data fraction (Figure 14c sweep).
    pub fn with_secure_fraction(mut self, f: f64) -> Self {
        self.secure_fraction = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ratios_match_paper() {
        assert_eq!(WorkloadSpec::mail_server().reads_per_write, 1.0);
        assert!((WorkloadSpec::db_server().reads_per_write - 0.1).abs() < 1e-12);
        assert!((WorkloadSpec::file_server().reads_per_write - 0.75).abs() < 1e-12);
        assert!((WorkloadSpec::mobile().reads_per_write - 0.02).abs() < 1e-12);
    }

    #[test]
    fn table2_write_sizes_match_paper() {
        // 16 KiB pages: 16–32 KiB = 1–2 pages, …, 0.5–8 MiB = 32–512 pages.
        assert_eq!(WorkloadSpec::mail_server().write_pages, (1, 2));
        assert_eq!(WorkloadSpec::db_server().write_pages, (1, 16));
        assert_eq!(WorkloadSpec::file_server().write_pages, (2, 8));
        assert_eq!(WorkloadSpec::mobile().write_pages, (32, 512));
    }

    #[test]
    fn db_server_is_overwrite_dominated() {
        let m = WorkloadSpec::db_server().mix;
        assert!(m.overwrite > m.create + m.append / 2);
    }

    #[test]
    fn mobile_has_no_updates() {
        let m = WorkloadSpec::mobile().mix;
        assert_eq!(m.overwrite, 0);
        assert_eq!(m.append, 0);
    }

    #[test]
    fn secure_fraction_override() {
        let s = WorkloadSpec::mobile().with_secure_fraction(0.6);
        assert!((s.secure_fraction - 0.6).abs() < 1e-12);
    }

    #[test]
    fn mix_total() {
        for s in WorkloadSpec::table2() {
            assert_eq!(s.mix.total(), 100, "{} mix should sum to 100", s.name);
        }
    }
}
