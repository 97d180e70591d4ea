//! Experiment scale presets.
//!
//! The paper's testbed wrote 64 GiB against a 32-GiB emulated SSD and
//! characterized 3.7 M wordlines on real chips. The reproduction keeps the
//! paper's *block shape* (576 × 16-KiB pages) and channel topology but
//! scales capacity and Monte-Carlo trial counts so a full run finishes in
//! minutes; the reported metrics are ratios, which are stable under this
//! scaling (the block-shape-dependent effects — relocation cost per
//! sanitization, bLock batching — are preserved exactly).

use evanesco_ftl::{FtlConfig, ReliabilityConfig};
use evanesco_nand::geometry::Geometry;
use evanesco_ssd::SsdConfig;

/// Size knobs for the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Blocks per chip for system-level runs (paper: 428).
    pub blocks_per_chip: u32,
    /// Measured write volume as a multiple of the logical capacity
    /// (paper: 64 GiB over 32 GiB = 2×).
    pub write_multiplier: f64,
    /// Wordlines simulated per condition in chip-level Monte-Carlo
    /// experiments.
    pub wordline_trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Use the miniature block shape (24-page blocks) instead of the
    /// paper's 576-page blocks — only for smoke tests.
    pub tiny_blocks: bool,
}

impl Scale {
    /// Paper scale: the paper's geometry outright (428 blocks per chip,
    /// [`SsdConfig::paper`]) with 2× capacity written. Only the system-level
    /// experiments are practical at it (see EXPERIMENTS.md).
    pub fn paper() -> Self {
        Scale { blocks_per_chip: 428, ..Self::full() }
    }

    /// Full scale: paper block shape, 2× capacity written, 300 wordlines
    /// per condition. Minutes of runtime in release mode.
    pub fn full() -> Self {
        Scale {
            blocks_per_chip: 48,
            write_multiplier: 2.0,
            wordline_trials: 300,
            seed: 42,
            tiny_blocks: false,
        }
    }

    /// Quick scale for interactive iteration: paper block shape, smaller
    /// capacity and volume.
    pub fn quick() -> Self {
        Scale {
            blocks_per_chip: 12,
            write_multiplier: 1.0,
            wordline_trials: 80,
            seed: 42,
            tiny_blocks: false,
        }
    }

    /// Smoke scale for unit/integration tests: miniature blocks so even
    /// erSSD runs in milliseconds. Magnitudes shrink but orderings hold.
    pub fn smoke() -> Self {
        Scale {
            blocks_per_chip: 64,
            write_multiplier: 1.0,
            wordline_trials: 25,
            seed: 42,
            tiny_blocks: true,
        }
    }

    /// The SSD configuration for system-level runs at this scale.
    pub fn ssd_config(&self) -> SsdConfig {
        if self.tiny_blocks {
            let tiny = FtlConfig::tiny_for_tests();
            let ftl = FtlConfig {
                geometry: Geometry { blocks: self.blocks_per_chip, ..tiny.geometry },
                op_ratio: 0.125,
                reliability: ReliabilityConfig::paper(),
                ..tiny
            };
            SsdConfig { ftl }
        } else {
            SsdConfig::scaled(self.blocks_per_chip)
        }
    }

    /// Measured write volume in pages for a given logical capacity.
    pub fn main_write_pages(&self, logical_pages: u64) -> u64 {
        ((logical_pages as f64) * self.write_multiplier).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_keeps_paper_block_shape() {
        let cfg = Scale::full().ssd_config();
        assert_eq!(cfg.ftl.geometry.pages_per_block(), 576);
        assert_eq!(cfg.n_chips(), 8);
    }

    #[test]
    fn paper_scale_is_the_paper_device() {
        let s = Scale::paper();
        assert_eq!(s.ssd_config(), SsdConfig::paper());
        assert_eq!(s.main_write_pages(1000), 2000);
    }

    #[test]
    fn smoke_scale_is_tiny() {
        let s = Scale::smoke();
        let cfg = s.ssd_config();
        cfg.validate();
        assert!(cfg.ftl.physical_pages() < 10_000);
        assert_eq!(s.main_write_pages(1000), 1000);
    }
}
