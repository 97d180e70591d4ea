//! FTL configuration.

pub use evanesco_core::fault::FaultConfig;
use evanesco_nand::geometry::Geometry;
use evanesco_nand::timing::TimingSpec;

/// Grown-bad-block headroom of the reliability manager: how much it keeps
/// before degrading service. (Its retry budgets are fixed; see
/// `ftl/reliability.rs`.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Grown-bad blocks a chip may absorb before the drive goes read-only
    /// (the spare-block reserve).
    pub spare_blocks: usize,
    /// Remaining-reserve level at or below which the drive enters the
    /// `SpareLow` warning state.
    pub spare_low_watermark: usize,
}

impl ReliabilityConfig {
    /// Production-shaped defaults: a reserve of 8 spare blocks per chip.
    pub fn paper() -> Self {
        ReliabilityConfig { spare_blocks: 8, spare_low_watermark: 2 }
    }

    /// Small-reserve variant for the tiny test geometry.
    pub fn tiny_for_tests() -> Self {
        ReliabilityConfig { spare_blocks: 2, spare_low_watermark: 1 }
    }
}

/// How GC selects its victim block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcVictimPolicy {
    /// Fewest live pages (maximum immediate space gain).
    #[default]
    Greedy,
    /// Cost-benefit: weigh reclaimable space against copy cost and block
    /// age (`invalid × age / (live + 1)`), avoiding the greedy policy's
    /// tendency to churn hot blocks.
    CostBenefit,
}

/// Order in which the write frontier visits chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteAlloc {
    /// Chip-major round-robin (`0, 1, 2, …`): with multi-way channels,
    /// consecutive pages land on *neighbouring chips of the same channel*
    /// and their data-in transfers serialize on the shared bus.
    RoundRobin,
    /// Die-interleaved: the frontier alternates channels first, then ways
    /// (`0, cpc, 1, cpc+1, …` in chip numbering), so consecutive pages
    /// transfer over different channels and the array programs of a burst
    /// overlap maximally (paper §6's multi-channel/multi-way parallelism).
    #[default]
    ChannelInterleaved,
}

/// Static configuration of an FTL instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtlConfig {
    /// Per-chip geometry.
    pub geometry: Geometry,
    /// Number of chips managed (channels × chips-per-channel).
    pub n_chips: usize,
    /// Chips sharing one channel (bus). The FTL uses this only to order the
    /// die-interleaved write frontier; `1` degenerates to chip-major
    /// round-robin regardless of [`FtlConfig::write_alloc`].
    pub chips_per_channel: usize,
    /// Write-frontier chip order.
    pub write_alloc: WriteAlloc,
    /// When true, the lock manager defers `pLock`s for overwrite- and
    /// GC-invalidated secured pages in a per-block queue (bounded by
    /// [`FtlConfig::coalesce_window`] host writes) and promotes the batch
    /// to a single `bLock` once every valid page of the block has died —
    /// the paper's lock-queue merging policy. Trim-invalidated pages are
    /// always locked synchronously (the trim ack promises durability).
    pub lock_coalescing: bool,
    /// Maximum host-write ticks a coalesced `pLock` may stay pending
    /// before it is force-flushed (bounds the insecure window).
    pub coalesce_window: u64,
    /// Over-provisioning ratio: fraction of physical capacity hidden from
    /// the logical address space (needed for GC headroom).
    pub op_ratio: f64,
    /// GC starts on a chip when its free+reclaimable block count drops to
    /// this threshold.
    pub gc_free_threshold: usize,
    /// Minimum number of pending page locks for the lock manager to prefer
    /// one `bLock` over individual `pLock`s. The paper's rule — estimated
    /// pLock latency exceeds `tbLock` — gives `ceil(300/100) + 1 = 4`.
    pub block_min_plocks: usize,
    /// When true, GC victims are erased immediately at collection time
    /// instead of lazily at reuse. The paper rejects this (§5.4: the open
    /// interval degrades reliability); the flag exists for the ablation.
    pub eager_gc_erase: bool,
    /// GC victim-selection policy.
    pub gc_victim: GcVictimPolicy,
    /// Operation latencies (shared with the chips).
    pub timing: TimingSpec,
    /// Chip fault model armed on every chip (zero probabilities = the
    /// fault-free ideal device).
    pub faults: FaultConfig,
    /// Reliability-manager knobs (retry budgets, backoff, spare reserve).
    pub reliability: ReliabilityConfig,
}

impl FtlConfig {
    /// Configuration matching the paper's SecureSSD (§7): 2 channels × 4
    /// chips, paper geometry and timing, ~12.5 % over-provisioning.
    pub fn paper() -> Self {
        FtlConfig {
            geometry: Geometry::paper_tlc(),
            n_chips: 8,
            chips_per_channel: 4,
            write_alloc: WriteAlloc::ChannelInterleaved,
            lock_coalescing: false,
            coalesce_window: 64,
            op_ratio: 0.125,
            gc_free_threshold: 2,
            block_min_plocks: 4,
            eager_gc_erase: false,
            gc_victim: GcVictimPolicy::Greedy,
            timing: TimingSpec::paper(),
            faults: FaultConfig::none(),
            reliability: ReliabilityConfig::paper(),
        }
    }

    /// Paper structure with a reduced block count per chip (capacity scaling
    /// knob for tractable experiments).
    pub fn paper_scaled(blocks_per_chip: u32) -> Self {
        FtlConfig { geometry: Geometry::paper_tlc_with_blocks(blocks_per_chip), ..Self::paper() }
    }

    /// A tiny configuration for unit tests: 2 chips × 16 blocks × 24 pages.
    pub fn tiny_for_tests() -> Self {
        FtlConfig {
            geometry: Geometry {
                tech: evanesco_nand::cell::CellTech::Tlc,
                blocks: 16,
                wordlines_per_block: 8,
                page_bytes: 16 * 1024,
                spare_bytes: 1024,
            },
            n_chips: 2,
            chips_per_channel: 1,
            write_alloc: WriteAlloc::ChannelInterleaved,
            lock_coalescing: false,
            coalesce_window: 64,
            op_ratio: 0.2,
            gc_free_threshold: 2,
            block_min_plocks: 4,
            eager_gc_erase: false,
            gc_victim: GcVictimPolicy::Greedy,
            timing: TimingSpec::paper(),
            faults: FaultConfig::none(),
            reliability: ReliabilityConfig::tiny_for_tests(),
        }
    }

    /// Checks the structural invariants of the configuration: the one
    /// list of rules [`FtlConfig::validate`] enforces and a checkpoint
    /// decode reports.
    ///
    /// # Errors
    ///
    /// Names the first violated rule: zero chips or blocks, an
    /// over-provisioning ratio outside `(0, 1)`, an empty logical address
    /// space or a device too large for the word-width mapping tables, a GC
    /// threshold the geometry cannot satisfy, a fault probability outside
    /// `[0, 1]`, or an unsatisfiable spare-block reserve.
    pub fn check(&self) -> Result<(), String> {
        macro_rules! rule {
            ($ok:expr, $($msg:tt)+) => {
                let ok: bool = $ok;
                if !ok {
                    return Err(format!("FtlConfig: {}", format_args!($($msg)+)));
                }
            };
        }
        rule!(self.n_chips > 0, "n_chips must be positive");
        rule!(self.geometry.blocks > 0, "geometry needs at least one block");
        rule!(
            self.geometry.wordlines_per_block > 0,
            "geometry needs at least one wordline per block"
        );
        rule!(
            self.op_ratio > 0.0 && self.op_ratio < 1.0,
            "op_ratio must be in (0, 1), got {}",
            self.op_ratio
        );
        let lp = self.logical_pages();
        rule!(lp > 0, "logical address space is empty");
        rule!(lp < u32::MAX.into(), "logical capacity must be below 2^32 - 1 pages, got {lp}");
        let (chip, block, page) = self.l2p_field_bits();
        let bits = chip + block + page;
        rule!(bits <= 31, "geometry and chip count must pack into a 31-bit L2P entry, need {bits}");
        rule!(self.gc_free_threshold >= 1, "gc_free_threshold must be >= 1");
        rule!(self.chips_per_channel >= 1, "chips_per_channel must be >= 1");
        rule!(
            self.n_chips.is_multiple_of(self.chips_per_channel),
            "chips_per_channel {} must divide n_chips {}",
            self.chips_per_channel,
            self.n_chips
        );
        rule!(self.coalesce_window >= 1, "coalesce_window must be >= 1");
        rule!(
            (self.geometry.blocks as usize) > self.gc_free_threshold,
            "gc_free_threshold {} needs more than {} blocks per chip",
            self.gc_free_threshold,
            self.geometry.blocks
        );
        rule!(self.block_min_plocks >= 1, "block_min_plocks must be >= 1");
        for (name, p) in [
            ("program_fail", self.faults.program_fail),
            ("erase_fail", self.faults.erase_fail),
            ("plock_fail", self.faults.plock_fail),
            ("block_lock_fail", self.faults.block_lock_fail),
            ("read_unc", self.faults.read_unc),
            ("read_retry_decay", self.faults.read_retry_decay),
        ] {
            rule!((0.0..=1.0).contains(&p), "fault probability {name} must be in [0, 1], got {p}");
        }
        // A certain program failure makes the write-remap loop diverge: no
        // page would ever accept data.
        rule!(
            self.faults.program_fail < 1.0,
            "fault probability program_fail must be below 1, got {}",
            self.faults.program_fail
        );
        rule!(self.reliability.spare_blocks >= 1, "reliability spare_blocks must be >= 1");
        rule!(
            self.reliability.spare_low_watermark < self.reliability.spare_blocks,
            "spare_low_watermark {} must be below spare_blocks {}",
            self.reliability.spare_low_watermark,
            self.reliability.spare_blocks
        );
        rule!(
            self.reliability.spare_blocks < self.geometry.blocks as usize,
            "spare_blocks {} must be below the {} blocks per chip",
            self.reliability.spare_blocks,
            self.geometry.blocks
        );
        Ok(())
    }

    /// Validates structural invariants of the configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`FtlConfig::check`]'s message on any violation.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }

    /// Total physical pages across all chips (saturating, like
    /// [`Geometry::pages_per_block`]: [`FtlConfig::check`] refuses a count
    /// that large).
    pub fn physical_pages(&self) -> u64 {
        self.geometry.pages_per_chip().saturating_mul(self.n_chips as u64)
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        (self.physical_pages() as f64 * (1.0 - self.op_ratio)).floor() as u64
    }

    /// Widths of a packed L2P entry's `(chip, block, page)` bit-fields.
    pub(crate) fn l2p_field_bits(&self) -> (u32, u32, u32) {
        let bits = |n: u64| u64::BITS - n.saturating_sub(1).leading_zeros();
        let geom = &self.geometry;
        (bits(self.n_chips as u64), bits(geom.blocks.into()), bits(geom.pages_per_block().into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_is_about_30_gib() {
        let cfg = FtlConfig::paper();
        let bytes = cfg.physical_pages() * cfg.geometry.page_bytes as u64;
        assert!(bytes > 28 * (1 << 30) && bytes < 34 * (1 << 30));
        assert!(cfg.logical_pages() < cfg.physical_pages());
    }

    #[test]
    fn scaling_preserves_block_shape() {
        let cfg = FtlConfig::paper_scaled(32);
        assert_eq!(cfg.geometry.blocks, 32);
        assert_eq!(cfg.geometry.pages_per_block(), 576);
    }

    #[test]
    fn block_trigger_consistent_with_timing() {
        let cfg = FtlConfig::paper();
        let t_plock = cfg.timing.t_plock.0;
        let t_block = cfg.timing.t_block.0;
        // With the default trigger, the chosen pLock batch is always more
        // expensive than one bLock.
        assert!(cfg.block_min_plocks as u64 * t_plock > t_block);
        // And one fewer would not be.
        assert!((cfg.block_min_plocks as u64 - 1) * t_plock <= t_block);
    }

    #[test]
    fn tiny_config_sizes() {
        let cfg = FtlConfig::tiny_for_tests();
        assert_eq!(cfg.geometry.pages_per_block(), 24);
        assert_eq!(cfg.physical_pages(), 2 * 16 * 24);
    }
}
