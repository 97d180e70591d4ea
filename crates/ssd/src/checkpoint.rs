//! Self-describing device checkpoints.
//!
//! A checkpoint is a single byte stream capturing **everything** a run
//! needs to continue bit-identically: the full configuration (geometry,
//! timing, fault model, reliability knobs, topology), the sanitization
//! policy, and every piece of dynamic state — NAND cells and OOB metadata,
//! lock flags, per-block wear, FTL mapping and victim-selection tables,
//! the coalescing queue, bad-block and degraded-mode state, busy
//! timelines, the simulated clock, latency histograms, gauges, telemetry
//! windows, and the position of every deterministic RNG stream.
//!
//! The format is versioned and self-describing (see
//! [`evanesco_nand::snapshot`]): a stream from an unknown version or a
//! truncated file fails with a typed error, never a panic. Restoring
//! constructs a fresh [`Emulator`] from the embedded configuration and
//! overlays the dynamic state, so a checkpoint file is sufficient on its
//! own — no side-channel config is needed.
//!
//! What is *not* checkpointed (both observational, never affecting
//! simulated results): the op-level trace recorder and the FTL decision
//! log. Re-enable them after restore if desired.

use crate::config::SsdConfig;
use crate::emulator::Emulator;
use evanesco_ftl::{FtlConfig, GcVictimPolicy, ReliabilityConfig, SanitizePolicy, WriteAlloc};
use evanesco_nand::geometry::Geometry;
use evanesco_nand::snapshot::{Dec, Enc, SnapshotError};
use evanesco_nand::timing::TimingSpec;
use std::fmt;
use std::path::Path;

/// Checkpoint section ids (format v2). Each section is framed with a
/// length and CRC-32 (see [`evanesco_nand::snapshot::Enc::section`]), so
/// corruption is pinned to one section and the salvage path can skip it.
/// `DEVICE` precedes `FTL` deliberately: a salvaged FTL is rebuilt by
/// re-running the recovery scan over the restored flash.
pub mod section {
    /// Full device configuration (required).
    pub const CONFIG: u8 = 1;
    /// Sanitization policy (required).
    pub const POLICY: u8 = 2;
    /// NAND chips, flags, wear, busy timelines, clock, RNGs (required).
    pub const DEVICE: u8 = 3;
    /// FTL RAM tables (salvageable: rebuilt from flash OOB).
    pub const FTL: u8 = 4;
    /// Host counters, latency histograms, recovery totals (salvageable:
    /// reset).
    pub const HOST: u8 = 5;
    /// Live gauges (salvageable: dropped).
    pub const GAUGES: u8 = 6;
    /// Telemetry ring (salvageable: dropped).
    pub const TIMESERIES: u8 = 7;
}

/// What a salvaging restore had to give up: the names of every
/// checkpoint section that failed its CRC (or its decode) and was rebuilt
/// from ground truth or dropped instead of restored verbatim. See
/// [`Emulator::restore_checkpoint_salvaging`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Section names (`"ftl"`, `"host"`, `"gauges"`, `"timeseries"`), in
    /// stream order.
    pub salvaged: Vec<&'static str>,
}

impl SalvageReport {
    /// True when every section restored intact (nothing was given up).
    pub fn is_clean(&self) -> bool {
        self.salvaged.is_empty()
    }
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean restore")
        } else {
            write!(f, "salvaged sections: {}", self.salvaged.join(", "))
        }
    }
}

/// Errors from the file-level checkpoint helpers.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The bytes were not a valid checkpoint (truncated, wrong magic,
    /// unsupported version, corrupt, or mismatched against the embedded
    /// configuration).
    Snapshot(SnapshotError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Snapshot(e) => write!(f, "invalid checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

/// Writes `em`'s checkpoint to `path` (atomic enough for the campaign
/// driver: a partial write fails to decode rather than silently
/// truncating state).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_checkpoint(em: &Emulator, path: &Path) -> Result<(), CheckpointError> {
    std::fs::write(path, em.save_checkpoint())?;
    Ok(())
}

/// Reads a checkpoint from `path` and reconstructs the emulator.
///
/// # Errors
///
/// Fails on I/O errors and on any invalid checkpoint content.
pub fn read_checkpoint(path: &Path) -> Result<Emulator, CheckpointError> {
    let bytes = std::fs::read(path)?;
    Ok(Emulator::restore_checkpoint(&bytes)?)
}

/// Reads a checkpoint from `path`, salvaging damaged non-essential
/// sections (see [`Emulator::restore_checkpoint_salvaging`] for the
/// policy). The report names every section that was given up.
///
/// # Errors
///
/// Fails on I/O errors, header or frame damage, or damage to a required
/// section (config, policy, device).
pub fn read_checkpoint_salvaging(
    path: &Path,
) -> Result<(Emulator, SalvageReport), CheckpointError> {
    let bytes = std::fs::read(path)?;
    Ok(Emulator::restore_checkpoint_salvaging(&bytes)?)
}

/// Serializes the full device configuration.
pub fn encode_config(cfg: &SsdConfig, e: &mut Enc) {
    e.tag(0x51);
    let f = &cfg.ftl;
    f.geometry.encode_snapshot(e);
    e.usize(f.n_chips);
    e.usize(f.chips_per_channel);
    e.u8(match f.write_alloc {
        WriteAlloc::RoundRobin => 0,
        WriteAlloc::ChannelInterleaved => 1,
    });
    e.bool(f.lock_coalescing);
    e.u64(f.coalesce_window);
    e.f64(f.op_ratio);
    e.usize(f.gc_free_threshold);
    e.usize(f.block_min_plocks);
    e.bool(f.eager_gc_erase);
    e.u8(match f.gc_victim {
        GcVictimPolicy::Greedy => 0,
        GcVictimPolicy::CostBenefit => 1,
    });
    f.timing.encode_snapshot(e);
    e.u64(f.faults.seed);
    e.f64(f.faults.program_fail);
    e.f64(f.faults.erase_fail);
    e.f64(f.faults.plock_fail);
    e.f64(f.faults.block_lock_fail);
    e.f64(f.faults.read_unc);
    e.f64(f.faults.read_retry_decay);
    e.usize(f.reliability.spare_blocks);
    e.usize(f.reliability.spare_low_watermark);
}

/// Inverse of [`encode_config`], with graceful validation: the rule
/// [`SsdConfig::check`] finds violated is reported as a
/// [`SnapshotError::Corrupt`] instead of a [`SsdConfig::validate`] panic,
/// so a damaged checkpoint cannot bring the process down.
///
/// # Errors
///
/// Fails on truncation, structural corruption, or an invalid decoded
/// configuration.
pub fn decode_config(d: &mut Dec<'_>) -> Result<SsdConfig, SnapshotError> {
    d.expect_tag(0x51, "ssd-config")?;
    let geometry = Geometry::decode_snapshot(d)?;
    let n_chips = d.usize()?;
    let ftl_cpc = d.usize()?;
    let write_alloc = match d.u8()? {
        0 => WriteAlloc::RoundRobin,
        1 => WriteAlloc::ChannelInterleaved,
        t => return Err(SnapshotError::Corrupt(format!("unknown write-alloc tag {t}"))),
    };
    let lock_coalescing = d.bool()?;
    let coalesce_window = d.u64()?;
    let op_ratio = d.f64()?;
    let gc_free_threshold = d.usize()?;
    let block_min_plocks = d.usize()?;
    let eager_gc_erase = d.bool()?;
    let gc_victim = match d.u8()? {
        0 => GcVictimPolicy::Greedy,
        1 => GcVictimPolicy::CostBenefit,
        t => return Err(SnapshotError::Corrupt(format!("unknown gc-victim tag {t}"))),
    };
    let timing = TimingSpec::decode_snapshot(d)?;
    let faults = evanesco_ftl::FaultConfig {
        seed: d.u64()?,
        program_fail: d.f64()?,
        erase_fail: d.f64()?,
        plock_fail: d.f64()?,
        block_lock_fail: d.f64()?,
        read_unc: d.f64()?,
        read_retry_decay: d.f64()?,
    };
    let reliability =
        ReliabilityConfig { spare_blocks: d.usize()?, spare_low_watermark: d.usize()? };
    let cfg = SsdConfig {
        ftl: FtlConfig {
            geometry,
            n_chips,
            chips_per_channel: ftl_cpc,
            write_alloc,
            lock_coalescing,
            coalesce_window,
            op_ratio,
            gc_free_threshold,
            block_min_plocks,
            eager_gc_erase,
            gc_victim,
            timing,
            faults,
            reliability,
        },
    };
    cfg.check()
        .map_err(|rule| SnapshotError::Corrupt(format!("checkpoint config invalid: {rule}")))?;
    Ok(cfg)
}

/// Serializes the sanitization policy.
pub fn encode_policy(policy: SanitizePolicy, e: &mut Enc) {
    e.tag(0x52);
    e.u8(match policy {
        SanitizePolicy::None => 0,
        SanitizePolicy::Evanesco { use_block: true } => 1,
        SanitizePolicy::Evanesco { use_block: false } => 2,
        SanitizePolicy::EraseBased => 3,
        SanitizePolicy::Scrub => 4,
    });
}

/// Inverse of [`encode_policy`].
///
/// # Errors
///
/// Fails on truncation or an unknown policy tag.
pub fn decode_policy(d: &mut Dec<'_>) -> Result<SanitizePolicy, SnapshotError> {
    d.expect_tag(0x52, "sanitize-policy")?;
    Ok(match d.u8()? {
        0 => SanitizePolicy::None,
        1 => SanitizePolicy::Evanesco { use_block: true },
        2 => SanitizePolicy::Evanesco { use_block: false },
        3 => SanitizePolicy::EraseBased,
        4 => SanitizePolicy::Scrub,
        t => return Err(SnapshotError::Corrupt(format!("unknown policy tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrip_all_variants() {
        for cfg in [SsdConfig::tiny_for_tests(), SsdConfig::paper(), SsdConfig::scaled(32)] {
            let mut e = Enc::new();
            encode_config(&cfg, &mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = decode_config(&mut d).unwrap();
            d.finish().unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn policy_roundtrip_all_variants() {
        for p in [
            SanitizePolicy::None,
            SanitizePolicy::Evanesco { use_block: true },
            SanitizePolicy::Evanesco { use_block: false },
            SanitizePolicy::EraseBased,
            SanitizePolicy::Scrub,
        ] {
            let mut e = Enc::new();
            encode_policy(p, &mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(decode_policy(&mut d).unwrap(), p);
            d.finish().unwrap();
        }
    }
}
