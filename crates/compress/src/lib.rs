//! Parametric data-compressor model.
//!
//! Modern SSD architectures use on-the-fly compression to reduce the amount
//! of data actually written to the NAND array (wear-out minimisation) and to
//! increase the effective internal bandwidth. Because the performance of a
//! compressor is fully captured by its compression ratio and its output
//! bandwidth/latency, SSDExplorer models it as a Parametric Time Delay block
//! reproducing the timing of a hardware GZIP engine, placed either between
//! the host interface and the DRAM buffer or between the DRAM buffer and the
//! channel/way controllers. This crate provides that model.
//!
//! # Example
//!
//! ```
//! use ssdx_compress::{CompressorModel, CompressorPlacement};
//!
//! let gzip = CompressorModel::hardware_gzip(CompressorPlacement::ChannelSide);
//! let out = gzip.output_bytes(4096);
//! assert!(out < 4096);
//! ```

#![warn(rust_2018_idioms)]

use ssdx_sim::SimTime;

/// Where the compressor sits in the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressorPlacement {
    /// Between the host interface and the DRAM buffer ("Host interface
    /// compressor"): the DRAM already stores compressed data.
    HostSide,
    /// Between the DRAM buffer and the channel/way controller ("Channel/Way
    /// compressor"): only the NAND traffic is compressed.
    ChannelSide,
}

/// A parametric compressor/decompressor engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressorModel {
    /// Placement in the data path.
    pub placement: CompressorPlacement,
    /// Average compression ratio (output/input, 0 < ratio <= 1).
    pub compression_ratio: f64,
    /// Sustained engine throughput, bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-operation latency (pipeline fill), nanoseconds.
    pub fixed_latency_ns: u64,
}

impl CompressorModel {
    /// Timing of the hardware GZIP engine referenced by the paper:
    /// ~2:1 average ratio on typical data, ~400 MB/s sustained, ~2 µs
    /// pipeline-fill latency.
    pub fn hardware_gzip(placement: CompressorPlacement) -> Self {
        CompressorModel {
            placement,
            compression_ratio: 0.5,
            bandwidth_bytes_per_sec: 400_000_000,
            fixed_latency_ns: 2_000,
        }
    }

    /// A model with an explicit ratio (clamped to `(0, 1]`) and bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is zero or the ratio is not finite
    /// and positive.
    pub fn with_ratio(
        placement: CompressorPlacement,
        compression_ratio: f64,
        bandwidth_bytes_per_sec: u64,
    ) -> Self {
        assert!(
            compression_ratio.is_finite() && compression_ratio > 0.0,
            "compression ratio must be positive and finite"
        );
        assert!(bandwidth_bytes_per_sec > 0, "bandwidth must be non-zero");
        CompressorModel {
            placement,
            compression_ratio: compression_ratio.min(1.0),
            bandwidth_bytes_per_sec,
            fixed_latency_ns: 2_000,
        }
    }

    /// Size of the compressed output for `input_bytes` of input (never zero
    /// for non-empty input).
    pub fn output_bytes(&self, input_bytes: u32) -> u32 {
        if input_bytes == 0 {
            return 0;
        }
        ((input_bytes as f64 * self.compression_ratio).ceil() as u32).max(1)
    }

    /// Time the engine needs to compress `input_bytes` of input.
    pub fn compress_time(&self, input_bytes: u32) -> SimTime {
        SimTime::from_ns(self.fixed_latency_ns)
            + ssdx_sim::time::transfer_time(input_bytes as u64, self.bandwidth_bytes_per_sec)
    }

    /// Time the engine needs to decompress back to `output_bytes` of output
    /// (the engine is symmetric: it is paced by the uncompressed side).
    pub fn decompress_time(&self, output_bytes: u32) -> SimTime {
        self.compress_time(output_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gzip_halves_typical_data() {
        let c = CompressorModel::hardware_gzip(CompressorPlacement::HostSide);
        assert_eq!(c.output_bytes(4096), 2048);
        assert_eq!(c.output_bytes(0), 0);
    }

    #[test]
    fn output_never_zero_for_nonempty_input() {
        let c = CompressorModel::with_ratio(CompressorPlacement::ChannelSide, 0.001, 1_000_000);
        assert_eq!(c.output_bytes(100), 1);
    }

    #[test]
    fn incompressible_ratio_is_clamped_to_one() {
        let c = CompressorModel::with_ratio(CompressorPlacement::ChannelSide, 3.0, 1_000_000);
        assert_eq!(c.output_bytes(4096), 4096);
    }

    #[test]
    fn compress_time_scales_with_size() {
        let c = CompressorModel::hardware_gzip(CompressorPlacement::ChannelSide);
        let small = c.compress_time(512);
        let large = c.compress_time(65_536);
        assert!(large > small);
        // 4 KB at 400 MB/s is ~10 µs plus the 2 µs pipeline fill.
        let t = c.compress_time(4096);
        assert!(t >= SimTime::from_us(12) && t <= SimTime::from_us(13));
    }

    #[test]
    fn decompress_is_paced_by_uncompressed_side() {
        let c = CompressorModel::hardware_gzip(CompressorPlacement::ChannelSide);
        assert_eq!(c.decompress_time(4096), c.compress_time(4096));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be non-zero")]
    fn zero_bandwidth_rejected() {
        let _ = CompressorModel::with_ratio(CompressorPlacement::HostSide, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "compression ratio")]
    fn non_positive_ratio_rejected() {
        let _ = CompressorModel::with_ratio(CompressorPlacement::HostSide, 0.0, 1_000);
    }
}
