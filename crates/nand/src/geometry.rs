//! NAND flash device geometry: dies, planes, blocks and pages.

use std::fmt;

/// Physical organisation of one NAND die.
///
/// NAND flash devices are hierarchically organised in dies, planes, blocks
/// and pages; program and read operate on pages, erase on whole blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NandGeometry {
    /// Planes per die (concurrently programmable with multi-plane commands).
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Main data area of a page, in bytes.
    pub page_size_bytes: u32,
    /// Spare (out-of-band) area of a page, in bytes, used for ECC parity.
    pub spare_bytes: u32,
}

impl NandGeometry {
    /// Geometry of the MLC part modelled in the paper (4 KB pages, 128 pages
    /// per block, 2 planes).
    pub fn mlc_4kb() -> Self {
        NandGeometry {
            planes_per_die: 2,
            blocks_per_plane: 2048,
            pages_per_block: 128,
            page_size_bytes: 4096,
            spare_bytes: 224,
        }
    }

    /// Geometry of the Samsung K9-class 2 KB-page MLC part the paper's
    /// experiments reference (2048 + 64 byte pages, 128 pages per block).
    pub fn mlc_2kb() -> Self {
        NandGeometry {
            planes_per_die: 2,
            blocks_per_plane: 2048,
            pages_per_block: 128,
            page_size_bytes: 2048,
            spare_bytes: 64,
        }
    }

    /// Total number of blocks in the die.
    pub fn blocks_per_die(&self) -> u64 {
        self.planes_per_die as u64 * self.blocks_per_plane as u64
    }

    /// Total number of pages in the die.
    pub fn pages_per_die(&self) -> u64 {
        self.blocks_per_die() * self.pages_per_block as u64
    }

    /// User capacity of one die in bytes (spare area excluded).
    pub fn die_capacity_bytes(&self) -> u64 {
        self.pages_per_die() * self.page_size_bytes as u64
    }

    /// Raw size of a page including the spare area.
    pub fn raw_page_bytes(&self) -> u32 {
        self.page_size_bytes + self.spare_bytes
    }

    /// Validates internal consistency (all dimensions non-zero).
    pub fn validate(&self) -> Result<(), GeometryError> {
        if self.planes_per_die == 0
            || self.blocks_per_plane == 0
            || self.pages_per_block == 0
            || self.page_size_bytes == 0
        {
            return Err(GeometryError::ZeroDimension);
        }
        Ok(())
    }
}

impl Default for NandGeometry {
    fn default() -> Self {
        Self::mlc_4kb()
    }
}

/// Error returned when a [`NandGeometry`] or [`PageAddr`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// One of the geometry dimensions is zero.
    ZeroDimension,
    /// An address component exceeds the geometry bounds.
    AddressOutOfRange,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroDimension => write!(f, "geometry dimension is zero"),
            GeometryError::AddressOutOfRange => write!(f, "page address out of range"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Address of one page inside a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Plane index inside the die.
    pub plane: u32,
    /// Block index inside the plane.
    pub block: u32,
    /// Page index inside the block.
    pub page: u32,
}

impl PageAddr {
    /// Checks the address against a geometry.
    pub fn validate(&self, geo: &NandGeometry) -> Result<(), GeometryError> {
        if self.plane >= geo.planes_per_die
            || self.block >= geo.blocks_per_plane
            || self.page >= geo.pages_per_block
        {
            return Err(GeometryError::AddressOutOfRange);
        }
        Ok(())
    }

    /// Linear block index inside the die (`plane * blocks_per_plane + block`).
    pub fn flat_block(&self, geo: &NandGeometry) -> u64 {
        self.plane as u64 * geo.blocks_per_plane as u64 + self.block as u64
    }

    /// Linear page index inside the die.
    pub fn flat_page(&self, geo: &NandGeometry) -> u64 {
        self.flat_block(geo) * geo.pages_per_block as u64 + self.page as u64
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}/b{}/pg{}", self.plane, self.block, self.page)
    }
}

/// Complete configuration of a NAND die: geometry plus timing and wear
/// parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NandConfig {
    /// Physical organisation.
    pub geometry: NandGeometry,
    /// Operation timing profile.
    pub timing: crate::timing::MlcTimingProfile,
    /// Wear-out model parameters.
    pub wear: crate::wear::WearModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_consistent() {
        let g = NandGeometry::default();
        assert!(g.validate().is_ok());
        assert_eq!(g.blocks_per_die(), 4096);
        assert_eq!(g.pages_per_die(), 4096 * 128);
        assert_eq!(g.die_capacity_bytes(), 4096 * 128 * 4096);
        assert_eq!(g.raw_page_bytes(), 4096 + 224);
    }

    #[test]
    fn zero_dimension_rejected() {
        let g = NandGeometry {
            pages_per_block: 0,
            ..NandGeometry::default()
        };
        assert_eq!(g.validate(), Err(GeometryError::ZeroDimension));
    }

    #[test]
    fn page_addr_validation() {
        let g = NandGeometry::default();
        let ok = PageAddr {
            plane: 1,
            block: 10,
            page: 127,
        };
        assert!(ok.validate(&g).is_ok());
        let bad_plane = PageAddr {
            plane: 2,
            block: 0,
            page: 0,
        };
        assert_eq!(
            bad_plane.validate(&g),
            Err(GeometryError::AddressOutOfRange)
        );
        let bad_page = PageAddr {
            plane: 0,
            block: 0,
            page: 128,
        };
        assert_eq!(bad_page.validate(&g), Err(GeometryError::AddressOutOfRange));
    }

    #[test]
    fn flat_indices_are_unique_and_dense() {
        let g = NandGeometry {
            planes_per_die: 2,
            blocks_per_plane: 3,
            pages_per_block: 4,
            page_size_bytes: 2048,
            spare_bytes: 64,
        };
        let mut seen = std::collections::BTreeSet::new();
        for plane in 0..2 {
            for block in 0..3 {
                for page in 0..4 {
                    let a = PageAddr { plane, block, page };
                    assert!(seen.insert(a.flat_page(&g)));
                }
            }
        }
        assert_eq!(seen.len(), 24);
        assert_eq!(*seen.iter().max().unwrap(), 23);
    }

    #[test]
    fn display_formats() {
        let a = PageAddr {
            plane: 1,
            block: 2,
            page: 3,
        };
        assert_eq!(a.to_string(), "p1/b2/pg3");
        assert_eq!(
            GeometryError::ZeroDimension.to_string(),
            "geometry dimension is zero"
        );
    }
}
