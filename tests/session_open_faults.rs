//! Opening a page-mapped session touches only the memory it uses.
//!
//! The page-mapped FTL sizes its two page maps to the stream's footprint,
//! and both start all zeros, so they come from zeroed allocations that the
//! operating system backs page by page as traffic first writes them. This
//! suite pins that: opening a session over a 4 GiB footprint (about 17 MB
//! of maps at 2 KiB NAND pages) must not fault those maps in. It is the
//! only test in its binary, so no other test thread adds page faults to the
//! process-wide counter it reads.

#[cfg(target_os = "linux")]
#[test]
fn opening_a_page_mapped_session_does_not_touch_its_page_maps() {
    use ssdx_core::{FtlMode, Ssd, SsdConfig};
    use ssdx_hostif::ZipfianWorkload;

    /// Minor page faults of this process so far: field 10 of
    /// `/proc/self/stat`, counted after the parenthesised command name,
    /// which may itself hold spaces.
    fn minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
        let after_name = &stat[stat.rfind(')').expect("stat names the command") + 1..];
        after_name
            .split_whitespace()
            .nth(7)
            .and_then(|field| field.parse().ok())
            .expect("field 10 is the minor-fault count")
    }

    let config = SsdConfig {
        ftl_mode: FtlMode::PageMapped,
        ..SsdConfig::default()
    };
    let source = ZipfianWorkload::new(0.9, 7)
        .command_count(64)
        .footprint_bytes(4 << 30);
    let mut ssd = Ssd::try_new(config).expect("the default configuration validates");

    let before = minor_faults();
    let session = ssd.session(&source);
    let faults = minor_faults() - before;

    assert_eq!(session.remaining(), 64);
    assert!(
        faults < 512,
        "opening the session took {faults} minor page faults: its page maps were touched"
    );
}
