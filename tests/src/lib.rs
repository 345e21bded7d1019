//! Integration-test helper crate (tests live in `tests/tests/`). It also
//! holds the reference implementations that differential tests compare
//! the production structures against.

mod reference_mshr;

pub use reference_mshr::ReferenceMshrFile;
