#![warn(missing_docs)]

//! The Android platform model and lifecycle machinery.
//!
//! The original FlowDroid does not analyze the Android framework
//! itself; it models it. This crate provides that model:
//!
//! * [`platform`] — stub class hierarchy for the framework API surface
//!   the benchmarks exercise (components, widgets, telephony, location,
//!   logging, SMS, preferences, collections, strings), the lifecycle
//!   method tables and the callback-interface registry;
//! * [`component`] — per-component models: which lifecycle methods a
//!   component overrides, which callbacks it registers (discovered
//!   iteratively to a fixed point, paper §3), which layouts it inflates;
//! * [`dummy_main`] — generation of the per-app dummy main method that
//!   emulates every possible interleaving of component lifecycles and
//!   callbacks using opaque predicates (paper Figure 1);
//! * [`permissions`] — reachability-based permission requirements and
//!   over-privilege reporting (the attack-surface companion analysis
//!   the paper's introduction motivates);
//! * [`snapshot`] — the versioned, checksummed `platform.fdps`
//!   serialization of the platform model, built once and shared
//!   read-only across analysis jobs by the daemon.

pub mod component;
pub mod dummy_main;
pub mod permissions;
pub mod platform;
pub mod snapshot;

pub use component::{
    CallbackAssociation, CallbackInfo, CallbackReceiver, ComponentModel, EntryPointModel,
};
pub use dummy_main::generate_dummy_main;
pub use permissions::{analyze_permissions, PermissionReport};
pub use platform::{install_platform, PlatformInfo};
pub use snapshot::{
    build_snapshot, decode_snapshot, encode_snapshot, load_snapshot, save_snapshot,
    PlatformSnapshot, SnapshotError,
};
