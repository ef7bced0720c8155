#![warn(missing_docs)]

//! Front ends: everything that turns on-disk app artifacts into IR.
//!
//! The original FlowDroid unpacks an APK (a zip archive), converts
//! Dalvik bytecode to Jimple via Dexpler, and parses the binary
//! manifest and layout XML files. This crate provides the equivalent
//! pipeline for our reproduction:
//!
//! * [`xml`] — a minimal from-scratch XML parser,
//! * [`manifest`] — `AndroidManifest.xml` semantics (components,
//!   enabled/launcher flags),
//! * [`layout`] — layout XML semantics (widgets, ids, `android:onClick`
//!   handlers, password fields) and the resource-id table,
//! * [`jasm`] — a Jimple-like text language in which all benchmark apps
//!   are authored (a one-pass parser that builds [`flowdroid_ir`]
//!   method bodies as it reads them),
//! * [`sdex`] — a compact binary class format with an encoder and an
//!   independent decoder (our substitute for dex parsing),
//! * [`emit`] — the inverse of `jasm`: emitting IR back to text,
//! * [`rpk`] — a simple archive container (our substitute for zip/APK),
//! * [`app`] — the app loader tying it all together: directory or RPK
//!   archive → manifest + layouts + resource table + IR classes.

pub mod app;
pub mod emit;
pub mod jasm;
pub mod layout;
pub mod manifest;
pub mod rpk;
pub mod sdex;
pub mod xml;

pub use app::{App, AppError};
pub use emit::emit_jasm;
pub use jasm::{parse_jasm, ParseError};
pub use layout::{Layout, ResourceTable, Widget, WidgetKind};
pub use manifest::{ComponentDecl, ComponentKind, Manifest};
pub use rpk::{Archive, ArchiveError};
pub use xml::{XmlElement, XmlError};
