#![warn(missing_docs)]

//! # flowdroid-rs
//!
//! A from-scratch Rust reproduction of **FlowDroid** (Arzt et al.,
//! PLDI 2014): a context-, flow-, field- and object-sensitive,
//! lifecycle-aware static taint analysis for Android-like apps —
//! together with every substrate the paper depends on and the full
//! evaluation (DroidBench, SecuriBench Micro, InsecureBank, synthetic
//! app corpora, commercial-baseline models).
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`ir`] | Jimple-like three-address IR |
//! | [`frontend`] | `jasm` text language, XML/manifest/layout parsing, SDEX binary classes, RPK archives |
//! | [`android`] | platform stubs, component lifecycle, callback discovery, dummy-main generation |
//! | [`callgraph`] | CHA call graphs and the interprocedural CFG |
//! | [`ifds`] | IFDS tabulation tables the taint solver drives |
//! | [`core`] | the taint analysis: bidirectional solvers, access paths, activation statements |
//! | [`baselines`] | AppScan-like / Fortify-like comparison models |
//! | [`droidbench`] | the DroidBench 1.0 suite and InsecureBank, with ground truth |
//! | [`securibench`] | SecuriBench-Micro-style generated suite |
//!
//! ## Quickstart
//!
//! ```
//! use flowdroid::prelude::*;
//!
//! // Build a program: platform stubs + an app authored in jasm.
//! let mut program = Program::new();
//! let platform = install_platform(&mut program);
//! let app = App::from_parts(
//!     &mut program,
//!     r#"<manifest package="demo">
//!          <application><activity android:name=".Main"/></application>
//!        </manifest>"#,
//!     &[],
//!     r#"
//! class demo.Main extends android.app.Activity {
//!   method onCreate(b: android.os.Bundle) -> void {
//!     let o: java.lang.Object
//!     let tm: android.telephony.TelephonyManager
//!     let id: java.lang.String
//!     o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
//!     tm = (android.telephony.TelephonyManager) o
//!     id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
//!     staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
//!     return
//!   }
//! }
//! "#,
//! )
//! .unwrap();
//!
//! // Run the full lifecycle-aware analysis.
//! let sources = SourceSinkManager::default_android();
//! let wrapper = TaintWrapper::default_rules();
//! let config = InfoflowConfig::default();
//! let analysis = Infoflow::new(&sources, &wrapper, &config)
//!     .analyze_app(&mut program, &platform, &app, "quickstart");
//! assert_eq!(analysis.results.leak_count(), 1);
//! ```

pub use flowdroid_android as android;
pub use flowdroid_baselines as baselines;
pub use flowdroid_callgraph as callgraph;
pub use flowdroid_core as core;
pub use flowdroid_droidbench as droidbench;
pub use flowdroid_frontend as frontend;
pub use flowdroid_ifds as ifds;
pub use flowdroid_ir as ir;
pub use flowdroid_securibench as securibench;

/// The most common imports in one place.
pub mod prelude {
    pub use flowdroid_android::{install_platform, CallbackAssociation, EntryPointModel};
    pub use flowdroid_callgraph::{CallGraph, Icfg};
    pub use flowdroid_core::{
        AppAnalysis, Infoflow, InfoflowConfig, InfoflowResults, Leak, SourceSinkManager,
        TaintWrapper,
    };
    pub use flowdroid_frontend::{parse_jasm, App, Archive};
    pub use flowdroid_ir::{MethodBuilder, Program, Type};
}
