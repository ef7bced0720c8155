//! Linked ICC analysis (the paper's EPICC future work): precision gain
//! over the shipped over-approximation without losing real
//! cross-component flows.

use flowdroid_android::install_platform;
use flowdroid_core::icc::analyze_app_linked;
use flowdroid_core::{Infoflow, InfoflowConfig, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::App;
use flowdroid_ir::Program;

/// Two activities: the sender broadcasts the IMEI, the receiver logs
/// whatever arrives — a real two-hop flow.
const LINKED_APP: &str = r#"
class icc.Sender extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    let i: android.content.Intent
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    i = new android.content.Intent
    specialinvoke i.<android.content.Intent: void <init>()>()
    virtualinvoke i.<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)>("x", id)
    virtualinvoke this.<android.content.Context: void sendBroadcast(android.content.Intent)>(i)
    return
  }
}
class icc.Receiver extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let i: android.content.Intent
    let s: java.lang.String
    i = virtualinvoke this.<android.app.Activity: android.content.Intent getIntent()>()
    s = virtualinvoke i.<android.content.Intent: java.lang.String getStringExtra(java.lang.String)>("x")
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", s)
    return
  }
}
"#;

/// Only the receiver half: nobody ever sends a tainted intent.
const RECEIVER_ONLY_APP: &str = r#"
class icc.Receiver extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let i: android.content.Intent
    let s: java.lang.String
    i = virtualinvoke this.<android.app.Activity: android.content.Intent getIntent()>()
    s = virtualinvoke i.<android.content.Intent: java.lang.String getStringExtra(java.lang.String)>("x")
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", s)
    return
  }
}
"#;

const MANIFEST_BOTH: &str = r#"<manifest package="icc">
  <application>
    <activity android:name=".Sender"/>
    <activity android:name=".Receiver"/>
  </application>
</manifest>"#;

const MANIFEST_RECEIVER: &str = r#"<manifest package="icc">
  <application>
    <activity android:name=".Receiver"/>
  </application>
</manifest>"#;

fn setup(manifest: &str, code: &str) -> (Program, flowdroid_android::PlatformInfo, App) {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app = App::from_parts(&mut p, manifest, &[], code).unwrap();
    (p, platform, app)
}

#[test]
fn linked_mode_skips_receivers_without_tainted_senders() {
    let (mut p, platform, app) = setup(MANIFEST_RECEIVER, RECEIVER_ONLY_APP);
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();

    // Paper mode: getIntent is unconditionally a source → a warning.
    let paper =
        Infoflow::new(&sources, &wrapper, &config).analyze_app(&mut p, &platform, &app, "paper");
    assert_eq!(paper.results.leak_count(), 1, "the shipped over-approximation warns");

    // Linked mode: no tainted send exists → clean.
    let (mut p2, platform2, app2) = setup(MANIFEST_RECEIVER, RECEIVER_ONLY_APP);
    let linked = analyze_app_linked(&mut p2, &platform2, &app2, &sources, &wrapper, &config, "lk");
    assert!(!linked.tainted_send_exists);
    assert_eq!(linked.leak_count(), 0, "no sender, no warning: {linked:#?}");
}

#[test]
fn linked_mode_connects_real_cross_component_flows() {
    let (mut p, platform, app) = setup(MANIFEST_BOTH, LINKED_APP);
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let linked = analyze_app_linked(&mut p, &platform, &app, &sources, &wrapper, &config, "lk2");
    assert!(linked.tainted_send_exists, "the sender's broadcast is tainted");
    // Direct: the tainted send itself (sink at sendBroadcast).
    assert_eq!(linked.direct.leak_count(), 1, "{:#?}", linked.direct);
    // Linked: the receiver-side log of the received payload.
    assert_eq!(linked.icc_linked.len(), 1, "{:#?}", linked.icc_linked);
    let icc_leak = &linked.icc_linked[0];
    assert!(
        p.signature(icc_leak.sink.method).contains("Receiver"),
        "the linked leak is in the receiver"
    );
}

#[test]
fn clone_without_strips_only_the_given_entries() {
    let sources = SourceSinkManager::default_android();
    let stripped = sources
        .clone_without("<android.app.Activity: android.content.Intent getIntent()> -> _SOURCE_\n");
    assert_eq!(stripped.len(), sources.len() - 1);
    // Stripping something unknown changes nothing.
    let same = sources.clone_without("<no.Such: void thing()> -> _SINK_\n");
    assert_eq!(same.len(), sources.len());
}
