//! End-to-end Android pipeline tests: the paper's Listing 1 LeakageApp
//! (password field → SMS, via lifecycle + XML callback), disabled
//! components, and lifecycle-dependent flows.

use flowdroid_android::install_platform;
use flowdroid_core::{Infoflow, InfoflowConfig, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::App;
use flowdroid_ir::Program;

const MANIFEST: &str = r#"<manifest package="com.example">
  <application>
    <activity android:name=".LeakageApp">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#;

const LAYOUT: &str = r#"<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">
  <EditText android:id="@+id/username"/>
  <EditText android:id="@+id/pwdString" android:inputType="textPassword"/>
  <Button android:id="@+id/button1" android:onClick="sendMessage"/>
</LinearLayout>"#;

/// The paper's Listing 1, re-authored in jasm. The app reads a password
/// into a `User` object in `onRestart` and sends it via SMS when the
/// (XML-declared) button handler fires.
const LEAKAGE_APP: &str = r#"
class com.example.User extends java.lang.Object {
  field name: java.lang.String
  field pwd: java.lang.String
  method <init>(n: java.lang.String, p: java.lang.String) -> void {
    this.name = n
    this.pwd = p
    return
  }
  method getName() -> java.lang.String {
    let n: java.lang.String
    n = this.name
    return n
  }
  method getPassword() -> java.lang.String {
    let p: java.lang.String
    p = this.pwd
    return p
  }
}
class com.example.LeakageApp extends android.app.Activity {
  field user: com.example.User
  method onCreate(b: android.os.Bundle) -> void {
    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
    return
  }
  method onRestart() -> void {
    let ut: android.view.View
    let pt: android.view.View
    let uname: java.lang.String
    let pwd: java.lang.String
    let u: com.example.User
    ut = virtualinvoke this.<android.app.Activity: android.view.View findViewById(int)>(@id/username)
    pt = virtualinvoke this.<android.app.Activity: android.view.View findViewById(int)>(@id/pwdString)
    uname = virtualinvoke ut.<java.lang.Object: java.lang.String toString()>()
    pwd = virtualinvoke pt.<java.lang.Object: java.lang.String toString()>()
    if uname == null goto end
    u = new com.example.User
    specialinvoke u.<com.example.User: void <init>(java.lang.String,java.lang.String)>(uname, pwd)
    this.user = u
  label end:
    return
  }
  method sendMessage(v: android.view.View) -> void {
    let u: com.example.User
    let pwd: java.lang.String
    let nm: java.lang.String
    let msg: java.lang.String
    let sms: android.telephony.SmsManager
    u = this.user
    if u == null goto end
    pwd = virtualinvoke u.<com.example.User: java.lang.String getPassword()>()
    nm = virtualinvoke u.<com.example.User: java.lang.String getName()>()
    msg = nm + pwd
    sms = staticinvoke <android.telephony.SmsManager: android.telephony.SmsManager getDefault()>()
    virtualinvoke sms.<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,java.lang.Object,java.lang.Object)>("+44 020 7321 0905", null, msg, null, null)
  label end:
    return
  }
}
"#;

fn run_app(
    manifest: &str,
    layouts: &[(&str, &str)],
    code: &str,
    config: &InfoflowConfig,
) -> (Program, flowdroid_core::AppAnalysis) {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app = App::from_parts(&mut p, manifest, layouts, code).unwrap_or_else(|e| panic!("{e}"));
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let infoflow = Infoflow::new(&sources, &wrapper, config);
    let analysis = infoflow.analyze_app(&mut p, &platform, &app, "test");
    (p, analysis)
}

#[test]
fn listing1_leakage_app_password_to_sms() {
    let (p, analysis) =
        run_app(MANIFEST, &[("main", LAYOUT)], LEAKAGE_APP, &InfoflowConfig::default());
    let r = &analysis.results;
    assert_eq!(r.leak_count(), 1, "exactly the password leaks:\n{}", r.report(&p));
    let leak = &r.leaks[0];
    let sink_sig = p.signature(leak.sink.method);
    assert!(sink_sig.contains("sendMessage"), "sink is in sendMessage: {sink_sig}");
    // The source is the password-field lookup in onRestart.
    let src = leak.source.expect("source attributed");
    assert!(p.signature(src.method).contains("onRestart"));
}

#[test]
fn listing1_username_field_does_not_leak() {
    // Field sensitivity: user.name flows to the SMS too, but the
    // username EditText is not a password field, so only one leak (the
    // pwd) is reported — requiring the analysis to distinguish
    // user.name from user.pwd.
    let (p, analysis) =
        run_app(MANIFEST, &[("main", LAYOUT)], LEAKAGE_APP, &InfoflowConfig::default());
    assert_eq!(analysis.results.leak_count(), 1, "{}", analysis.results.report(&p));
}

#[test]
fn disabled_activity_is_not_analyzed() {
    let manifest = r#"<manifest package="com.example">
  <application>
    <activity android:name=".LeakageApp" android:enabled="false"/>
  </application>
</manifest>"#;
    let (_, analysis) =
        run_app(manifest, &[("main", LAYOUT)], LEAKAGE_APP, &InfoflowConfig::default());
    assert!(
        analysis.results.is_clean(),
        "a disabled component's lifecycle must not run (InactiveActivity)"
    );
    assert!(analysis.model.components.is_empty());
}

#[test]
fn location_callback_parameter_is_a_source() {
    // LocationLeak-style: the activity implements LocationListener and
    // stores the framework-passed location, leaking it in onPause.
    let manifest = r#"<manifest package="ll">
  <application><activity android:name=".A"/></application>
</manifest>"#;
    let code = r#"
class ll.A extends android.app.Activity implements android.location.LocationListener {
  field lat: java.lang.String
  method onCreate(b: android.os.Bundle) -> void {
    let lm: android.location.LocationManager
    let o: java.lang.Object
    o = virtualinvoke this.<android.app.Activity: java.lang.Object getSystemService(java.lang.String)>("location")
    lm = (android.location.LocationManager) o
    virtualinvoke lm.<android.location.LocationManager: void requestLocationUpdates(java.lang.String,long,float,android.location.LocationListener)>("gps", 0, 0, this)
    return
  }
  method onLocationChanged(loc: android.location.Location) -> void {
    let s: java.lang.String
    s = virtualinvoke loc.<java.lang.Object: java.lang.String toString()>()
    this.lat = s
    return
  }
  method onPause() -> void {
    let s: java.lang.String
    s = this.lat
    staticinvoke <android.util.Log: int d(java.lang.String,java.lang.String)>("TAG", s)
    return
  }
}
"#;
    let (p, analysis) = run_app(manifest, &[], code, &InfoflowConfig::default());
    assert_eq!(
        analysis.results.leak_count(),
        1,
        "location parameter source → log sink:\n{}",
        analysis.results.report(&p)
    );
}

#[test]
fn imei_to_log_is_found() {
    let manifest = r#"<manifest package="im">
  <application><activity android:name=".A"/></application>
</manifest>"#;
    let code = r#"
class im.A extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.app.Activity: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("TAG", id)
    return
  }
}
"#;
    let (p, analysis) = run_app(manifest, &[], code, &InfoflowConfig::default());
    assert_eq!(analysis.results.leak_count(), 1, "{}", analysis.results.report(&p));
}

#[test]
fn intent_sink_via_put_extra_and_broadcast() {
    // IntentSink2-style: tainted data into an intent, intent broadcast.
    let manifest = r#"<manifest package="is">
  <application><activity android:name=".A"/></application>
</manifest>"#;
    let code = r#"
class is.A extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    let i: android.content.Intent
    o = virtualinvoke this.<android.app.Activity: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    i = new android.content.Intent
    specialinvoke i.<android.content.Intent: void <init>()>()
    virtualinvoke i.<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)>("imei", id)
    virtualinvoke this.<android.content.Context: void sendBroadcast(android.content.Intent)>(i)
    return
  }
}
"#;
    let (p, analysis) = run_app(manifest, &[], code, &InfoflowConfig::default());
    assert_eq!(analysis.results.leak_count(), 1, "{}", analysis.results.report(&p));
}

#[test]
fn set_result_is_not_a_sink() {
    // IntentSink1-style: the tainted intent is handed back via
    // setResult, which the paper's model does not treat as a sink — a
    // known miss.
    let manifest = r#"<manifest package="is1">
  <application><activity android:name=".A"/></application>
</manifest>"#;
    let code = r#"
class is1.A extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    let i: android.content.Intent
    o = virtualinvoke this.<android.app.Activity: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    i = new android.content.Intent
    specialinvoke i.<android.content.Intent: void <init>()>()
    virtualinvoke i.<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)>("imei", id)
    virtualinvoke this.<android.app.Activity: void setResult(int,android.content.Intent)>(0, i)
    return
  }
}
"#;
    let (_, analysis) = run_app(manifest, &[], code, &InfoflowConfig::default());
    assert!(analysis.results.is_clean(), "setResult flows are a documented miss");
}

#[test]
fn static_initializer_runs_before_lifecycle() {
    // StaticInitialization1-style: at runtime the <clinit> would run
    // *after* onCreate writes the static field (first use), so the leak
    // is real; the model runs <clinit> first and misses it — the
    // paper's documented unsoundness.
    let manifest = r#"<manifest package="si">
  <application><activity android:name=".A"/></application>
</manifest>"#;
    let code = r#"
class si.A extends android.app.Activity {
  static field im: java.lang.String
  static method <clinit>() -> void {
    let s: java.lang.String
    s = static si.A.im
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("TAG", s)
    return
  }
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.app.Activity: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    static si.A.im = id
    return
  }
}
"#;
    let (_, analysis) = run_app(manifest, &[], code, &InfoflowConfig::default());
    assert!(
        analysis.results.is_clean(),
        "clinit-at-start ordering misses the leak (StaticInitialization1)"
    );
}
