//! Full Android pipeline on the paper's Listing 1 app: bundle the app
//! into an RPK archive (the APK substitute), load it back, run the
//! lifecycle-aware analysis and print the leak with its propagation
//! path. Mirrors Figure 4 of the paper end to end.
//!
//! ```sh
//! cargo run --example analyze_app
//! ```

use flowdroid::android::install_platform;
use flowdroid::prelude::*;

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

/// The paper's Listing 1, re-authored in `jasm`.
const CODE: &str = r#"
class com.example.User extends java.lang.Object {
  field name: java.lang.String
  field pwd: java.lang.String
  method <init>(n: java.lang.String, p: java.lang.String) -> void {
    this.name = n
    this.pwd = p
    return
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
    let msg: java.lang.String
    let sms: android.telephony.SmsManager
    u = this.user
    if u == null goto end
    pwd = virtualinvoke u.<com.example.User: java.lang.String getPassword()>()
    msg = "Pwd: " + pwd
    sms = staticinvoke <android.telephony.SmsManager: android.telephony.SmsManager getDefault()>()
    virtualinvoke sms.<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,java.lang.Object,java.lang.Object)>("+44 020 7321 0905", null, msg, null, null)
  label end:
    return
  }
}
"#;

fn main() {
    // Package the app into an archive and read it back — the same
    // unpack-parse pipeline the paper's Figure 4 shows for APKs.
    let archive = App::bundle(MANIFEST, &[("main", LAYOUT)], CODE);
    let bytes = archive.to_bytes();
    println!("packaged app: {} bytes, {} entries", bytes.len(), archive.len());
    let unpacked = Archive::from_bytes(&bytes).expect("valid archive");

    let mut program = Program::new();
    let platform = install_platform(&mut program);
    let app = App::from_archive(&mut program, &unpacked).expect("valid app");
    println!(
        "loaded package {}: {} classes, {} layouts",
        app.manifest.package,
        app.classes.len(),
        app.layouts.len()
    );

    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let analysis = Infoflow::new(&sources, &wrapper, &config).analyze_app(
        &mut program,
        &platform,
        &app,
        "app",
    );

    // Show the entry-point model the dummy main was generated from.
    for comp in &analysis.model.components {
        println!(
            "component {} ({:?}): {} lifecycle methods, {} callbacks, layouts {:?}",
            program.class_name(comp.class),
            comp.kind,
            comp.lifecycle.len(),
            comp.callbacks.len(),
            comp.layouts
        );
    }
    println!();
    println!("{}", analysis.results.report(&program));
    assert_eq!(analysis.results.leak_count(), 1, "the password leak");
    println!("analyze_app: password-to-SMS leak found, username stays clean ✓");
}
