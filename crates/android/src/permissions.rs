//! Permission mapping: which Android permissions the app's *reachable*
//! code actually needs, compared against what the manifest declares.
//!
//! The paper motivates FlowDroid with apps leaking data "through a
//! dangerously broad set of permissions granted by the user" and cites
//! Bartel et al. \[4\] on reducing permission-based attack surface; this
//! module provides that companion analysis on our substrate: a
//! reachability-based map from protected API calls to the permissions
//! they require, yielding the app's *over-privilege* (declared but
//! unused permissions).

use crate::platform::PlatformInfo;
use crate::{generate_dummy_main, CallbackAssociation, EntryPointModel};
use flowdroid_callgraph::CallGraph;
use flowdroid_frontend::App;
use flowdroid_ir::Program;
use std::collections::BTreeSet;

/// The permission-protected API surface of the platform model:
/// `(class, method, permission)`.
pub const PERMISSION_MAP: &[(&str, &str, &str)] = &[
    ("android.telephony.TelephonyManager", "getDeviceId", "android.permission.READ_PHONE_STATE"),
    (
        "android.telephony.TelephonyManager",
        "getSimSerialNumber",
        "android.permission.READ_PHONE_STATE",
    ),
    ("android.telephony.TelephonyManager", "getLine1Number", "android.permission.READ_PHONE_STATE"),
    ("android.telephony.SmsManager", "sendTextMessage", "android.permission.SEND_SMS"),
    (
        "android.location.LocationManager",
        "requestLocationUpdates",
        "android.permission.ACCESS_FINE_LOCATION",
    ),
    (
        "android.location.LocationManager",
        "getLastKnownLocation",
        "android.permission.ACCESS_FINE_LOCATION",
    ),
    ("java.net.Socket", "<init>", "android.permission.INTERNET"),
    ("java.net.URL", "openConnection", "android.permission.INTERNET"),
];

/// The result of a permission analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermissionReport {
    /// Permissions required by reachable API calls.
    pub required: BTreeSet<String>,
    /// Permissions declared in the manifest.
    pub declared: BTreeSet<String>,
}

impl PermissionReport {
    /// Declared but never needed (the over-privilege / attack surface).
    pub fn over_privileged(&self) -> BTreeSet<String> {
        self.declared.difference(&self.required).cloned().collect()
    }

    /// Needed but not declared (the app would crash at runtime).
    pub fn missing(&self) -> BTreeSet<String> {
        self.required.difference(&self.declared).cloned().collect()
    }
}

/// Computes the permissions required by code reachable through the
/// app's lifecycle (the same entry-point model the taint analysis
/// uses), and compares them against the manifest.
pub fn analyze_permissions(
    program: &mut Program,
    platform: &PlatformInfo,
    app: &App,
    tag: &str,
) -> PermissionReport {
    let model = EntryPointModel::build(program, platform, app, CallbackAssociation::PerComponent);
    let main = generate_dummy_main(program, platform, &model, tag);
    let cg = CallGraph::build(&mut *program, &[main]);
    let mut required = BTreeSet::new();
    for &m in cg.reachable_methods() {
        let Some(body) = program.method(m).body() else { continue };
        for stmt in body.stmts() {
            let Some(call) = stmt.invoke_expr() else { continue };
            let cname = program.class_name(call.callee.class);
            let mname = program.str(call.callee.subsig.name);
            for (pc, pm, perm) in PERMISSION_MAP {
                if cname == *pc && mname == *pm {
                    required.insert((*perm).to_owned());
                }
            }
        }
    }
    let declared: BTreeSet<String> = app.manifest.permissions.iter().cloned().collect();
    PermissionReport { required, declared }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install_platform;

    const MANIFEST: &str = r#"<manifest package="pp">
  <uses-permission android:name="android.permission.READ_PHONE_STATE"/>
  <uses-permission android:name="android.permission.SEND_SMS"/>
  <uses-permission android:name="android.permission.CAMERA"/>
  <application><activity android:name=".Main"/></application>
</manifest>"#;

    const CODE: &str = r#"
class pp.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    return
  }
  method unreachableHelper() -> void {
    let sms: android.telephony.SmsManager
    sms = staticinvoke <android.telephony.SmsManager: android.telephony.SmsManager getDefault()>()
    virtualinvoke sms.<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,java.lang.Object,java.lang.Object)>("x", null, "y", null, null)
    return
  }
}
"#;

    #[test]
    fn over_privilege_is_detected() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(&mut p, MANIFEST, &[], CODE).unwrap();
        let report = analyze_permissions(&mut p, &platform, &app, "perm");
        assert!(report.required.contains("android.permission.READ_PHONE_STATE"));
        // sendTextMessage lives in a method no lifecycle/callback
        // reaches, so SEND_SMS is *not* required.
        assert!(!report.required.contains("android.permission.SEND_SMS"));
        let over: Vec<String> = report.over_privileged().into_iter().collect();
        assert_eq!(
            over,
            vec!["android.permission.CAMERA".to_owned(), "android.permission.SEND_SMS".to_owned()]
        );
        assert!(report.missing().is_empty());
    }

    #[test]
    fn missing_permission_is_detected() {
        let manifest = r#"<manifest package="pp2">
  <application><activity android:name=".Main"/></application>
</manifest>"#;
        let code = CODE.replace("pp.Main", "pp2.Main");
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(&mut p, manifest, &[], &code).unwrap();
        let report = analyze_permissions(&mut p, &platform, &app, "perm2");
        assert!(report.missing().contains("android.permission.READ_PHONE_STATE"));
    }
}
