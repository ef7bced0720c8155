//! Stub declarations for the Android framework and core Java classes.
//!
//! Every method here is *native* (body-less): like the original
//! FlowDroid, the analysis never descends into the framework. Data flow
//! through these methods is modeled by taint-wrapper and native-call
//! rules in the core crate.

use flowdroid_ir::{ClassId, FxHashSet, MethodId, Program, SubSig, Type};

/// Lifecycle methods of an Activity, in lifecycle order.
pub const ACTIVITY_LIFECYCLE: &[&str] = &[
    "onCreate",
    "onStart",
    "onRestoreInstanceState",
    "onResume",
    "onPause",
    "onSaveInstanceState",
    "onStop",
    "onRestart",
    "onDestroy",
];

/// Lifecycle methods of a Service.
pub const SERVICE_LIFECYCLE: &[&str] = &["onCreate", "onStartCommand", "onBind", "onDestroy"];

/// Lifecycle methods of a BroadcastReceiver.
pub const RECEIVER_LIFECYCLE: &[&str] = &["onReceive"];

/// Lifecycle methods of a ContentProvider.
pub const PROVIDER_LIFECYCLE: &[&str] = &["onCreate", "query", "insert", "update", "delete"];

/// Well-known callback interfaces (paper §3: FlowDroid scans for system
/// calls taking these as formal parameter types).
pub const CALLBACK_INTERFACES: &[&str] = &[
    "android.view.View$OnClickListener",
    "android.view.View$OnLongClickListener",
    "android.location.LocationListener",
    "android.content.DialogInterface$OnClickListener",
    "android.widget.CompoundButton$OnCheckedChangeListener",
    "java.lang.Runnable",
];

/// Handles to frequently used platform entities.
#[derive(Debug, Clone)]
pub struct PlatformInfo {
    /// `java.lang.Object`.
    pub object: ClassId,
    /// `android.app.Activity`.
    pub activity: ClassId,
    /// `android.app.Service`.
    pub service: ClassId,
    /// `android.content.BroadcastReceiver`.
    pub receiver: ClassId,
    /// `android.content.ContentProvider`.
    pub provider: ClassId,
    /// Callback interface ids.
    pub callback_interfaces: Vec<ClassId>,
    /// All method ids declared by the platform (used to recognize
    /// overridden framework methods).
    pub stub_methods: FxHashSet<MethodId>,
}

impl PlatformInfo {
    /// Returns `true` if `class` is (a subtype of) one of the callback
    /// interfaces.
    pub fn is_callback_interface(&self, program: &Program, class: ClassId) -> bool {
        self.callback_interfaces.iter().any(|&i| program.is_subtype_of(class, i))
    }

    /// The lifecycle method names for the component kind whose base
    /// class is `base`.
    pub fn lifecycle_methods_of(&self, base: ClassId) -> &'static [&'static str] {
        if base == self.activity {
            ACTIVITY_LIFECYCLE
        } else if base == self.service {
            SERVICE_LIFECYCLE
        } else if base == self.receiver {
            RECEIVER_LIFECYCLE
        } else {
            PROVIDER_LIFECYCLE
        }
    }
}

/// Declares the platform stubs into `program` and returns the handles.
///
/// Idempotent per program only in the sense that it must be called
/// exactly once (declaring twice panics).
pub fn install_platform(program: &mut Program) -> PlatformInfo {
    let mut stub_methods = FxHashSet::default();
    let p = program;

    // ----- core Java -----------------------------------------------------
    let object = p.declare_class("java.lang.Object", None, &[]);
    let string = p.ref_type("java.lang.String");
    let obj_ty = Type::Ref(object);
    let iterator_ty = p.ref_type("java.util.Iterator");
    let ostream_ty = p.ref_type("java.io.OutputStream");
    let prefs_ty = p.ref_type("android.content.SharedPreferences");
    let intent_ty0 = p.ref_type("android.content.Intent");
    let view_ty0 = p.ref_type("android.view.View");
    let click_l_ty = p.ref_type("android.view.View$OnClickListener");
    let long_click_l_ty = p.ref_type("android.view.View$OnLongClickListener");
    let loc_l_ty = p.ref_type("android.location.LocationListener");
    let runnable_ty = p.ref_type("java.lang.Runnable");
    let editor_ty0 = p.ref_type("android.content.SharedPreferences$Editor");

    let stub = |p: &mut Program,
                stubs: &mut FxHashSet<MethodId>,
                class: ClassId,
                name: &str,
                params: Vec<Type>,
                ret: Type,
                is_static: bool| {
        let m = p.declare_method(class, name, params, ret, is_static);
        p.set_native(m, true);
        stubs.insert(m);
        m
    };

    stub(p, &mut stub_methods, object, "toString", vec![], string.clone(), false);
    stub(p, &mut stub_methods, object, "equals", vec![obj_ty.clone()], Type::Boolean, false);
    stub(p, &mut stub_methods, object, "hashCode", vec![], Type::Int, false);

    let jstring = p.declare_class("java.lang.String", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, jstring, "concat", vec![string.clone()], string.clone(), false);
    stub(p, &mut stub_methods, jstring, "substring", vec![Type::Int], string.clone(), false);
    stub(p, &mut stub_methods, jstring, "toCharArray", vec![], Type::Char.array_of(), false);
    stub(p, &mut stub_methods, jstring, "isEmpty", vec![], Type::Boolean, false);
    stub(p, &mut stub_methods, jstring, "length", vec![], Type::Int, false);
    stub(p, &mut stub_methods, jstring, "valueOf", vec![obj_ty.clone()], string.clone(), true);

    let sb = p.declare_class("java.lang.StringBuilder", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, sb, "<init>", vec![], Type::Void, false);
    let sb_ty = p.ref_type("java.lang.StringBuilder");
    stub(p, &mut stub_methods, sb, "append", vec![string.clone()], sb_ty.clone(), false);

    let system = p.declare_class("java.lang.System", Some("java.lang.Object"), &[]);
    stub(
        p,
        &mut stub_methods,
        system,
        "arraycopy",
        vec![obj_ty.clone(), Type::Int, obj_ty.clone(), Type::Int, Type::Int],
        Type::Void,
        true,
    );

    // Collections.
    let coll_ifaces = ["java.util.List", "java.util.Set", "java.util.Collection"];
    for name in coll_ifaces {
        let i = p.declare_interface(name, &[]);
        stub(p, &mut stub_methods, i, "add", vec![obj_ty.clone()], Type::Boolean, false);
        stub(p, &mut stub_methods, i, "get", vec![Type::Int], obj_ty.clone(), false);
        stub(p, &mut stub_methods, i, "iterator", vec![], iterator_ty.clone(), false);
    }
    let iter = p.declare_interface("java.util.Iterator", &[]);
    stub(p, &mut stub_methods, iter, "next", vec![], obj_ty.clone(), false);
    stub(p, &mut stub_methods, iter, "hasNext", vec![], Type::Boolean, false);
    for (name, iface) in [
        ("java.util.ArrayList", "java.util.List"),
        ("java.util.LinkedList", "java.util.List"),
        ("java.util.HashSet", "java.util.Set"),
    ] {
        let c = p.declare_class(name, Some("java.lang.Object"), &[iface]);
        stub(p, &mut stub_methods, c, "<init>", vec![], Type::Void, false);
        stub(p, &mut stub_methods, c, "add", vec![obj_ty.clone()], Type::Boolean, false);
        stub(p, &mut stub_methods, c, "get", vec![Type::Int], obj_ty.clone(), false);
        stub(p, &mut stub_methods, c, "iterator", vec![], iterator_ty.clone(), false);
    }
    let map = p.declare_interface("java.util.Map", &[]);
    stub(
        p,
        &mut stub_methods,
        map,
        "put",
        vec![obj_ty.clone(), obj_ty.clone()],
        obj_ty.clone(),
        false,
    );
    stub(p, &mut stub_methods, map, "get", vec![obj_ty.clone()], obj_ty.clone(), false);
    let hashmap =
        p.declare_class("java.util.HashMap", Some("java.lang.Object"), &["java.util.Map"]);
    stub(p, &mut stub_methods, hashmap, "<init>", vec![], Type::Void, false);
    stub(
        p,
        &mut stub_methods,
        hashmap,
        "put",
        vec![obj_ty.clone(), obj_ty.clone()],
        obj_ty.clone(),
        false,
    );
    stub(p, &mut stub_methods, hashmap, "get", vec![obj_ty.clone()], obj_ty.clone(), false);

    // IO / network.
    let ostream = p.declare_class("java.io.OutputStream", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, ostream, "write", vec![string.clone()], Type::Void, false);
    let socket = p.declare_class("java.net.Socket", Some("java.lang.Object"), &[]);
    stub(
        p,
        &mut stub_methods,
        socket,
        "<init>",
        vec![string.clone(), Type::Int],
        Type::Void,
        false,
    );
    stub(p, &mut stub_methods, socket, "getOutputStream", vec![], ostream_ty.clone(), false);
    let url = p.declare_class("java.net.URL", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, url, "<init>", vec![string.clone()], Type::Void, false);
    stub(p, &mut stub_methods, url, "openConnection", vec![], obj_ty.clone(), false);

    // ----- Android core ---------------------------------------------------
    let context = p.declare_class("android.content.Context", Some("java.lang.Object"), &[]);
    stub(
        p,
        &mut stub_methods,
        context,
        "getSystemService",
        vec![string.clone()],
        obj_ty.clone(),
        false,
    );
    stub(
        p,
        &mut stub_methods,
        context,
        "getSharedPreferences",
        vec![string.clone(), Type::Int],
        prefs_ty.clone(),
        false,
    );
    stub(
        p,
        &mut stub_methods,
        context,
        "sendBroadcast",
        vec![intent_ty0.clone()],
        Type::Void,
        false,
    );
    stub(
        p,
        &mut stub_methods,
        context,
        "startActivity",
        vec![intent_ty0.clone()],
        Type::Void,
        false,
    );
    stub(
        p,
        &mut stub_methods,
        context,
        "startService",
        vec![intent_ty0.clone()],
        Type::Void,
        false,
    );

    let bundle = p.declare_class("android.os.Bundle", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, bundle, "<init>", vec![], Type::Void, false);
    stub(
        p,
        &mut stub_methods,
        bundle,
        "putString",
        vec![string.clone(), string.clone()],
        Type::Void,
        false,
    );
    stub(p, &mut stub_methods, bundle, "getString", vec![string.clone()], string.clone(), false);

    let intent = p.declare_class("android.content.Intent", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, intent, "<init>", vec![], Type::Void, false);
    let intent_ty = p.ref_type("android.content.Intent");
    stub(
        p,
        &mut stub_methods,
        intent,
        "putExtra",
        vec![string.clone(), string.clone()],
        intent_ty.clone(),
        false,
    );
    stub(
        p,
        &mut stub_methods,
        intent,
        "getStringExtra",
        vec![string.clone()],
        string.clone(),
        false,
    );
    stub(p, &mut stub_methods, intent, "setAction", vec![string.clone()], intent_ty.clone(), false);

    // Components.
    let activity = p.declare_class("android.app.Activity", Some("android.content.Context"), &[]);
    let bundle_ty = p.ref_type("android.os.Bundle");
    for (name, params) in [
        ("onCreate", vec![bundle_ty.clone()]),
        ("onStart", vec![]),
        ("onRestoreInstanceState", vec![bundle_ty.clone()]),
        ("onResume", vec![]),
        ("onPause", vec![]),
        ("onSaveInstanceState", vec![bundle_ty.clone()]),
        ("onStop", vec![]),
        ("onRestart", vec![]),
        ("onDestroy", vec![]),
        ("onLowMemory", vec![]),
    ] {
        stub(p, &mut stub_methods, activity, name, params, Type::Void, false);
    }
    stub(p, &mut stub_methods, activity, "findViewById", vec![Type::Int], view_ty0.clone(), false);
    stub(p, &mut stub_methods, activity, "setContentView", vec![Type::Int], Type::Void, false);
    stub(p, &mut stub_methods, activity, "getIntent", vec![], intent_ty.clone(), false);
    stub(
        p,
        &mut stub_methods,
        activity,
        "setResult",
        vec![Type::Int, intent_ty.clone()],
        Type::Void,
        false,
    );
    stub(p, &mut stub_methods, activity, "finish", vec![], Type::Void, false);

    let service = p.declare_class("android.app.Service", Some("android.content.Context"), &[]);
    stub(p, &mut stub_methods, service, "onCreate", vec![], Type::Void, false);
    stub(
        p,
        &mut stub_methods,
        service,
        "onStartCommand",
        vec![intent_ty.clone(), Type::Int, Type::Int],
        Type::Int,
        false,
    );
    stub(p, &mut stub_methods, service, "onBind", vec![intent_ty.clone()], obj_ty.clone(), false);
    stub(p, &mut stub_methods, service, "onDestroy", vec![], Type::Void, false);

    let receiver =
        p.declare_class("android.content.BroadcastReceiver", Some("java.lang.Object"), &[]);
    let context_ty = p.ref_type("android.content.Context");
    stub(
        p,
        &mut stub_methods,
        receiver,
        "onReceive",
        vec![context_ty.clone(), intent_ty.clone()],
        Type::Void,
        false,
    );

    let provider =
        p.declare_class("android.content.ContentProvider", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, provider, "onCreate", vec![], Type::Boolean, false);
    stub(p, &mut stub_methods, provider, "query", vec![string.clone()], obj_ty.clone(), false);
    stub(
        p,
        &mut stub_methods,
        provider,
        "insert",
        vec![string.clone(), string.clone()],
        obj_ty.clone(),
        false,
    );
    stub(
        p,
        &mut stub_methods,
        provider,
        "update",
        vec![string.clone(), string.clone()],
        Type::Int,
        false,
    );
    stub(p, &mut stub_methods, provider, "delete", vec![string.clone()], Type::Int, false);

    // Views and widgets.
    let view = p.declare_class("android.view.View", Some("java.lang.Object"), &[]);
    let click_listener = p.declare_interface("android.view.View$OnClickListener", &[]);
    let view_ty = p.ref_type("android.view.View");
    stub(p, &mut stub_methods, click_listener, "onClick", vec![view_ty.clone()], Type::Void, false);
    let long_click_listener = p.declare_interface("android.view.View$OnLongClickListener", &[]);
    stub(
        p,
        &mut stub_methods,
        long_click_listener,
        "onLongClick",
        vec![view_ty.clone()],
        Type::Boolean,
        false,
    );
    stub(
        p,
        &mut stub_methods,
        view,
        "setOnClickListener",
        vec![click_l_ty.clone()],
        Type::Void,
        false,
    );
    stub(
        p,
        &mut stub_methods,
        view,
        "setOnLongClickListener",
        vec![long_click_l_ty.clone()],
        Type::Void,
        false,
    );
    stub(p, &mut stub_methods, view, "findViewById", vec![Type::Int], view_ty.clone(), false);

    let textview = p.declare_class("android.widget.TextView", Some("android.view.View"), &[]);
    stub(p, &mut stub_methods, textview, "getText", vec![], string.clone(), false);
    stub(p, &mut stub_methods, textview, "setText", vec![string.clone()], Type::Void, false);
    p.declare_class("android.widget.Button", Some("android.widget.TextView"), &[]);
    p.declare_class("android.widget.EditText", Some("android.widget.TextView"), &[]);

    // Location.
    let location = p.declare_class("android.location.Location", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, location, "getLatitude", vec![], Type::Double, false);
    stub(p, &mut stub_methods, location, "getLongitude", vec![], Type::Double, false);
    let loc_listener = p.declare_interface("android.location.LocationListener", &[]);
    let location_ty = p.ref_type("android.location.Location");
    stub(
        p,
        &mut stub_methods,
        loc_listener,
        "onLocationChanged",
        vec![location_ty.clone()],
        Type::Void,
        false,
    );
    stub(
        p,
        &mut stub_methods,
        loc_listener,
        "onProviderDisabled",
        vec![string.clone()],
        Type::Void,
        false,
    );
    let loc_manager =
        p.declare_class("android.location.LocationManager", Some("java.lang.Object"), &[]);
    stub(
        p,
        &mut stub_methods,
        loc_manager,
        "requestLocationUpdates",
        vec![string.clone(), Type::Long, Type::Float, loc_l_ty.clone()],
        Type::Void,
        false,
    );
    stub(
        p,
        &mut stub_methods,
        loc_manager,
        "getLastKnownLocation",
        vec![string.clone()],
        location_ty.clone(),
        false,
    );

    // Dialogs / compound buttons / runnables.
    let dlg_listener = p.declare_interface("android.content.DialogInterface$OnClickListener", &[]);
    stub(
        p,
        &mut stub_methods,
        dlg_listener,
        "onClick",
        vec![obj_ty.clone(), Type::Int],
        Type::Void,
        false,
    );
    let checked_listener =
        p.declare_interface("android.widget.CompoundButton$OnCheckedChangeListener", &[]);
    stub(
        p,
        &mut stub_methods,
        checked_listener,
        "onCheckedChanged",
        vec![view_ty.clone(), Type::Boolean],
        Type::Void,
        false,
    );
    let runnable = p.declare_interface("java.lang.Runnable", &[]);
    stub(p, &mut stub_methods, runnable, "run", vec![], Type::Void, false);
    let thread = p.declare_class("java.lang.Thread", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, thread, "<init>", vec![runnable_ty.clone()], Type::Void, false);
    stub(p, &mut stub_methods, thread, "start", vec![], Type::Void, false);

    // Telephony, SMS, logging, preferences.
    let tm = p.declare_class("android.telephony.TelephonyManager", Some("java.lang.Object"), &[]);
    stub(p, &mut stub_methods, tm, "getDeviceId", vec![], string.clone(), false);
    stub(p, &mut stub_methods, tm, "getSimSerialNumber", vec![], string.clone(), false);
    stub(p, &mut stub_methods, tm, "getLine1Number", vec![], string.clone(), false);

    let sms = p.declare_class("android.telephony.SmsManager", Some("java.lang.Object"), &[]);
    let sms_ty = p.ref_type("android.telephony.SmsManager");
    stub(p, &mut stub_methods, sms, "getDefault", vec![], sms_ty, true);
    stub(
        p,
        &mut stub_methods,
        sms,
        "sendTextMessage",
        vec![string.clone(), string.clone(), string.clone(), obj_ty.clone(), obj_ty.clone()],
        Type::Void,
        false,
    );

    let log = p.declare_class("android.util.Log", Some("java.lang.Object"), &[]);
    for name in ["i", "d", "e", "v", "w"] {
        stub(
            p,
            &mut stub_methods,
            log,
            name,
            vec![string.clone(), string.clone()],
            Type::Int,
            true,
        );
    }

    let prefs = p.declare_interface("android.content.SharedPreferences", &[]);
    stub(p, &mut stub_methods, prefs, "edit", vec![], editor_ty0.clone(), false);
    let editor = p.declare_interface("android.content.SharedPreferences$Editor", &[]);
    let editor_ty = p.ref_type("android.content.SharedPreferences$Editor");
    stub(
        p,
        &mut stub_methods,
        editor,
        "putString",
        vec![string.clone(), string.clone()],
        editor_ty,
        false,
    );
    stub(p, &mut stub_methods, editor, "commit", vec![], Type::Boolean, false);

    let callback_interfaces = CALLBACK_INTERFACES.iter().map(|n| p.class_id(n)).collect();

    PlatformInfo {
        object,
        activity,
        service,
        receiver,
        provider,
        callback_interfaces,
        stub_methods,
    }
}

/// Returns the lifecycle-method subsignature (by name) declared on the
/// platform base class, used to check overrides.
pub fn platform_subsig(program: &Program, base: ClassId, name: &str) -> Option<SubSig> {
    let name_sym = program.lookup_symbol(name)?;
    for c in program.supers(base) {
        for &m in program.class(c).methods() {
            if program.method(m).name() == name_sym {
                return Some(program.method(m).subsig().clone());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn installs_component_hierarchy() {
        let mut p = Program::new();
        let info = install_platform(&mut p);
        assert!(p.is_subtype_of(info.activity, info.object));
        let ctx = p.find_class("android.content.Context").unwrap();
        assert!(p.is_subtype_of(info.activity, ctx));
        assert!(p.is_subtype_of(info.service, ctx));
        assert!(p.find_method("android.app.Activity", "findViewById").is_some());
    }

    #[test]
    fn stub_methods_are_native() {
        let mut p = Program::new();
        let info = install_platform(&mut p);
        for &m in &info.stub_methods {
            assert!(p.method(m).is_native());
            assert!(!p.method(m).has_body());
        }
        assert!(info.stub_methods.len() > 50);
    }

    #[test]
    fn callback_interfaces_are_recognized() {
        let mut p = Program::new();
        let info = install_platform(&mut p);
        let cl = p.find_class("android.view.View$OnClickListener").unwrap();
        assert!(info.is_callback_interface(&p, cl));
        // A user class implementing the interface counts too.
        let user = p.declare_class(
            "my.Listener",
            Some("java.lang.Object"),
            &["android.view.View$OnClickListener"],
        );
        assert!(info.is_callback_interface(&p, user));
        assert!(!info.is_callback_interface(&p, info.object));
    }

    #[test]
    fn lifecycle_tables() {
        let mut p = Program::new();
        let info = install_platform(&mut p);
        assert!(info.lifecycle_methods_of(info.activity).contains(&"onRestart"));
        assert!(info.lifecycle_methods_of(info.receiver).contains(&"onReceive"));
        assert!(info.lifecycle_methods_of(info.service).contains(&"onStartCommand"));
    }

    #[test]
    fn platform_subsig_resolves_through_supers() {
        let mut p = Program::new();
        let info = install_platform(&mut p);
        let sig = platform_subsig(&p, info.activity, "onCreate").unwrap();
        assert_eq!(sig.params.len(), 1);
        assert!(platform_subsig(&p, info.activity, "noSuchMethod").is_none());
        // getSystemService is declared on Context, found from Activity.
        assert!(platform_subsig(&p, info.activity, "getSystemService").is_some());
    }
}
