//! Per-component models and iterative callback discovery (paper §3).

use crate::platform::PlatformInfo;
use flowdroid_callgraph::{CallGraph, Hierarchy};
use flowdroid_frontend::manifest::ComponentKind;
use flowdroid_frontend::App;
use flowdroid_ir::{ClassId, Constant, FxHashSet, MethodId, Operand, Program};

/// How callbacks are associated with components.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CallbackAssociation {
    /// Precise: a callback is only invoked within the lifecycle of the
    /// component that registers it (the paper's approach).
    #[default]
    PerComponent,
    /// Imprecise ablation: every discovered callback is invoked within
    /// every component's lifecycle.
    Global,
}

/// Who receives a callback invocation in the dummy main.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CallbackReceiver {
    /// The component instance itself (XML handlers, overridden
    /// framework methods, components implementing listener interfaces).
    Component,
    /// A freshly allocated instance of the given listener class.
    Fresh(ClassId),
}

/// One callback to invoke during a component's running phase.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallbackInfo {
    /// The concrete callback method.
    pub method: MethodId,
    /// The receiver to invoke it on.
    pub receiver: CallbackReceiver,
}

/// The model of one manifest component.
#[derive(Clone, Debug)]
pub struct ComponentModel {
    /// Component kind.
    pub kind: ComponentKind,
    /// The component class.
    pub class: ClassId,
    /// Lifecycle methods the component actually overrides, in
    /// lifecycle order.
    pub lifecycle: Vec<MethodId>,
    /// Discovered callbacks.
    pub callbacks: Vec<CallbackInfo>,
    /// Layout resource names this component inflates via
    /// `setContentView`.
    pub layouts: Vec<String>,
}

/// The complete entry-point model of an app: what the dummy main is
/// generated from.
#[derive(Clone, Debug)]
pub struct EntryPointModel {
    /// Per-component models (enabled components only).
    pub components: Vec<ComponentModel>,
    /// `<clinit>` static initializers of app classes (run first).
    pub static_initializers: Vec<MethodId>,
}

impl EntryPointModel {
    /// Builds the model for `app`: resolves overridden lifecycle
    /// methods, associates layouts, and discovers callbacks iteratively
    /// until a fixed point is reached (paper §3: callbacks may register
    /// further callbacks).
    ///
    /// Takes the program mutably because lazily loaded apps (see
    /// [`flowdroid_frontend::App::from_archive_lazy`]) materialize
    /// method bodies on demand: each discovery iteration's call graph
    /// decodes the bodies its walk reaches, so the scan sees every
    /// reachable body. Eagerly loaded programs pass through unchanged.
    pub fn build(
        program: &mut Program,
        platform: &PlatformInfo,
        app: &App,
        association: CallbackAssociation,
    ) -> EntryPointModel {
        let hierarchy = Hierarchy::build(program);
        let mut components = Vec::new();
        for decl in app.manifest.enabled_components() {
            let Some(class) = program.find_class(&decl.class_name) else { continue };
            let base = match decl.kind {
                ComponentKind::Activity => platform.activity,
                ComponentKind::Service => platform.service,
                ComponentKind::BroadcastReceiver => platform.receiver,
                ComponentKind::ContentProvider => platform.provider,
            };
            if !program.is_subtype_of(class, base) {
                continue;
            }
            let lifecycle = overridden_lifecycle(program, platform, class, base);
            components.push(ComponentModel {
                kind: decl.kind,
                class,
                lifecycle,
                callbacks: Vec::new(),
                layouts: Vec::new(),
            });
        }

        // Iterative callback discovery per component.
        for comp in &mut components {
            discover_component(program, platform, app, &hierarchy, comp);
        }

        // Ablation: pool all callbacks into every component. A
        // component-receiver callback cannot be transplanted onto other
        // components, so pooled copies run on fresh instances of their
        // own class — exactly the imprecision this mode measures.
        if association == CallbackAssociation::Global {
            let pooled: Vec<CallbackInfo> = components
                .iter()
                .flat_map(|c| {
                    let cls = c.class;
                    c.callbacks.iter().map(move |cb| match cb.receiver {
                        CallbackReceiver::Component => CallbackInfo {
                            method: cb.method,
                            receiver: CallbackReceiver::Fresh(cls),
                        },
                        other => CallbackInfo { method: cb.method, receiver: other },
                    })
                })
                .collect();
            for comp in &mut components {
                let mut merged: Vec<CallbackInfo> = comp.callbacks.clone();
                for cb in &pooled {
                    if !merged.contains(cb) {
                        merged.push(*cb);
                    }
                }
                comp.callbacks = merged;
            }
        }

        // Static initializers of app classes, run at program start
        // (Soot's assumption; reproduces the StaticInitialization1 miss).
        let clinit_name = program.lookup_symbol("<clinit>");
        let mut static_initializers = Vec::new();
        if let Some(clinit) = clinit_name {
            for &cid in &app.classes {
                for &m in program.class(cid).methods() {
                    if program.method(m).name() == clinit && program.method(m).has_body() {
                        static_initializers.push(m);
                    }
                }
            }
        }

        EntryPointModel { components, static_initializers }
    }
}

/// Lifecycle methods of `class` that override the platform's, in
/// lifecycle order.
fn overridden_lifecycle(
    program: &Program,
    platform: &PlatformInfo,
    class: ClassId,
    base: ClassId,
) -> Vec<MethodId> {
    let mut out = Vec::new();
    for name in platform.lifecycle_methods_of(base) {
        let Some(subsig) = crate::platform::platform_subsig(program, base, name) else {
            continue;
        };
        // Walk the app class chain up to (but excluding) the platform
        // base for an override with a body.
        for c in program.supers(class) {
            if c == base {
                break;
            }
            if let Some(m) = program.class(c).method_by_subsig(&subsig) {
                if program.method(m).has_body() {
                    out.push(m);
                }
                break;
            }
        }
    }
    out
}

/// Runs iterative callback discovery for one component (paper §3): build
/// a call graph from the component's current entry set, scan reachable
/// code for callback registrations, extend, repeat until fixed point.
fn discover_component(
    program: &mut Program,
    platform: &PlatformInfo,
    app: &App,
    hierarchy: &Hierarchy,
    comp: &mut ComponentModel,
) {
    let mut known: FxHashSet<CallbackInfo> = FxHashSet::default();
    // Overridden non-lifecycle framework methods are callbacks from the
    // start (MethodOverride-style tests).
    for cb in overridden_framework_methods(program, platform, comp) {
        known.insert(cb);
    }
    loop {
        let mut entries: Vec<MethodId> = comp.lifecycle.clone();
        entries.extend(known.iter().map(|cb| cb.method));
        // The walk decodes the deferred bodies the entry set reaches
        // (no-op on eager programs).
        let cg = CallGraph::build_with_hierarchy(&mut *program, hierarchy, &entries);

        let mut changed = false;
        // Layouts inflated by this component.
        for layout_name in inflated_layouts(program, app, &cg) {
            if !comp.layouts.contains(&layout_name) {
                comp.layouts.push(layout_name);
                changed = true;
            }
        }
        // XML-declared click handlers for associated layouts.
        for layout_name in comp.layouts.clone() {
            if let Some(layout) = app.layouts.get(&layout_name) {
                for handler in layout.click_handlers() {
                    if let Some(m) = find_handler(program, comp.class, handler) {
                        if known.insert(CallbackInfo {
                            method: m,
                            receiver: CallbackReceiver::Component,
                        }) {
                            changed = true;
                        }
                    }
                }
            }
        }
        // Imperative registrations: calls to stub methods taking a
        // callback-interface parameter.
        for cb in imperative_callbacks(program, platform, hierarchy, &cg, comp.class) {
            if known.insert(cb) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut callbacks: Vec<CallbackInfo> = known.into_iter().collect();
    callbacks.sort_by_key(|cb| cb.method);
    comp.callbacks = callbacks;
}

/// Non-lifecycle framework methods the component class overrides.
fn overridden_framework_methods(
    program: &Program,
    platform: &PlatformInfo,
    comp: &ComponentModel,
) -> Vec<CallbackInfo> {
    let mut out = Vec::new();
    let class = program.class(comp.class);
    for &m in class.methods() {
        let method = program.method(m);
        if !method.has_body() || comp.lifecycle.contains(&m) {
            continue;
        }
        // Does a platform superclass or implemented interface declare
        // this subsignature as a stub?
        let subsig = method.subsig().clone();
        let mut overrides_stub = false;
        let mut stack: Vec<ClassId> = Vec::new();
        if let Some(s) = class.superclass() {
            stack.push(s);
        }
        stack.extend(class.interfaces().iter().copied());
        let mut seen = FxHashSet::default();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            if let Some(sm) = program.class(c).method_by_subsig(&subsig) {
                if platform.stub_methods.contains(&sm) {
                    overrides_stub = true;
                    break;
                }
            }
            let cd = program.class(c);
            if let Some(s) = cd.superclass() {
                stack.push(s);
            }
            stack.extend(cd.interfaces().iter().copied());
        }
        if overrides_stub {
            out.push(CallbackInfo { method: m, receiver: CallbackReceiver::Component });
        }
    }
    out
}

/// Layout names passed to `setContentView(int)` in reachable code.
fn inflated_layouts(program: &Program, app: &App, cg: &CallGraph) -> Vec<String> {
    let set_content = program.lookup_symbol("setContentView");
    let Some(set_content) = set_content else { return vec![] };
    let mut out = Vec::new();
    for &m in cg.reachable_methods() {
        let Some(body) = program.method(m).body() else { continue };
        for stmt in body.stmts() {
            let Some(call) = stmt.invoke_expr() else { continue };
            if call.callee.subsig.name != set_content {
                continue;
            }
            if let Some(Operand::Const(Constant::Int(id))) = call.args.first() {
                if let Some(name) = app.resources.layout_name(*id) {
                    if !out.contains(&name.to_owned()) {
                        out.push(name.to_owned());
                    }
                }
            }
        }
    }
    out
}

/// Finds the `name(View)` handler method on the component class chain.
fn find_handler(program: &Program, class: ClassId, name: &str) -> Option<MethodId> {
    let name_sym = program.lookup_symbol(name)?;
    for c in program.supers(class) {
        for &m in program.class(c).methods() {
            let method = program.method(m);
            if method.name() == name_sym && method.has_body() && method.param_count() == 1 {
                return Some(m);
            }
        }
    }
    None
}

/// Scans reachable code for calls to stub methods with
/// callback-interface parameters and resolves the registered listener
/// classes.
fn imperative_callbacks(
    program: &Program,
    platform: &PlatformInfo,
    hierarchy: &Hierarchy,
    cg: &CallGraph,
    component_class: ClassId,
) -> Vec<CallbackInfo> {
    let mut out = Vec::new();
    // Classes allocated in reachable code (candidate listener types).
    let allocated = cg.instantiated_classes();
    for &m in cg.reachable_methods() {
        let Some(body) = program.method(m).body() else { continue };
        for stmt in body.stmts() {
            let Some(call) = stmt.invoke_expr() else { continue };
            // Only system (stub) registrations count.
            let Some(target) = program.resolve_method_ref(&call.callee) else { continue };
            if !platform.stub_methods.contains(&target) {
                continue;
            }
            for (i, param_ty) in call.callee.subsig.params.iter().enumerate() {
                let Some(iface) = param_ty.as_class() else { continue };
                if !platform.callback_interfaces.contains(&iface) {
                    continue;
                }
                // Which classes can the argument be? The component
                // itself (if it implements the interface and the arg is
                // `this`-typed) or any allocated implementing class.
                let arg_is_local = call.args.get(i).and_then(Operand::as_local).is_some();
                if !arg_is_local {
                    continue;
                }
                let mut candidates: Vec<ClassId> = Vec::new();
                if program.is_subtype_of(component_class, iface) {
                    candidates.push(component_class);
                }
                for &cls in allocated {
                    if program.is_subtype_of(cls, iface) && !candidates.contains(&cls) {
                        candidates.push(cls);
                    }
                }
                for cls in candidates {
                    // Every interface method the class implements
                    // becomes a callback.
                    for &im in program.class(iface).methods() {
                        let subsig = program.method(im).subsig().clone();
                        if let Some(target) = hierarchy.dispatch(program, cls, &subsig) {
                            if program.method(target).has_body() {
                                let receiver = if cls == component_class {
                                    CallbackReceiver::Component
                                } else {
                                    CallbackReceiver::Fresh(cls)
                                };
                                out.push(CallbackInfo { method: target, receiver });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::install_platform;
    use flowdroid_frontend::App;

    const MANIFEST: &str = r#"<manifest package="com.ex">
  <application>
    <activity android:name=".Main"/>
    <activity android:name=".Off" android:enabled="false"/>
  </application>
</manifest>"#;

    const LAYOUT: &str = r#"<LinearLayout>
  <Button android:id="@+id/b" android:onClick="handleClick"/>
</LinearLayout>"#;

    const CODE: &str = r#"
class com.ex.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
    let v: android.view.View
    v = virtualinvoke this.<android.app.Activity: android.view.View findViewById(int)>(@id/b)
    let l: com.ex.Listener
    l = new com.ex.Listener
    specialinvoke l.<com.ex.Listener: void <init>()>()
    virtualinvoke v.<android.view.View: void setOnClickListener(android.view.View$OnClickListener)>(l)
    return
  }
  method onLowMemory() -> void {
    return
  }
  method handleClick(v: android.view.View) -> void {
    return
  }
}
class com.ex.Listener extends java.lang.Object implements android.view.View$OnClickListener {
  method <init>() -> void {
    return
  }
  method onClick(v: android.view.View) -> void {
    return
  }
}
class com.ex.Off extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    return
  }
}
"#;

    fn load() -> (Program, PlatformInfo, App) {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(&mut p, MANIFEST, &[("main", LAYOUT)], CODE).unwrap();
        (p, platform, app)
    }

    #[test]
    fn disabled_components_are_excluded() {
        let (mut p, platform, app) = load();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        assert_eq!(model.components.len(), 1);
        assert_eq!(p.class_name(model.components[0].class), "com.ex.Main");
    }

    #[test]
    fn lifecycle_overrides_are_found() {
        let (mut p, platform, app) = load();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        let main = &model.components[0];
        let names: Vec<_> = main.lifecycle.iter().map(|&m| p.str(p.method(m).name())).collect();
        assert_eq!(names, vec!["onCreate"]);
    }

    #[test]
    fn xml_imperative_and_override_callbacks_are_discovered() {
        let (mut p, platform, app) = load();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        let main = &model.components[0];
        assert_eq!(main.layouts, vec!["main".to_owned()]);
        let cb_names: Vec<_> =
            main.callbacks.iter().map(|cb| p.str(p.method(cb.method).name())).collect();
        assert!(cb_names.contains(&"handleClick"), "xml callback: {cb_names:?}");
        assert!(cb_names.contains(&"onClick"), "imperative callback: {cb_names:?}");
        assert!(cb_names.contains(&"onLowMemory"), "override callback: {cb_names:?}");
        // The imperative listener is a fresh instance of the listener class.
        let on_click = main
            .callbacks
            .iter()
            .find(|cb| p.str(p.method(cb.method).name()) == "onClick")
            .unwrap();
        match on_click.receiver {
            CallbackReceiver::Fresh(c) => assert_eq!(p.class_name(c), "com.ex.Listener"),
            other => panic!("expected fresh receiver, got {other:?}"),
        }
    }

    #[test]
    fn global_association_pools_callbacks() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let manifest = r#"<manifest package="c">
  <application><activity android:name=".A"/><activity android:name=".B"/></application>
</manifest>"#;
        let code = r#"
class c.A extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void { return }
  method onLowMemory() -> void { return }
}
class c.B extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void { return }
}
"#;
        let app = App::from_parts(&mut p, manifest, &[], code).unwrap();
        let per =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        assert!(per.components[1].callbacks.is_empty());
        let glob = EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::Global);
        assert_eq!(glob.components[1].callbacks.len(), 1);
    }

    #[test]
    fn static_initializers_are_collected() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let manifest = r#"<manifest package="c"><application><activity android:name=".A"/></application></manifest>"#;
        let code = r#"
class c.A extends android.app.Activity {
  static field s: java.lang.String
  static method <clinit>() -> void {
    static c.A.s = "x"
    return
  }
  method onCreate(b: android.os.Bundle) -> void { return }
}
"#;
        let app = App::from_parts(&mut p, manifest, &[], code).unwrap();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        assert_eq!(model.static_initializers.len(), 1);
    }
}
