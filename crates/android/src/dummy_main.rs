//! Dummy-main generation (paper §3, Figure 1).
//!
//! Android apps have no `main`; the framework drives components through
//! their lifecycles and invokes registered callbacks. The dummy main
//! emulates this: components execute in an arbitrary sequential order
//! (with repetition), every lifecycle transition the framework allows is
//! present, and callbacks fire in any order — all guarded by *opaque
//! predicates* the analysis cannot evaluate, so both branches of every
//! decision are analyzed. Because IFDS joins at control-flow merge
//! points, this compact encoding covers all interleavings without path
//! enumeration.

use crate::component::{CallbackReceiver, ComponentModel, EntryPointModel};
use crate::platform::PlatformInfo;
use flowdroid_frontend::manifest::ComponentKind;
use flowdroid_ir::{
    ClassId, Constant, FxHashMap, Local, MethodBuilder, MethodId, Operand, Program, Type,
};

/// Generates the dummy main for `model` into `program`.
///
/// `tag` uniquifies the generated class name so multiple apps can share
/// one program (`dummy.Main_<tag>.main`).
///
/// # Panics
///
/// Panics if a dummy main with the same `tag` was already generated in
/// this program.
pub fn generate_dummy_main(
    program: &mut Program,
    platform: &PlatformInfo,
    model: &EntryPointModel,
    tag: &str,
) -> MethodId {
    let class_name = format!("dummy.Main_{tag}");
    let cls = program.declare_class(&class_name, Some("java.lang.Object"), &[]);
    let mut b = MethodBuilder::new_static_on(program, cls, "main", vec![], Type::Void);

    // 1. Static initializers run first (Soot's assumption).
    for &clinit in &model.static_initializers {
        let m = b.program().method(clinit);
        let class = m.class();
        let class_name = b.program().class_name(class).to_owned();
        b.call_static(None, &class_name, "<clinit>", vec![], Type::Void, vec![]);
    }

    // 2. Arbitrary sequential component interleaving with repetition.
    let top = b.mark();
    let mut comp_labels = Vec::new();
    for _ in &model.components {
        let l = b.fresh_label();
        b.if_opaque(l);
        comp_labels.push(l);
    }
    let end = b.fresh_label();
    b.goto(end);
    for (comp, label) in model.components.iter().zip(comp_labels) {
        b.bind(label);
        emit_component(&mut b, platform, comp);
        b.goto(top);
    }
    b.bind(end);
    b.ret(None);
    b.finish()
}

/// Default operand for a parameter type: `null` for references, `0` for
/// primitives.
fn default_arg(ty: &Type) -> Operand {
    if ty.is_reference() {
        Operand::Const(Constant::Null)
    } else {
        Operand::Const(Constant::Int(0))
    }
}

/// Allocates an instance of `cls`, calling its no-argument constructor
/// when one with a body is declared.
fn alloc_instance(b: &mut MethodBuilder<'_>, cls: ClassId, name_hint: &str) -> Local {
    let ty = Type::Ref(cls);
    let l = b.local(name_hint, ty);
    let cname = b.program().class_name(cls).to_owned();
    b.new_object_uninit(l, &cname);
    // Call the declared zero-arg constructor, if any.
    let has_init = {
        let p = b.program();
        match p.lookup_symbol("<init>") {
            Some(sym) => p.class(cls).methods().iter().any(|&m| {
                let md = p.method(m);
                md.name() == sym && md.param_count() == 0 && md.has_body()
            }),
            None => false,
        }
    };
    if has_init {
        b.call_special(None, l, &cname, "<init>", vec![], Type::Void, vec![]);
    }
    l
}

/// Emits a virtual call to the lifecycle method named `name` on the
/// component instance, if the component overrides it.
fn emit_lifecycle_call(
    b: &mut MethodBuilder<'_>,
    comp: &ComponentModel,
    by_name: &FxHashMap<String, MethodId>,
    instance: Local,
    name: &str,
) {
    let Some(&m) = by_name.get(name) else { return };
    let (params, ret, cname) = {
        let p = b.program();
        let md = p.method(m);
        (md.subsig().params.clone(), md.subsig().ret.clone(), p.class_name(comp.class).to_owned())
    };
    let args: Vec<Operand> = params.iter().map(default_arg).collect();
    b.call_virtual(None, instance, &cname, name, params, ret, args);
}

fn lifecycle_by_name(
    b: &mut MethodBuilder<'_>,
    comp: &ComponentModel,
) -> FxHashMap<String, MethodId> {
    let p = b.program();
    comp.lifecycle.iter().map(|&m| (p.str(p.method(m).name()).to_owned(), m)).collect()
}

/// Emits the running-phase callback loop: each callback can fire any
/// number of times in any order.
fn emit_callback_loop(b: &mut MethodBuilder<'_>, comp: &ComponentModel, instance: Local) {
    if comp.callbacks.is_empty() {
        return;
    }
    // Fresh listener instances are allocated once per component visit.
    let mut fresh: FxHashMap<ClassId, Local> = FxHashMap::default();
    for cb in &comp.callbacks {
        if let CallbackReceiver::Fresh(cls) = cb.receiver {
            if !fresh.contains_key(&cls) {
                let hint = format!("listener{}", fresh.len());
                let l = alloc_instance(b, cls, &hint);
                fresh.insert(cls, l);
            }
        }
    }
    let loop_top = b.mark();
    let mut labels = Vec::new();
    for _ in &comp.callbacks {
        let l = b.fresh_label();
        b.if_opaque(l);
        labels.push(l);
    }
    let done = b.fresh_label();
    b.goto(done);
    for (cb, label) in comp.callbacks.iter().zip(labels) {
        b.bind(label);
        let receiver = match cb.receiver {
            CallbackReceiver::Component => instance,
            CallbackReceiver::Fresh(cls) => fresh[&cls],
        };
        let (name, params, ret, cname) = {
            let p = b.program();
            let md = p.method(cb.method);
            (
                p.str(md.name()).to_owned(),
                md.subsig().params.clone(),
                md.subsig().ret.clone(),
                p.class_name(md.class()).to_owned(),
            )
        };
        let args: Vec<Operand> = params.iter().map(default_arg).collect();
        b.call_virtual(None, receiver, &cname, &name, params, ret, args);
        b.goto(loop_top);
    }
    b.bind(done);
    b.nop();
}

fn emit_component(b: &mut MethodBuilder<'_>, platform: &PlatformInfo, comp: &ComponentModel) {
    let _ = platform;
    let by_name = lifecycle_by_name(b, comp);
    let hint = format!("c{}", comp.class.index());
    let instance = alloc_instance(b, comp.class, &hint);
    match comp.kind {
        ComponentKind::Activity => {
            emit_lifecycle_call(b, comp, &by_name, instance, "onCreate");
            let started = b.mark();
            emit_lifecycle_call(b, comp, &by_name, instance, "onStart");
            emit_lifecycle_call(b, comp, &by_name, instance, "onRestoreInstanceState");
            let resumed = b.mark();
            emit_lifecycle_call(b, comp, &by_name, instance, "onResume");
            emit_callback_loop(b, comp, instance);
            emit_lifecycle_call(b, comp, &by_name, instance, "onPause");
            emit_lifecycle_call(b, comp, &by_name, instance, "onSaveInstanceState");
            // Back to the resumed state without stopping…
            b.if_opaque(resumed);
            emit_lifecycle_call(b, comp, &by_name, instance, "onStop");
            // …or restart…
            let destroy = b.fresh_label();
            b.if_opaque(destroy);
            emit_lifecycle_call(b, comp, &by_name, instance, "onRestart");
            b.goto(started);
            // …or destroy.
            b.bind(destroy);
            b.nop();
            emit_lifecycle_call(b, comp, &by_name, instance, "onDestroy");
        }
        ComponentKind::Service => {
            emit_lifecycle_call(b, comp, &by_name, instance, "onCreate");
            let running = b.mark();
            let stop = b.fresh_label();
            b.if_opaque(stop);
            emit_lifecycle_call(b, comp, &by_name, instance, "onStartCommand");
            emit_lifecycle_call(b, comp, &by_name, instance, "onBind");
            emit_callback_loop(b, comp, instance);
            b.goto(running);
            b.bind(stop);
            b.nop();
            emit_lifecycle_call(b, comp, &by_name, instance, "onDestroy");
        }
        ComponentKind::BroadcastReceiver => {
            let receive = b.mark();
            emit_lifecycle_call(b, comp, &by_name, instance, "onReceive");
            emit_callback_loop(b, comp, instance);
            b.if_opaque(receive);
        }
        ComponentKind::ContentProvider => {
            emit_lifecycle_call(b, comp, &by_name, instance, "onCreate");
            let serving = b.mark();
            let done = b.fresh_label();
            b.if_opaque(done);
            emit_lifecycle_call(b, comp, &by_name, instance, "query");
            emit_lifecycle_call(b, comp, &by_name, instance, "insert");
            emit_lifecycle_call(b, comp, &by_name, instance, "update");
            emit_lifecycle_call(b, comp, &by_name, instance, "delete");
            emit_callback_loop(b, comp, instance);
            b.goto(serving);
            b.bind(done);
            b.nop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CallbackAssociation, EntryPointModel};
    use crate::platform::install_platform;
    use flowdroid_callgraph::CallGraph;
    use flowdroid_frontend::App;
    use flowdroid_ir::ProgramPrinter;

    const MANIFEST: &str = r#"<manifest package="com.ex">
  <application>
    <activity android:name=".Main"/>
    <service android:name=".Work"/>
  </application>
</manifest>"#;

    const CODE: &str = r#"
class com.ex.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void { return }
  method onRestart() -> void { return }
  method onDestroy() -> void { return }
  method sendMessage(v: android.view.View) -> void { return }
}
class com.ex.Work extends android.app.Service {
  method onStartCommand(i: android.content.Intent, f: int, id: int) -> int { return 0 }
}
"#;

    const LAYOUT: &str = r#"<L><Button android:id="@+id/b" android:onClick="sendMessage"/></L>"#;

    const CODE_WITH_LAYOUT: &str = r#"
class com.ex.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
    return
  }
  method onRestart() -> void { return }
  method sendMessage(v: android.view.View) -> void { return }
}
class com.ex.Work extends android.app.Service {
  method onStartCommand(i: android.content.Intent, f: int, id: int) -> int { return 0 }
}
"#;

    #[test]
    fn dummy_main_reaches_all_lifecycle_methods() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(&mut p, MANIFEST, &[], CODE).unwrap();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        let main = generate_dummy_main(&mut p, &platform, &model, "t1");
        let cg = CallGraph::build(&p, &[main]);
        for name in ["onCreate", "onRestart", "onDestroy", "onStartCommand"] {
            let found = cg.reachable_methods().iter().any(|&m| p.str(p.method(m).name()) == name);
            assert!(found, "{name} not reachable from dummy main");
        }
    }

    #[test]
    fn xml_callback_is_invoked_in_component_context() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(&mut p, MANIFEST, &[("main", LAYOUT)], CODE_WITH_LAYOUT).unwrap();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        let main = generate_dummy_main(&mut p, &platform, &model, "t2");
        let cg = CallGraph::build(&p, &[main]);
        let send = p.find_method("com.ex.Main", "sendMessage").unwrap();
        assert!(cg.is_reachable(send), "XML onClick handler must be reachable");
        // It is called on the Main instance, from the dummy main.
        assert!(!cg.callers_of(send).is_empty());
    }

    #[test]
    fn lifecycle_structure_has_figure1_shape() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(&mut p, MANIFEST, &[], CODE).unwrap();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        let main = generate_dummy_main(&mut p, &platform, &model, "t3");
        let text = ProgramPrinter::new(&p).method_to_string(main);
        // onRestart is guarded by an opaque branch and loops back.
        assert!(text.contains("onRestart"), "{text}");
        assert!(text.contains("if * goto"), "{text}");
        // Components loop back to the selector.
        let body = p.method(main).body().unwrap();
        assert!(body.len() > 10);
    }

    #[test]
    fn empty_app_yields_trivial_main() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let app = App::from_parts(
            &mut p,
            r#"<manifest package="e"><application/></manifest>"#,
            &[],
            "class e.X { method f() -> void { return } }",
        )
        .unwrap();
        let model =
            EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
        let main = generate_dummy_main(&mut p, &platform, &model, "t4");
        let body = p.method(main).body().unwrap();
        assert!(body.len() <= 3, "selector + return only");
    }
}
