//! General Java: loops, branches, static initializers, unreachable
//! code.

use super::with_imei;
use crate::{single_activity_manifest, BenchApp, Category};

pub fn apps() -> Vec<BenchApp> {
    vec![loop1(), loop2(), source_code_specific1(), static_initialization1(), unreachable_code()]
}

/// The IMEI is obfuscated in a counted loop before the leak.
fn loop1() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.loop1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    let acc: java.lang.String
    let i: int
    acc = ""
    i = 0
  label top:
    if i >= 10 goto done
    acc = acc + id
    i = i + 1
    goto top
  label done:
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", acc)
    return
  }
}
"#,
    );
    BenchApp {
        name: "Loop1",
        category: Category::GeneralJava,
        in_table: true,
        expected_leaks: 1,
        description: "taint accumulated through a counted loop",
        manifest: single_activity_manifest("dbench.loop1", "Main"),
        layouts: vec![],
        code,
    }
}

/// The IMEI is copied character-wise via a char array (primitive
/// tracking, paper §2 "must track primitives").
fn loop2() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.loop2.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    let chars: char[]
    let i: int
    let n: int
    let c: char
    let acc: java.lang.String
    chars = virtualinvoke id.<java.lang.String: char[] toCharArray()>()
    acc = ""
    n = lengthof chars
    i = 0
  label top:
    if i >= n goto done
    c = chars[i]
    acc = acc + c
    i = i + 1
    goto top
  label done:
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", acc)
    return
  }
}
"#,
    );
    BenchApp {
        name: "Loop2",
        category: Category::GeneralJava,
        in_table: true,
        expected_leaks: 1,
        description: "taint carried through primitive chars in a loop",
        manifest: single_activity_manifest("dbench.loop2", "Main"),
        layouts: vec![],
        code,
    }
}

/// The leak happens on one of several branches chosen by runtime input.
fn source_code_specific1() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.scs1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    let msg: java.lang.String
    if opaque goto leak
    msg = "all quiet"
    staticinvoke <android.util.Log: int d(java.lang.String,java.lang.String)>("OK", msg)
    goto done
  label leak:
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
  label done:
    return
  }
}
"#,
    );
    BenchApp {
        name: "SourceCodeSpecific1",
        category: Category::GeneralJava,
        in_table: true,
        expected_leaks: 1,
        description: "leak guarded by a runtime branch",
        manifest: single_activity_manifest("dbench.scs1", "Main"),
        layouts: vec![],
        code,
    }
}

/// The static initializer leaks a static field that — at runtime — is
/// written *before* the class's first use. Soot (and this
/// reproduction) run `<clinit>` at program start, missing the leak: a
/// documented unsoundness.
fn static_initialization1() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.si1.Main extends android.app.Activity {
  static field im: java.lang.String
  static method <clinit>() -> void {
    let s: java.lang.String
    s = static dbench.si1.Main.im
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", s)
    return
  }
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    static dbench.si1.Main.im = id
    return
  }
}
"#,
    );
    BenchApp {
        name: "StaticInitialization1",
        category: Category::GeneralJava,
        in_table: true,
        expected_leaks: 1,
        description: "leak inside <clinit> (documented miss: clinit modeled at start)",
        manifest: single_activity_manifest("dbench.si1", "Main"),
        layouts: vec![],
        code,
    }
}

/// The sink is syntactically present but unreachable.
fn unreachable_code() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.unr1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    goto done
  label dead:
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
  label done:
    return
  }
}
"#,
    );
    BenchApp {
        name: "UnreachableCode",
        category: Category::GeneralJava,
        in_table: true,
        expected_leaks: 0,
        description: "sink in unreachable code",
        manifest: single_activity_manifest("dbench.unr1", "Main"),
        layouts: vec![],
        code,
    }
}
