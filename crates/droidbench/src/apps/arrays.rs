//! Arrays and Lists: index-sensitivity tests. None of these apps
//! actually leaks; all three are known FlowDroid false positives
//! (conservative, index-insensitive array/collection handling —
//! paper §6.1).

use super::with_imei;
use crate::{single_activity_manifest, BenchApp, Category};

pub fn apps() -> Vec<BenchApp> {
    vec![array_access1(), array_access2(), list_access1()]
}

/// Tainted data stored at index 1; index 0 (clean) is leaked.
fn array_access1() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.arr1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    let a: java.lang.String[]
    let t: java.lang.String
    a = newarray java.lang.String[2]
    a[0] = "no taint"
    a[1] = id
    t = a[0]
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", t)
    return
  }
}
"#,
    );
    BenchApp {
        name: "ArrayAccess1",
        category: Category::ArraysAndLists,
        in_table: true,
        expected_leaks: 0,
        description: "tainted value at constant index 1, clean index 0 leaked",
        manifest: single_activity_manifest("dbench.arr1", "Main"),
        layouts: vec![],
        code,
    }
}

/// Like ArrayAccess1, but the leaked index is computed.
fn array_access2() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.arr2.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    let a: java.lang.String[]
    let t: java.lang.String
    let i: int
    a = newarray java.lang.String[3]
    a[0] = "no taint"
    a[2] = id
    i = 2 * 2
    i = i - 4
    t = a[i]
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", t)
    return
  }
}
"#,
    );
    BenchApp {
        name: "ArrayAccess2",
        category: Category::ArraysAndLists,
        in_table: true,
        expected_leaks: 0,
        description: "tainted value at constant index, computed clean index leaked",
        manifest: single_activity_manifest("dbench.arr2", "Main"),
        layouts: vec![],
        code,
    }
}

/// A clean list element is leaked while another element is tainted.
fn list_access1() -> BenchApp {
    let code = with_imei(
        r#"
class dbench.list1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
"#,
        r#"    let l: java.util.ArrayList
    let e: java.lang.Object
    let t: java.lang.String
    l = new java.util.ArrayList
    specialinvoke l.<java.util.ArrayList: void <init>()>()
    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>("plain")
    virtualinvoke l.<java.util.ArrayList: boolean add(java.lang.Object)>(id)
    e = virtualinvoke l.<java.util.ArrayList: java.lang.Object get(int)>(0)
    t = virtualinvoke e.<java.lang.Object: java.lang.String toString()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", t)
    return
  }
}
"#,
    );
    BenchApp {
        name: "ListAccess1",
        category: Category::ArraysAndLists,
        in_table: true,
        expected_leaks: 0,
        description: "clean list element leaked while another element is tainted",
        manifest: single_activity_manifest("dbench.list1", "Main"),
        layouts: vec![],
        code,
    }
}
