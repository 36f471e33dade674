//! The C++ prototype honors the same determinism contract as the Caml
//! search: repeated searches report the same suggestions in the same
//! ranks, at the same cost.

use seminal_cpp::{parse_cpp, CppSearchSession};

const SCENARIOS: &[(&str, &str)] = &[
    (
        "figure10",
        "#include <algorithm>\n\
         #include <vector>\n\
         #include <functional>\n\
         using namespace std;\n\
         \n\
         void myFun(vector<long>& inv, vector<long>& outv) {\n\
           transform(inv.begin(), inv.end(), outv.begin(),\n\
                     compose1(bind1st(multiplies<long>(), 5), labs));\n\
         }\n",
    ),
    (
        "bind2nd_swap",
        "#include <algorithm>\n\
         #include <vector>\n\
         #include <functional>\n\
         using namespace std;\n\
         \n\
         void keep(vector<long>& v) {\n\
           remove_if(v.begin(), v.end(), bind2nd(less<long>(), v));\n\
         }\n",
    ),
];

#[test]
fn cpp_reports_are_identical_across_runs() {
    for (name, src) in SCENARIOS {
        let prog = parse_cpp(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let search = || CppSearchSession::builder().build().unwrap().search(&prog);
        let (first, second) = (search(), search());
        let render = |r: &seminal_cpp::CppReport| {
            r.suggestions.iter().map(|s| s.render()).collect::<Vec<_>>()
        };
        assert_eq!(render(&first), render(&second), "{name}: suggestions or ranks changed");
        assert_eq!(first.baseline.len(), second.baseline.len(), "{name}");
        assert_eq!(first.oracle_calls, second.oracle_calls, "{name}: call count");
        assert!(first.completion.is_complete(), "{name}");
    }
}
