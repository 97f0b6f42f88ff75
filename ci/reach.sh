#!/bin/sh
# Public items nothing else names: every `pub fn|struct|enum|trait|const`
# under crates/*/src whose name occurs in no other .rs file of the
# repository (a `pub use` re-export is not a reference). Printed beside
# ci/loc.sh and not gated: a name only its own file mentions is either
# dead or reached through a trait or macro this cannot see, so look
# before deleting. Run from the repository root.
awk '
    FNR == 1 { reexport = 0 }
    /^[ \t]*pub use / { reexport = 1 }
    reexport { if (index($0, ";")) reexport = 0; next }
    {
        if (FILENAME ~ /^crates\/[^\/]*\/src\// &&
            match($0, /^[ \t]*pub (const )?(fn|struct|enum|trait|const) [A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr($0, RSTART, RLENGTH), decl, " ")
            items[++count] = FILENAME " " decl[n]
        }
        n = split($0, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w == "") continue
            if (!(w in first)) first[w] = FILENAME
            else if (first[w] != FILENAME) shared[w] = 1
        }
    }
    END {
        for (i = 1; i <= count; i++) {
            split(items[i], item, " ")
            if (!(item[2] in shared)) { print item[1] ": " item[2]; unreached++ }
        }
        print unreached + 0 " unreached"
    }' $(find crates src tests examples benchmark -name '*.rs' | sort)
