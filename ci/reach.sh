#!/bin/sh
# Public items nothing else names: every `pub fn|struct|enum|trait|const`
# under crates/*/src whose name occurs in no other .rs file of the
# repository (a `pub use` re-export is not a reference). A name only its
# own file mentions is either dead or reached through a trait or macro
# this cannot see, so look before deleting.
#
# Gated against ci/reach_allow.txt (`file: name — reason` per line):
# exits 1 on an unreached name the list does not give a reason for, and
# on a listed name that is now reached or gone. Run from the repository
# root.
set -e
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
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
            if (!(item[2] in shared)) print item[1] ": " item[2]
        }
    }' $(find crates src tests examples benchmark -name '*.rs' | sort) > "$tmp/found"
cat "$tmp/found"
echo "$(wc -l < "$tmp/found") unreached"

sed -n '/^#/!s/ — .*//p' ci/reach_allow.txt > "$tmp/listed"
status=0
if grep -vxF -f "$tmp/listed" "$tmp/found" > "$tmp/unlisted"; then
    sed 's/^/not reached and not in ci\/reach_allow.txt: /' "$tmp/unlisted"
    status=1
fi
if grep -vxF -f "$tmp/found" "$tmp/listed" > "$tmp/stale"; then
    sed 's/^/in ci\/reach_allow.txt but reached or gone: /' "$tmp/stale"
    status=1
fi
exit $status
