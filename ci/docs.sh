#!/bin/sh
# The documentation budget: DESIGN.md's line count and the byte size of
# every CHANGES.md entry (one `- PR …` line each), printed. Exits 1 when
# DESIGN.md is over DESIGN_LIMIT or the newest entry is over ENTRY_LIMIT.
# DESIGN_LIMIT only ratchets down, toward ROADMAP item 9's 1 100 lines:
# lower it when DESIGN.md shrinks, never raise it. Run from the
# repository root.
DESIGN_LIMIT=1454
ENTRY_LIMIT=2500
status=0
design=$(wc -l < DESIGN.md)
echo "DESIGN.md: $design lines (limit $DESIGN_LIMIT)"
if [ "$design" -gt "$DESIGN_LIMIT" ]; then
    echo "DESIGN.md is over its limit of $DESIGN_LIMIT lines"
    status=1
fi
entries=$(LC_ALL=C awk '/^- PR / { n = $3; sub(/[^0-9].*/, "", n); print length($0) " bytes: PR " n }' CHANGES.md)
echo "$entries"
newest=$(echo "$entries" | tail -n 1 | cut -d' ' -f1)
if [ "${newest:-0}" -gt "$ENTRY_LIMIT" ]; then
    echo "the newest CHANGES.md entry is $newest bytes, over $ENTRY_LIMIT"
    status=1
fi
exit $status
