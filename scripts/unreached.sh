#!/usr/bin/env bash
# Prints every non-test func under internal/ that none of the shipped
# programs (cmd/*, examples/*, benchmark/) links. The programs are built
# with inlining off so a function that is only ever inlined still leaves
# a symbol; the report is the difference between the funcs the source
# declares and the union of `go tool nm` over the binaries.
#
# A report, not a gate: methods reached only through an interface
# (GobEncode, UnmarshalJSON, String, ...) are kept by the linker and so
# never show up, but a func used only as a cross-package test fixture
# does, and needs a human eye. Excluded: internal/analysis (reached
# through cmd/ranklint's registry), */clustertest and internal/testutil
# (test support by design).
#
#   bash scripts/unreached.sh
set -euo pipefail
export LC_ALL=C # sort and join must agree on the collation
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
module=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for dir in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$tmp/bin/$(basename "$dir")" "./$dir"
done
GOWORK=off go build -C benchmark -gcflags=all=-l -o "$tmp/bin/benchmark" .

# pkg.Func or pkg.Type.Method: type arguments, pointer receivers and
# closure / method-value suffixes stripped, so one spelling per func.
for bin in "$tmp"/bin/*; do
	go tool nm "$bin"
done | awk '{ $1 = ""; $2 = ""; sub(/^ +/, ""); print }' |
	grep "^$module/internal/" |
	sed -E -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
		-e 's/\(\*?([A-Za-z0-9_]+)\)/\1/' \
		-e 's/(\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|-fm|-range[0-9]+)+.*$//' |
	sort -u >"$tmp/linked"

find internal -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' \
	-not -path 'internal/analysis/*' -not -path '*/clustertest/*' \
	-not -path 'internal/testutil/*' | sort | while read -r file; do
	pkg=$module/$(dirname "$file")
	sed -n -E \
		-e "s|^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*|$pkg.\2.\4 $file|p" \
		-e "s|^func ([A-Za-z0-9_]+).*|$pkg.\1 $file|p" "$file"
done | sort -u >"$tmp/declared"

# init funcs link as pkg.init.N; they run, they are not callable.
join -v 1 "$tmp/declared" "$tmp/linked" |
	awk -v m="$module/" '$1 !~ /\.init$/ { sub(m, "", $1); printf "%-60s %s\n", $1, $2 }'
