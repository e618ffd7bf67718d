#!/bin/sh
# Fails when a `pub fn` in crates/*/src is named nowhere except at its
# own definition and inside its own file's #[cfg(test)] module. Comments
# (doc examples included) do not count as callers. Allow-list:
# .github/orphan-allow.txt, one `name  # reason` per line.
set -eu
cd "$(dirname "$0")/.."
defs=$(ls crates/*/src/*.rs)
corpus=$(find crates src tests examples benchmark/src -name '*.rs' -not -path '*/target/*')
# shellcheck disable=SC2086
orphans=$(awk '
  function words(line, arr,    n, i, w) {
    sub(/\/\/.*/, "", line)
    n = split(line, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (w[i] != "") arr[w[i]]++
  }
  function flush(    name) {
    for (name in def)
      if (total[name] - intest[name] <= 1) print file ": " name
    split("", def); split("", intest)
  }
  pass == 1 { words($0, total); next }
  FNR == 1 { flush(); file = FILENAME; testmod = 0 }
  /#\[cfg\(test\)\]/ { testmod = 1 }
  testmod { words($0, intest); next }
  match($0, /^ *pub fn [A-Za-z0-9_]+/) {
    name = substr($0, RSTART, RLENGTH); sub(/^ *pub fn /, "", name); def[name] = 1
  }
  END { flush() }
' pass=1 $corpus pass=2 $defs | sort)
allowed=$(sed -n 's/^\([A-Za-z0-9_]*\) *# *[^ ].*/\1/p' .github/orphan-allow.txt | paste -sd '|' -)
bad=$(echo "$orphans" | grep -Ev "^\$|: ($allowed)\$" || true)
if [ -n "$bad" ]; then
  echo "pub fn with no caller outside its own unit tests:"; echo "$bad"; exit 1
fi
