#!/bin/sh
# Fails when ARCHITECTURE.md or README.md cites a test that does not exist:
# `tests/X.rs::name` needs a `fn name(` in X.rs, `module::tests::name` one
# in crates/*/src/module.rs. A trailing `…` or `*` cites the tests whose
# names begin so; `{a,b}` (or `{a, b}`) cites one test per alternative.
set -eu
cd "$(dirname "$0")/.."
names='([A-Za-z0-9_]|\{[A-Za-z0-9_, ]*\})+(…|\*)?'
cited=$(grep -ohE "([a-z_-]+/)*tests/[A-Za-z0-9_]+\.rs::$names|\b[a-z_]+::tests::$names" \
  ARCHITECTURE.md README.md | sort -u)
bad=$(printf '%s\n' "$cited" | while IFS= read -r cite; do
  case $cite in
    *::tests::*) files=$(ls crates/*/src/"${cite%%::*}".rs 2>/dev/null || true); names=${cite#*::tests::} ;;
    *) files=${cite%%::*}; names=${cite#*::} ;;
  esac
  # One {…} group expanded a pass, until none is left.
  while printf '%s\n' "$names" | grep -q '{'; do
    names=$(printf '%s\n' "$names" | while IFS= read -r n; do
      case $n in
        *'{'*)
          pre=${n%%\{*}; rest=${n#*\{}; alts=${rest%%\}*}; post=${rest#*\}}
          printf '%s\n' "$alts" | tr -d ' ' | tr ',' '\n' | while IFS= read -r alt; do
            printf '%s%s%s\n' "$pre" "$alt" "$post"
          done ;;
        *) printf '%s\n' "$n" ;;
      esac
    done)
  done
  printf '%s\n' "$names" | while IFS= read -r n; do
    case $n in
      *…) pattern="fn ${n%…}[A-Za-z0-9_]*\(" ;;
      *'*') pattern="fn ${n%\*}[A-Za-z0-9_]*\(" ;;
      *) pattern="fn $n\(" ;;
    esac
    # shellcheck disable=SC2086
    if ! { [ -n "$files" ] && [ -f "${files%% *}" ] && grep -qE "$pattern" $files; }; then
      echo "$cite: no fn ${n} in ${files:-crates/*/src/${cite%%::*}.rs}"
    fi
  done
done)
if [ -n "$bad" ]; then
  echo "tests cited in ARCHITECTURE.md or README.md that do not exist:"; echo "$bad"; exit 1
fi
echo "$(printf '%s\n' "$cited" | wc -l) test citations resolve"
