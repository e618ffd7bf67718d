#!/bin/sh
# Fails when ARCHITECTURE.md or README.md cites a test as `tests/X.rs::name`
# and X.rs has no `fn name(`. A trailing `…` cites the tests whose names
# begin so; `{a,b}` (or `{a, b}`) cites one test per alternative.
set -eu
cd "$(dirname "$0")/.."
cited=$(grep -ohE '([a-z_-]+/)*tests/[A-Za-z0-9_]+\.rs::([A-Za-z0-9_]|\{[A-Za-z0-9_, ]*\})+(…)?' \
  ARCHITECTURE.md README.md | sort -u)
bad=$(printf '%s\n' "$cited" | while IFS= read -r cite; do
  file=${cite%%::*}
  names=${cite#*::}
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
      *) pattern="fn $n\(" ;;
    esac
    if ! { [ -f "$file" ] && grep -qE "$pattern" "$file"; }; then
      echo "$file::$n (cited as $cite)"
    fi
  done
done)
if [ -n "$bad" ]; then
  echo "tests cited in ARCHITECTURE.md or README.md that do not exist:"; echo "$bad"; exit 1
fi
echo "$(printf '%s\n' "$cited" | wc -l) test citations resolve"
