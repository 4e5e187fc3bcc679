#!/usr/bin/env bash
# dfsim lint driver: one command for the whole static-analysis suite.
#
#   dfsim_check   invariant checks (CHK-RNG/GATE/ALLOC/CONFIG/SCHEMA);
#                 pure Python, always runs, always blocking.
#   clang-tidy    curated .clang-tidy profile over the compile database;
#                 blocking when the tool is installed, SKIP otherwise.
#   cppcheck      non-blocking report (written to $CPPCHECK_REPORT or
#                 cppcheck-report.txt in the build dir).
#
# Usage: scripts/lint.sh [build-dir]
# The build dir (default: build/) supplies compile_commands.json; it is
# configured on the fly when missing (CMAKE_EXPORT_COMPILE_COMMANDS is on
# by default in CMakeLists.txt).
set -u

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO/build}"
cd "$REPO"

rc=0
summary=()

note() { summary+=("$1"); echo "== $1"; }

# --- compile database --------------------------------------------------------
CDB="$BUILD_DIR/compile_commands.json"
if [ ! -f "$CDB" ]; then
  echo "== compile_commands.json missing: configuring $BUILD_DIR"
  if ! cmake -S "$REPO" -B "$BUILD_DIR" > /dev/null 2>&1; then
    echo "   (cmake configure failed; tool runs that need the database"
    echo "    will be skipped)"
  fi
fi
[ -f "$CDB" ] && echo "== compile database: $CDB"

# --- dfsim_check (blocking) --------------------------------------------------
if python3 "$REPO/tools/dfsim_check/dfsim_check.py" --root "$REPO" \
     ${CDB:+--compile-commands "$CDB"}; then
  note "dfsim_check: PASS"
else
  note "dfsim_check: FAIL"
  rc=1
fi

# --- clang-tidy (blocking when present) --------------------------------------
if command -v clang-tidy > /dev/null 2>&1 && [ -f "$CDB" ]; then
  mapfile -t tu < <(python3 -c "
import json,sys
for e in json.load(open('$CDB')):
    f = e['file']
    if '/src/' in f and f.endswith('.cpp'): print(f)")
  if clang-tidy -p "$BUILD_DIR" --quiet "${tu[@]}"; then
    note "clang-tidy: PASS (${#tu[@]} TUs)"
  else
    note "clang-tidy: FAIL"
    rc=1
  fi
else
  note "clang-tidy: SKIP (not installed or no compile database)"
fi

# --- cppcheck (non-blocking report) ------------------------------------------
if command -v cppcheck > /dev/null 2>&1; then
  report="${CPPCHECK_REPORT:-$BUILD_DIR/cppcheck-report.txt}"
  mkdir -p "$(dirname "$report")"
  cppcheck --enable=warning,performance,portability --inline-suppr \
    --std=c++20 --quiet -I "$REPO/src" "$REPO/src" 2> "$report" || true
  note "cppcheck: report at $report ($(wc -l < "$report") finding lines, non-blocking)"
else
  note "cppcheck: SKIP (not installed)"
fi

echo
echo "lint summary:"
printf '  %s\n' "${summary[@]}"
exit $rc
