#!/usr/bin/env bash
# Reachability gate: every function a src/ library exports must be linked
# into at least one production executable (bench/, examples/, tools/ and
# the standalone columbia_bench), or be listed in scripts/reach_allow.txt
# with its reason.
#
#   scripts/reach.sh            # build, scan, compare with the allowlist
#   JOBS=8 scripts/reach.sh     # override parallelism
#
# The production executables are built in Debug (no inlining) with one
# section per function, and linked with --gc-sections, so an executable
# keeps exactly the functions it can reach. The scan lists the external
# columbia:: functions defined in the src/ libraries that no executable
# keeps, one line per qualified name: overloads, template instantiations
# and a function's lambdas fold into that name, and instantiations of std::
# templates are skipped. Header-only code never enters a library, and
# file-local helpers are left to -Wunused-function.
#
# Fails on a reported name missing from the allowlist (new dead code:
# delete it or give it a user) and on an allowlisted name that is no longer
# reported (the list went stale: drop the line).
set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
ALLOW=scripts/reach_allow.txt

reach_cmake() {
  cmake -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" "$@" > /dev/null
}

reach_cmake -S . -B build-reach
for dir in bench-build examples tools; do
  cmake --build "build-reach/$dir" -j "$JOBS" > /dev/null
done
reach_cmake -S columbia_bench -B build-reach-bench
cmake --build build-reach-bench -j "$JOBS" > /dev/null

# Defined external functions (T/W) in namespace columbia, local entities
# (lambdas) included, reduced to their enclosing qualified name.
columbia_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 == "T" || $2 == "W" { print $3 }' |
    grep -E '^_ZZ?N[rVKRO]*8columbia' |
    c++filt |
    sed -E '
      s/\[abi:[^]]*\]//g
      :targs
      s/<[^<>]*>//g
      t targs
      :parens
      s/\([^()]*\)//g
      t parens
      s/::\{(lambda|unnamed).*//
      s/( const| volatile| &&| &)+$//
      s/^.* //' |
    sort -u
}

mapfile -t exes < <(find build-reach/bench build-reach/examples build-reach/tools \
  build-reach-bench -maxdepth 1 -type f -perm -u+x)
columbia_functions build-reach/src/*/lib*.a > build-reach/defined.txt
columbia_functions "${exes[@]}" > build-reach/reached.txt
comm -23 build-reach/defined.txt build-reach/reached.txt > build-reach/unreached.txt

categories='^(oracle|groundwork|checker|fixture|test-hook|accessor):$'
status=0
{ grep -Ev '^[[:space:]]*(#|$)' "$ALLOW" || true; } > build-reach/allow_lines.txt
while read -r name category _; do
  if ! [[ "$category" =~ $categories ]]; then
    echo "reach: $ALLOW: '$name' has no reason category (got '$category')"
    status=1
  fi
done < build-reach/allow_lines.txt
awk '{ print $1 }' build-reach/allow_lines.txt | sort -u > build-reach/allowed.txt

while read -r name; do
  echo "reach: unreached by any production executable: $name"
  status=1
done < <(comm -23 build-reach/unreached.txt build-reach/allowed.txt)
while read -r name; do
  echo "reach: allowlisted but no longer reported, drop it from $ALLOW: $name"
  status=1
done < <(comm -13 build-reach/unreached.txt build-reach/allowed.txt)

echo "reach: ${#exes[@]} executables reach all but" \
  "$(wc -l < build-reach/unreached.txt) of the $(wc -l < build-reach/defined.txt)" \
  "library functions"
exit "$status"
