#!/usr/bin/env bash
# The simplicity ledger: non-vendored Rust lines per crate, split into
# production and test lines, plus the number of public knobs on the
# four configuration structs.
#
# Counting rules (every line counts, blank and comment lines included,
# so the totals agree with `git diff --numstat`):
#   * the scanned trees are crates/, src/, tests/ and examples/
#     (vendor/ and perfbench/ are out of scope);
#   * files under a `tests/` directory are test lines;
#   * in any other file, a top-level `#[cfg(test)]` directly followed by
#     a `mod` item starts a test tail that runs to the end of the file;
#   * everything else is production (benches and examples included).
#
# Usage: scripts/loc.sh   (run from anywhere; reads the working tree)
set -euo pipefail

cd "$(dirname "$0")/.."

# Lines of one file as "prod test".
count_file() {
  case "$1" in
    */tests/* | tests/*)
      awk 'END { print 0, NR }' "$1"
      ;;
    *)
      awk '
        pending && /^(pub(\([a-z]+\))? )?mod / { tail = 1; test += pending; pending = 0 }
        pending { prod += pending; pending = 0 }
        tail { test++; next }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        { prod++ }
        END { print prod + pending, test + 0 }
      ' "$1"
      ;;
  esac
}

# Crate name of a top-level tree: the root package for src/, tests/ and
# examples/; the Cargo.toml package name under crates/<dir>/.
crate_of() {
  case "$1" in
    crates/*)
      local dir="${1#crates/}"
      dir="${dir%%/*}"
      awk -F'"' '/^name *=/ { print $2; exit }' "crates/${dir}/Cargo.toml"
      ;;
    *) echo "deep" ;;
  esac
}

declare -A PROD TEST
while IFS= read -r file; do
  crate="$(crate_of "$file")"
  read -r p t < <(count_file "$file")
  PROD[$crate]=$(( ${PROD[$crate]:-0} + p ))
  TEST[$crate]=$(( ${TEST[$crate]:-0} + t ))
done < <(find crates src tests examples -name '*.rs' -type f | LC_ALL=C sort)

printf '%-18s %8s %8s %8s\n' crate prod test total
total_p=0
total_t=0
for crate in $(printf '%s\n' "${!PROD[@]}" | LC_ALL=C sort); do
  p=${PROD[$crate]}
  t=${TEST[$crate]}
  total_p=$(( total_p + p ))
  total_t=$(( total_t + t ))
  printf '%-18s %8d %8d %8d\n' "$crate" "$p" "$t" $(( p + t ))
done
printf '%-18s %8d %8d %8d\n' TOTAL "$total_p" "$total_t" $(( total_p + total_t ))

# Public fields of one struct: `pub <field>:` lines between
# `pub struct <Name> {` and its closing brace.
pub_fields() {
  find crates -name '*.rs' -type f -print0 | xargs -0 awk -v name="$1" '
    $0 ~ "^pub struct " name " \\{" { inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^ *pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }
  '
}

echo
echo "public knobs (pub fields)"
knobs=0
for name in DeepScheduler ExecutorConfig TestbedParams ScenarioPricing; do
  n="$(pub_fields "$name")"
  knobs=$(( knobs + n ))
  printf '%-18s %8d\n' "$name" "$n"
done
printf '%-18s %8d\n' TOTAL "$knobs"
