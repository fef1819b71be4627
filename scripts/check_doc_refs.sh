#!/usr/bin/env bash
# Fails when the docs point at something that does not exist:
#
#  * a Markdown file named in the sources, tests, benches, examples,
#    scripts or docs that is not a tracked file. A name is found when it
#    is a tracked path as written, or under docs/ (the docs link to each
#    other by bare name);
#  * a backticked C++ qualified name (`A::B`, any depth) in docs/*.md,
#    README.md or BUILDING.md whose last component occurs nowhere, as a
#    whole word, in the tracked code (src, tests, bench, examples,
#    perfbench): a stale name for a deleted function, field or type.
#
# Usage:
#
#   scripts/check_doc_refs.sh
#
# Prints every missing name with the lines that cite it and exits 1;
# exits 0 when all are found.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${ROOT}"

SCOPE=(src tests bench examples scripts docs README.md BUILDING.md)
tracked="$(git ls-files)"
status=0
while IFS= read -r name; do
  if grep -qxF -- "${name}" <<<"${tracked}" ||
    grep -qxF -- "docs/${name}" <<<"${tracked}"; then
    continue
  fi
  echo "check_doc_refs: ${name} is not a tracked file; cited at:" >&2
  git grep -nF -- "${name}" -- "${SCOPE[@]}" >&2 || true
  status=1
done < <(git grep -ohE '[A-Za-z0-9_./-]*[A-Za-z0-9_-][.]md\b' -- "${SCOPE[@]}" |
  sort -u)

DOCS=('docs/*.md' README.md BUILDING.md)
CODE=(src tests bench examples perfbench)
while IFS= read -r qualified; do
  if git grep -qw -- "${qualified##*::}" -- "${CODE[@]}"; then
    continue
  fi
  echo "check_doc_refs: \`${qualified}\` names nothing in the code; cited at:" >&2
  git grep -nF -- "${qualified}" -- "${DOCS[@]}" >&2 || true
  status=1
done < <(git grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' \
  -- "${DOCS[@]}" | tr -d '`' | sort -u)
exit "${status}"
