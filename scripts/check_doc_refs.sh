#!/usr/bin/env bash
# Fails when a Markdown file named in the sources, tests, benches,
# examples, scripts or docs is not a tracked file, so no comment can send
# the reader to a document that does not exist. Usage:
#
#   scripts/check_doc_refs.sh
#
# A name is found when it is a tracked path as written, or under docs/
# (the docs link to each other by bare name). Prints every missing name
# with the lines that cite it and exits 1; exits 0 when all are found.
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
exit "${status}"
