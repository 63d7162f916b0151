#!/usr/bin/env bash
# Orphan-module guard: fails when a header under src/ is #included by no
# file under src/, bench/, examples/ or perfbench/ other than the .cc of the
# same stem. Such a header and its .cc are compiled but reachable only from
# tests, i.e. a second implementation nothing serves. Prints each orphan.
#
#   scripts/orphan_headers.sh        exit 0 when there are none, else 1
set -euo pipefail
cd "$(dirname "$0")/.."

orphans=0
while IFS= read -r header; do
  own_cc="${header%.h}.cc"
  users="$(grep -rlF --include='*.h' --include='*.cc' \
    "#include \"${header}\"" src bench examples perfbench \
    | grep -vxF -e "${own_cc}" -e "${header}" || true)"
  if [[ -z "${users}" ]]; then
    echo "orphan header: ${header}"
    orphans=1
  fi
done < <(find src -name '*.h' | sort)
exit "${orphans}"
