#!/usr/bin/env bash
# Regenerates perfbench/pins.json: the SHA-256 of every exhibit's
# `dpbench -quick -json -seed S NAME` output and of the whole
# `dpbench -quick -json -seed S` stream, for each pinned seed S.
# Run from the repository root after a change that is meant to alter
# exhibit output (about 30 s of CPU per seed):
#
#   bash perfbench/pins.sh [SEED ...]
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
(cd "$root" && go build -o "$out/dpbench" ./cmd/dpbench)
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(2018 2019 2020 2021 2022 2023 2024 2025)
names=$("$out/dpbench" -list)
sum() { sha256sum | cut -d' ' -f1; }
{
  printf '{\n  "seeds": [%s],\n  "exhibits": {\n' "$(IFS=,; echo "${seeds[*]}" | sed 's/,/, /g')"
  suite=""
  for i in "${!seeds[@]}"; do
    s=${seeds[$i]}
    printf '    "%s": {\n' "$s"
    stream=$(mktemp "$out/pins-XXXXXX")
    first=1
    for n in $names; do
      "$out/dpbench" -quick -json -seed "$s" "$n" > "$stream.one"
      cat "$stream.one" >> "$stream"
      [ $first = 1 ] || printf ',\n'
      first=0
      printf '      "%s": "%s"' "$n" "$(sum < "$stream.one")"
    done
    printf '\n    }'
    [ "$i" = $((${#seeds[@]} - 1)) ] || printf ','
    printf '\n'
    suite+="${suite:+,\n}    \"$s\": \"$(sum < "$stream")\""
    rm -f "$stream" "$stream.one"
  done
  printf '  },\n  "suite": {\n%b\n  }\n}\n' "$suite"
} > "$here/pins.json.tmp"
mv "$here/pins.json.tmp" "$here/pins.json"
