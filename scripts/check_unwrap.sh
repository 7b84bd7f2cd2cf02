#!/usr/bin/env bash
# Fail on a bare `.unwrap()` / `.expect(` in the library code of the
# crates below (ROADMAP 4(c)). Each site outside tests and doc comments
# either becomes a typed error or sits under a one-line
# `// invariant: …` comment, at most three lines above it, stating why it
# cannot fail in a way a reader can check. Every library crate is listed.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(crates/fft crates/sim-core crates/hw-models crates/power-manager crates/flux
        crates/power-monitor crates/variorum crates/workloads crates/bench
        crates/experiments)

status=0
while IFS= read -r file; do
    awk -v file="$file" '
        # `#[cfg(test)]` opens a test module, which clippy keeps last in
        # its file; a `#[cfg(test)] mod name;` declaration is skipped, and
        # an out-of-line test module marks its file with `#![cfg(test)]`.
        /^#!\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test_attr = 1; next }
        test_attr && /^[[:space:]]*#\[/ { next }
        test_attr && /^[[:space:]]*(pub )?mod [a-z_]+;/ { test_attr = 0; next }
        test_attr { exit }
        /^[[:space:]]*mod tests \{/ { exit }
        /^[[:space:]]*\/\// { if ($0 ~ /\/\/ invariant:/) invariant = NR; next }
        /\.unwrap\(\)|\.expect\(/ {
            if (!invariant || NR - invariant > 3) {
                printf "%s:%d: bare unwrap/expect:%s\n", file, NR, $0
                bad = 1
            }
        }
        END { exit bad }
    ' "$file" || status=1
done < <(find "${CRATES[@]/%//src}" -name '*.rs' | sort)

exit "$status"
