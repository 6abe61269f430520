#!/usr/bin/env bash
# Proves the determinism gate still rejects every hazard class: runs
# clippy on the fixture crate, expects it to fail, and requires one
# finding on each seeded line of src/lib.rs. Run from anywhere:
#   tests/lint-fixture/check.sh
set -u
here=$(cd "$(dirname "$0")" && pwd)

# line of src/lib.rs : text the finding must contain
expected=(
  "9:disallowed type \`std::collections::HashMap\`"
  "13:disallowed method \`std::time::Instant::now\`"
  "17:disallowed type \`std::hash::RandomState\`"
  "21:disallowed method \`std::thread::current\`"
  "25:used \`unwrap()\` on an \`Option\` value"
  "29:disallowed method \`std::env::var\`"
  "32:\`allow\` attribute without specifying a reason"
  "35:this lint expectation is unfulfilled"
)

if out=$(cargo clippy --manifest-path "$here/Cargo.toml" --message-format=short \
  -- -D warnings 2>&1); then
  echo "$out"
  echo "::error::clippy accepted the seeded violations"
  exit 1
fi
echo "$out"

fail=0
for want in "${expected[@]}"; do
  line=${want%%:*}
  text=${want#*:}
  if ! grep -F "src/lib.rs:$line:" <<<"$out" | grep -qF "$text"; then
    echo "::error::no finding on src/lib.rs:$line ($text)"
    fail=1
  fi
done
exit $fail
