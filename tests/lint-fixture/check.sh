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

fail=0

# The fixture mirrors the root's `[workspace.lints.clippy]` table in its
# own Cargo.toml, so the seeded `allow` on line 32 would still fire if the
# root dropped the lint. Require the root to keep it.
if ! awk '/^\[/ { in_table = ($0 == "[workspace.lints.clippy]") }
  in_table && /^allow_attributes_without_reason *= *"(warn|deny|forbid)"/ { found = 1 }
  END { exit !found }' "$here/../../Cargo.toml"; then
  echo "::error::root Cargo.toml no longer sets allow_attributes_without_reason under [workspace.lints.clippy]"
  fail=1
fi

if out=$(cargo clippy --manifest-path "$here/Cargo.toml" --message-format=short \
  -- -D warnings 2>&1); then
  echo "$out"
  echo "::error::clippy accepted the seeded violations"
  exit 1
fi
echo "$out"

for want in "${expected[@]}"; do
  line=${want%%:*}
  text=${want#*:}
  if ! grep -F "src/lib.rs:$line:" <<<"$out" | grep -qF "$text"; then
    echo "::error::no finding on src/lib.rs:$line ($text)"
    fail=1
  fi
done
exit $fail
