#!/usr/bin/env bash
# Per-package src/repro line table and the net src/ line delta against a
# base commit, as markdown.  ROADMAP asks every CHANGES.md entry to
# report net src/ lines; this makes the number mechanical (git + wc
# only).  Usage: tools/src_lines.sh [BASE]   (default: merge base with
# origin/$GITHUB_BASE_REF, else origin/main, else the parent commit).
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

base="${1:-}"
if [ -z "$base" ]; then
  base=$(git merge-base HEAD "origin/${GITHUB_BASE_REF:-main}" 2>/dev/null || true)
  if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then
    base="HEAD^"
  fi
fi

echo "### \`src/repro\` lines by package"
echo
echo "| package | lines |"
echo "|---|---:|"
total=0
for dir in src/repro/*/; do
  lines=$(git ls-files -z -- "$dir" | xargs -0 cat | wc -l)
  total=$((total + lines))
  echo "| \`$(basename "$dir")\` | $lines |"
done
echo "| **total** | $total |"
echo

added=0
deleted=0
while read -r a d _; do
  added=$((added + a))
  deleted=$((deleted + d))
done < <(git diff --numstat "$base" -- src/)
echo "Net \`src/\` lines vs \`$(git rev-parse --short "$base")\`:" \
     "**$((added - deleted))** ($added added, $deleted deleted)"
