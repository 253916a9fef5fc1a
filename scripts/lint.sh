#!/usr/bin/env bash
# Static-analysis gate — the exact entry point CI's lint job runs, so a
# local `bash scripts/lint.sh` reproduces the gate before pushing.
#
# Hard gate: gofmt (every .go file outside testdata/ fixtures), go vet,
# then psdlint (the project's custom analyzer suite:
# determinism, fsyncdiscipline, unsafeconfine, closecheck, ctxpoll) driven
# through `go vet -vettool` so package loading, caching, and test-variant
# packages behave exactly as vet does.
#
# Advisory extras: staticcheck and govulncheck run when they are on PATH
# (CI installs them; a plain local checkout usually has neither — they are
# skipped, not failed, because this container must stay offline-buildable).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted="$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' \
  -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
  echo "gofmt: these files are not formatted (run gofmt -w on them):"
  echo "$unformatted"
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> psdlint (custom analyzers via go vet -vettool)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/psdlint" ./cmd/psdlint
go vet -vettool="$tmpdir/psdlint" ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck (advisory)"
  staticcheck ./... || echo "staticcheck: findings above are advisory"
fi
if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck (advisory)"
  govulncheck ./... || echo "govulncheck: findings above are advisory"
fi

echo "lint: OK"
