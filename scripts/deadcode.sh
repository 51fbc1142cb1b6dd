#!/usr/bin/env bash
# Dead-code gate for the modeling packages: fail if internal/cluster,
# internal/nmf or internal/core holds a function that no main package
# (cmd/*, bench, examples/*) can reach — i.e. one kept alive by tests only,
# which is how the duplicate Foo/FooWorkers/FooMat ladders accreted. Runs a
# pinned golang.org/x/tools/cmd/deadcode WITHOUT -test, so test callers do
# not count. CI's lint job runs this; locally:
#
#   ./scripts/deadcode.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Library API kept on purpose although only tests call it today, one reason
# each. Anything else the tool reports in the three packages is a failure.
ALLOW="$(sed -e 's/[[:space:]]*#.*//' -e '/^$/d' <<'EOF'
repro/internal/cluster.AdjustedRandIndex        # ground-truth validity metric: root bench_test.go, core/model_test.go
repro/internal/cluster.PurityAgainstTruth       # ground-truth validity metric: root bench_test.go, core/model_test.go
repro/internal/cluster.Dendrogram.CutThreshold  # the paper's stop condition (cut at a linkage distance, §3.2); DBICurvePoint.Threshold feeds it
repro/internal/core.Result.ClassifyTraffic      # assigns a tower deployed after modeling to a discovered pattern
repro/internal/core.Result.ClassifyAll          # batch form of ClassifyTraffic
repro/internal/core.AnalyzeSource               # documented ctx-less twin of Analyze; the ingestion-side wrappers are collapsed in a later PR
repro/internal/nmf.Result.Reconstruct           # accessor of the factorisation result (row of W·H)
repro/internal/nmf.Result.BasisPattern          # accessor of the factorisation result (row of H)
repro/internal/nmf.Result.Weights               # accessor of the factorisation result (normalised row of W)
EOF
)"

# One "import/path.Func" or "import/path.Type.Method" per line; pointer
# receivers are normalised to the bare type name.
report="$(go run golang.org/x/tools/cmd/deadcode@v0.30.0 \
  -f '{{range .Funcs}}{{$.Path}}.{{.Name}}{{"\n"}}{{end}}' ./...)"
dead="$(printf '%s\n' "$report" | sed -e 's/[()*]//g' |
  grep -E '^repro/internal/(cluster|nmf|core)\.' |
  grep -vxF -f <(printf '%s\n' "$ALLOW") || true)"

if [ -n "$dead" ]; then
  echo "functions reachable only from tests (delete them, or call them from non-test code):" >&2
  echo "$dead" >&2
  exit 1
fi
echo "deadcode: internal/cluster, internal/nmf, internal/core clean"
