#!/usr/bin/env bash
# One script for CI: vet and test the benchmark package (the tests include a
# 4-block x 32-tx smoke of every workload with the root oracle), run the whole
# suite twice at reduced size with the A/A comparison, and pass every written
# trace through cmd/tracecheck.
#
# At reduced size a run measures too few blocks for two runs to agree within
# the bounds, which are set for the full size; a disagreement (exit code 3)
# is therefore reported and tolerated here. `bash benchmark/run.sh -aa` at
# full size is the check a reviewer reruns, and there it is fatal.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="${1:-4}"

(
	cd "$here"
	test -z "$(gofmt -l .)"
	go vet ./...
	go test -count=1 ./...
)

status=0
bash "$here/run.sh" -aa --seconds "$seconds" || status=$?
if [ "$status" -eq 3 ]; then
	echo "check.sh: A/A disagreement at reduced size (--seconds $seconds): tolerated, see above" >&2
elif [ "$status" -ne 0 ]; then
	exit "$status"
fi

for trace in "$here"/out/trace-*.json; do
	(cd "$here/.." && go run ./cmd/tracecheck "$trace")
done
echo "check.sh: ok"
