# Development entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

# Benchmarks recorded into the repository's perf trajectory (ns/op, B/op,
# allocs/op snapshots that future PRs can gate against). Keep this filter
# in sync with the bench-regression job's -bench pattern.
BENCH_FILTER ?= BenchmarkRun|BenchmarkEngineRun|BenchmarkStreamRunner|BenchmarkScale|BenchmarkSweep|BenchmarkBatchSweep|BenchmarkOnlineSubmit|BenchmarkOnlineRetry|BenchmarkMetricsRender
BENCH_RECORD ?= BENCH_PR17.json

.PHONY: test build vet lint bench bench-record

build:
	go build ./...

vet:
	go vet ./...

# lint runs the full static gate: formatting, go vet, then the repo's own
# interprocedural analyzer suite (determinism, hotpath, lockorder, goleak,
# concurrency, floatcmp — see ci/lint). CI's lint job runs exactly this
# target, plus a -json artifact pass. The suite loads export data from the
# build cache; a warm cache (`make build`) keeps the run in the seconds.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go run ./ci/lint ./...

test:
	go test ./...

bench:
	go test -run '^$$' -bench '$(BENCH_FILTER)' -benchmem ./...

# bench-record refreshes the committed perf snapshot: run it on a quiet
# machine and commit the updated $(BENCH_RECORD) alongside perf-sensitive
# changes. Compare against an older record with ci/benchgate after
# converting, or diff the JSON directly.
bench-record:
	go test -run '^$$' -bench '$(BENCH_FILTER)' -benchmem -count 5 -timeout 60m ./... \
		| go run ./ci/benchrecord -o $(BENCH_RECORD)
