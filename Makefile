GO ?= go
FUZZTIME ?= 5s

.PHONY: check check-short test build vet bench fuzz-smoke e2e e2e-short

## check: vet + build + full test suite under the race detector + fuzz smoke
check:
	scripts/check.sh
	$(MAKE) fuzz-smoke

## check-short: check, skipping the multi-second golden tests
check-short:
	scripts/check.sh -short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## e2e: scripted CLI harness — builds every cmd/ binary and drives it as
## a subprocess (goldens, SIGINT drain, kill -9 checkpoint restore)
e2e:
	$(GO) test -tags e2e -count=1 ./e2e

## e2e-short: the fast golden subset (skips scenarios needing a training run)
e2e-short:
	$(GO) test -tags e2e -short -count=1 ./e2e

## bench: snapshot the perf-tracking benchmarks into BENCH_<n>.json
bench:
	scripts/bench.sh

## fuzz-smoke: run each fuzz target for FUZZTIME (default 5s) to catch
## parser/decoder regressions the committed seed corpora alone would miss
fuzz-smoke:
	$(GO) test ./internal/lte/dci -run '^$$' -fuzz 'FuzzDCIRoundTrip' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sniffer -run '^$$' -fuzz 'FuzzBlindDecode' -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz 'FuzzDefenseConfig' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/artifact -run '^$$' -fuzz 'FuzzArtifactDecode' -fuzztime $(FUZZTIME)
