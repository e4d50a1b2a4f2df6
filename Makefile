GO ?= go
OCLINT := $(CURDIR)/bin/oclint

.PHONY: all build test race lint bench bench-json benchdiff fuzz clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# lint runs the standard vet suite, then the repo's own analyzers
# (maporder, checkedverify, pointkey, staticdrc, shadowbuiltin,
# nondeterm, hotalloc) twice: through the vettool protocol
# (facts flow via .vetx files) and standalone over the internal and
# cmd trees (facts flow via go list dependency order) — the standalone
# pass is what CI's lint job runs with -github annotations.
lint: $(OCLINT)
	$(GO) vet ./...
	$(GO) vet -vettool=$(OCLINT) ./...
	$(OCLINT) ./internal/... ./cmd/...

$(OCLINT): FORCE
	$(GO) build -o $(OCLINT) ./cmd/oclint

FORCE:

bench:
	$(GO) test -bench=. -benchmem ./...

# fuzz smoke-runs each fuzz target for a short burst (go's -fuzz flag
# accepts one target per invocation). Crashers land under each
# package's testdata/fuzz/ and replay via plain `go test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/robust/fault -run='^$$' -fuzz=FuzzProposed -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/robust/fault -run='^$$' -fuzz=FuzzTIGSearch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/grid -run='^$$' -fuzz=FuzzGridBlockMirror -fuzztime=$(FUZZTIME)

# bench-json snapshots the perf trajectory as BENCH_<TAG>.json (see
# cmd/benchjson); commit the file alongside the change it baselines.
TAG ?= dev
bench-json:
	$(GO) run ./cmd/benchjson -tag $(TAG) -runs 3

# benchdiff measures a fresh snapshot and diffs it against the newest
# committed BENCH_*.json. The fresh file is written as benchdiff-new.json
# on purpose: the root bench-file test validates every BENCH_*.json, so
# scratch snapshots must not match that glob. BENCHDIFF_FLAGS=-warn
# demotes regressions to a note (CI uses this).
BENCHDIFF_FLAGS ?=
benchdiff:
	$(GO) run ./cmd/benchjson -tag benchdiff-new -o benchdiff-new.json -runs 3
	$(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS) -o benchdiff.md benchdiff-new.json
	cat benchdiff.md

clean:
	rm -rf bin benchdiff-new.json benchdiff.md
