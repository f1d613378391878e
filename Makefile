# Single source of truth for the repo's build/lint/test commands: CI invokes
# these targets, so `make check` locally runs the same gates CI does.
#
# The module is pure stdlib (go.mod has no requirements), so the external
# lint tools cannot be pinned through a tools.go import — there is nothing
# in the module graph to pin against. Instead the versions are pinned here
# and the tools run via `go run tool@version`, which both fetches and
# verifies the exact tagged release. See tools.go for the full rationale.

STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

BIN := bin

.PHONY: build test race skylint skylint-test skylint-violations annotate staticcheck govulncheck vet fmt-check lint check clean

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# skylint is the project's own analyzer suite (cmd/skylint): raw record
# offsets, NaN-safe comparisons, and lock discipline (lockheld). The qe cut
# contract and its cancellable fan-out are held by construction and checked
# by a qe test (TestCutMarksOnlyInHelpers). Both drivers run: the standalone loader, which computes every
# package's function summaries in import order within the one run, and
# `go vet -vettool`, whose findings carry the same package scoping and exit
# behavior as the rest of vet (summaries ride the .vetx facts files there).
skylint: $(BIN)/skylint
	$(BIN)/skylint ./...
	go vet -vettool=$(BIN)/skylint ./...

$(BIN)/skylint: FORCE
	go build -o $(BIN)/skylint ./cmd/skylint

FORCE:

# The analyzers' own fixture tests (analysistest-style), and the check that
# skylint-violations names every registered analyzer.
skylint-test:
	go test ./internal/lint/... ./cmd/skylint

# Deliberate-violation guard: each analyzer must exit 1 on its seeded-bug
# fixture, proving the suite still detects what it claims to. The fixture
# trees are GOPATH-shaped (testdata/src/a may import a sibling package b),
# so the standalone driver runs in GOPATH mode rooted at each testdata
# dir — which also exercises cross-package summary import through the real
# binary for the fixtures that split across a and b. A cmd/skylint test
# keeps the spec list equal to the registered analyzers.
skylint-violations: $(BIN)/skylint
	@for spec in nansafe:qe rawoffset:a lockheld:a; do \
		name=$${spec%%:*}; pkg=$${spec##*:}; \
		t=$(CURDIR)/internal/lint/$$name/testdata; \
		if GO111MODULE=off GOPATH=$$t GOFLAGS= $(BIN)/skylint -C $$t/src $$pkg >/dev/null 2>&1; then \
			echo "skylint-violations: $$name fixture raised no findings (expected exit 1)"; exit 1; \
		fi; \
		echo "skylint-violations: $$name flags its seeded bugs (exit 1)"; \
	done

# GitHub annotations: write NDJSON findings to a file first (this shell
# has no pipefail, so a straight pipe would swallow skylint's exit), then
# ghannotate re-emits each finding as an ::error workflow command and
# exits 1 if any exist — so lint failures land on the PR diff.
annotate: $(BIN)/skylint
	@$(BIN)/skylint -json ./... > $(BIN)/skylint.ndjson; \
	go run ./internal/lint/ghannotate < $(BIN)/skylint.ndjson

# staticcheck and govulncheck need network access to fetch the pinned
# release on first run; they are separate targets so `make lint` degrades
# loudly (not silently) in offline sandboxes.
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

vet:
	go vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: skylint staticcheck govulncheck

# The offline gate: formatting, vet, build, the three skylint analyzers with their
# fixture and deliberate-violation checks, and `go test ./...` — which also
# runs the end-to-end benchmark's smoke test in bench/. CI runs these plus
# the steps that need no target here: the race detector, the query engine
# at 1 and 4 CPUs, the parser fuzz smoke, the `-bench . -benchtime 1x`
# compile smoke, the skygen → skyload → skyquery run, and the two
# network-fetched linters (staticcheck, govulncheck).
check: fmt-check vet build skylint-test skylint skylint-violations test

clean:
	rm -rf $(BIN)
