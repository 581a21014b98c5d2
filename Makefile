GO ?= go

# Third-party analysis tools, pinned so CI and local runs agree.
# staticcheck 2024.1.x is the newest series supporting go.mod's go 1.22.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test race lint staticcheck govulncheck check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo's own full cranevet suite (internal/lint): raw
# nondeterminism in replicated code, lock-order cycles, dropped
# durability errors, observation-path instrument registration, lane
# consistency, speculation-gate leaks, interprocedural nondeterminism
# taint (detflow), atomic/plain access mixes (atomicmix), and per-group
# coupling (groncouple). detflow and lockorder share one call graph that
# sees through interfaces such as papi.T. Violations exit non-zero;
# suppress intentionally with //crane:<analyzer>-ok <reason>. Use
# `go run ./cmd/cranevet -format=sarif ./...` for code-scanning output.
lint:
	$(GO) run ./cmd/cranevet ./...

# staticcheck and govulncheck fetch their pinned versions on first use,
# so they need network access; CI runs them as separate jobs.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

check: build test lint
