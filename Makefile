# Developer entry points. `make check` is the tier-1 gate: build, vet and
# the full test suite under the race detector.

GO ?= go

.PHONY: build vet lint test race check bench-overhead profile clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting + vet gate. gofmt -l prints offending files; fail if any.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet race

# Observer overhead only: every tracer, span, audit and telemetry case
# against one shared baseline.
bench-overhead:
	$(GO) test -run '^$$' -bench BenchmarkObserverOverhead -benchtime 5x -benchmem ./internal/sim

# CPU and heap profiles of the simulator hot loop: one full-power run
# of bzip2 as a one-lane group, the path every simulation takes. See
# DESIGN.md "Hot path & result cache" for how to read them; start with:
#   go tool pprof -top cpu.out
#   go tool pprof -list 'Cache.*Access' cpu.out
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkLaneGroup/full-power/lanes=1$$' -benchtime 20x \
		-cpuprofile cpu.out -memprofile mem.out -o sim.test ./internal/sim
	@echo "profiles written: cpu.out mem.out (pair with binary sim.test)"

clean:
	$(GO) clean ./...
