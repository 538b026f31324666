GO ?= go

.PHONY: check fmt race bench fuzz experiments

# Tier-1 gate: everything must pass before a change lands. It ends by
# running the examples, which exit non-zero on an error or a failed
# invariant check.
check: fmt
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) race
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/phases
	$(GO) run ./examples/distributed

# Every tracked Go file (bench/ included) must be gofmt-clean; the gate
# lists the ones that are not and fails.
fmt:
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Race-detector pass over the concurrent packages and the core they drive
# (internal/netsim and internal/proto are single-threaded by construction).
race:
	$(GO) test -race ./internal/sim ./internal/core ./internal/wire ./internal/cluster ./internal/obs ./internal/serve ./internal/flight ./cmd/lbnode

# Microbenchmarks for the sparse core and the sharded engine, for use
# under a profiler. Every number with a bound lives in the ledger (bash
# bench/run.sh --workload <name> --trace 1; see bench/README.md): these
# are its core.balance_op_ns.d1/.d4, core.gen_consume_ns,
# core.new_system_ms, sim.proc_steps_per_s.w1 and sim.parallel_efficiency.
bench:
	$(GO) test . -run xxx -bench 'BenchmarkBalanceOp|BenchmarkGenerateConsume|BenchmarkNewSystem|BenchmarkShardedEngine' -benchmem

# Short fuzz passes: the core op-sequence fuzzer and the wire codec.
fuzz:
	$(GO) test ./internal/core/ -run xxx -fuzz FuzzOpSequence -fuzztime 30s
	$(GO) test ./internal/wire/ -run xxx -fuzz FuzzWireRoundTrip -fuzztime 30s

# Full experiment sweep (slow); see EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/paperfigs -full -out results
