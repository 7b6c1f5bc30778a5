.PHONY: all build test coverage fmt lint bench gap matrix scaling verify metrics e2e-trace e2e-compare ci clean

all: build

build:
	dune build @all

test:
	OCAMLRUNPARAM=b dune runtest

# needs bisect_ppx (opam install bisect_ppx); the instrumentation stanzas
# are inert without --instrument-with, so regular builds don't require it
coverage:
	mkdir -p _coverage
	OCAMLRUNPARAM=b BISECT_FILE=$(CURDIR)/_coverage/bisect \
		dune runtest --instrument-with bisect_ppx --force
	bisect-ppx-report summary --coverage-path _coverage

# formatting is checked only where ocamlformat is available, so `make ci`
# stays runnable in minimal containers
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# full static-analysis sweep: pass-contract validation, the
# commutation/savings audit, and the Qlint rule set over the example QASM
# programs and the whole qbench suite; diagnostics land in lint.jsonl
lint:
	dune exec bin/nassc_cli.exe -- check --suite --jsonl lint.jsonl examples/qasm/*.qasm

bench:
	dune exec bench/main.exe -- --only trials

# optimality-gap harness: certifies small corpus circuits with the exact
# oracle and tables the gap per router (sabre/nassc/astar/hybrid); writes
# a BENCH_<sha>-gap.json snapshot
gap:
	dune exec bench/main.exe -- --only gap --quick

# benchmark matrix: routers x topologies x circuit families with
# cx/swaps/depth-overhead/ESP columns; writes BENCH_<sha>-matrix.json and
# a rendered markdown table next to it (drop --quick for the full sweep)
matrix:
	dune exec bench/main.exe -- --only matrix --quick

# per-job telemetry: one CLI transpile exporting the whole registry as an
# OpenMetrics page (metrics.txt, linted before writing; violations go to
# stderr) and one wide event JSON line (wide.jsonl)
metrics:
	dune exec bin/nassc_cli.exe -- transpile -b "QFT 15-qubits" -t montreal --trials 4 \
		--metrics=metrics.txt --wide-events=wide.jsonl

# streaming scaling matrix: gates/sec and peak RSS for 10^4..10^5-gate
# lazy streams over montreal/eagle/osprey through the O(window) engine;
# writes BENCH_<sha>-scaling.json and exits non-zero if any 100k-gate
# run's peak RSS exceeds 5x its 10k-gate counterpart (drop --quick for
# the full matrix with the million-gate rows)
scaling:
	dune exec bench/main.exe -- --only scaling --quick

# semantic verification: certify the whole routing-golden corpus with the
# symbolic equivalence checker (certificates land in certs.jsonl), then
# time the certifier up to device scale (BENCH_<sha>-verify.json)
verify:
	dune exec bin/nassc_cli.exe -- verify --corpus --jsonl certs.jsonl
	dune exec bench/main.exe -- --only verify

# the end-to-end benchmark's traced per-layer run of one workload
# (W: montreal-small | montreal-revlib | eagle-trials | eagle-stream; S: seed)
W ?= montreal-small
S ?= 11
e2e-trace:
	dune exec bench/e2e/e2e.exe -- --workload $(W) --seed $(S) --seconds 20 --trace 1

# judge run set B against run set A (files written by `e2e.exe sweep`)
# with the bounds of BENCHMARK.json
e2e-compare:
	dune exec bench/e2e/e2e.exe -- compare $(A) $(B)

ci: build test fmt lint

clean:
	dune clean
