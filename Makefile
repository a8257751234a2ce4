# Convenience wrappers around dune. `make ci` is what CI runs.

.PHONY: build test smoke bench golden ci clean

build:
	dune build

test:
	dune runtest

# Every smoke rule (the `smoke` alias in bin/dune, bench/dune and
# examples/dune): the profiler, simulate, lower, vectorize, pipelining,
# layout, search and serve CLI runs, the sim bench with its
# bit-identity checks, and the six examples. Each fails on a non-zero
# exit. Determinism and executor identity are the
# test suite's (`make test`).
smoke:
	dune build @smoke

bench:
	dune exec bench/main.exe

# Regenerate golden files (CUDA listings, profiler report) after an
# intentional output change.
golden:
	dune exec bin/gen_golden.exe

ci:
	dune build @ci

clean:
	dune clean
