# Convenience wrappers around dune. `make ci` is what CI runs.

.PHONY: build test smoke bench golden ci clean

build:
	dune build

test:
	dune runtest

# Every smoke rule (the `smoke` alias in bin/dune and bench/dune): the
# profiler, lower, vectorize, pipelining, layout and search CLI runs;
# the 1-vs-2-domain and tree-vs-plan determinism checks; and the
# sim, serve and search benches. Each fails on a non-zero exit.
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
