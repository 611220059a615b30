# Convenience targets mirroring .github/workflows/ci.yml.
# Everything runs offline: external crates are in-repo shims (shims/README.md).

.PHONY: verify fmt lint test test-serial test-faults determinism test-tiers test-numa bench-smoke bench-tiers-save bench-numa-save goldens goldens-check goldens-save ci

# The canonical acceptance gate: release build + full test suite.
verify:
	cargo build --release && cargo test -q

fmt:
	cargo fmt --all --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

# Every workspace crate, unit tests included (the CI `test` job).
test:
	cargo test --workspace -q

# The CI matrix's serial leg: surfaces cross-test interference.
test-serial:
	cargo test --workspace -q -- --test-threads=1

# Fault-injection suite: shadow-oracle, determinism, and recovery tests.
test-faults:
	cargo test -q --test fault_injection
	cargo test -q --test trace_validation
	cargo test -q --release --test thread_determinism under_faults

# The repeat-run determinism matrix on its own: every policy under
# eviction pressure and a fault plan, SCALE, regular tables, tiers and
# adaptive page sizes, each run twice with byte-equal reports.
determinism:
	cargo test -q --release --test thread_determinism

# The tier-subsystem acceptance suite: cross-tier shadow oracle,
# tier/page-size proptests, and the multi-tier determinism leg.
test-tiers:
	cargo test -q --test tier_hierarchy
	cargo test -q --test proptest_tiers
	cargo test -q --release --test thread_determinism tiered_and_adaptive

# The NUMA-subsystem acceptance suite: replica-coherence shadow oracle,
# node-spec proptests, and the multi-node determinism leg.
test-numa:
	cargo test -q --test numa_replication
	cargo test -q --test proptest_tiers numa

# One pass over the policies benchmark bodies (no measurement).
bench-smoke:
	cargo bench -p cmcp-bench --bench policies -- --test

# Hot-path microbench vs the committed baseline (the CI perf gate);
# `make bench-hotpath-save` rewrites the baseline after intentional
# hot-path retuning.
bench-hotpath:
	cargo run -q --release -p cmcp-bench --bin fault_latency -- \
		--quick --compare results/BENCH_hotpath.json
bench-hotpath-save:
	cargo run -q --release -p cmcp-bench --bin fault_latency -- --save

# Pressure sweep of static page sizes vs the adaptive scheme on the
# 2-tier hierarchy; rewrites the committed results/BENCH_tiers.json
# baseline (virtual cycles, so deterministic) and fails if adaptive
# loses to the worst static size anywhere in the sweep.
bench-tiers-save:
	cargo run -q --release -p cmcp-bench --bin tier_sweep

# NUMA node-count sweep: replication-on vs -off fault latency at 1/2/4
# nodes; rewrites the committed results/BENCH_numa.json baseline
# (virtual cycles, so deterministic) and fails unless the replication
# gap grows with node count for CMCP and LRU.
bench-numa-save:
	cargo run -q --release -p cmcp-bench --bin numa_sweep

# Regenerate every deterministic golden into a scratch directory and
# require byte-identity with the committed results/ files. The old
# in-place `cargo build --release && git diff` flow regenerated with
# stale binaries (the root build does not cover the bench/cli bins) and
# never touched the ablation goldens — scripts/goldens_check.sh tells
# that story and closes both holes.
goldens-check:
	bash scripts/goldens_check.sh

# Back-compat alias; `make goldens` has always been the identity gate.
goldens: goldens-check

# Regenerate every deterministic golden in place (after an intentional
# semantic change), with the generators built fresh and explicitly.
goldens-save:
	cargo build -q --release -p cmcp-bench -p cmcp-cli
	for b in table1 fig6 fig7 fig8 fig9 fig10 tier_sweep numa_sweep \
	         ablation_aging ablation_ipi ablation_policies ablation_rebuild; do \
		./target/release/$$b || exit 1; done
	./target/release/cmcp-cli --workload cg.B --cores 8 \
		--fault-plan "seed=42,dma=0.01,enospc=0.005" --json \
		> results/golden_faulted_cg.json

ci: fmt lint verify test test-serial test-faults determinism test-tiers \
    test-numa bench-smoke bench-hotpath goldens-check
