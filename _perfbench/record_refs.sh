#!/usr/bin/env bash
# Re-records the reference digests of `reproduce -quick` that the
# reproduce-quick workload checks its tables against. Run it from any
# directory after a change that alters the tables on purpose, and say
# so where the change is described.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
bin="$root/.bench_build/reproduce"
mkdir -p "$root/.bench_build"
go -C "$root" build -o "$bin" ./cmd/reproduce

out="$root/_perfbench/refs/reproduce_quick.json"
{
	echo "{"
	sep=""
	for seed in 2019 2020 2021 2022 2023 2024 2025 2026; do
		sum="$("$bin" -quick -seed "$seed" | sha256sum | cut -d' ' -f1)"
		printf '%s "%s": "%s"' "$sep" "$seed" "$sum"
		sep=$',\n'
	done
	printf '\n}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
