// The single registry of bbrnash wire/persistence schema tags.
//
// Every JSONL record stream and JSON report this codebase writes carries a
// `bbrnash-<stream>-vN` tag so readers can reject records they do not
// understand (the fabric skips foreign checkpoint lines, the bench
// baselines refuse to compare across format bumps). Those tags used to be hand-duplicated
// string literals in every writer — exactly the drift surface a
// reproducibility claim cannot afford: a reader and writer disagreeing by
// one character silently partitions the data instead of failing loudly.
//
// This header is the only place a schema string may be spelled. The lint's
// schema-registry pass (tools/lint/lint_passes.cpp, DESIGN.md §8) enforces
// it three ways: a raw `bbrnash-*-vN` literal in any other file under
// src/ or bench/ is a `schema-literal` violation; a duplicate entry here
// is a `schema-registry` violation (bump the version instead); and an
// entry no scanned file uses is a `schema-registry` violation too, so the
// registry cannot accumulate dead tags. Tests are exempt from the literal
// rule — pinning exact wire bytes in a test is the point of the test.
//
// To add a stream: register `kSchema<Stream>` here (one line, value
// `bbrnash-<stream>-v1`), then reference the constant from the writer and
// every reader. To change a format incompatibly: bump the `-vN` suffix in
// place — readers keyed on the old constant then reject new records at
// parse time instead of misinterpreting them.
#pragma once

#include <string_view>

namespace bbrnash {

/// Flight-recorder ring dumps (src/sim/flight_recorder.cpp).
inline constexpr std::string_view kSchemaFlight = "bbrnash-flight-v1";

/// Fabric sweep checkpoint records (src/exp/fabric.cpp).
inline constexpr std::string_view kSchemaFabric = "bbrnash-fabric-v1";

/// Fabric end-of-run stats summary records (src/exp/fabric.cpp).
inline constexpr std::string_view kSchemaFabricStats =
    "bbrnash-fabric-stats-v1";

/// Simulator-core perf report (bench/bench_perf_simcore.cpp).
inline constexpr std::string_view kSchemaSimcorePerf =
    "bbrnash-simcore-perf-v1";

/// Simulator-core perf baseline records (bench/bench_perf_simcore.cpp).
inline constexpr std::string_view kSchemaSimcoreBaseline =
    "bbrnash-simcore-baseline-v1";

/// bbrnash-lint --json report envelope (tools/lint/lint_core.cpp).
inline constexpr std::string_view kSchemaLintReport =
    "bbrnash-lint-report-v1";

}  // namespace bbrnash
