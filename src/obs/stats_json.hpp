// The machine-readable run manifest (`--stats-json`): one JSON object per
// run with the engine counters, the frontend counters and one row per
// property in declaration order (schema autosva-run-v1).
#pragma once

#include <ostream>
#include <string>

namespace autosva::sva {
struct VerificationReport;
}

namespace autosva::obs {

/// Writes the full run manifest: `{"schema": "autosva-run-v1", "dut": ...,
/// "engine": {...}, "frontend": {...}, "properties": [...]}`. The engine
/// object carries the EngineStats counters; properties are the
/// per-property rows in declaration order.
void writeStatsJson(std::ostream& out, const sva::VerificationReport& report);

/// writeStatsJson to `path`. Returns false (after printing a diagnostic to
/// stderr) when the file cannot be written.
bool writeStatsJsonFile(const std::string& path, const sva::VerificationReport& report);

} // namespace autosva::obs
