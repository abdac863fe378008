// The three workloads. Each takes its seed and sizes from the RunConfig,
// generates its own inputs, and returns one Outcome: the end-to-end
// metrics when config.trace is off, the per-layer metrics when it is on.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

Outcome RunMineText(const RunConfig& config);
Outcome RunMineStore(const RunConfig& config);
Outcome RunServeMixed(const RunConfig& config);

/// End-to-end metric names, in output order. Every workload reports all
/// of them (README.md gives each one's meaning per workload).
const std::vector<std::string>& EndToEndMetricNames();

/// Per-layer metric names with their units, in output order. Every
/// workload reports all of them; a layer a workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills every per-layer metric of `outcome` from `values` (0 where
/// absent) and appends the human-readable layer table to its notes.
/// `bases` holds the base of a ratio or the sample count behind a value,
/// printed beside it.
void EmitPerLayer(const std::map<std::string, double>& values,
                  const std::map<std::string, std::string>& bases,
                  Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
