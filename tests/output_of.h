// Test helper: the outputs an execution's instance recorded, as a vector
// that gtest can compare and print.

#ifndef PROCMINE_TESTS_OUTPUT_OF_H_
#define PROCMINE_TESTS_OUTPUT_OF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "log/execution.h"

namespace procmine {

inline std::vector<int64_t> OutputOf(const Execution& exec, size_t i) {
  const std::span<const int64_t> output = exec.output(i);
  return {output.begin(), output.end()};
}

}  // namespace procmine

#endif  // PROCMINE_TESTS_OUTPUT_OF_H_
