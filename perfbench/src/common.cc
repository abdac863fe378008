#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

namespace perfbench {

void Outcome::Fail(const std::string& why, int64_t ops) {
  correct = false;
  failed += ops;
  Note("CHECK FAILED: " + why);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::vector<std::vector<double>> ByWindow(const std::vector<Stamped>& samples,
                                          double wall_s, int windows) {
  std::vector<std::vector<double>> out(static_cast<size_t>(windows));
  for (const Stamped& s : samples) {
    const double at = wall_s > 0 ? s.at_s / wall_s * windows : 0.0;
    const int w = std::clamp(static_cast<int>(std::floor(at)), 0, windows - 1);
    out[static_cast<size_t>(w)].push_back(s.value);
  }
  return out;
}

double MedianOfWindowMedians(const std::vector<std::vector<double>>& windows) {
  std::vector<double> per_window;
  for (const std::vector<double>& values : windows) {
    if (!values.empty()) per_window.push_back(Median(values));
  }
  return Median(per_window);
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<procmine::obs::SpanEvent>& spans) {
  struct Open {
    size_t index;
    int64_t end;
    int64_t covered = 0;  // child time inside this span so far
  };
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  // Per thread, by start; a parent sorts before a child that starts at the
  // same instant because it lasts at least as long.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });

  std::map<std::string, double> self;
  std::vector<Open> stack;
  auto close = [&](const Open& open) {
    const auto& s = spans[open.index];
    self[s.name] += static_cast<double>(s.dur_ns - open.covered) * 1e-9;
  };
  int current_tid = -1;
  for (size_t index : order) {
    const auto& s = spans[index];
    if (s.tid != current_tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      current_tid = s.tid;
    }
    const int64_t start = s.start_ns;
    while (!stack.empty() && stack.back().end <= start) {
      close(stack.back());
      stack.pop_back();
    }
    // The innermost open span is the parent. Earlier children of it ended
    // before this one starts (else they would be this one's parent), so
    // child intervals never overlap.
    if (!stack.empty()) {
      Open& parent = stack.back();
      parent.covered += std::min(start + s.dur_ns, parent.end) - start;
    }
    stack.push_back(Open{index, start + s.dur_ns, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return self;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::map<std::string, double>& self_by_name,
    const std::map<std::string, std::string>& layer_of_span) {
  std::map<std::string, double> by_layer;
  for (const auto& [name, seconds] : self_by_name) {
    auto it = layer_of_span.find(name);
    if (it != layer_of_span.end()) by_layer[it->second] += seconds;
  }
  return by_layer;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double RunInChild(const std::function<bool()>& step) {
  std::fflush(stdout);
  std::fflush(stderr);
  const auto start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    bool ok = false;
    try {
      ok = step();
    } catch (...) {
      ok = false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1.0;
  }
  const double seconds = SecondsSince(start);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1.0;
}

double MedianSetupSeconds(int times, const std::function<double(int)>& step) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const double s = step(i);
    if (s < 0) return -1.0;
    samples.push_back(s);
  }
  return Median(samples);
}

bool ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return false;
  return std::filesystem::create_directories(dir, ec) && !ec;
}

}  // namespace perfbench
