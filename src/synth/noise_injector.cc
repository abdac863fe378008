#include "synth/noise_injector.h"

#include <cstdint>
#include <numeric>
#include <utility>

#include "util/random.h"

namespace procmine {

EventLog InjectNoise(const EventLog& log, const NoiseOptions& options,
                     NoiseReport* report) {
  NoiseReport local;
  EventLog noisy;
  // Copy the dictionary so activity ids are stable.
  for (const std::string& name : log.dictionary().names()) {
    noisy.dictionary().Intern(name);
  }
  Rng rng(options.seed);

  // The corruption moves positions in `order`, each naming the source
  // instance it reports, so every instance keeps its outputs.
  constexpr size_t kSpurious = SIZE_MAX;
  std::vector<size_t> order;
  for (const Execution& exec : log.executions()) {
    order.resize(exec.size());
    std::iota(order.begin(), order.end(), 0);
    ActivityId spurious = -1;
    bool touched = false;

    // Out-of-order reporting: swap adjacent pairs with probability
    // swap_rate each (one sequential pass, as in the Section 6 model where
    // each in-sequence pair independently errs with rate epsilon).
    for (size_t i = 1; i < order.size(); ++i) {
      if (rng.Bernoulli(options.swap_rate)) {
        std::swap(order[i - 1], order[i]);
        ++local.swaps;
        touched = true;
      }
    }

    // Spurious insertion.
    if (!order.empty() && log.num_activities() > 0 &&
        rng.Bernoulli(options.insert_rate)) {
      spurious = static_cast<ActivityId>(
          rng.Uniform(static_cast<uint64_t>(log.num_activities())));
      size_t pos = static_cast<size_t>(rng.Uniform(order.size() + 1));
      order.insert(order.begin() + static_cast<ptrdiff_t>(pos), kSpurious);
      ++local.inserts;
      touched = true;
    }

    // Missed logging.
    if (order.size() > 1 && rng.Bernoulli(options.delete_rate)) {
      size_t pos = rng.Index(order.size());
      order.erase(order.begin() + static_cast<ptrdiff_t>(pos));
      ++local.deletes;
      touched = true;
    }

    if (touched) ++local.executions_touched;

    // Renumber timestamps to a clean instantaneous sequence in the (possibly
    // corrupted) order.
    Execution out(exec.name());
    int64_t t = 0;
    for (size_t src : order) {
      if (src == kSpurious) {
        out.Append(ActivityInstance{spurious, t, t});
      } else {
        out.Append(ActivityInstance{exec[src].activity, t, t},
                   exec.output(src));
      }
      ++t;
    }
    noisy.AddExecution(std::move(out));
  }
  if (report != nullptr) *report = local;
  return noisy;
}

}  // namespace procmine
