#include "mine/ooc_miner.h"

#include "mine/pipeline.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace procmine {

Result<ProcessGraph> OutOfCoreMiner::Mine(SegmentStore* store,
                                          OocMineStats* stats) const {
  PROCMINE_SPAN("ooc.mine");
  PROCMINE_PHASE("ooc.mine");
  return mine_internal::MineWindows({.store = store, .stats = stats},
                                    options_);
}

}  // namespace procmine
