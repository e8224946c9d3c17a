#include "tensor/backend.h"

#include "core/parallel.h"
#include "core/trace.h"

namespace cppflare::tensor::backend {

namespace {

inline std::int64_t clamp_work(std::int64_t work_per_item) {
  return work_per_item < 1 ? 1 : work_per_item;
}

inline bool below_threshold(std::int64_t items, std::int64_t work_per_item) {
  // items and work are both bounded by tensor sizes (< 2^40 in practice),
  // so the product cannot overflow int64.
  return items * clamp_work(work_per_item) < kSerialWorkThreshold;
}

}  // namespace

std::int64_t grain_for(std::int64_t items, std::int64_t work_per_item) {
  std::int64_t grain = kGrainWork / clamp_work(work_per_item);
  if (grain < 1) grain = 1;
  if (grain > items) grain = items;
  return grain;
}

void parallel_rows(std::int64_t items, std::int64_t work_per_item,
                   const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (items <= 0) return;
  if (below_threshold(items, work_per_item)) {
    fn(0, items);
    return;
  }
  // Only the parallel branch is timed: the serial-inline path handles tiny
  // ops far too frequent to record usefully.
  CF_TRACE_HISTOGRAM("tensor.parallel_rows_ns");
  core::parallel_for(0, items, grain_for(items, work_per_item), fn);
}

std::int64_t chunk_count(std::int64_t items, std::int64_t work_per_item) {
  if (items <= 0) return 0;
  if (below_threshold(items, work_per_item)) return 1;
  const std::int64_t grain = grain_for(items, work_per_item);
  return (items + grain - 1) / grain;
}

std::int64_t chunk_index(std::int64_t items, std::int64_t work_per_item,
                         std::int64_t begin) {
  if (below_threshold(items, work_per_item)) return 0;
  return begin / grain_for(items, work_per_item);
}

}  // namespace cppflare::tensor::backend
