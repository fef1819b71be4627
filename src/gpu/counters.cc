#include "gpu/counters.h"

namespace rj::gpu {

void Counters::Reset() {
#define RJ_COUNTER_RESET(field, suffix, label) field##_ = 0;
  RJ_DEVICE_COUNTERS(RJ_COUNTER_RESET)
#undef RJ_COUNTER_RESET
}

CountersSnapshot Counters::Snapshot() const {
  CountersSnapshot s;
#define RJ_COUNTER_SNAPSHOT(field, suffix, label) s.field = field();
  RJ_DEVICE_COUNTERS(RJ_COUNTER_SNAPSHOT)
#undef RJ_COUNTER_SNAPSHOT
  return s;
}

std::string Counters::ToString() const {
  std::string out;
#define RJ_COUNTER_TO_STRING(field, suffix, label)         \
  out += (out.empty() ? "" : " ") + std::string(label) + \
         "=" + std::to_string(field());
  RJ_DEVICE_COUNTERS(RJ_COUNTER_TO_STRING)
#undef RJ_COUNTER_TO_STRING
  return out;
}

}  // namespace rj::gpu
