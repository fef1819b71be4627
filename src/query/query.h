/// \file query.h
/// \brief The join variants a spatial aggregation query can run on.
///
/// The query itself — the paper's template
///   SELECT AGG(a_i) FROM P, R
///   WHERE P.loc INSIDE R.geometry [AND filterCondition]*
///   GROUP BY R.id
/// — is QuerySpec, and SpatialAggQuery pairs it with its ExecPolicy
/// (query/query_spec.h).
#pragma once

#include <string>

namespace rj {

/// Which join operator executes the query.
enum class JoinVariant {
  kBoundedRaster,   ///< §4.2 — approximate, ε-bounded, no PIP tests
  kAccurateRaster,  ///< §4.3 — exact, PIP only on boundary pixels
  kIndexDevice,     ///< §6.2 — device grid-index baseline
  kIndexCpu,        ///< §7.1 — CPU grid-index baseline (1..N threads)
  kAuto,            ///< optimizer picks bounded or accurate (§8)
};

std::string JoinVariantName(JoinVariant variant);

}  // namespace rj
