/// \file twitter_generator.h
/// \brief Synthetic geo-tagged-Twitter-like point data set over a
/// continental-US-scale extent (stands in for the real tweets).
///
/// Reproduces the relevant property of the real 2.29B-tweet feed: "a
/// denser concentration of tweets around large cities" (§7.1), with a
/// long-tailed mixture of city-centred Gaussians plus sparse rural
/// background, and favorite/retweet-count attributes.
#pragma once

#include <cstdint>

#include "data/point_table.h"
#include "geometry/bbox.h"

namespace rj {

/// US-scale extent in meters (~4500 km × 2800 km planar frame).
BBox UsExtentMeters();

struct TwitterGeneratorOptions {
  std::uint64_t seed = 20150601;
  /// Number of synthetic "cities" (Gaussian mixture components).
  std::size_t num_cities = 60;
  double city_fraction = 0.9;
};

enum TwitterColumn : std::size_t {
  kTweetFavorites = 0,
  kTweetRetweets = 1,
  kTweetHour = 2,
};

/// Generates `n` tweet-like points inside UsExtentMeters().
PointTable GenerateTwitterPoints(std::size_t n,
                                 const TwitterGeneratorOptions& options = {});

}  // namespace rj
