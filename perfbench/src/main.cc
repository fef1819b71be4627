/// \file main.cc
/// \brief Entry point of the repository benchmark program.
///
///   perfbench --workload explore_http|exact_sharded|disk_zoom --seed <n>
///             --seconds <s> --trace 0|1 [--work-dir <dir>] [--commit <id>]
///             [--scale <f>] [--corrupt-expected]
///
/// Prints run facts and every metric by name with its unit, then, as the
/// last line, one JSON object {"correct","attempted","failed","metrics"}.
/// Exits non-zero when any response diverges from its reference or the
/// run cannot be set up. perfbench/run.py builds this and forwards to it.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload explore_http|exact_sharded|disk_zoom "
               "--seed <n> --seconds <s> --trace 0|1 [--work-dir <dir>] "
               "[--commit <id>] [--scale <f>] [--corrupt-expected]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      options.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) {
        return Usage(argv[0]);
      }
    } else if (flag == "--scale") {
      options.scale = std::strtod(value, &end);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return Usage(argv[0]);
  }
  if (!have_seed || !(options.seconds > 0.0) || !(options.scale > 0.0)) {
    return Usage(argv[0]);
  }

  std::unique_ptr<perfbench::Workload> workload;
  if (options.workload == "explore_http") {
    workload = perfbench::MakeExploreHttp();
  } else if (options.workload == "exact_sharded") {
    workload = perfbench::MakeExactSharded();
  } else if (options.workload == "disk_zoom") {
    workload = perfbench::MakeDiskZoom();
  } else {
    return Usage(argv[0]);
  }
  if (::mkdir(options.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }
  return perfbench::RunWorkload(workload.get(), options);
}
