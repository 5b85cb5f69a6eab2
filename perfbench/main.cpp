// mfcp_perfbench: the compiled half of the platform benchmark. run.py
// builds it and calls one subcommand per process:
//
//   replay --seed N --seconds S --trace 0|1 --out FILE
//       replay_drift: OnlineEngine::run() on seeded streams (replay.cpp)
//   serve  --data-dir DIR --trace 0|1 --out FILE
//       the served stack under test (serve.cpp)
//   load   --port P --schedule FILE --trace 0|1 --out FILE
//       the open-loop generator that drives it (load.cpp)
//
// Each writes raw samples to FILE; run.py computes and checks metrics.
#include <cstdio>
#include <cstring>
#include <exception>

#include "common.hpp"

namespace perfbench {
int run_replay(const Args& args);
int run_serve(const Args& args);
int run_load(const Args& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s replay|serve|load [--flag value]...\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Args args(argc - 1, argv + 1);
  try {
    if (std::strcmp(argv[1], "replay") == 0) {
      return perfbench::run_replay(args);
    }
    if (std::strcmp(argv[1], "serve") == 0) {
      return perfbench::run_serve(args);
    }
    if (std::strcmp(argv[1], "load") == 0) {
      return perfbench::run_load(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s %s: %s\n", argv[0], argv[1], e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand %s\n", argv[1]);
  return 2;
}
