// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Workloads: serve_open_loop, explain_fig6, train_fold (see README.md).
// Progress goes to stderr; the last line of stdout is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Every workload prints the
// same metrics: with --trace 0 the end-to-end metrics (`setup_s` and
// `op.p50_ms`); with --trace 1 the per-layer metrics of the shared probes
// and the tracing overhead on each end-to-end metric, and the spans are
// written to DIR/<workload>-<seed>.jsonl.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_open_loop|explain_fig6|train_fold --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

std::string Json(const Outcome& out) {
  std::string s = std::string("{\"correct\": ") +
                  (out.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out.metrics[i].value);
    s += (i ? ", \"" : "\"") + out.metrics[i].name + "\": {\"value\": " +
         value + ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  return s + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
      have_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  Tracer tracer(false);
  Outcome out;
  if (args.workload == "serve_open_loop") {
    out = RunServeOpenLoop(args, &tracer);
  } else if (args.workload == "explain_fig6") {
    out = RunExplainFig6(args, &tracer);
  } else if (args.workload == "train_fold") {
    out = RunTrainFold(args, &tracer);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.Fail("metric " + m.name + " is not finite");
  }
  if (out.attempted < 1) out.Fail("no op attempted");
  if (args.trace &&
      !tracer.Write(args.trace_dir + "/" + args.workload + "-" +
                    std::to_string(args.seed) + ".jsonl")) {
    out.Fail("could not write the trace");
  }
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) m.value = -1.0;  // Keep the JSON valid.
  }
  std::fflush(stderr);
  std::printf("%s\n", Json(out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
