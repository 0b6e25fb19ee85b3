// skybench — the SkyDiver benchmark program.
//
//   skybench --workload oneshot_if|oneshot_ib_disk|serve_mixed
//            --seed N --seconds S --trace 0|1 [--smoke]
//            [--workdir DIR] [--trace-out FILE]
//
// Prints one provenance line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones of the
// layers the workload runs, plus an "idle" list naming the per-layer
// metrics of the layers it does not run. perfbench/run.py builds this
// program, reports the idle metrics as 0 with their units from
// BENCHMARK.json, and is the usual way to run it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/binio.h"
#include "common/cpu.h"

namespace skybench {

void Outcome::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "skybench: check failed: %s\n", why.c_str());
}

double WallSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Digest(std::span<const skydiver::RowId> skyline,
                std::span<const skydiver::RowId> selected) {
  skydiver::Fnv1a hash;
  for (std::span<const skydiver::RowId> rows : {skyline, selected}) {
    const uint64_t size = rows.size();
    hash.Update(&size, sizeof(size));
    hash.Update(rows.data(), rows.size_bytes());
  }
  return hash.digest();
}

Trace::Scope::Scope(Trace& trace, const char* name, uint64_t op)
    : trace_(trace), id_(trace.Open(name, op)) {}

Trace::Scope::~Scope() { trace_.Close(id_); }

int Trace::Open(const char* name, uint64_t op) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start = WallSeconds();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Trace::Close(int id) {
  spans_[static_cast<size_t>(id)].end = WallSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

size_t Trace::SubtreeEnd(int id) const {
  // One thread records the spans in start order, so every span opened while
  // `id` was open follows it contiguously.
  size_t i = static_cast<size_t>(id) + 1;
  while (i < spans_.size() && spans_[i].start < span(id).end) ++i;
  return i;
}

double Trace::ChildSeconds(int id) const {
  double covered = 0.0;
  for (size_t i = static_cast<size_t>(id) + 1, end = SubtreeEnd(id); i < end; ++i) {
    if (spans_[i].parent == id) covered += spans_[i].seconds();
  }
  return covered;
}

double Trace::SelfSeconds(int id) const { return span(id).seconds() - ChildSeconds(id); }

double Trace::SelfSecondsIn(int root, std::string_view name) const {
  double total = 0.0;
  for (size_t i = static_cast<size_t>(root), end = SubtreeEnd(root); i < end; ++i) {
    if (spans_[i].name == name) total += SelfSeconds(static_cast<int>(i));
  }
  return total;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %" PRIu64
                 ", \"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, s.op, s.parent, (s.start - origin) * 1e6,
                 (s.end - origin) * 1e6);
  }
  return std::fclose(f) == 0;
}

double CheckSpanCoverage(const Trace& trace, double min_seconds) {
  double op_s = 0.0, covered_s = 0.0;
  size_t ops = 0, thin = 0;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const Trace::Span& span = trace.spans()[i];
    if (span.parent != -1 || std::string_view(span.name) != "op") continue;
    if (span.seconds() < min_seconds) continue;
    const double children = trace.ChildSeconds(static_cast<int>(i));
    op_s += span.seconds();
    covered_s += children;
    ++ops;
    if (children < 0.9 * span.seconds()) ++thin;
  }
  const double coverage = op_s > 0.0 ? covered_s / op_s : 1.0;
  if (coverage < 0.9 || thin * 100 > ops) {
    throw std::runtime_error("spans cover too little of the traced operations (" +
                             std::to_string(coverage * 100.0) + "% overall, " +
                             std::to_string(thin) + " of " + std::to_string(ops) +
                             " operations under 90%)");
  }
  return coverage;
}

void LogSetups(const std::vector<double>& seconds) {
  std::fprintf(stderr, "skybench: set-ups (s):");
  for (double t : seconds) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "skybench: %s\nusage: skybench --workload oneshot_if|oneshot_ib_disk|"
               "serve_mixed --seed N --seconds S --trace 0|1 [--smoke] "
               "[--workdir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

void PrintNumber(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::printf("%.0f", v);
  } else {
    std::printf("%.17g", v);
  }
}

void PrintProvenance(const Args& args) {
  const char* sha = std::getenv("SKYBENCH_GIT_SHA");
  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", \"kernel\": \"%s\", "
      "\"isa\": \"%s\", \"nproc\": %ld, \"seed\": %" PRIu64
      ", \"workload\": \"%s\", \"seconds\": %g, \"trace\": %d, \"smoke\": %d}}\n",
      sha != nullptr ? sha : "unknown", SKYBENCH_BUILD_TYPE,
      skydiver::SimdAvailable() ? "simd" : "tiled",
      skydiver::ToString(skydiver::DetectSimdIsa()), sysconf(_SC_NPROCESSORS_ONLN),
      args.seed, args.workload.c_str(), args.seconds, args.trace ? 1 : 0,
      args.smoke ? 1 : 0);
}

void PrintResult(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}");
  if (!out.idle.empty()) {
    std::printf(", \"idle\": [");
    for (size_t i = 0; i < out.idle.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", out.idle[i].c_str());
    }
    std::printf("]");
  }
  std::printf("}\n");
}

}  // namespace

}  // namespace skybench

int main(int argc, char** argv) {
  using namespace skybench;
  const Args args = ParseArgs(argc, argv);
  PrintProvenance(args);
  std::fflush(stdout);
  Outcome out;
  try {
    if (args.workload == "oneshot_if") {
      out = RunOneshot(args, /*disk=*/false);
    } else if (args.workload == "oneshot_ib_disk") {
      out = RunOneshot(args, /*disk=*/true);
    } else if (args.workload == "serve_mixed") {
      out = RunServeMixed(args);
    } else {
      Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skybench: %s\n", e.what());
    return 1;
  }
  PrintResult(out);
  return 0;
}
