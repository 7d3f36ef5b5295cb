#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/dispatch.h"
#include "layers.h"
#include "obs/telemetry.h"
#include "util/json.h"

namespace perfbench {

using namespace alphaevolve;

void Check(Outcome& out, bool ok, const std::string& what) {
  if (ok) return;
  out.correct = false;
  if (out.errors.size() < 20) out.errors.push_back(what);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  // VmHWM belongs to this program's address space. ru_maxrss would not do:
  // Linux carries it over exec, so it reports the launcher's peak whenever
  // that is the larger one.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void BeginTracing() {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.tracing = true;
  cfg.trace_ring_capacity = 1 << 18;
  obs::Configure(cfg);
  ResetTelemetry();
}

void EndTracing() { obs::Configure(obs::TelemetryConfig{}); }

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string StampJson() {
  JsonWriter w;
  w.BeginObject();
  w.Key("nproc").Value(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.Key("cpu_model").Value(CpuModel());
  w.Key("kernel_variant").Value(core::ResolveKernelTable("").name);
  w.Key("compiled_variants").BeginArray();
  for (core::KernelVariant v : core::CompiledKernelVariants()) {
    w.Value(core::KernelVariantName(v));
  }
  w.EndArray();
  w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w.Key("compiler").Value(PERFBENCH_COMPILER);
  w.Key("cxx_flags").Value(PERFBENCH_CXX_FLAGS);
  w.EndObject();
  return w.TakeString();
}

namespace {

void AppendMetric(std::string& s, const std::string& name, double value,
                  const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  if (s.back() != '{') s += ", ";
  s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
       "\"}";
}

}  // namespace

void PrintResult(const Args& args, const Outcome& out) {
  bool correct = out.correct;
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("stamp: %s\n", StampJson().c_str());
  std::string metrics = "{";
  if (!args.trace) {
    for (const Metric& m : out.end_to_end) {
      std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (!std::isfinite(m.value)) correct = false;
      AppendMetric(metrics, m.name, std::isfinite(m.value) ? m.value : 0.0,
                   m.unit);
    }
    for (const Metric& m : out.workload) {
      std::printf("  %-22s %14.6g %s  (workload metric, not gated)\n",
                  m.name.c_str(), m.value, m.unit.c_str());
    }
  } else {
    for (const std::string& line : out.account) {
      std::printf("%s\n", line.c_str());
    }
    for (const LayerDef& d : LayerTable()) {
      const auto it = out.layers.find(d.name);
      const double v = it == out.layers.end() ? 0.0 : it->second;
      std::printf("  %-34s %14.6g %s\n", d.name, v, d.unit);
      if (!std::isfinite(v)) correct = false;
      AppendMetric(metrics, d.name, std::isfinite(v) ? v : 0.0, d.unit);
    }
    JsonWriter account;
    account.BeginArray();
    for (const std::string& line : out.account) account.Value(line);
    account.EndArray();
    JsonWriter head;
    head.BeginObject();
    head.Key("workload").Value(args.workload);
    head.Key("seed").Value(static_cast<uint64_t>(args.seed));
    head.EndObject();
    std::string doc = head.TakeString();
    doc.pop_back();  // reopen the object to splice in pre-rendered parts
    doc += ",\"stamp\":" + StampJson() + ",\"layers\":" + metrics + "}" +
           ",\"account\":" + account.TakeString() + "}";
    std::filesystem::create_directories(kOutDir);
    const std::string path = std::string(kOutDir) + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    std::ofstream(path) << doc << "\n";
    std::printf("per-layer metrics written to %s\n", path.c_str());
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": 0, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(out.attempted),
      metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
