#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace dfbench {

void Outcome::metric(const std::string& name, double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, std::move(m));
}

bool Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
  return ok;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[rank == 0 ? 0 : rank - 1];
}

double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

Json build_manifest() {
  Json m = Json::object();
  m.set("compiler", DFBENCH_COMPILER);
  m.set("build_type", DFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  m.set("optimized", true);
#else
  m.set("optimized", false);
#endif
#ifdef NDEBUG
  m.set("asserts", false);
#else
  m.set("asserts", true);
#endif
  return m;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

}  // namespace dfbench
