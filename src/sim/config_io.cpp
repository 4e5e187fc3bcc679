#include "sim/config_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/param_list.hpp"

namespace dfsim {

namespace {

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

void parse_enum(const std::string& text, TopologyKind& out) {
  out = topology_kind_from_string(text);
}
void parse_enum(const std::string& text, RoutingKind& out) {
  out = routing_kind_from_string(text);
}
void parse_enum(const std::string& text, GlobalMisroutePolicy& out) {
  out = global_policy_from_string(text);
}
void parse_enum(const std::string& text, TrafficKind& out) {
  out = traffic_kind_from_string(text);
}
void parse_enum(const std::string& text, InjectionProcess& out) {
  out = injection_process_from_string(text);
}

/// Parses all of `text` as T.
template <class T>
void parse_value(const std::string& key, const std::string& text, T& out) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  if constexpr (std::is_same_v<T, bool>) {
    if (text == "true" || text == "1" || text == "yes" || text == "on") {
      out = true;
    } else if (text == "false" || text == "0" || text == "no" ||
               text == "off") {
      out = false;
    } else {
      throw std::invalid_argument(key + " needs true|false, got '" + text +
                                  "'");
    }
  } else if constexpr (std::is_arithmetic_v<T>) {
    T v{};
    const auto res = std::from_chars(first, last, v);
    if (res.ec != std::errc{} || res.ptr != last ||
        !std::isfinite(static_cast<double>(v))) {
      std::ostringstream what;
      what << key << " needs ";
      if constexpr (std::is_integral_v<T>) {
        what << "an integer in [" << +std::numeric_limits<T>::min() << ", "
             << +std::numeric_limits<T>::max() << "]";
      } else {
        what << "a finite number";
      }
      what << ", got '" << text << "'";
      throw std::invalid_argument(what.str());
    }
    out = v;
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else {
    try {
      parse_enum(text, out);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(key + ": " + e.what());
    }
  }
}

template <class T>
void check_rule(std::string_view key, const T& v, const Rule& rule) {
  const auto fail = [key](const auto&... parts) {
    std::ostringstream what;
    (what << key << ... << parts);
    throw std::invalid_argument(what.str());
  };
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    const auto x = static_cast<double>(v);
    if (!std::isfinite(x)) fail(" must be finite");
    if (x < rule.lo) fail(" must be >= ", rule.lo);
    if (x > rule.hi) fail(" must be <= ", rule.hi);
  } else if constexpr (std::is_same_v<T, std::string>) {
    const std::string spellings = std::string("|").append(rule.one_of) + '|';
    if (!rule.one_of.empty() &&
        spellings.find(std::string("|").append(v) + '|') == std::string::npos) {
      fail(" must be one of ", rule.one_of, ", got '", v, "'");
    }
  }
}

}  // namespace

void apply_param(SimParams& p, const std::string& key,
                 const std::string& value) {
  bool found = false;
  visit_params(p, [&](std::string_view name, auto& field, const Rule& rule,
                      bool) {
    if (found || name != key) return;
    found = true;
    auto parsed = field;  // a refused value leaves the field untouched
    parse_value(key, value, parsed);
    check_rule(name, parsed, rule);
    field = std::move(parsed);
    // A trace path selects trace replay.
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 std::string>) {
      if (&field == &p.traffic.trace_path) p.traffic.kind = TrafficKind::kTrace;
    }
  });
  if (!found) throw std::invalid_argument("config: unknown key '" + key + "'");
}

void validate(const SimParams& p) {
  visit_params(p, [](std::string_view key, const auto& field,
                     const Rule& rule, bool) { check_rule(key, field, rule); });
  for (const std::int32_t* buf :
       {&p.router.buf_local_phits, &p.router.buf_global_phits}) {
    if (*buf < p.packet_size_phits) {
      throw std::invalid_argument(
          std::string(param_key(p, *buf)) + " must be >= " +
          std::to_string(p.packet_size_phits) + " (" +
          std::string(param_key(p, p.packet_size_phits)) +
          ": a buffer holds at least one packet)");
    }
  }
}

std::vector<std::pair<std::string, std::string>> read_params_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::vector<std::pair<std::string, std::string>> assignments;
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config: expected key = value, got '" +
                                  line + "'");
    }
    std::string key = trim(line.substr(0, eq));
    if (!section.empty() && key.find('.') == std::string::npos) {
      key = section + "." + key;
    }
    assignments.emplace_back(std::move(key), trim(line.substr(eq + 1)));
  }
  return assignments;
}

}  // namespace dfsim
