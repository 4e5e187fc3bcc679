// Seeded CHK-CONFIG violation: `router.undocumented` is declared here but
// not documented in docs/CONFIG.md.
#pragma once

namespace dfsim {

template <class P, class F>
void visit_params(P& p, F&& f) {
  const auto row = [&f](std::string_view key, auto& field, const Rule& rule,
                        bool emit = true) { f(key, field, rule, emit); };
  row("router.vcs", p.router.vcs, at_least(1));
  row("router.undocumented", p.router.undocumented, kAnyValue);  // VIOLATION
}

}  // namespace dfsim
