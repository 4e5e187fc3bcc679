// CliOptions: flag parsing, strict numeric flags, and tolerant env parsing
// (the bench/common.cpp DFSIM_WARMUP/DFSIM_MEASURE fix).
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"

int main() {
  using namespace dfsim;

  {
    const char* argv[] = {"prog", "--scale=tiny", "--csv", "--warmup=500",
                          "--load=0.35", "positional", "--warmup=800"};
    CliOptions cli(7, const_cast<char**>(argv));
    assert(cli.has("scale"));
    assert(cli.get("scale") == "tiny");
    assert(cli.has("csv"));
    assert(cli.get("csv").empty());
    assert(cli.get_int("warmup", 0) == 800);  // last occurrence wins
    assert(cli.get_double("load", 0.0) == 0.35);
    assert(!cli.has("measure"));
    assert(cli.get_int("measure", 123) == 123);
    assert(cli.get("missing", "fallback") == "fallback");
    assert(cli.positional().size() == 1);
    assert(cli.positional()[0] == "positional");
  }

  // Garbage numeric flag values throw, naming the flag.
  {
    const char* argv[] = {"prog", "--warmup=banana", "--load=1.5x"};
    CliOptions cli(3, const_cast<char**>(argv));
    const auto message = [](const auto& lookup) {
      try {
        (void)lookup();
      } catch (const std::invalid_argument& e) {
        return std::string(e.what());
      }
      return std::string("no throw");
    };
    assert(message([&] { return cli.get_int("warmup", 42); }) ==
           "--warmup=banana is not an integer");
    assert(message([&] { return cli.get_double("load", 0.5); }) ==
           "--load=1.5x is not a number");
    assert(message([] { return CliOptions::to_double("loads", "abc"); }) ==
           "--loads=abc is not a number");
  }

  // parse_int/parse_double cover the env paths, which stay tolerant.
  assert(CliOptions::parse_int("", 7) == 7);
  assert(CliOptions::parse_int("  ", 7) == 7);
  assert(CliOptions::parse_int("1000", 7) == 1000);
  assert(CliOptions::parse_int("10garbage", 7) == 7);
  assert(CliOptions::parse_int("-250", 7) == -250);
  assert(CliOptions::parse_double("0.25", 1.0) == 0.25);
  assert(CliOptions::parse_double("nope", 1.0) == 1.0);

  // env / env_int: unset, valid, and garbage values.
  unsetenv("DFSIM_TEST_VAR");
  assert(CliOptions::env("DFSIM_TEST_VAR", "dflt") == "dflt");
  assert(CliOptions::env_int("DFSIM_TEST_VAR", 99) == 99);
  setenv("DFSIM_TEST_VAR", "1234", 1);
  assert(CliOptions::env("DFSIM_TEST_VAR", "dflt") == "1234");
  assert(CliOptions::env_int("DFSIM_TEST_VAR", 99) == 1234);
  setenv("DFSIM_TEST_VAR", "not-a-number", 1);
  assert(CliOptions::env_int("DFSIM_TEST_VAR", 99) == 99);
  unsetenv("DFSIM_TEST_VAR");

  return EXIT_SUCCESS;
}
