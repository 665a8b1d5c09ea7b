// Byte-for-byte comparison against a fixture in tests/golden/. Regenerate
// deliberately with GRIDBOX_REGEN_GOLDEN=1 (the test then writes the
// fixture and skips).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace gridbox::testing {

inline void check_against_golden(const std::string& name,
                                 const std::string& got) {
  const std::string path =
      std::string(GRIDBOX_TEST_DATA_DIR) + "/golden/" + name;
  if (std::getenv("GRIDBOX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with GRIDBOX_REGEN_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  if (got != want.str()) {
    const std::string& w = want.str();
    std::size_t i = 0;
    while (i < got.size() && i < w.size() && got[i] == w[i]) ++i;
    std::size_t line = 1;
    for (std::size_t j = 0; j < i; ++j) {
      if (w[j] == '\n') ++line;
    }
    FAIL() << name << ": output drifted from golden fixture at line " << line
           << " (byte " << i << " of " << w.size()
           << "). If the change is intentional, regenerate with "
              "GRIDBOX_REGEN_GOLDEN=1.";
  }
}

}  // namespace gridbox::testing
