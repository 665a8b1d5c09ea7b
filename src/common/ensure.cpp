#include "src/common/ensure.h"

#include <string_view>

// The throw paths live out of line so the inline checks compile down to a
// compare + predicted-not-taken branch; the cold path builds the decorated
// message only when a contract actually fails.

// GRIDBOX_SOURCE_ROOT ("<source dir>/") is injected by src/CMakeLists.txt on
// this one translation unit.
#ifndef GRIDBOX_SOURCE_ROOT
#define GRIDBOX_SOURCE_ROOT ""
#endif

namespace gridbox {
namespace {

std::string contract_message(const char* kind, const char* what,
                             std::source_location loc) {
  std::string_view file = loc.file_name();
  const std::string_view root = GRIDBOX_SOURCE_ROOT;
  if (file.starts_with(root)) file.remove_prefix(root.size());
  return std::string(file) + ":" + std::to_string(loc.line()) + ": " + kind +
         " failed: " + what;
}

}  // namespace

void detail_throw_precondition(const char* what, std::source_location loc) {
  throw PreconditionError(contract_message("precondition", what, loc));
}

void detail_throw_invariant(const char* what, std::source_location loc) {
  throw InvariantError(contract_message("invariant", what, loc));
}

}  // namespace gridbox
